import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modscramble import KeyFormatError, ModScrambleError, ScrambleKey, SequenceFamily, build_map
from modscramble.cli import main
from modscramble.keyfile import (
    KEY_VERSION,
    dumps_key,
    key_from_dict,
    key_to_dict,
    loads_key,
    read_key_file,
)

F = SequenceFamily


def make_key(family, params, n=128, iterations=20):
    return ScrambleKey(build_map(family, params), n, iterations)


@pytest.mark.parametrize(
    "family,params",
    [
        ("arnold", {}),
        ("gat", {"k": 2, "variant": 6}),
        ("fibonacci-q", {}),
        ("gft", {"i": 5}),
        ("f11lt", {"i": 6}),
        ("f32lt", {"i": 1}),
        ("f31lt", {"i": 12}),
        ("triangular", {"k": 4, "variant": 2}),
        ("raw", {"entries": [18, -13, -11, 8]}),
    ],
)
def test_round_trip_is_lossless(family, params):
    key = make_key(family, params)
    again = loads_key(dumps_key(key))
    assert again == key
    assert again.map.entries == key.map.entries
    assert key_to_dict(again) == key_to_dict(key)


def test_documented_schema_shape():
    doc = key_to_dict(make_key("f11lt", {"i": 6}))
    assert doc == {
        "version": KEY_VERSION,
        "family": "f11lt",
        "params": {"i": 6},
        "n": 128,
        "iterations": 20,
    }


def test_unknown_fields_rejected():
    doc = key_to_dict(make_key("arnold", {}))
    doc["colour"] = "orange"
    with pytest.raises(KeyFormatError) as err:
        key_from_dict(doc)
    assert "colour" in str(err.value)


def test_missing_fields_rejected():
    doc = key_to_dict(make_key("arnold", {}))
    del doc["iterations"]
    with pytest.raises(KeyFormatError):
        key_from_dict(doc)


def test_version_checked():
    doc = key_to_dict(make_key("arnold", {}))
    doc["version"] = 2
    with pytest.raises(KeyFormatError):
        key_from_dict(doc)


@pytest.mark.parametrize(
    "override",
    [
        {"params": {"i": 6.7}},
        {"params": {"i": "6"}},
        {"params": {"i": True}},
        {"params": [6]},
        {"family": "raw", "params": {"entries": [1.9, 1, 1, 2]}},
        {"version": True},
        {"version": 1.0},
    ],
)
def test_non_integer_parameters_are_rejected_not_coerced(override, tmp_path, capsys):
    doc = key_to_dict(make_key("f11lt", {"i": 6}))
    doc.update(override)
    with pytest.raises(KeyFormatError):
        key_from_dict(doc)
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    assert main(["period", "--key", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 0, -4, "128", 3.5, True])
def test_bad_modulus_rejected(n):
    doc = key_to_dict(make_key("arnold", {}))
    doc["n"] = n
    with pytest.raises(KeyFormatError):
        key_from_dict(doc)


@pytest.mark.parametrize("t", [-1, "3", None])
def test_bad_iterations_rejected(t):
    doc = key_to_dict(make_key("arnold", {}))
    doc["iterations"] = t
    with pytest.raises(KeyFormatError):
        key_from_dict(doc)


def test_unknown_params_rejected():
    with pytest.raises(KeyFormatError):
        key_from_dict(
            {"version": 1, "family": "gft", "params": {"i": 2, "spin": 1}, "n": 8, "iterations": 0}
        )


def test_not_json_rejected():
    with pytest.raises(KeyFormatError):
        loads_key("{not json")
    with pytest.raises(KeyFormatError):
        loads_key(json.dumps([1, 2, 3]))


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000,  # nests past the interpreter's recursion limit
        '{"a": ' * 100000,
        json.dumps(key_to_dict(make_key("arnold", {})))[:-1] + ', "x": ' + "9" * 5000 + "}",
    ],
    ids=["deep-array", "deep-object", "long-integer"],
)
def test_unparseable_key_text_is_a_key_format_error(text, tmp_path, capsys):
    with pytest.raises(KeyFormatError):
        loads_key(text)
    path = tmp_path / "k.json"
    path.write_text(text)
    assert main(["period", "--key", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err


def test_a_key_file_that_is_not_utf8_is_a_key_format_error(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_bytes(b'{"version": 1, "family": "\xff"}')
    with pytest.raises(KeyFormatError, match="not UTF-8"):
        read_key_file(path)
    assert main(["period", "--key", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_PARAMS = st.dictionaries(
    st.sampled_from(["i", "k", "variant", "entries", "spin"]),
    st.integers(-3, 100) | st.lists(st.integers(-5, 5), min_size=3, max_size=5) | _JSON,
    max_size=3,
)
_KEY_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "version": st.just(KEY_VERSION) | _JSON,
        "family": st.sampled_from(
            ["arnold", "gat", "fibonacci-q", "gft", "f11lt", "f32lt", "f31lt", "triangular", "raw"]
        ) | _JSON,
        "params": _PARAMS | _JSON,
        "n": st.integers(-3, 300) | _JSON,
        "iterations": st.integers(-3, 300) | _JSON,
        "extra": _JSON,
    },
)


@given(doc=_KEY_DOCS | _JSON, cut=st.integers(0, 8))
@settings(max_examples=50, deadline=None)
def test_loads_key_fuzz_parses_or_raises_a_library_error(doc, cut):
    text = json.dumps(doc)
    for candidate in (text, text[: len(text) - cut]):
        try:
            key = loads_key(candidate)
        except ModScrambleError:
            continue
        assert isinstance(key, ScrambleKey)


def _doc(**fields):
    doc = {"version": 1, "family": "gft", "params": {"i": 5}, "n": 16, "iterations": 3}
    doc.update(fields)
    return doc


HUGE = "x" * 1_000_000


@pytest.mark.parametrize(
    "doc",
    [
        {**_doc(), **{f"extra{i}": 0 for i in range(100_000)}},
        _doc(version=HUGE),
        _doc(family=HUGE),
        _doc(params={"i": HUGE}),
        _doc(params={"i": -(10**4000)}),
        _doc(params={"i": 5, **{f"p{i}": 0 for i in range(100_000)}}),
        _doc(n=HUGE),
        _doc(iterations=HUGE),
    ],
    ids=["fields", "version", "family", "param-value", "param-range", "params", "n", "iterations"],
)
def test_errors_show_a_bounded_part_of_a_huge_value(doc, tmp_path, capsys):
    with pytest.raises(KeyFormatError) as err:
        key_from_dict(doc)
    assert len(str(err.value)) < 300
    (tmp_path / "k.json").write_text(json.dumps(doc))
    rc = main(["period", "--key", str(tmp_path / "k.json")])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert len(out.err.encode()) < 300


@pytest.mark.parametrize(
    "doc,shown",
    [
        (_doc(iterations=-(10**5000)), "<int of 5001 digits>"),
        (_doc(n=-(10**5000)), "<int of 5001 digits>"),
        (_doc(version=10**5000), "<int of 5001 digits>"),
        (_doc(family=10**5000), "<int of 5001 digits>"),
        ({**_doc(), 10**5000: 0}, "<list holding an int past the digit limit>"),
    ],
    ids=["iterations", "n", "version", "family", "field"],
)
def test_an_int_past_the_digit_limit_is_a_key_format_error(doc, shown):
    # JSON cannot carry these (loads_key refuses them); a dict from code can
    with pytest.raises(KeyFormatError) as err:
        key_from_dict(doc)
    message = str(err.value)
    assert "\n" not in message and len(message.encode()) < 300
    assert shown in message


@pytest.mark.parametrize(
    "call,shown",
    [
        (lambda: key_from_dict({**_doc(), 5: 0, "x": 1}), "[5, 'x']"),
        (lambda: build_map("gft", {"i": 1, 5: 0, "y": 2}), "[5, 'y']"),
    ],
    ids=["key-fields", "map-params"],
)
def test_unknown_names_of_mixed_types_are_echoed_in_input_order(call, shown):
    # a dict from code can mix str and int names, which do not sort together
    with pytest.raises(KeyFormatError) as err:
        call()
    message = str(err.value)
    assert "\n" not in message and len(message.encode()) < 300
    assert message.endswith(shown)
