import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modscramble import (
    IDENTITY,
    IntegerOverflowError,
    InvalidScramblerError,
    KeyFormatError,
    ParameterOverflowError,
    SequenceFamily,
    SequenceOverflowError,
    build_map,
    determinant,
    inverse_mod,
    make_arnold,
    make_fibonacci_q,
    make_flt,
    make_generalized_arnold,
    make_gft,
    make_raw,
    make_triangular,
    mat_mul_mod,
    power_mod,
    validate,
)

from conftest import SERIES_TERMS

F = SequenceFamily


def test_arnold_entries():
    m = make_arnold()
    assert m.entries == (2, 1, 1, 1)
    assert determinant(m) == 1


def test_arnold_equals_generalized_k1_variant0():
    assert make_arnold().entries == make_generalized_arnold(1, 0).entries


@pytest.mark.parametrize(
    "k,variant,expected",
    [
        (1, 0, (2, 1, 1, 1)),
        (0, 0, (1, 0, 1, 1)),
        (3, 1, (3, 4, 1, 1)),
        # the frozen numbering for all 8 forms at k=3
        (3, 0, (4, 3, 1, 1)),
        (3, 2, (4, 1, 3, 1)),
        (3, 3, (3, 1, 4, 1)),
        (3, 4, (1, 1, 4, 3)),
        (3, 5, (1, 1, 3, 4)),
        (3, 6, (1, 4, 1, 3)),
        (3, 7, (1, 3, 1, 4)),
    ],
)
def test_generalized_arnold_variants(k, variant, expected):
    assert make_generalized_arnold(k, variant).entries == expected


def test_generalized_arnold_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_generalized_arnold(-1, 0)
    with pytest.raises(ValueError):
        make_generalized_arnold(1, 8)


def test_fibonacci_q():
    m = make_fibonacci_q()
    assert m.entries == (1, 1, 1, 0)
    assert determinant(m) == -1


@pytest.mark.parametrize(
    "i,expected",
    [(1, (0, 1, 1, 2)), (2, (1, 1, 2, 3))],
)
def test_gft_small_entries(i, expected):
    assert make_gft(i).entries == expected


def test_gft_matches_reference_terms_for_all_small_indices():
    fib01 = [0] + SERIES_TERMS[F.FIB11]  # F01_n = F11_(n-1) for n >= 2
    for i in range(1, 17):
        want = tuple(fib01[i - 1 + j] for j in range(4))
        assert make_gft(i).entries == want


def test_gft_determinants_are_unimodular():
    for i in range(1, 21):
        assert abs(determinant(make_gft(i))) == 1


@pytest.mark.parametrize(
    "series,i,expected",
    [
        (F.FIB11, 1, (1, 1, 2, 1)),
        (F.FIB11, 6, (8, 13, 11, 18)),
        (F.FIB32, 2, (2, 5, 1, 3)),
    ],
)
def test_flt_entries(series, i, expected):
    assert make_flt(series, i).entries == expected


def test_flt_matches_reference_terms_for_all_small_indices():
    for series in (F.FIB11, F.FIB32, F.FIB31):
        for i in range(1, 17):
            m = make_flt(series, i)
            assert m.entries == (
                SERIES_TERMS[series][i - 1],
                SERIES_TERMS[series][i],
                SERIES_TERMS[F.LUCAS][i - 1],
                SERIES_TERMS[F.LUCAS][i],
            )


def test_flt_series_restricted_to_seeded_fibonacci_variants():
    with pytest.raises(ValueError):
        make_flt(F.LUCAS, 1)
    with pytest.raises(ValueError):
        make_flt(F.FIB01, 1)
    with pytest.raises(ValueError, match="i must be >= 1"):
        make_flt(F.FIB11, 0)


@pytest.mark.parametrize(
    "tag,build,largest",
    [
        ("gft", make_gft, 90),  # term i + 3 of FIB01; its last 64-bit term is 93
        ("f11lt", lambda i: make_flt(F.FIB11, i), 90),  # term i + 1 of LUCAS; last is 91
        ("f32lt", lambda i: make_flt(F.FIB32, i), 89),  # term i + 1 of FIB32; last is 90
        ("f31lt", lambda i: make_flt(F.FIB31, i), 90),  # FIB31 and LUCAS both end at 91
    ],
)
def test_a_parameter_past_64_bit_terms_is_refused_by_name(tag, build, largest):
    assert validate(build(largest), 128).map.params == {"i": largest}
    with pytest.raises(ParameterOverflowError) as err:
        build(largest + 1)
    assert isinstance(err.value, SequenceOverflowError)
    assert err.value.max_index == largest
    assert str(err.value) == (
        f"{tag} i = {largest + 1}: a term exceeds the 64-bit signed range; "
        f"largest accepted i for {tag} is {largest}"
    )


def _recurrence(seeds, count):
    """The first count terms of t(n) = t(n-1) + t(n-2); element j is term j + 1."""
    terms = list(seeds)
    while len(terms) < count:
        terms.append(terms[-1] + terms[-2])
    return terms


#: family: (top seeds, bottom seeds, bottom row starts at term i + this, label stem, constructor)
_SERIES_ROWS = {
    "gft": ((0, 1), (0, 1), 2, "GFT", make_gft),
    "f11lt": ((1, 1), (2, 1), 0, "F(11)LT", lambda i: make_flt(F.FIB11, i)),
    "f32lt": ((3, 2), (2, 1), 0, "F(32)LT", lambda i: make_flt(F.FIB32, i)),
    "f31lt": ((3, 1), (2, 1), 0, "F(31)LT", lambda i: make_flt(F.FIB31, i)),
}

#: family: (label stem, entries of each variant at k, public constructor)
_FORM_ROWS = {
    "gat": ("GAT", lambda k: [
        (k + 1, k, 1, 1), (k, k + 1, 1, 1), (k + 1, 1, k, 1), (k, 1, k + 1, 1),
        (1, 1, k + 1, k), (1, 1, k, k + 1), (1, k + 1, 1, k), (1, k, 1, k + 1),
    ], make_generalized_arnold),
    "triangular": ("TRI", lambda k: [
        (0, 1, 1, k), (k, 1, 1, 0), (1, 0, k, 1), (1, k, 0, 1),
    ], make_triangular),
}


def test_every_family_row_builds_its_documented_entries_label_and_params():
    int64_max = 2**63 - 1
    for family, entries, make in (("arnold", (2, 1, 1, 1), make_arnold),
                                  ("fibonacci-q", (1, 1, 1, 0), make_fibonacci_q)):
        m = build_map(family, {})
        assert (m.entries, m.family, m.params, m.label, m.warning) == (
            entries, family, {}, family, None)
        assert make() == m

    for family, (stem, forms, make) in _FORM_ROWS.items():
        for k in range(41):
            for variant, entries in enumerate(forms(k)):
                params = {"k": k, "variant": variant}
                m = build_map(family, params)
                assert (m.entries, m.family, m.params, m.label, m.warning) == (
                    entries, family, params, f"{stem}(k={k},v{variant})", None)
                assert make(k, variant) == m

    for family, (top, bottom, shift, stem, make) in _SERIES_ROWS.items():
        s, b = _recurrence(top, 100), _recurrence(bottom, 100)
        # the largest i whose four terms all fit in a signed 64-bit integer
        largest = max(i for i in range(1, 97) if max(s[i], b[i + shift]) <= int64_max)
        for i in range(1, largest + 1):
            m = build_map(family, {"i": i})
            entries = (s[i - 1], s[i], b[i - 1 + shift], b[i + shift])
            assert (m.entries, m.family, m.params, m.label) == (
                entries, family, {"i": i}, f"{stem}_{i}")
            assert (m.warning is not None) == (family == "f11lt" and i == 3)
            assert make(i) == m
        for build in (make, lambda i: build_map(family, {"i": i})):
            with pytest.raises(ParameterOverflowError) as err:
                build(largest + 1)
            assert (err.value.family_name, err.value.n, err.value.max_index) == (
                family, largest + 1, largest)


def test_flt_index_3_carries_a_warning_not_an_error():
    flagged = make_flt(F.FIB11, 3)
    assert flagged.entries == (2, 3, 3, 4)
    assert flagged.warning is not None
    assert make_flt(F.FIB11, 4).warning is None
    assert make_flt(F.FIB32, 3).warning is None


def test_determinant_alternates_for_the_11_seeded_lucas_pairing():
    for k in range(4, 21):
        assert determinant(make_flt(F.FIB11, k)) == (-1) ** k
    # below the claimed range the values are still unimodular; record only that
    assert [determinant(make_flt(F.FIB11, k)) for k in (1, 2, 3)] == [-1, 1, -1]


def test_determinant_examples():
    assert determinant(make_flt(F.FIB11, 6)) == 8 * 18 - 13 * 11 == 1
    assert determinant(make_flt(F.FIB11, 5)) == -1
    assert determinant(make_raw(1, 0, 0, 1)) == 1


def test_determinant_overflow_guard():
    big = 2**62
    with pytest.raises(IntegerOverflowError):
        determinant(make_raw(big, 1, 1, big))


@pytest.mark.parametrize(
    "k,variant,expected",
    [
        (2, 0, (0, 1, 1, 2)),
        (0, 0, (0, 1, 1, 0)),
        (2, 1, (2, 1, 1, 0)),
        (2, 2, (1, 0, 2, 1)),
        (2, 3, (1, 2, 0, 1)),
    ],
)
def test_triangular_variants(k, variant, expected):
    assert make_triangular(k, variant).entries == expected


def test_triangular_rejects_bad_arguments():
    with pytest.raises(ValueError, match="k must be >= 0"):
        make_triangular(-1, 0)
    with pytest.raises(ValueError, match="variant must be 0..3"):
        make_triangular(1, 4)


def test_triangular_variant0_determinant_is_minus_one():
    for k in range(0, 9):
        assert determinant(make_triangular(k, 0)) == -1


def test_raw_map_behaves_like_its_entries():
    raw = make_raw(2, 1, 1, 1)
    assert raw.entries == make_arnold().entries
    assert validate(raw, 17).reduced == validate(make_arnold(), 17).reduced


def test_validate_accepts_arnold_everywhere():
    vm = validate(make_arnold(), 128)
    assert vm.det_mod == 1
    assert vm.reduced == (2, 1, 1, 1)


def test_validate_rejects_noninvertible_maps():
    with pytest.raises(InvalidScramblerError) as err:
        validate(make_raw(2, 0, 0, 2), 4)
    assert err.value.det_mod == 0
    assert err.value.gcd == 4

    # det 2 shares a factor with 128: not a bijection there
    with pytest.raises(InvalidScramblerError) as err:
        validate(make_raw(1, 1, 1, 3), 128)
    assert err.value.gcd == 2


def test_validate_modulus_precondition():
    with pytest.raises(ValueError):
        validate(make_arnold(), 1)


def test_every_family_map_is_unimodular_hence_valid_everywhere():
    maps = [make_arnold(), make_fibonacci_q()]
    maps += [make_gft(i) for i in range(1, 9)]
    maps += [make_generalized_arnold(k, v) for k in range(0, 5) for v in range(8)]
    maps += [make_triangular(k, v) for k in range(0, 5) for v in range(4)]
    maps += [make_flt(s, i) for s in (F.FIB11, F.FIB32, F.FIB31) for i in range(1, 9)]
    for m in maps:
        assert abs(determinant(m)) == 1
        for n in range(2, 40):
            validate(m, n)


def test_inverse_of_the_printed_key_map():
    vm = validate(make_flt(F.FIB11, 6), 128)
    inv = inverse_mod(vm)
    assert inv.reduced == (18, 115, 117, 8)
    # same residues as the exact integer inverse with negative entries
    assert validate(make_raw(18, -13, -11, 8), 128).reduced == inv.reduced


def test_inverse_of_identity():
    vm = validate(make_raw(1, 0, 0, 1), 11)
    assert inverse_mod(vm).reduced == IDENTITY


def test_inverse_composes_to_identity_and_is_an_involution():
    import random

    rng = random.Random(2024)
    n = 128
    checked = 0
    while checked < 100:
        entries = tuple(rng.randrange(-200, 200) for _ in range(4))
        try:
            vm = validate(make_raw(*entries), n)
        except InvalidScramblerError:
            continue
        inv = inverse_mod(vm)
        assert mat_mul_mod(vm.reduced, inv.reduced, n) == IDENTITY
        assert mat_mul_mod(inv.reduced, vm.reduced, n) == IDENTITY
        assert inverse_mod(inv).reduced == vm.reduced
        checked += 1


def test_power_zero_is_identity():
    vm = validate(make_flt(F.FIB32, 5), 64)
    assert power_mod(vm, 0) == IDENTITY


def test_arnold_power_four_mod_3_is_identity_and_minimal():
    vm = validate(make_arnold(), 3)
    assert power_mod(vm, 4) == IDENTITY
    assert all(power_mod(vm, q) != IDENTITY for q in range(1, 4))


def test_arnold_power_96_mod_128_is_identity_and_minimal():
    vm = validate(make_arnold(), 128)
    assert power_mod(vm, 96) == IDENTITY
    assert all(power_mod(vm, q) != IDENTITY for q in range(1, 96))


@given(
    entries=st.tuples(*[st.integers(min_value=-30, max_value=30)] * 4),
    n=st.integers(min_value=2, max_value=60),
    a=st.integers(min_value=0, max_value=500),
    b=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=150)
def test_power_is_additive_in_the_exponent(entries, n, a, b):
    m = make_raw(*entries)
    det_mod = (entries[0] * entries[3] - entries[1] * entries[2]) % n
    if math.gcd(det_mod, n) != 1:
        with pytest.raises(InvalidScramblerError):
            validate(m, n)
        return
    vm = validate(m, n)
    assert power_mod(vm, a + b) == mat_mul_mod(power_mod(vm, a), power_mod(vm, b), n)


def test_power_rejects_negative_exponent():
    vm = validate(make_arnold(), 5)
    with pytest.raises(ValueError):
        power_mod(vm, -1)


@pytest.mark.parametrize(
    "family,params",
    [
        ("arnold", {}),
        ("fibonacci-q", {}),
        ("gat", {"k": 3, "variant": 5}),
        ("gft", {"i": 4}),
        ("f11lt", {"i": 6}),
        ("f32lt", {"i": 2}),
        ("f31lt", {"i": 7}),
        ("triangular", {"k": 2, "variant": 3}),
        ("raw", {"entries": [18, -13, -11, 8]}),
    ],
)
def test_build_map_registry_round_trips(family, params):
    m = build_map(family, params)
    assert m.family == family
    rebuilt = build_map(m.family, dict(m.params))
    assert rebuilt.entries == m.entries
    assert rebuilt.label == m.label


def test_build_map_rejects_unknown_families_and_parameters():
    with pytest.raises(KeyFormatError):
        build_map("rot13", {})
    for family in (["gft"], {"i": 1}, 5, None):  # a key file's family may be any JSON value
        with pytest.raises(KeyFormatError, match="unknown map family"):
            build_map(family, {})
    with pytest.raises(KeyFormatError):
        build_map("arnold", {"k": 1})
    with pytest.raises(KeyFormatError):
        build_map("gft", {})
    with pytest.raises(KeyFormatError):
        build_map("raw", {"entries": [1, 2, 3]})
    with pytest.raises(KeyFormatError):
        build_map("gft", {"i": 0})
