import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modscramble import (
    IDENTITY,
    IntegerOverflowError,
    InvalidScramblerError,
    KeyFormatError,
    SequenceFamily,
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
    with pytest.raises(KeyFormatError):
        build_map("arnold", {"k": 1})
    with pytest.raises(KeyFormatError):
        build_map("gft", {})
    with pytest.raises(KeyFormatError):
        build_map("raw", {"entries": [1, 2, 3]})
    with pytest.raises(KeyFormatError):
        build_map("gft", {"i": 0})
