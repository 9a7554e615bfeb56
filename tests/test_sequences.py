import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modscramble import INT64_MAX, SequenceFamily, SequenceOverflowError, max_index, term, term_mod

from conftest import SERIES_TERMS

F = SequenceFamily


def exact_term_unchecked(family, n):
    """Arbitrary-precision oracle: the recurrence with no overflow guard."""
    a, b = family.seeds
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, a + b
    return b


@pytest.mark.parametrize("family,row", SERIES_TERMS.items())
def test_first_18_terms_match_reference_table(family, row):
    assert [term(family, n) for n in range(1, 19)] == row


@pytest.mark.parametrize(
    "family,n,expected",
    [
        (F.FIB11, 5, 5),
        (F.LUCAS, 1, 2),
        (F.FIB32, 7, 31),
        (F.FIB31, 9, 60),
        (F.FIB01, 1, 0),
        (F.FIB01, 2, 1),
    ],
)
def test_term_examples(family, n, expected):
    assert term(family, n) == expected


def test_term_mod_examples():
    assert term_mod(F.FIB11, 18, 10) == 4  # 2584 mod 10
    assert term_mod(F.LUCAS, 3, 3) == 0


def test_term_mod_large_index_against_bigint_oracle():
    assert term_mod(F.FIB31, 200, 128) == exact_term_unchecked(F.FIB31, 200) % 128


@pytest.mark.parametrize(
    "family,expected_max",
    [(F.FIB01, 93), (F.FIB11, 92), (F.FIB32, 90), (F.FIB31, 91), (F.LUCAS, 91)],
)
def test_max_index_is_the_64_bit_boundary(family, expected_max):
    assert max_index(family) == expected_max
    assert exact_term_unchecked(family, expected_max) <= INT64_MAX
    assert exact_term_unchecked(family, expected_max + 1) > INT64_MAX


@pytest.mark.parametrize("family", list(F))
def test_overflow_error_names_the_largest_index(family):
    top = max_index(family)
    assert term(family, top) == exact_term_unchecked(family, top)
    with pytest.raises(SequenceOverflowError) as err:
        term(family, top + 1)
    assert str(top) in str(err.value)
    assert err.value.max_index == top


@pytest.mark.parametrize("family", list(F))
def test_overflow_is_a_builtin_overflow_error(family):
    with pytest.raises(OverflowError):
        term(family, 5000)


def test_preconditions():
    with pytest.raises(ValueError):
        term(F.FIB11, 0)
    with pytest.raises(ValueError):
        term_mod(F.FIB11, 0, 10)
    with pytest.raises(ValueError):
        term_mod(F.FIB11, 3, 1)


@given(family=st.sampled_from(list(F)), n=st.integers(min_value=3, max_value=90))
def test_every_family_satisfies_the_recurrence(family, n):
    assert term(family, n) == term(family, n - 1) + term(family, n - 2)


@given(
    family=st.sampled_from(list(F)),
    n=st.integers(min_value=1, max_value=90),
    m=st.integers(min_value=2, max_value=1000),
)
@settings(max_examples=200)
def test_term_mod_agrees_with_exact_reduction(family, n, m):
    assert term_mod(family, n, m) == term(family, n) % m


@given(n=st.integers(min_value=200, max_value=5000), m=st.integers(min_value=2, max_value=997))
@settings(max_examples=50)
def test_term_mod_handles_indices_far_past_overflow(n, m):
    assert term_mod(F.FIB11, n, m) == exact_term_unchecked(F.FIB11, n) % m


@pytest.mark.parametrize("family", list(F))
def test_term_mod_at_index_ten_to_the_eighteen(family):
    # every series repeats with period 60 mod 10 (the Pisano period of 10)
    for n in range(10**18, 10**18 + 60):
        assert term_mod(family, n, 10) == term(family, (n - 1) % 60 + 1) % 10, n


def test_lucas_fibonacci_sum_identity():
    # L_i = F11_i + F11_(i-2) for i >= 3, through the 64-bit bound
    for i in range(3, max_index(F.LUCAS) + 1):
        assert term(F.LUCAS, i) == term(F.FIB11, i) + term(F.FIB11, i - 2)


def test_seed_pairs():
    assert F.FIB01.seeds == (0, 1)
    assert F.FIB11.seeds == (1, 1)
    assert F.FIB32.seeds == (3, 2)
    assert F.FIB31.seeds == (3, 1)
    assert F.LUCAS.seeds == (2, 1)
