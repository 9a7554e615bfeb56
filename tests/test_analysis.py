import itertools
import json
import math
import time

import numpy as np
import pytest

from modscramble import (
    GridShapeError,
    IntegerOverflowError,
    InvalidScramblerError,
    ScrambleKey,
    SequenceFamily,
    WorkBoundError,
    cyclic_classes,
    enumerate_unimodular,
    equivalence_classes,
    make_fibonacci_q,
    make_flt,
    make_gft,
    make_raw,
    mat_mul_mod,
    orbit_signature,
    period,
    pattern_equivalent,
    period_survey,
    power_mod,
    scramble,
    standard_family_maps,
    validate,
)
from modscramble import analysis
from modscramble import maps as maps_module

from conftest import distinct_rgb, grid, image_path_classes, proper_powers

F = SequenceFamily


# ------------------------------------------------------------------- orbits

def _refuse_orbit_images(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit image was computed")

    monkeypatch.setattr(analysis, "orbit_signature", refuse)
    monkeypatch.setattr(analysis, "scramble", refuse)


def test_gft1_orbit_matches_the_printed_states(reference_a):
    sig = orbit_signature(validate(make_gft(1), 3), reference_a)
    states = [g.pixels.tolist() for g in sig.states]
    assert len(states) == 7  # period 8, final return excluded
    assert states[0] == [[1, 4, 7], [5, 8, 2], [9, 3, 6]]
    assert [[1, 5, 9], [8, 3, 4], [6, 7, 2]] in states


def test_identity_orbit_is_empty(reference_a):
    sig = orbit_signature(validate(make_raw(1, 0, 0, 1), 3), reference_a)
    assert sig.states == ()


def test_period_two_map_has_a_single_state(reference_a):
    sig = orbit_signature(validate(make_flt(F.FIB11, 7), 3), reference_a)
    assert len(sig.states) == 1
    assert sig.states[0].pixels.tolist() == [[1, 3, 2], [4, 6, 5], [7, 9, 8]]


def test_state_count_is_bounded_by_period_minus_one(reference_a):
    for m in standard_family_maps(1, 8):
        vm = validate(m, 3)
        sig = orbit_signature(vm, reference_a)
        p = period(vm)
        assert len(sig.states) == p - 1
        # distinct-valued reference: all intermediate states distinct
        assert len({g.tobytes() for g in sig.states}) == p - 1


def test_repeated_values_can_collapse_the_state_set():
    flat = grid([[7, 7, 7], [7, 7, 7], [7, 7, 7]])
    sig = orbit_signature(validate(make_gft(1), 3), flat)
    assert len(sig.states) == 7
    # every permutation of a constant grid is itself
    assert len({g.tobytes() for g in sig.states}) == 1


def test_an_orbit_above_the_memory_bound_is_refused_before_any_scramble(monkeypatch):
    _refuse_orbit_images(monkeypatch)
    n = 1024
    vm = validate(make_gft(1), n)
    assert period(vm) == n
    size = (n - 1) * n * n  # 1.07 GB of gray states
    with pytest.raises(WorkBoundError, match=f"{size} bytes .* bound of {1 << 28}$"):
        orbit_signature(vm, grid(np.zeros((n, n))))


def test_the_orbit_memory_bound_admits_an_orbit_of_exactly_its_size(monkeypatch):
    n = 16
    vm = validate(make_gft(1), n)
    size = (period(vm) - 1) * n * n
    reference = grid(np.arange(n * n).reshape(n, n))
    monkeypatch.setattr(analysis, "ORBIT_BYTES_BOUND", size)
    assert len(orbit_signature(vm, reference).states) == period(vm) - 1
    monkeypatch.setattr(analysis, "ORBIT_BYTES_BOUND", size - 1)
    with pytest.raises(WorkBoundError, match=f"{size} bytes"):
        orbit_signature(vm, reference)


# ------------------------------------------------------- pattern equivalence

def test_gft1_and_gft5_share_their_scrambling_pattern():
    a = validate(make_gft(1), 3)
    b = validate(make_gft(5), 3)
    assert pattern_equivalent(a, b)


def test_pattern_equivalence_is_reflexive():
    vm = validate(make_gft(2), 3)
    assert pattern_equivalent(vm, vm)


def test_different_periods_mean_different_patterns():
    a = validate(make_gft(1), 3)  # period 8
    b = validate(make_flt(F.FIB11, 7), 3)  # period 2
    assert not pattern_equivalent(a, b)


def test_pattern_equivalence_requires_matching_moduli():
    a = validate(make_gft(1), 3)
    b = validate(make_gft(1), 5)
    with pytest.raises(ValueError):
        pattern_equivalent(a, b)


def test_pattern_equivalence_is_an_equivalence_relation(reference_a):
    for n in (3, 16):
        vms = [validate(m, n) for m in standard_family_maps(1, 8)]
        count = len(vms)
        eq = [[pattern_equivalent(a, b) for b in vms] for a in vms]
        for i in range(count):
            assert eq[i][i]
            for j in range(count):
                assert eq[i][j] == eq[j][i]
                for k in range(count):
                    if eq[i][j] and eq[j][k]:
                        assert eq[i][k]
        assert any(eq[i][j] for i in range(count) for j in range(i))  # not mere equality
        if n == 3:  # the relation is equality of the orbit-state sets on reference A
            states = [{g.tobytes() for g in orbit_signature(vm, reference_a).states}
                      for vm in vms]
            assert eq == [[s == t for t in states] for s in states]


def test_equivalent_maps_reach_every_state_of_each_other(reference_a):
    # exhaustive at N=3: each state of one orbit appears somewhere in the other
    a = validate(make_gft(1), 3)
    b = validate(make_gft(5), 3)
    states_b = {g.tobytes() for g in orbit_signature(b, reference_a).states}
    img = reference_a
    for t in range(1, 8):
        img = scramble(img, ScrambleKey(a.map, 3, 1))
        assert img.tobytes() in states_b


def test_equivalence_classes_report(reference_a):
    maps = standard_family_maps(1, 8)
    report = equivalence_classes(maps, reference_a, 3)
    assert sum(len(c) for c in report.classes) == len(maps)
    by_label = {lbl: frozenset(c) for c in report.classes for lbl in c}
    assert "GFT_5" in by_label["GFT_1"]
    assert by_label["GFT_1"] == by_label["F(32)LT_1"]
    assert "F(11)LT_5" in by_label["F(11)LT_1"]
    # max-period maps never sit alone: each period-8 map shares its class
    for m in maps:
        if period(validate(m, 3)) == 8:
            assert len(by_label[m.label]) > 1, m.label
    flagged = report.flagged
    assert all(len(c) > 1 for c in flagged)
    assert any("GFT_1" in c for c in flagged)
    doc = report.to_json_dict()
    assert {c["flagged"] for c in doc["classes"]} == {True, False}
    text = report.to_text().splitlines()
    assert text[0] == f"{len(maps)} maps, {len(report.classes)} classes at n=3:"
    assert "AVOID" in report.to_text()
    assert text[-2].startswith(f"{len(flagged)} classes share a scrambling pattern")


# ------------------------------------- algebraic equivalence (distinct pixels)

def subgroup_classes(maps, n):
    groups = {}
    for m in maps:
        groups.setdefault(proper_powers(validate(m, n)), []).append(m.label)
    return tuple(tuple(labels) for labels in groups.values())


def sweep_maps(n, count=10):
    """Every valid standard map mod n, then seeded random raw maps and their squares."""
    maps = []
    for m in standard_family_maps(1, 8):
        try:
            validate(m, n)
        except InvalidScramblerError:
            continue
        maps.append(m)
    target = len(maps) + count
    rng = np.random.default_rng(n)
    while len(maps) < target:
        m = make_raw(*(int(v) for v in rng.integers(0, n, 4)))
        try:
            vm = validate(m, n)
        except InvalidScramblerError:
            continue
        maps += [m, make_raw(*power_mod(vm, 2))]
    return maps


@pytest.mark.parametrize("n", range(2, 33))
def test_algebraic_classes_match_the_image_path_and_the_subgroup_oracle(n):
    maps = sweep_maps(n)
    expected = subgroup_classes(maps, n)
    references = [distinct_rgb(n, seed=n)]
    if n <= 16:
        gray = np.random.default_rng(n).permutation(n * n).astype(np.uint8)
        references.append(grid(gray.reshape(n, n)))
    algebraic = cyclic_classes(maps, n).classes
    for reference in references:
        report = equivalence_classes(maps, reference, n)
        assert report.classes == image_path_classes(maps, reference, n) == algebraic == expected


@pytest.mark.parametrize("n", [3, 64])
def test_a_distinct_reference_scrambles_no_image(monkeypatch, reference_a, n):
    reference = reference_a if n == 3 else distinct_rgb(n)
    maps = standard_family_maps(1, 8)
    expected = subgroup_classes(maps, n)
    _refuse_orbit_images(monkeypatch)
    assert equivalence_classes(maps, reference, n).classes == expected
    for i, j in [(1, 5), (1, 2), (2, 2)]:
        a, b = validate(make_gft(i), n), validate(make_gft(j), n)
        assert pattern_equivalent(a, b) == (proper_powers(a) == proper_powers(b))


@pytest.mark.parametrize("n", [4097, 5000])
def test_cyclic_classes_need_no_reference_past_24_bit_sides(monkeypatch, n):
    maps = standard_family_maps(1, 8)
    _refuse_orbit_images(monkeypatch)
    assert cyclic_classes(maps, n).classes == subgroup_classes(maps, n)


def test_fibonacci_q_and_its_cube_share_a_class_at_a_large_prime():
    n = 1000003
    q = validate(make_fibonacci_q(), n)
    assert power_mod(q, 3) == make_flt(F.FIB32, 1).entries  # F(32)LT_1 = Q^3
    assert math.gcd(3, period(q)) == 1  # so Q^3 generates <Q>
    assert ("fibonacci-q", "F(32)LT_1") in cyclic_classes(standard_family_maps(1, 8), n).classes


def _count_products(monkeypatch):
    """Counts every 2x2 product mod n, in period searches and in the classes."""
    calls = []
    for module in (analysis, maps_module):
        real = module.mat_mul_mod

        def counted(x, y, n, real=real):
            calls.append(1)
            return real(x, y, n)

        monkeypatch.setattr(module, "mat_mul_mod", counted)
    return calls


def test_maps_that_do_not_commute_build_no_baby_steps(monkeypatch):
    n = 10007
    a, b = make_raw(2, 4, 1, 1), make_raw(2, 1, 4, 1)  # a and its transpose
    va, vb = validate(a, n), validate(b, n)
    assert period(va) == period(vb) == 100140048
    assert mat_mul_mod(va.reduced, vb.reduced, n) != mat_mul_mod(vb.reduced, va.reduced, n)
    products = _count_products(monkeypatch)
    assert cyclic_classes([a, b], n).classes == ((a.label,), (b.label,))
    assert len(products) < 2000  # baby-step giant-step over sqrt(order) steps takes 20,479


def test_commuting_maps_of_equal_order_are_still_told_apart_by_their_groups(monkeypatch):
    d31, d13, d51 = make_raw(3, 0, 0, 1), make_raw(1, 0, 0, 3), make_raw(5, 0, 0, 1)
    assert {period(validate(m, 7)) for m in (d31, d13, d51)} == {6}
    products = _count_products(monkeypatch)
    # diagonal matrices commute; diag(5, 1) = diag(3, 1)^5, and diag(1, 3) is not a power
    assert cyclic_classes([d31, d13, d51], 7).classes == ((d31.label, d51.label), (d13.label,))
    assert len(products) > 2 * 2  # more than the two commutation checks


def test_commuting_maps_of_huge_equal_order_are_refused_before_the_baby_steps():
    n = 4294967291
    a = make_raw(10, 5, 1, 1)
    b = make_raw(*mat_mul_mod(a.entries, a.entries, n))
    assert period(validate(a, n)) == period(validate(b, n)) == 768614334614994945
    start = time.perf_counter()
    with pytest.raises(WorkBoundError, match="needs 876706528 baby steps, above the work bound of 1048576"):
        cyclic_classes([a, b], n)
    assert time.perf_counter() - start < 1
    assert analysis.CYCLIC_STEPS_BOUND == 1 << 20


def test_a_constant_grid_gets_the_matrix_classes(monkeypatch):
    _refuse_orbit_images(monkeypatch)
    flat = grid([[7, 7, 7], [7, 7, 7], [7, 7, 7]])
    maps = [make_gft(1), make_flt(F.FIB11, 7), make_raw(1, 0, 0, 1)]
    # the orbit images alone were all the constant grid: they put period 8 with period 2
    assert image_path_classes(maps, flat, 3) == (("GFT_1", "F(11)LT_7"), ("raw(1, 0, 0, 1)",))
    report = equivalence_classes(maps, flat, 3)
    assert report.classes == (("GFT_1",), ("F(11)LT_7",), ("raw(1, 0, 0, 1)",))
    assert not pattern_equivalent(validate(maps[0], 3), validate(maps[1], 3))


def repeating_reference(n, rgb):
    """An n x n grid whose pixels at (0, 1) and (1, 0) occur once, and other values repeat."""
    rng = np.random.default_rng(n)
    px = rng.integers(0, 4, (n, n, 3) if rgb else (n, n), dtype=np.uint8)
    px[0, 1], px[1, 0] = 254, 255
    px[n - 1, n - 1] = px[n - 2, n - 1]
    return grid(px)


@pytest.mark.parametrize("rgb", [False, True])
@pytest.mark.parametrize("n", range(4, 33))
def test_two_unique_basis_pixels_decide_on_matrices(monkeypatch, n, rgb):
    reference = repeating_reference(n, rgb)
    maps = sweep_maps(n)
    from_images = image_path_classes(maps, reference, n)
    _refuse_orbit_images(monkeypatch)
    report = equivalence_classes(maps, reference, n)
    assert report.classes == subgroup_classes(maps, n) == from_images
    a, b = validate(maps[0], n), validate(maps[-1], n)
    assert pattern_equivalent(a, b) == (proper_powers(a) == proper_powers(b))


def test_a_one_pixel_reference_has_no_basis_pixels():
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        equivalence_classes([make_gft(1)], grid([[7]]), 1)
    assert equivalence_classes([], grid([[7]]), 1).classes == ()


def repeated_basis_pixel(rgb):
    """A 4 x 4 grid of otherwise distinct pixels whose (0, 1) pixel occurs again at (3, 2)."""
    px = distinct_rgb(4).pixels.copy() if rgb else np.arange(16, dtype=np.uint8).reshape(4, 4)
    px[3, 2] = px[0, 1]
    return grid(px)


@pytest.mark.parametrize("reference", [
    pytest.param(grid([[7, 7, 7], [7, 7, 7], [7, 7, 7]]), id="constant"),
    pytest.param(repeated_basis_pixel(False), id="repeated-basis-pixel-gray"),
    pytest.param(repeated_basis_pixel(True), id="repeated-basis-pixel-rgb"),
])
def test_any_reference_of_side_n_decides_on_matrices(monkeypatch, reference):
    n = reference.side
    maps = sweep_maps(n, count=4)
    _refuse_orbit_images(monkeypatch)
    report = equivalence_classes(maps, reference, n)
    assert report.classes == cyclic_classes(maps, n).classes == subgroup_classes(maps, n)


def test_a_side_mismatch_still_raises_grid_shape_error(reference_a):
    with pytest.raises(GridShapeError):
        equivalence_classes([make_gft(1)], reference_a, 5)
    with pytest.raises(GridShapeError, match="side 3 .* modulus 5"):  # no map moves a pixel
        equivalence_classes([make_raw(1, 0, 0, 1)], reference_a, 5)


@pytest.mark.parametrize("n", [3, 16, 64])
def test_pattern_equivalent_agrees_with_equivalence_classes(n, reference_a):
    reference = reference_a if n == 3 else distinct_rgb(n)
    maps = sweep_maps(n, count=4)
    report = equivalence_classes(maps, reference, n)
    class_of = {label: i for i, c in enumerate(report.classes) for label in c}
    vms = [validate(m, n) for m in maps]
    for a in vms:
        for b in vms:
            same = class_of[a.label] == class_of[b.label]
            assert pattern_equivalent(a, b) == same, (a.label, b.label)


# ---------------------------------------------------------------- enumerate

def brute_force_unimodular(lo, hi):
    out = []
    for a, b, c, d in itertools.product(range(lo, hi + 1), repeat=4):
        if abs(a * d - b * c) == 1:
            out.append((a, b, c, d))
    return out


def in_listing_order(matrices):
    """Sorted by a, then d, b and c: the order JSON `matrices` promises."""
    return tuple(sorted(matrices, key=lambda m: (m[0], m[3], m[1], m[2])))


def test_enumeration_of_binary_matrices_matches_brute_force():
    expected = brute_force_unimodular(0, 1)
    report = enumerate_unimodular(0, 1, collect=True)
    assert report.count == len(expected) == 6
    assert sorted(report.matrices) == sorted(expected)
    assert (1, 0, 0, 1) in report.matrices
    assert (0, 1, 1, 0) in report.matrices
    assert (1, 1, 0, 1) in report.matrices


@pytest.mark.parametrize("lo, hi", [(-2, 2), (0, 1), (-5, 3), (3, 3), (-4, -1)])
def test_enumeration_matches_brute_force_on_a_signed_range(lo, hi):
    expected = brute_force_unimodular(lo, hi)
    report = enumerate_unimodular(lo, hi, collect=True)
    assert report.matrices == in_listing_order(expected)
    assert report.count == len(expected)
    assert report.det_plus == sum(1 for m in expected if m[0] * m[3] - m[1] * m[2] == 1)
    assert report.det_minus == sum(1 for m in expected if m[0] * m[3] - m[1] * m[2] == -1)


def test_equal_entries_give_determinant_zero():
    assert enumerate_unimodular(5, 5).count == 0


def test_enumeration_sign_counts_add_up():
    report = enumerate_unimodular(0, 6)
    assert report.count == report.det_plus + report.det_minus


def test_unimodular_set_is_closed_under_transposition():
    report = enumerate_unimodular(0, 3, collect=True)
    matrices = set(report.matrices)
    for a, b, c, d in matrices:
        assert (a, c, b, d) in matrices
    asymmetric = [m for m in matrices if (m[0], m[2], m[1], m[3]) != m]
    assert len(asymmetric) % 2 == 0


def test_enumeration_work_bound():
    with pytest.raises(WorkBoundError, match="251001 entry products"):
        enumerate_unimodular(0, 500)
    assert enumerate_unimodular(0, 499).count > 0  # 500**2 products: on the bound
    with pytest.raises(ValueError):
        enumerate_unimodular(3, 2)


def test_enumeration_refuses_entries_whose_products_leave_64_bits():
    # 3037000499**2 + 1 is the largest |ad| + 1 that fits in a signed int64
    report = enumerate_unimodular(3037000496, 3037000499, collect=True)
    assert report.matrices == in_listing_order(brute_force_unimodular(3037000496, 3037000499))
    for lo, hi in [(3037000500, 3037000510), (-3037000500, -3037000499), (10**19, 10**19 + 1)]:
        with pytest.raises(IntegerOverflowError):
            enumerate_unimodular(lo, hi)


def counts_by_b(hi):
    """(det +1, det -1) counts for entries in 0..hi by a loop over b: for each
    b and every c, how many (a, d) have ad = bc + 1, and how many ad = bc - 1."""
    entries = np.arange(hi + 1)
    # pairs[p + 1] = number of (a, d) with a * d = p, so index 0 stands for p = -1
    pairs = np.bincount(np.multiply.outer(entries, entries).ravel() + 1, minlength=hi * hi + 3)
    plus = minus = 0
    for b in range(hi + 1):
        bc = b * entries
        plus += int(pairs[bc + 2].sum())
        minus += int(pairs[bc].sum())
    return plus, minus


def test_enumeration_of_0_300_matches_a_count_by_rows():
    expected = brute_force_unimodular(0, 5)
    assert counts_by_b(5) == (sum(1 for a, b, c, d in expected if a * d - b * c == 1),
                              sum(1 for a, b, c, d in expected if a * d - b * c == -1))
    report = enumerate_unimodular(0, 300)
    assert (report.det_plus, report.det_minus) == counts_by_b(300) == (109591, 109591)
    assert report.count == 219182


def test_only_the_0_99_report_states_the_reference():
    ref = analysis.UNIMODULAR_REFERENCE_COUNT_0_99
    assert analysis.EnumerationReport(0, 98, ref, ref // 2, ref // 2).reference_count is None
    off = analysis.EnumerationReport(0, 99, ref - 1, ref // 2, ref // 2 - 1)
    assert off.to_json_dict()["matches_reference"] is False
    assert off.to_text().splitlines()[1] == (
        f"reference count {ref}: computed value DIFFERS FROM the reference"
    )


def test_enumeration_json_fields():
    doc = enumerate_unimodular(0, 2, collect=True).to_json_dict()
    assert set(doc) == {"lo", "hi", "criterion", "count", "det_plus_one", "det_minus_one", "matrices"}
    json.dumps(doc)


# ------------------------------------------------------------------- surveys

def test_gat_survey_row_at_128():
    report = period_survey(["gat"], range(1, 17), 128)
    assert report.rows[0][1] == (128, 192, 64, 192, 128, 192, 32, 192, 128, 192, 64, 192, 128, 192, 16, 192)


def test_f11lt_survey_row_at_3():
    # computed row; the printed reference differs at i=3 (documented discrepancy,
    # see the acceptance suite)
    report = period_survey(["f11lt"], range(1, 9), 3)
    assert report.rows[0][1] == (8, 6, 2, 6, 8, 3, 2, 3)


def test_empty_range_gives_an_empty_table():
    report = period_survey(["gft", "gat"], range(1, 1), 8)
    assert report.params == ()
    assert all(cells == () for _, cells in report.rows)
    assert report.error_count == 0


class FirstCell(Exception):
    """Raised in place of the first period a survey computes."""


def test_survey_cell_bound_is_checked_before_the_parameters_are_read(monkeypatch):
    def first_cell(vm):
        raise FirstCell

    monkeypatch.setattr(analysis, "period", first_cell)
    families = ["gft", "gat"]
    half = analysis.SURVEY_CELL_BOUND // 2
    for refused in (
        lambda: period_survey(families, range(1, half + 2), 8),
        lambda: period_survey(["gft"], range(1, 10**20), 8),
        lambda: period_survey(["gft"], range(1, 10**18), 8),
    ):
        with pytest.raises(WorkBoundError, match="cell bound"):
            refused()
    with pytest.raises(FirstCell):  # at the bound: accepted
        period_survey(families, range(1, half + 1), 8)


def test_survey_takes_unsized_parameters_up_to_the_bound():
    families = ["gft", "triangular"]
    from_generator = period_survey(families, (i for i in range(1, 7)), 8)
    assert from_generator == period_survey(families, range(1, 7), 8)
    read = []

    def endless():
        for i in itertools.count(1):
            read.append(i)
            yield i

    with pytest.raises(WorkBoundError, match="more than .* parameters .* cell bound"):
        period_survey(families, endless(), 8)
    assert len(read) == analysis.SURVEY_CELL_BOUND + 1


def test_survey_below_modulus_two_raises():
    with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
        period_survey(["gft"], range(1, 3), 1)


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError):
        period_survey(["arnold"], range(1, 3), 8)


def test_survey_isolates_per_cell_failures(monkeypatch):
    real_period = analysis.period

    def flaky(vm):
        if vm.map.label == "GFT_2":
            raise InvalidScramblerError(vm.map.label, vm.n, 2, 2)
        return real_period(vm)

    monkeypatch.setattr(analysis, "period", flaky)
    report = period_survey(["gft"], range(1, 4), 8)
    cells = report.rows[0][1]
    assert isinstance(cells[0], int) and isinstance(cells[2], int)
    assert isinstance(cells[1], str) and "not invertible" in cells[1]
    assert report.error_count == 1


def test_survey_records_family_terms_past_64_bits_in_their_cells():
    report = period_survey(["gft", "gat"], range(88, 93), 128)
    assert report.error_count == 2
    for fam, cells in report.rows:
        build = analysis.SURVEY_FAMILIES[fam]
        for p, cell in zip(report.params, cells):
            if fam == "gft" and p >= 91:  # gft 91 needs term 94 of FIB01; 93 is the last
                assert isinstance(cell, str) and "exceeds the 64-bit signed range" in cell
            else:
                assert type(cell) is int and cell == period(validate(build(p), 128))


def test_survey_report_compares_only_the_published_rows():
    reference = analysis.SURVEY_REFERENCE_128
    gat = reference["gat"]
    rows = (("gat", (0,) + gat[1:]), ("gft", reference["gft"]), ("triangular", gat))
    report = analysis.SurveyReport(128, tuple(range(1, 17)), rows)
    assert report.reference_rows is reference
    assert report.to_text().splitlines()[4:] == [
        "gat: computed row DIFFERS FROM the reference",
        "gft: computed row matches the reference",
    ]
    gat_row, gft_row, triangular_row = report.to_json_dict()["rows"]
    assert gat_row["matches_reference"] is False and gat_row["reference_periods"] == list(gat)
    assert gft_row["matches_reference"] is True
    assert "matches_reference" not in triangular_row
    for n, params in ((127, tuple(range(1, 17))), (128, tuple(range(2, 18)))):
        other = analysis.SurveyReport(n, params, rows)
        assert other.reference_rows == {}
        assert len(other.to_text().splitlines()) == 4


def test_survey_text_and_json_renderings():
    report = period_survey(["gft", "f31lt"], range(1, 5), 16)
    text = report.to_text()
    assert text.splitlines()[0].split() == ["family", "1", "2", "3", "4"]
    doc = report.to_json_dict()
    assert doc["n"] == 16
    assert [row["family"] for row in doc["rows"]] == ["gft", "f31lt"]
    assert all(isinstance(p, int) for p in doc["rows"][0]["periods"])
    json.dumps(doc)
