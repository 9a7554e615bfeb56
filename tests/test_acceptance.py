"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s for the detail lines).

Golden values come from the published reference tables this artifact
reproduces at desk scale. Where a computed value provably differs from a
printed one, the discrepancy is confirmed by an independent brute-force
permutation-order oracle and frozen below as a documented discrepancy; it is
never patched into agreement. Current documented discrepancies:

* 3x3 period table, 1,1-seeded Fibonacci-Lucas row, index 3: printed 6, but
  the matrix (2, 3 / 3, 4) reduces to (2, 0 / 0, 1) mod 3, whose order is 2
  (oracle-confirmed). The source explicitly excludes index 3 from that
  family, and the printed index-3 orbit is not generated by any linear map.
"""

import time
from pathlib import Path

import numpy as np

from modscramble import (
    ImageGrid,
    SaltPepper,
    GaussianNoise,
    Speckle,
    Crop,
    CompressSurrogate,
    ScrambleKey,
    SequenceFamily,
    apply_attack,
    changed_pixels,
    determinant,
    enumerate_unimodular,
    equivalence_classes,
    inverse_mod,
    make_arnold,
    make_fibonacci_q,
    make_flt,
    make_generalized_arnold,
    make_gft,
    mse,
    pattern_equivalent,
    period,
    plan_unscramble,
    read_pnm,
    scramble,
    standard_family_maps,
    unscramble,
    validate,
    write_pnm,
)
from modscramble.analysis import (
    SURVEY_FAMILIES,
    SURVEY_REFERENCE_128,
    UNIMODULAR_REFERENCE_COUNT_0_99,
)

from conftest import (
    forward_route,
    grid,
    inverse_route,
    permutation_order,
    random_gray,
    random_rgb,
)

F = SequenceFamily

A = grid([[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def _line(num: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{' - ' if detail else ''}{detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_01_reference_periods_at_128():
    expected = [
        (make_arnold(), 96),
        (make_generalized_arnold(1, 1), 128),
        (make_fibonacci_q(), 192),
        (make_gft(1), 128),
        (make_flt(F.FIB11, 1), 128),
        (make_flt(F.FIB32, 1), 64),
        (make_flt(F.FIB31, 1), 64),
    ]
    t0 = time.perf_counter()
    got = [(m.label, period(validate(m, 128))) for m, _ in expected]
    elapsed = time.perf_counter() - t0
    ok = [p for _, p in got] == [want for _, want in expected] and elapsed < 1.0
    _line(1, ok, f"periods {[p for _, p in got]} in {elapsed * 1000:.1f} ms")


# --------------------------------------------------------------- criterion 2

# cells where the computed (oracle-confirmed) period differs from print
SURVEY_128_DOCUMENTED_DISCREPANCIES: dict[tuple[str, int], tuple[int, int]] = {}


def test_criterion_02_full_survey_at_128():
    t0 = time.perf_counter()
    mismatches = {}
    for fam, printed_row in SURVEY_REFERENCE_128.items():
        for i, printed in zip(range(1, 17), printed_row):
            vm = validate(SURVEY_FAMILIES[fam](i), 128)
            computed = period(vm)
            oracle = permutation_order(vm)
            assert computed == oracle, (fam, i, computed, oracle)
            if computed != printed:
                mismatches[(fam, i)] = (printed, computed)
    elapsed = time.perf_counter() - t0
    ok = mismatches == SURVEY_128_DOCUMENTED_DISCREPANCIES and elapsed < 10.0
    _line(2, ok, f"80 cells oracle-checked, {len(mismatches)} discrepancies, {elapsed:.2f} s")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_golden_matrices_lock_the_convention():
    golden = [
        (make_arnold(), [[1, 5, 9], [8, 3, 4], [6, 7, 2]], 4),
        (make_generalized_arnold(1, 1), [[1, 6, 8], [9, 2, 4], [5, 7, 3]], 8),
        (make_fibonacci_q(), [[1, 7, 4], [9, 6, 3], [5, 2, 8]], 8),
        (make_gft(1), [[1, 8, 6], [3, 7, 5], [2, 9, 4]], 8),
        (make_flt(F.FIB11, 1), [[1, 9, 5], [8, 4, 3], [6, 2, 7]], 8),
    ]
    ok = True
    for m, want, want_period in golden:
        out = scramble(A, ScrambleKey(m, 3, 3))
        ok = ok and out.pixels.tolist() == want
        ok = ok and period(validate(m, 3)) == want_period
    _line(3, ok, "five 3x-scrambled matrices and periods (4, 8, 8, 8, 8)")


# --------------------------------------------------------------- criterion 4

SURVEY_REFERENCE_3 = {
    "f11lt": (8, 6, 6, 6, 8, 3, 2, 3),
    "gft":   (8, 6, 2, 6, 8, 3, 2, 3),
    "f32lt": (8, 3, 2, 3, 8, 6, 2, 6),
}

# (family, index) -> (printed, computed); see the module docstring
SURVEY_3_DOCUMENTED_DISCREPANCIES = {("f11lt", 3): (6, 2)}

# printed scrambled states of A, keyed by (family, index, iteration)
ORBIT_STATE_SPOT_CHECKS = {
    ("f11lt", 1, 1): [[1, 6, 8], [9, 2, 4], [5, 7, 3]],
    ("f11lt", 1, 2): [[1, 4, 7], [3, 6, 9], [2, 5, 8]],
    ("f11lt", 5, 1): [[1, 8, 6], [5, 3, 7], [9, 4, 2]],
    ("f11lt", 7, 1): [[1, 3, 2], [4, 6, 5], [7, 9, 8]],
    ("gft", 1, 1):   [[1, 4, 7], [5, 8, 2], [9, 3, 6]],
    ("gft", 3, 1):   [[1, 9, 5], [4, 3, 8], [7, 6, 2]],
    ("gft", 5, 2):   [[1, 5, 9], [8, 3, 4], [6, 7, 2]],
    ("f32lt", 1, 1): [[1, 7, 4], [9, 6, 3], [5, 2, 8]],
}


def test_criterion_04_small_grid_periods_and_orbits():
    mismatches = {}
    for fam, printed_row in SURVEY_REFERENCE_3.items():
        for i, printed in zip(range(1, 9), printed_row):
            vm = validate(SURVEY_FAMILIES[fam](i), 3)
            computed = period(vm)
            assert computed == permutation_order(vm), (fam, i)
            if computed != printed:
                mismatches[(fam, i)] = (printed, computed)
    spot_ok = 0
    for (fam, i, t), want in ORBIT_STATE_SPOT_CHECKS.items():
        out = scramble(A, ScrambleKey(SURVEY_FAMILIES[fam](i), 3, t))
        assert out.pixels.tolist() == want, (fam, i, t)
        spot_ok += 1
    ok = mismatches == SURVEY_3_DOCUMENTED_DISCREPANCIES and spot_ok >= 6
    _line(
        4,
        ok,
        f"23/24 cells match; documented discrepancy {dict(mismatches)} "
        f"(oracle-confirmed; source excludes that index); {spot_ok} printed states verified",
    )


# --------------------------------------------------------------- criterion 5

def test_criterion_05_determinant_identity():
    ok = all(determinant(make_flt(F.FIB11, k)) == (-1) ** k for k in range(4, 21))
    _line(5, ok, "det(F(11)LT_k) = (-1)^k for k in 4..20, exact integers")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_pattern_equivalence_and_classes():
    a = validate(make_gft(1), 3)
    b = validate(make_gft(5), 3)
    equivalent = pattern_equivalent(a, b)
    report = equivalence_classes(standard_family_maps(1, 8), A, 3)
    flagged = report.flagged
    ok = equivalent and len(flagged) > 0 and any("GFT_1" in c and "GFT_5" in c for c in flagged)
    print(report.to_text())
    _line(6, ok, f"GFT_1 ~ GFT_5; {len(report.classes)} classes, {len(flagged)} flagged (size > 1)")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_unimodular_enumeration():
    t0 = time.perf_counter()
    report = enumerate_unimodular(0, 99)
    elapsed = time.perf_counter() - t0
    ok = (
        elapsed < 60.0
        and report.count == UNIMODULAR_REFERENCE_COUNT_0_99
        and report.det_plus + report.det_minus == report.count
    )
    _line(
        7,
        ok,
        f"count {report.count} (det +1: {report.det_plus}, det -1: {report.det_minus}) "
        f"matches reference {UNIMODULAR_REFERENCE_COUNT_0_99} in {elapsed:.2f} s",
    )


# --------------------------------------------------------------- criterion 8

def test_criterion_08_inverse_route_reproduction():
    img = random_gray(128, seed=606)
    key = ScrambleKey(make_flt(F.FIB11, 6), 128, 20)
    plan = plan_unscramble(key.validated(), key.iterations)
    scrambled = scramble(img, key)

    t0 = time.perf_counter()
    via_forward = forward_route(scrambled, key)
    t_fwd = time.perf_counter() - t0
    t0 = time.perf_counter()
    via_inverse = inverse_route(scrambled, key)
    t_inv = time.perf_counter() - t0

    ok = (
        plan.forward_steps == 108
        and plan.inverse_steps == 20
        and inverse_mod(key.validated()).reduced == (18, 115, 117, 8)
        and via_forward == img
        and via_inverse == img
        and unscramble(scrambled, key) == img
    )
    # wall-clock comparison reported, not asserted
    _line(
        8,
        ok,
        f"forward (108 steps) and inverse (20 steps of (18, 115 / 117, 8)) routes "
        f"recover bit-exactly; wall clock {t_fwd * 1000:.2f} ms vs {t_inv * 1000:.2f} ms",
    )


# --------------------------------------------------------------- criterion 9

def test_criterion_09_property_suite_small_moduli():
    t0 = time.perf_counter()
    maps = standard_family_maps(1, 8)
    rng = np.random.default_rng(909)
    combos = 0
    for n in range(2, 17):
        x = np.arange(n, dtype=np.int64).reshape(n, 1)
        y = np.arange(n, dtype=np.int64).reshape(1, n)
        for m in maps:
            vm = validate(m, n)
            a, b, c, d = vm.reduced
            dest = ((a * x + b * y) % n) * n + ((c * x + d * y) % n)
            assert np.bincount(dest.ravel(), minlength=n * n).max() == 1, (m.label, n)

            p = period(vm)
            assert p == permutation_order(vm), (m.label, n)

            t = int(rng.integers(0, 2 * p))
            img = ImageGrid(rng.integers(0, 256, (n, n), dtype=np.uint8))
            key = ScrambleKey(m, n, t)
            s = scramble(img, key)
            assert sorted(s.pixels.ravel()) == sorted(img.pixels.ravel()), (m.label, n)
            fwd = forward_route(s, key)
            inv = inverse_route(s, key)
            assert unscramble(s, key) == fwd == inv == img, (m.label, n, t)
            combos += 1
    elapsed = time.perf_counter() - t0
    ok = combos == 15 * len(maps) and elapsed < 30.0
    _line(9, ok, f"{combos} (map, modulus) combos, 5 properties each, {elapsed:.2f} s")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_robustness_invariants():
    rng = np.random.default_rng(1010)
    maps = standard_family_maps(1, 8)
    checked = 0
    for trial in range(20):
        n = int(rng.integers(8, 49))
        color = bool(rng.integers(0, 2))
        seed = int(rng.integers(1 << 31))
        img = random_rgb(n, seed=seed) if color else random_gray(n, seed=seed)
        key = ScrambleKey(maps[int(rng.integers(len(maps)))], n, int(rng.integers(0, 40)))
        attack = [
            SaltPepper(float(rng.uniform(0.01, 0.2)), seed=seed),
            GaussianNoise(0.0, float(rng.uniform(10, 400)), seed=seed),
            Speckle(float(rng.uniform(0.01, 0.2)), seed=seed),
            Crop(0, 0, int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)), fill=0),
        ][trial % 4]

        scrambled = scramble(img, key)
        attacked = apply_attack(scrambled, attack)
        recovered = unscramble(attacked, key)

        assert mse(scrambled, attacked) == mse(img, recovered), (trial, attack)
        assert changed_pixels(scrambled, attacked) == changed_pixels(img, recovered)
        checked += 1

    # lossless container round trip mid-pipeline keeps recovery bit-exact
    img = random_gray(32, seed=32)
    key = ScrambleKey(make_flt(F.FIB32, 3), 32, 7)
    stored = write_pnm(scramble(img, key))
    assert unscramble(read_pnm(stored), key) == img

    # compression surrogate: determinism and report generation only
    from modscramble import recovery_experiment

    rep1 = recovery_experiment(img, key, CompressSurrogate(4))
    rep2 = recovery_experiment(img, key, CompressSurrogate(4))
    assert rep1.attacked == rep2.attacked
    assert rep1.to_json_dict() == rep2.to_json_dict()
    assert rep1.mse_on_scrambled == rep1.mse_on_recovered

    ok = checked == 20
    _line(10, ok, "20 exact damage-isometry triples, lossless mid-pipeline, deterministic surrogate")


def test_readme_library_block_prints_its_comment(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == 1
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed[0].rsplit("# ", 1)[1] + "\n"
