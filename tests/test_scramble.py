import importlib
import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modscramble import (
    IDENTITY,
    GridShapeError,
    ImageGrid,
    InvalidScramblerError,
    ScrambleKey,
    SequenceFamily,
    WorkBoundError,
    apply_point,
    make_arnold,
    make_fibonacci_q,
    make_flt,
    make_generalized_arnold,
    make_gft,
    make_raw,
    period,
    plan_unscramble,
    power_mod,
    scramble,
    unscramble,
    validate,
)
from modscramble import maps as maps_module
from modscramble.analysis import period_survey, standard_family_maps
from modscramble.scramble import PERIOD_MODULUS_BOUND, SIDE_BOUND

from conftest import (
    forward_route,
    inverse_route,
    iterated_order,
    permutation_order,
    random_gray,
    random_rgb,
)

F = SequenceFamily


# ---------------------------------------------------------------- point map

def test_apply_point_arnold_mod_3():
    vm = validate(make_arnold(), 3)
    assert apply_point(vm, 1, 1) == (0, 2)


def test_origin_is_always_fixed():
    for m in standard_family_maps(1, 8):
        assert apply_point(validate(m, 7), 0, 0) == (0, 0)


def test_apply_point_flt1_mod_3():
    vm = validate(make_flt(F.FIB11, 1), 3)
    assert apply_point(vm, 1, 0) == (1, 2)


def test_apply_point_range_check():
    vm = validate(make_arnold(), 3)
    with pytest.raises(ValueError):
        apply_point(vm, 3, 0)


# --------------------------------------------------- golden matrices (N = 3)

GOLDEN_3X = [
    # (map, three-times-scrambled grid, period) -- locks the frozen convention:
    # x = row, y = column, zero-based, pixel at (x, y) moves to (x', y').
    (make_arnold(), [[1, 5, 9], [8, 3, 4], [6, 7, 2]], 4),
    (make_generalized_arnold(1, 1), [[1, 6, 8], [9, 2, 4], [5, 7, 3]], 8),
    (make_fibonacci_q(), [[1, 7, 4], [9, 6, 3], [5, 2, 8]], 8),
    (make_gft(1), [[1, 8, 6], [3, 7, 5], [2, 9, 4]], 8),
    (make_flt(F.FIB11, 1), [[1, 9, 5], [8, 4, 3], [6, 2, 7]], 8),
]


@pytest.mark.parametrize("m,expected,expected_period", GOLDEN_3X)
def test_three_iterations_match_the_golden_matrices(reference_a, m, expected, expected_period):
    out = scramble(reference_a, ScrambleKey(m, 3, 3))
    assert out.pixels.tolist() == expected
    assert period(validate(m, 3)) == expected_period


def test_single_arnold_iteration_hand_derived(reference_a):
    once = scramble(reference_a, ScrambleKey(make_arnold(), 3, 1))
    assert once.pixels.tolist() == [[1, 9, 5], [6, 2, 7], [8, 4, 3]]
    # two more iterations must land on the golden t=3 state
    thrice = scramble(once, ScrambleKey(make_arnold(), 3, 2))
    assert thrice.pixels.tolist() == [[1, 5, 9], [8, 3, 4], [6, 7, 2]]


def test_zero_iterations_is_the_identity(reference_a):
    assert scramble(reference_a, ScrambleKey(make_arnold(), 3, 0)) == reference_a


def test_dimension_mismatch_is_rejected(reference_a):
    with pytest.raises(GridShapeError):
        scramble(reference_a, ScrambleKey(make_arnold(), 64, 1))


def test_invalid_map_is_rejected():
    img = random_gray(4, seed=1)
    with pytest.raises(InvalidScramblerError):
        scramble(img, ScrambleKey(make_raw(2, 0, 0, 2), 4, 1))


def test_image_grid_rejects_non_square_and_wrong_dtype():
    with pytest.raises(GridShapeError):
        ImageGrid(np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(GridShapeError):
        ImageGrid(np.zeros((3, 3), dtype=np.int32))
    with pytest.raises(GridShapeError):
        ImageGrid(np.zeros((3, 3, 4), dtype=np.uint8))


@pytest.mark.parametrize("shape", [(0, 0), (0, 0, 3)])
def test_image_grid_rejects_an_empty_grid(shape):
    # write_pnm would emit a 0x0 header that read_pnm refuses
    with pytest.raises(GridShapeError, match="empty"):
        ImageGrid(np.zeros(shape, dtype=np.uint8))


def test_image_grid_equals_only_a_grid():
    img = random_gray(3, seed=2)
    assert img == ImageGrid(img.pixels.copy())
    assert img.__eq__(img.pixels) is NotImplemented
    assert img != "grid"


def test_input_grid_is_never_mutated():
    img = random_gray(8, seed=3)
    before = img.pixels.copy()
    scramble(img, ScrambleKey(make_arnold(), 8, 5))
    assert np.array_equal(img.pixels, before)


def test_rgb_pixels_move_as_whole_units():
    n = 8
    base = (np.arange(n * n, dtype=np.uint8) % 50).reshape(n, n)
    rgb = ImageGrid(np.stack([base, base + 100, base + 200], axis=2))
    out = scramble(rgb, ScrambleKey(make_arnold(), n, 3))
    gray = scramble(ImageGrid(base), ScrambleKey(make_arnold(), n, 3))
    assert np.array_equal(out.pixels[:, :, 0], gray.pixels)
    assert np.array_equal(out.pixels[:, :, 1], gray.pixels + 100)
    assert np.array_equal(out.pixels[:, :, 2], gray.pixels + 200)


# ------------------------------------------------------------------- periods

@pytest.mark.parametrize(
    "m,n,expected",
    [
        (make_arnold(), 128, 96),
        (make_flt(F.FIB11, 1), 128, 128),
        (make_gft(5), 128, 16),
        (make_flt(F.FIB31, 12), 128, 4),
        (make_flt(F.FIB11, 1), 3, 8),
        (make_raw(1, 0, 0, 1), 7, 1),
    ],
)
def test_reference_periods(m, n, expected):
    assert period(validate(m, n)) == expected


def test_period_agrees_with_the_permutation_oracle():
    for m in (make_arnold(), make_fibonacci_q(), make_flt(F.FIB32, 4)):
        for n in (5, 12, 32):
            vm = validate(m, n)
            assert period(vm) == permutation_order(vm)


def test_family_map_periods_mod_16_are_below_6_n_squared():
    for m in standard_family_maps(1, 8):
        p = period(validate(m, 16))
        assert 1 <= p < 6 * 16 * 16


def _valid_maps(n: int, rng) -> list:
    """Every valid standard family map mod n, plus 10 random valid raw maps."""
    found = []
    for m in standard_family_maps(1, 8):
        try:
            found.append(validate(m, n))
        except InvalidScramblerError:
            pass
    raw = []
    while len(raw) < 10:
        try:
            raw.append(validate(make_raw(*rng.integers(-3 * n, 3 * n, 4).tolist()), n))
        except InvalidScramblerError:
            pass
    return found + raw


def test_period_agrees_with_the_iterated_and_cycle_oracles():
    rng = np.random.default_rng(2012)
    for n in range(2, 65):
        for vm in _valid_maps(n, rng):
            p = period(vm)
            assert p == iterated_order(vm), (vm.label, n)
            if n <= 16:
                assert p == permutation_order(vm), (vm.label, n)


def _prime_divisors(m: int) -> list[int]:
    """Distinct primes of m, by trial division (a test-side copy, not the library's)."""
    primes, q = [], 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return primes + ([m] if m > 1 else [])


@pytest.mark.parametrize(
    "entries,n,expected",
    [((2, 4, 1, 1), 10007, 100140048), ((10, 5, 1, 1), 65521, 1073250360)],
)
def test_long_periods_are_exact_and_cost_few_multiplications(monkeypatch, entries, n, expected):
    vm = validate(make_raw(*entries), n)
    calls = 0
    real = maps_module.mat_mul_mod

    def counted(x, y, m):
        nonlocal calls
        calls += 1
        return real(x, y, m)

    monkeypatch.setattr(maps_module, "mat_mul_mod", counted)
    p = period(vm)
    assert calls < 2000
    monkeypatch.undo()
    assert p == expected
    assert power_mod(vm, p) == IDENTITY
    for r in _prime_divisors(p):
        assert power_mod(vm, p // r) != IDENTITY, r


def test_period_at_the_modulus_bound():
    assert PERIOD_MODULUS_BOUND == 2**32
    assert period(validate(make_arnold(), 2**32)) == 3221225472
    with pytest.raises(WorkBoundError):
        period(validate(make_arnold(), 2**32 + 1))


def test_a_survey_factors_its_modulus_once():
    primes = importlib.import_module("modscramble.scramble")._primes
    primes.cache_clear()
    with pytest.raises(WorkBoundError):
        period(validate(make_arnold(), 2**32 + 1))
    assert primes.cache_info().misses == 0  # the bound is checked before any factoring
    # n is prime, so a survey needs the primes of n, n - 1 and n + 1 only
    survey = period_survey(["gft", "f11lt"], range(1, 51), 4294967291)
    assert all(type(p) is int for _, cells in survey.rows for p in cells)
    assert primes.cache_info().misses == 3
    primes.cache_clear()


# -------------------------------------------------------------- unscrambling

def test_roundtrip_for_random_images_and_keys():
    rng = np.random.default_rng(99)
    maps = standard_family_maps(1, 8)
    for trial in range(20):
        m = maps[rng.integers(len(maps))]
        t = int(rng.integers(0, 50))
        img = random_gray(64, seed=int(rng.integers(1 << 31)))
        key = ScrambleKey(m, 64, t)
        assert unscramble(scramble(img, key), key) == img


def test_route_equivalence_on_random_triples():
    rng = np.random.default_rng(5)
    maps = standard_family_maps(1, 8)
    for trial in range(50):
        m = maps[rng.integers(len(maps))]
        n = int(rng.integers(2, 33))
        t = int(rng.integers(0, 300))
        img = random_gray(n, seed=trial)
        key = ScrambleKey(m, n, t)
        s = scramble(img, key)
        assert unscramble(s, key) == forward_route(s, key) == inverse_route(s, key) == img


def test_plan_picks_the_cheaper_route():
    vm = validate(make_flt(F.FIB11, 6), 128)
    plan = plan_unscramble(vm, 20)
    assert (plan.period, plan.forward_steps, plan.inverse_steps) == (128, 108, 20)
    assert plan.chosen == "inverse"
    plan = plan_unscramble(vm, 100)
    assert (plan.forward_steps, plan.inverse_steps) == (28, 100)
    assert plan.chosen == "forward"


def test_iterations_past_the_period_wrap():
    img = random_gray(16, seed=8)
    p = period(validate(make_arnold(), 16))
    a = scramble(img, ScrambleKey(make_arnold(), 16, 3))
    b = scramble(img, ScrambleKey(make_arnold(), 16, 3 + 2 * p))
    assert a == b


def test_scrambling_is_additive_in_iterations():
    img = random_gray(15, seed=4)
    m = make_flt(F.FIB31, 3)
    once = scramble(scramble(img, ScrambleKey(m, 15, 4)), ScrambleKey(m, 15, 9))
    assert once == scramble(img, ScrambleKey(m, 15, 13))


def test_scramble_preserves_the_pixel_multiset():
    img = random_gray(32, seed=12)
    out = scramble(img, ScrambleKey(make_gft(3), 32, 7))
    assert sorted(out.pixels.ravel()) == sorted(img.pixels.ravel())


def test_negative_iterations_rejected():
    with pytest.raises(ValueError):
        ScrambleKey(make_arnold(), 8, -1)


# ------------------------------------------------------ bijectivity property

def test_point_map_is_a_bijection_for_every_modulus():
    # spec range: every family map, all N in 2..64
    maps = standard_family_maps(1, 8)
    for n in range(2, 65):
        x = np.arange(n, dtype=np.int64).reshape(n, 1)
        y = np.arange(n, dtype=np.int64).reshape(1, n)
        for m in maps:
            a, b, c, d = validate(m, n).reduced
            dest = ((a * x + b * y) % n) * n + ((c * x + d * y) % n)
            assert np.bincount(dest.ravel(), minlength=n * n).max() == 1


@given(
    n=st.integers(min_value=2, max_value=12),
    t=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pick=st.integers(min_value=0, max_value=49),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(n, t, seed, pick):
    img = random_gray(n, seed=seed)
    key = ScrambleKey(standard_family_maps(1, 8)[pick], n, t)
    assert unscramble(scramble(img, key), key) == img


def test_rgb_roundtrip():
    img = random_rgb(16, seed=6)
    key = ScrambleKey(make_flt(F.FIB32, 2), 16, 11)
    assert unscramble(scramble(img, key), key) == img


# ------------------------------------------- flat-index engine vs the oracle

def _random_invertible(rng, n):
    while True:
        m = make_raw(*(int(v) for v in rng.integers(-n, 2 * n, 4)))
        try:
            return validate(m, n)
        except InvalidScramblerError:
            pass


def _oracle_destinations(vm, t):
    """Flat destination of every pixel after t passes, from apply_point alone."""
    n = vm.n
    points = (apply_point(vm, x, y) for x in range(n) for y in range(n))
    once = np.array([x * n + y for x, y in points])
    dest = np.arange(n * n)
    for _ in range(t):
        dest = once[dest]
    return dest


def _oracle_scramble(img, dest):
    flat = img.pixels.reshape(img.side**2, -1)
    out = np.empty_like(flat)
    out[dest] = flat
    return out.reshape(img.pixels.shape)


@pytest.mark.parametrize("make_image", [random_gray, random_rgb], ids=["gray", "rgb"])
def test_engine_matches_the_point_oracle(make_image):
    rng = np.random.default_rng(2024)
    for n in range(2, 41):
        vm = _random_invertible(rng, n)
        p = permutation_order(vm)
        img = make_image(n, seed=n)
        for t in (int(rng.integers(0, 3 * p + 2)), p * int(rng.integers(1, 4))):
            key = ScrambleKey(vm.map, n, t)
            expected = _oracle_scramble(img, _oracle_destinations(vm, t % p))
            scrambled = scramble(img, key)
            assert np.array_equal(scrambled.pixels, expected), (n, t)
            assert unscramble(scrambled, key) == img, (n, t)
            if t % p == 0:
                assert scrambled == img


def test_interleaved_keys_give_correct_bytes():
    arnold = make_arnold()
    other = make_flt(F.FIB32, 3)
    keys = [ScrambleKey(arnold, 16, 1), ScrambleKey(arnold, 17, 1),  # one matrix, two moduli
            ScrambleKey(other, 16, 5), ScrambleKey(arnold, 16, 1)]  # two keys at one modulus
    images = {16: random_rgb(16, seed=1), 17: random_gray(17, seed=2)}
    for key in keys * 2:
        img = images[key.n]
        scrambled = scramble(img, key)
        expected = _oracle_scramble(img, _oracle_destinations(key.validated(), key.iterations))
        assert np.array_equal(scrambled.pixels, expected)
        assert unscramble(scrambled, key) == img


@pytest.mark.parametrize("block", [1, 13, 50])
def test_index_built_in_row_blocks_matches_the_oracle(monkeypatch, block):
    module = importlib.import_module("modscramble.scramble")
    monkeypatch.setattr(module, "_BLOCK", block)  # one row, whole rows, a short last block
    vm = validate(make_flt(F.FIB32, 3), 13)
    assert np.array_equal(module._build_index(vm.reduced, 13), _oracle_destinations(vm, 1))


def test_index_dtype_is_intp_below_the_split_and_compact_from_it():
    index_dtype = importlib.import_module("modscramble.scramble")._index_dtype
    assert index_dtype(2) == np.intp
    assert index_dtype(1448) == np.intp  # 1448**2 < 2**21 <= 1449**2
    assert index_dtype(1449) == np.uint32
    assert index_dtype(SIDE_BOUND) == np.uint32  # 2 * 46340**2 <= 2**32


@pytest.mark.parametrize("shape", [(SIDE_BOUND + 1,) * 2, (SIDE_BOUND + 1,) * 2 + (3,)])
def test_a_grid_side_above_the_bound_is_refused_before_its_copy(shape):
    assert SIDE_BOUND == math.isqrt(2**31)
    huge = np.broadcast_to(np.uint8(0), shape)  # no memory of its own
    tracemalloc.start()
    try:
        with pytest.raises(GridShapeError, match=f"image side {SIDE_BOUND + 1} is above the side bound of {SIDE_BOUND}"):
            ImageGrid(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cached_index_is_reused():
    cached_index = importlib.import_module("modscramble.scramble")._cached_index
    forward = cached_index((2, 1, 1, 1), 8)
    inverse = cached_index((2, 1, 1, 1), 8, inverse=True)
    assert cached_index((2, 1, 1, 1), 8) is forward
    assert cached_index((2, 1, 1, 1), 8, inverse=True) is inverse
    assert np.array_equal(forward[inverse], np.arange(64))  # the two directions undo each other


def test_at_most_one_index_is_held(monkeypatch):
    # both directions of the last key at most, in 8 bytes per pixel together:
    # one intp index below _SPLIT_PIXELS, two compact ones from there
    module = importlib.import_module("modscramble.scramble")
    rng = np.random.default_rng(3)
    alive = []
    for step in range(48):
        if step == 24:
            monkeypatch.setattr(module, "_SPLIT_PIXELS", 1)
        n = int(rng.integers(2, 24))
        key = ScrambleKey(_random_invertible(rng, n).map, n, int(rng.integers(1, 9)))
        img = (random_gray, random_rgb)[step % 2](n, seed=n)
        unscramble(scramble(img, key), key)
        matrix = power_mod(key.validated(), key.iterations)
        if matrix == IDENTITY:  # no index was needed
            continue
        held = module._last_indexes
        assert held[0] == (matrix, n)
        alive += [weakref.ref(index) for index in held[1] if index is not None]
        indexes = [ref() for ref in alive if ref() is not None]
        assert all(any(index is mine for mine in held[1]) for index in indexes)
        assert sum(index.nbytes for index in indexes) <= 8 * n * n
        del held, indexes  # hold no index into the next key


def test_threads_build_one_index_at_a_time(monkeypatch):
    module = importlib.import_module("modscramble.scramble")
    real_build = module._build_index
    building, peak = [0], [0]

    def slow_build(matrix, n):
        building[0] += 1
        peak[0] = max(peak[0], building[0])
        time.sleep(0.002)  # lets another thread run while this one builds
        try:
            return real_build(matrix, n)
        finally:
            building[0] -= 1

    monkeypatch.setattr(module, "_build_index", slow_build)
    wanted = [((2, 1, 1, 1), 24), ((2, 1, 1, 1), 25), ((3, 2, 5, 7), 24)]
    expected = [real_build(matrix, n) for matrix, n in wanted]
    errors = []

    def worker(offset):
        for step in range(15):
            pick = (offset + step) % len(wanted)
            if not np.array_equal(module._cached_index(*wanted[pick]), expected[pick]):
                errors.append((offset, step))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert peak[0] == 1


def test_unscramble_never_searches_the_period(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("unscramble searched the period")

    monkeypatch.setattr(importlib.import_module("modscramble.scramble"), "period", no_search)
    img = random_rgb(32, seed=9)
    key = ScrambleKey(make_flt(F.FIB11, 6), 32, 20)
    assert unscramble(scramble(img, key), key) == img


# ---------------------------------------------------------------- split passes

@pytest.mark.parametrize("make_image", [random_gray, random_rgb], ids=["gray", "rgb"])
@pytest.mark.parametrize("parts, n", [(2, 31), (2, 32), (3, 31), (3, 32)])
def test_split_and_single_passes_give_equal_bytes(monkeypatch, make_image, parts, n):
    # n = 31 gives parts of unequal size; 32 * 32 is not a multiple of 3
    module = importlib.import_module("modscramble.scramble")
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(module.threading, "Thread", CountingThread)
    monkeypatch.setattr(module, "_usable_cpus", lambda: parts)
    vm = _random_invertible(np.random.default_rng(n), n)
    key = ScrambleKey(vm.map, n, 5)
    img = make_image(n, seed=parts)
    dest = _oracle_destinations(vm, 5)
    gathered = img.pixels.reshape(n * n, -1)[dest].reshape(img.pixels.shape)
    results = {}
    for split, threshold in (("single", n * n + 1), ("split", n * n)):
        monkeypatch.setattr(module, "_SPLIT_PIXELS", threshold)
        started.clear()
        scrambled = scramble(img, key)
        gathered_out, back = unscramble(img, key), unscramble(scrambled, key)
        results[split] = scrambled, gathered_out, back
        assert len(started) == (0 if split == "single" else 3 * (parts - 1))
        assert np.array_equal(scrambled.pixels, _oracle_scramble(img, dest)), split
        assert np.array_equal(gathered_out.pixels, gathered), split
        assert back == img, split
    for single, split in zip(results["single"], results["split"]):
        assert single.tobytes() == split.tobytes()


@pytest.mark.parametrize("make_image", [random_gray, random_rgb], ids=["gray", "rgb"])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocked_passes_match_the_oracle(monkeypatch, make_image, block):
    # blocks that straddle the parts of a split pass, with a short last block
    module = importlib.import_module("modscramble.scramble")
    monkeypatch.setattr(module, "_BLOCK", block)
    monkeypatch.setattr(module, "_SPLIT_PIXELS", 1)
    monkeypatch.setattr(module, "_usable_cpus", lambda: 3)
    n = 23
    vm = _random_invertible(np.random.default_rng(block), n)
    key = ScrambleKey(vm.map, n, 4)
    img = make_image(n, seed=block)
    scrambled = scramble(img, key)
    assert np.array_equal(scrambled.pixels, _oracle_scramble(img, _oracle_destinations(vm, 4)))
    assert unscramble(scrambled, key) == img


@pytest.mark.parametrize("make_image", [random_gray, random_rgb], ids=["gray", "rgb"])
@pytest.mark.parametrize("refused", [lambda call: True, lambda call: call % 2 == 0],
                         ids=["every-start", "every-second-start"])
def test_a_part_whose_thread_cannot_start_runs_on_the_caller(monkeypatch, make_image, refused):
    module = importlib.import_module("modscramble.scramble")
    calls = []

    class RefusedThread(threading.Thread):
        def start(self):
            calls.append(self)
            if refused(len(calls)):
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(module.threading, "Thread", RefusedThread)
    monkeypatch.setattr(module, "_SPLIT_PIXELS", 1)
    monkeypatch.setattr(module, "_usable_cpus", lambda: 3)
    n = 31
    vm = _random_invertible(np.random.default_rng(n), n)
    key = ScrambleKey(vm.map, n, 5)
    img = make_image(n, seed=3)
    dest = _oracle_destinations(vm, 5)
    before = threading.active_count()
    scrambled = scramble(img, key)
    gathered_out, back = unscramble(img, key), unscramble(scrambled, key)
    assert threading.active_count() == before  # every started thread was joined
    assert len(calls) == 6  # two workers in each of three passes
    assert scrambled.pixels.tobytes() == _oracle_scramble(img, dest).tobytes()
    gathered = img.pixels.reshape(n * n, -1)[dest].reshape(img.pixels.shape)
    assert gathered_out.pixels.tobytes() == gathered.tobytes()
    assert back == img


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    module = importlib.import_module("modscramble.scramble")
    monkeypatch.delattr(module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(module.os, "cpu_count", lambda: None)
    assert module._usable_cpus() == 1
    monkeypatch.setattr(module.os, "cpu_count", lambda: 6)
    assert module._usable_cpus() == 6


def test_an_exception_in_a_worker_part_reaches_the_caller(monkeypatch):
    module = importlib.import_module("modscramble.scramble")
    monkeypatch.setattr(module, "_SPLIT_PIXELS", 10)
    monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
    done = []

    def work(lo, hi):
        if lo > 0:
            raise RuntimeError(f"part {lo}..{hi} failed")
        done.append((lo, hi))

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="part 5..10 failed"):
        module._run_parts(work, 10)
    assert done == [(0, 5)]
    assert threading.active_count() == before  # the worker was joined


def test_many_parts_under_fast_thread_switching(monkeypatch):
    # more parts than cores, switching threads every microsecond: a lost or
    # misplaced write in any part changes the bytes
    module = importlib.import_module("modscramble.scramble")
    img = random_rgb(61, seed=12)
    key = ScrambleKey(make_flt(F.FIB32, 3), 61, 7)
    expected = scramble(img, key)
    monkeypatch.setattr(module, "_SPLIT_PIXELS", 1)
    monkeypatch.setattr(module, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert scramble(img, key) == expected
            assert unscramble(expected, key) == img
    finally:
        sys.setswitchinterval(interval)

@pytest.mark.parametrize("threshold", [1, 2**62], ids=["split", "single"])
@pytest.mark.parametrize("make_image", [random_gray, random_rgb], ids=["gray", "rgb"])
def test_pass_results_are_read_only_and_share_no_memory(monkeypatch, threshold, make_image):
    monkeypatch.setattr(importlib.import_module("modscramble.scramble"), "_SPLIT_PIXELS", threshold)
    img = make_image(33, seed=4)
    key = ScrambleKey(make_arnold(), 33, 7)
    for out in (scramble(img, key), unscramble(img, key)):
        assert not out.pixels.flags.writeable
        assert not np.shares_memory(out.pixels, img.pixels)
        with pytest.raises(ValueError):
            out.pixels[0, 0] = 0


def test_public_image_grid_keeps_its_own_copy():
    px = np.arange(16, dtype=np.uint8).reshape(4, 4)
    img = ImageGrid(px)
    px[0, 0] = 99
    assert img.pixels[0, 0] == 0
    assert not np.shares_memory(img.pixels, px)
    assert not img.pixels.flags.writeable


@pytest.mark.parametrize("make_image", [random_gray, random_rgb], ids=["gray", "rgb"])
def test_a_pass_allocates_less_than_a_copy_of_the_index(monkeypatch, make_image):
    # Per part, NumPy converts one _BLOCK of a compact index to intp at a
    # time (8 bytes an entry), and np.put copies one read-only _BLOCK of RGB
    # source (3 bytes a pixel): a pass allocates its output and 11 _BLOCKs
    # more per part. At this size that is below one compact index, both for
    # the one intp index of a single part and for two compact indexes in two.
    module = importlib.import_module("modscramble.scramble")
    monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
    n = 1024
    img = make_image(n, seed=5)
    key = ScrambleKey(make_flt(F.FIB11, 6), n, 20)
    for threshold, parts, dtype in ((n * n + 1, 1, np.intp), (n * n, 2, np.uint32)):
        monkeypatch.setattr(module, "_SPLIT_PIXELS", threshold)
        monkeypatch.setattr(module, "_last_indexes", None)
        unscramble(scramble(img, key), key)  # builds every index a pass uses
        assert all(index is None or index.dtype == dtype for index in module._last_indexes[1])
        bound = img.pixels.nbytes + 12 * module._BLOCK * parts
        assert bound < 4 * n * n  # one uint32 index
        tracemalloc.start()
        try:
            for run in (scramble, unscramble):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = run(img, key)
                assert tracemalloc.get_traced_memory()[1] - before < bound
                del out
        finally:
            tracemalloc.stop()
