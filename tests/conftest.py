import math

import numpy as np
import pytest

from modscramble import ImageGrid, ScrambleKey, SequenceFamily, inverse_mod, period, scramble
from modscramble.maps import IDENTITY, mat_mul_mod

# First 18 terms of each named series, 1-indexed (golden reference rows).
SERIES_TERMS = {
    SequenceFamily.FIB11: [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584],
    SequenceFamily.LUCAS: [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364, 2207, 3571],
    SequenceFamily.FIB32: [3, 2, 5, 7, 12, 19, 31, 50, 81, 131, 212, 343, 555, 898, 1453, 2351, 3804, 6155],
    SequenceFamily.FIB31: [3, 1, 4, 5, 9, 14, 23, 37, 60, 97, 157, 254, 411, 665, 1076, 1741, 2817, 4558],
}


def grid(rows) -> ImageGrid:
    return ImageGrid(np.array(rows, dtype=np.uint8))


def random_gray(n: int, seed: int = 0, lo: int = 0, hi: int = 256) -> ImageGrid:
    rng = np.random.default_rng(seed)
    return ImageGrid(rng.integers(lo, hi, (n, n), dtype=np.uint8))


def random_rgb(n: int, seed: int = 0) -> ImageGrid:
    rng = np.random.default_rng(seed)
    return ImageGrid(rng.integers(0, 256, (n, n, 3), dtype=np.uint8))


def permutation_order(vm) -> int:
    """Independent oracle: order of the induced point permutation, via cycle lengths.

    Uses only the reduced entries; no matrix powers, no period().
    """
    a, b, c, d = vm.reduced
    n = vm.n
    dest = [((a * x + b * y) % n) * n + ((c * x + d * y) % n)
            for x in range(n) for y in range(n)]
    seen = [False] * (n * n)
    order = 1
    for start in range(n * n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = dest[j]
            length += 1
        order = math.lcm(order, length)
    return order


def iterated_order(vm) -> int:
    """Second oracle: multiply by the map until the identity comes back, with no cap."""
    acc = vm.reduced
    order = 1
    while acc != IDENTITY:
        acc = mat_mul_mod(acc, vm.reduced, vm.n)
        order += 1
    return order


def proper_powers(vm) -> frozenset:
    """Third oracle: the matrices M^k mod n for 1 <= k < period, by repeated products.

    On a reference of side n with pairwise-distinct pixels, the state set of
    a map is exactly this set, so two maps share a pattern when their sets
    are equal.
    """
    a, b, c, d = vm.reduced
    n = vm.n
    powers = set()
    acc = vm.reduced
    while acc != (1, 0, 0, 1):
        powers.add(acc)
        w, x, y, z = acc
        acc = ((w * a + x * c) % n, (w * b + x * d) % n, (y * a + z * c) % n, (y * b + z * d) % n)
    return frozenset(powers)


def forward_route(scrambled: ImageGrid, key: ScrambleKey) -> ImageGrid:
    """The paper's forward decryption: iterate the map period - t more times."""
    p = period(key.validated()).period
    return scramble(scrambled, ScrambleKey(key.map, key.n, (p - key.iterations) % p))


def inverse_route(scrambled: ImageGrid, key: ScrambleKey) -> ImageGrid:
    """The paper's inverse decryption: iterate the inverse map t times."""
    inverse = inverse_mod(key.validated()).map
    return scramble(scrambled, ScrambleKey(inverse, key.n, key.iterations))


def distinct_rgb(n: int, seed: int = 0) -> ImageGrid:
    """An n x n RGB grid, n <= 4096, of shuffled pairwise-distinct 24-bit ids."""
    ids = np.random.default_rng(seed).permutation(n * n)
    rgb = np.stack([ids >> 16, ids >> 8, ids], axis=-1) & 255
    return ImageGrid(rgb.astype(np.uint8).reshape(n, n, 3))


@pytest.fixture
def reference_a() -> ImageGrid:
    """The 3x3 grid 1..9 used by every golden scrambling table."""
    return grid([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
