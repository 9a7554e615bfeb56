"""Pixel-position scrambling: apply a validated map as a permutation of the grid.

Coordinate convention (frozen; the golden-matrix tests lock it in):
x is the row index, y is the column index, both zero-based, and the pixel at
(x, y) MOVES TO (x', y') = (a*x + b*y, c*x + d*y) mod N. Multi-iteration
scrambling collapses t applications into a single matrix power, then performs
one permutation pass, which is identical to t sequential passes.

scramble and unscramble are one pass (_pass) through a cached flat index,
and only the indexes of the last (matrix, n) are kept; they never leave this
module. Below _SPLIT_PIXELS pixels a key needs one index, of M^t, in intp:
scramble scatters through it and unscramble gathers through it. From
_SPLIT_PIXELS on, a pass is split into one contiguous part per usable CPU,
each extra part on a thread started and joined inside the call (NumPy
releases the GIL while it copies, so the parts run at once), and the
indexes are uint32 (a side is at most SIDE_BOUND), handed to NumPy one
block at a time. There gray pixels gather and RGB pixels scatter in both
directions, through the index of M^t or of M^-t. Either way a key holds at
most 8 bytes of index per pixel. The grid a pass returns wraps the array
the pass allocated, with no further copy.
"""

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import GridShapeError, WorkBoundError
from .maps import (
    IDENTITY,
    Entries,
    TransformMap,
    ValidatedMap,
    inverse_mod,
    make_raw,
    power_mod,
    validate,
)


#: Largest image side, isqrt(2**31): 2 * N^2 <= 2**32, so an index and the sums
#: that build it fit in uint32. A longer side is refused before pixels move.
SIDE_BOUND = 46340


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """Square N x N grid of 8-bit pixels, 1 <= N <= SIDE_BOUND, grayscale (N, N) or RGB (N, N, 3).

    The public constructor checks the array and keeps a read-only copy, so
    the caller may go on changing its own array. The library wraps arrays
    it has just allocated with the private _own, which takes ownership:
    no check and no copy.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise GridShapeError(f"pixels must be uint8, got {px.dtype}")
        if px.ndim == 2:
            h, w = px.shape
        elif px.ndim == 3 and px.shape[2] == 3:
            h, w = px.shape[:2]
        else:
            raise GridShapeError(f"pixels must be (N, N) or (N, N, 3), got {px.shape}")
        if h != w:
            raise GridShapeError(f"image is {h} rows x {w} columns; a square image is required")
        if h == 0:
            raise GridShapeError("image is empty; a side of at least 1 is required")
        if h > SIDE_BOUND:
            raise GridShapeError(f"image side {h} is above the side bound of {SIDE_BOUND}")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @classmethod
    def _own(cls, px: np.ndarray) -> "ImageGrid":
        """Wrap px, a valid grid array no one else holds, and make it read-only."""
        px.flags.writeable = False
        grid = object.__new__(cls)
        object.__setattr__(grid, "pixels", px)
        return grid

    @property
    def side(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3

    def tobytes(self) -> bytes:
        return self.pixels.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageGrid):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


@dataclass(frozen=True)
class ScrambleKey:
    """Full (de)scrambling credential: map, modulus and iteration count."""

    map: TransformMap
    n: int
    iterations: int

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")

    def validated(self) -> ValidatedMap:
        return validate(self.map, self.n)

    __hash__ = None


@dataclass(frozen=True)
class RoutePlan:
    """The two decryption routes and which one costs fewer nominal iterations."""

    period: int
    forward_steps: int
    inverse_steps: int
    chosen: str  # "forward" | "inverse"


def apply_point(vm: ValidatedMap, x: int, y: int) -> tuple[int, int]:
    """Destination of the single point (x, y) under one application of the map."""
    n = vm.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"point ({x}, {y}) outside the {n}x{n} grid")
    a, b, c, d = vm.reduced
    return (a * x + b * y) % n, (c * x + d * y) % n


#: Elements of each block: a row block while an index is built, and an index
#: block handed to np.take or np.put while a pass moves pixels. Bounds their
#: temporaries.
_BLOCK = 1 << 15

#: The indexes of the last (matrix, n) used, as ((matrix, n), [forward,
#: inverse]), where a direction not used yet is None; or None.
_last_indexes: tuple[tuple[Entries, int], list] | None = None
_index_lock = threading.Lock()


def _index_dtype(n: int) -> np.dtype:
    """intp below _SPLIT_PIXELS pixels, uint32 from there."""
    return np.dtype(np.intp if n * n < _SPLIT_PIXELS else np.uint32)


def _index_blocks(matrix: Entries, n: int, out: np.ndarray):
    """Fill the destinations x'*n + y' of the source rows one block at a time.

    A block is min(n, max(1, _BLOCK // n)) rows (the last may be shorter),
    built by the recurrence that _build_index states. out is either the
    whole (n, n) index, whose rows are filled in place, or a buffer of at
    least one block of rows, reused for every block. Yields (x0, block):
    the block's first source row and the rows of out just filled.
    """
    a, b, c, d = matrix
    nn = np.uint32(n * n)
    rows = min(n, max(1, _BLOCK // n))
    r = np.arange(n, dtype=np.uint32)
    xp, yp, tmp = (np.empty((rows, n), dtype=np.uint32) for _ in range(3))
    np.add.outer(np.uint32(a) * r[:rows] % n * n, np.uint32(b) * r % n * n, out=xp)
    np.add.outer(np.uint32(c) * r[:rows] % n, np.uint32(d) * r % n, out=yp)
    x_step, y_step = np.uint32(a * rows % n * n), np.uint32(c * rows % n)
    whole = len(out) == n
    for x0 in range(0, n, rows):
        k = min(rows, n - x0)
        xk, yk, t = xp[:k], yp[:k], tmp[:k]
        if x0:
            xk += x_step
            yk += y_step
        np.minimum(xk, np.subtract(xk, nn, out=t), out=xk)
        np.minimum(yk, np.subtract(yk, np.uint32(n), out=t), out=yk)
        block = out[x0 : x0 + k] if whole else out[:k]
        np.add(xk, yk, out=block)
        yield x0, block


def _build_index(matrix: Entries, n: int) -> np.ndarray:
    """Flat destination x'*n + y' of every source pixel x*n + y, in _index_dtype(n).

    Drains _index_blocks into the index itself. The map is linear, so rows
    x + k go where rows x go, moved by the fixed vector (a*k, c*k) mod n.
    Only the first row block is an outer sum of per-axis residues; each
    later one adds the scalar steps (a*rows mod n)*n and c*rows mod n in
    place to the held uint32 blocks of x'*n and y'. Each sum is reduced by
    one unsigned wrap: for v in [0, 2m), min(v, v - m) is v mod m, because
    v - m wraps round to a huge value when v < m. Every sum is below
    2*n*n, at most 2**32 for a side up to SIDE_BOUND, so uint32 holds it.
    Besides the index, the build allocates three uint32 blocks of at most
    max(_BLOCK, n) entries.
    """
    index = np.empty(n * n, dtype=_index_dtype(n))
    for _ in _index_blocks(matrix, n, index.reshape(n, n)):
        pass
    return index


def _cached_index(matrix: Entries, n: int, inverse: bool = False) -> np.ndarray:
    """The flat index of (matrix, n), or of its inverse, built on first use.

    Pixel i = x*n + y moves to index[i] under the matrix; the inverse index
    undoes that move. Only the indexes of the last (matrix, n) are kept, so
    a key that scrambles many images, or scrambles and then unscrambles,
    builds each direction once; a new (matrix, n) drops both before it
    builds anything. Each index is held in _index_dtype(n): below
    _SPLIT_PIXELS a pass asks only for the forward intp index (8 bytes per
    pixel), and from there both uint32 directions together take 8 bytes per
    pixel.
    """
    global _last_indexes
    with _index_lock:
        if _last_indexes is None or _last_indexes[0] != (matrix, n):
            _last_indexes = None  # free the old indexes before a new one exists
            _last_indexes = ((matrix, n), [None, None])
        slots = _last_indexes[1]
        if slots[inverse] is None:
            target = inverse_mod(validate(make_raw(*matrix), n)).reduced if inverse else matrix
            slots[inverse] = _build_index(target, n)
        return slots[inverse]


_RGB = np.dtype((np.void, 3))


def _flat(pixels: np.ndarray) -> np.ndarray:
    """One element per pixel, in row-major order; an RGB pixel is one 3-byte void."""
    if pixels.ndim == 3:
        return pixels.reshape(-1, 3).view(_RGB).reshape(-1)
    return pixels.reshape(-1)


#: Pixels from which a pass is split into one part per usable CPU and the
#: indexes are compact: N >= 1449. Medians of 21 interleaved warm passes on
#: a 2-vCPU Xeon VM, two sessions, scramble + unscramble in ms. Against one
#: intp index in one part, compact indexes in two parts lose on gray at
#: N = 1031 (3.9-4.2 -> 4.5-5.0; RGB 15.7-16.1 -> 14.4-15.8) and win from
#: 1449 (gray 14.9-17.5 -> 14.7-16.4, and scramble alone 9.4-10.8 -> 7.5-8.3;
#: at 2048 gray scramble 19.4-23.4 -> 13.2-19.0). Two parts against one, both
#: compact, were level from 1031 to 2048 in both sessions; at 4096 they were
#: level on gray and won on RGB (460 -> 161 ms scramble, 462 -> 312 ms
#: unscramble). An earlier session on the same host had two parts win at
#: 2048 RGB (40 -> 22 ms), so the split stays at this size.
_SPLIT_PIXELS = 1 << 21


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_parts(work, total: int) -> None:
    """Call work(lo, hi) over contiguous parts of range(total).

    Below _SPLIT_PIXELS there is one part, else one per usable CPU: the
    first runs here, each other on its own thread. A part whose thread
    cannot start (a process or memory limit) runs here after the first.
    Every thread is joined before this returns, and the first exception
    raised in any part is raised here. work must call no traced library
    function: it runs NumPy copies only.
    """
    k = _usable_cpus() if total >= _SPLIT_PIXELS else 1
    parts = [(total * i // k, total * (i + 1) // k) for i in range(k)]
    errors = []

    def guarded(lo, hi):
        try:
            work(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads, here = [], parts[:1]
    try:
        for part in parts[1:]:
            thread = threading.Thread(target=guarded, args=part)
            try:
                thread.start()
            except RuntimeError:  # "can't start new thread"
                here.append(part)
                continue
            threads.append(thread)
        for part in here:
            work(*part)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


# NumPy converts an index that is not intp to intp, so a compact index goes
# to np.take and np.put one _BLOCK at a time and a pass allocates O(_BLOCK)
# besides its output; handed whole, it would be converted whole on every
# call. np.put also copies the read-only source it is given, so RGB goes one
# block at a time through an intp index too. mode="clip" lets np.put and
# np.take write in place ("raise" makes them buffer the output); a
# permutation index never clips.


def _scatter(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """out[index[i]] = src[i] for every pixel i.

    Gray pixels, which scatter only through an intp index, go by fancy
    assignment: 3.6 ms against 7.8 ms for np.put at N = 1031 (2-CPU Xeon).
    RGB pixels go by np.put, one block at a time.
    """
    out = np.empty_like(src)
    if src.itemsize == 1:
        def part(lo, hi):
            out[index[lo:hi]] = src[lo:hi]
    else:
        def part(lo, hi):
            for start in range(lo, hi, _BLOCK):
                stop = min(start + _BLOCK, hi)
                np.put(out, index[start:stop], src[start:stop], mode="clip")

    _run_parts(part, src.size)
    return out


def _gather(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """out[i] = src[index[i]] for every pixel i, by np.take: a compact index
    one block at a time, an intp index whole."""
    out = np.empty_like(src)
    step = src.size if index.dtype == np.intp else _BLOCK

    def part(lo, hi):
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            np.take(src, index[start:stop], out=out[start:stop], mode="clip")

    _run_parts(part, src.size)
    return out


def _pass(img: ImageGrid, key: ScrambleKey, forward: bool) -> ImageGrid:
    """Move img's pixels by M^t (forward, scramble) or back (unscramble).

    Below _SPLIT_PIXELS the key's one intp index, of M^t, serves both:
    scramble scatters through it and unscramble gathers through it. From
    there gray pixels always gather and RGB pixels always scatter, through
    the index of M^-t or of M^t as the direction needs: np.take moves 1-byte
    pixels faster than a scatter does, and np.put moves 3-byte pixels faster
    than np.take (RGB unscramble 25-27 against 37-40 ms at N = 2048 inside
    the bulk-images benchmark, 2-vCPU Xeon VM).
    """
    if img.side != key.n:
        raise GridShapeError(
            f"key modulus {key.n} does not match image side {img.side}"
        )
    matrix = power_mod(key.validated(), key.iterations)
    if matrix == IDENTITY:
        return img
    src = _flat(img.pixels)
    if src.size < _SPLIT_PIXELS:
        index = _cached_index(matrix, key.n)
        out = _scatter(src, index) if forward else _gather(src, index)
    elif src.itemsize == 1:
        out = _gather(src, _cached_index(matrix, key.n, inverse=forward))
    else:
        out = _scatter(src, _cached_index(matrix, key.n, inverse=not forward))
    return ImageGrid._own(out.view(np.uint8).reshape(img.pixels.shape))


def scramble(img: ImageGrid, key: ScrambleKey) -> ImageGrid:
    """Move every pixel t = key.iterations times: out[M^t (x, y)] = in[x, y]."""
    return _pass(img, key, forward=True)


#: Largest modulus period() accepts. Trial division of N, and of q - 1 and
#: q + 1 for each prime q of N, then takes at most 2**16 steps per number.
PERIOD_MODULUS_BOUND = 2**32


@functools.lru_cache(maxsize=256)
def _primes(m: int) -> frozenset[int]:
    """Distinct prime factors of m >= 1, by trial division; memoised per m."""
    primes = set()
    q = 2
    while q * q <= m:
        if m % q == 0:
            primes.add(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.add(m)
    return frozenset(primes)


def period(vm: ValidatedMap) -> int:
    """Smallest p >= 1 with map^p = identity mod n: the order of the map in GL2(Z/n).

    The order divides e = n * prod(q^2 - 1) over the primes q of n (Dyson &
    Falk 1992; Bao & Yang 2012), so map^e = identity. Each prime r of e is
    divided out of e while map^(e/r) is still the identity; what is left is
    the order. The work grows with the size of n, not with the order: n
    above PERIOD_MODULUS_BOUND raises WorkBoundError. The factors of n, q - 1
    and q + 1 are memoised, so a survey or an equivalence report at one n
    factors it once. Each power is one Lucas pair of the map's trace and
    determinant (maps.power_mod): about 0.7 ms per map at n = 4294967291
    (2-CPU Xeon), so 10**5 maps there still take over a minute.
    """
    n = vm.n
    if n > PERIOD_MODULUS_BOUND:
        raise WorkBoundError(
            f"modulus {n} is above the period bound of {PERIOD_MODULUS_BOUND}"
        )
    primes = _primes(n)
    e = n
    candidates = set(primes)  # the primes of e
    for q in primes:
        e *= q * q - 1
        candidates |= _primes(q - 1) | _primes(q + 1)
    for r in candidates:
        while e % r == 0 and power_mod(vm, e // r) == IDENTITY:
            e //= r
    return e


def plan_unscramble(vm: ValidatedMap, iterations: int) -> RoutePlan:
    """Compare the forward (period - t) route against the inverse-map (t) route.

    Its cost is that of period(), which does not grow with the period.
    """
    p = period(vm)
    t = iterations % p
    forward = (p - t) % p
    chosen = "inverse" if t <= forward else "forward"
    return RoutePlan(p, forward, t, chosen)


def unscramble(img: ImageGrid, key: ScrambleKey) -> ImageGrid:
    """Exact inverse of scramble with the same key: out[x, y] = in[M^t (x, y)].

    It moves pixels through the cached index of M^t (from _SPLIT_PIXELS RGB
    pixels, of its 2x2 inverse M^-t), so it never needs the period. The
    paper's two routes, iterating the map period - t more times or the
    inverse map t times, give the same permutation; plan_unscramble reports
    their costs.
    """
    return _pass(img, key, forward=False)
