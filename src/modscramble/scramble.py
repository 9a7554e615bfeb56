"""Pixel-position scrambling: apply a validated map as a permutation of the grid.

Coordinate convention (frozen; the golden-matrix tests lock it in):
x is the row index, y is the column index, both zero-based, and the pixel at
(x, y) MOVES TO (x', y') = (a*x + b*y, c*x + d*y) mod N. Multi-iteration
scrambling collapses t applications into a single matrix power, then performs
one permutation pass, which is identical to t sequential passes.

scramble and unscramble are one pass (_pass): scramble scatters each pixel
to its destination, unscramble gathers it back, both through one cached flat
index of M^t. Only the index of the last (matrix, n) is kept; it is writable
and never leaves this module. From _SPLIT_PIXELS pixels on a pass is split
into one contiguous part per usable CPU, each extra part on a thread started
and joined inside the call; NumPy releases the GIL while it copies, so the
parts run at once. The grid a pass returns wraps the array the pass
allocated, with no further copy.
"""

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import GridShapeError, WorkBoundError
from .maps import IDENTITY, Entries, TransformMap, ValidatedMap, power_mod, validate


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """Square N x N grid of 8-bit pixels, N >= 1, grayscale (N, N) or RGB (N, N, 3).

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


#: Elements of each row block while an index is built; bounds its temporaries.
_BLOCK = 1 << 15

#: The index of the last (matrix, n) used, as ((matrix, n), index), or None.
_last_index: tuple[tuple[Entries, int], np.ndarray] | None = None
_index_lock = threading.Lock()


def _build_index(matrix: Entries, n: int) -> np.ndarray:
    """Flat destination x'*n + y' of every source pixel x*n + y, built in row blocks.

    Each row block is an outer sum of per-axis residues, reduced by one
    unsigned wrap: for v in [0, 2m), min(v, v - m) is v mod m, because v - m
    wraps round to a huge value when v < m.
    """
    a, b, c, d = matrix
    nn = n * n
    work = np.uint32 if 2 * nn <= 2**32 else np.uint64
    r = np.arange(n, dtype=work)
    ax, by = (coef * r % n * n for coef in (work(a), work(b)))  # x' terms, times n
    cx, dy = (coef * r % n for coef in (work(c), work(d)))
    index = np.empty(nn, dtype=np.intp)
    rows = max(1, _BLOCK // n)
    xs, ys, spare = (np.empty((rows, n), dtype=work) for _ in range(3))
    for x0 in range(0, n, rows):
        block = index[x0 * n : (x0 + rows) * n].reshape(-1, n)
        k = block.shape[0]
        xp, yp, tmp = xs[:k], ys[:k], spare[:k]
        np.add.outer(ax[x0 : x0 + k], by, out=xp)
        np.minimum(xp, np.subtract(xp, work(nn), out=tmp), out=xp)
        np.add.outer(cx[x0 : x0 + k], dy, out=yp)
        np.minimum(yp, np.subtract(yp, work(n), out=tmp), out=yp)
        np.add(xp, yp, out=block)
    return index


def _cached_index(matrix: Entries, n: int) -> np.ndarray:
    """The flat index of (matrix, n), built on a miss.

    Pixel i = x*n + y moves to index[i]. Only the index of the last
    (matrix, n) is kept, so a key that scrambles many images, or scrambles
    and then unscrambles, builds it once; the old one is dropped before a
    new one is built, so at most one (8 bytes per pixel) is held at any
    time. The index is writable: np.take and np.put copy a read-only index
    on every call (32 MiB at N = 2048).
    """
    global _last_index
    with _index_lock:
        if _last_index is None or _last_index[0] != (matrix, n):
            _last_index = None  # free the old index before the new one exists
            _last_index = ((matrix, n), _build_index(matrix, n))
        return _last_index[1]


_RGB = np.dtype((np.void, 3))


def _flat(pixels: np.ndarray) -> np.ndarray:
    """One element per pixel, in row-major order; an RGB pixel is one 3-byte void."""
    if pixels.ndim == 3:
        return pixels.reshape(-1, 3).view(_RGB).reshape(-1)
    return pixels.reshape(-1)


#: Pixels from which a pass is split into one part per usable CPU: N >= 1449.
#: On a 2-CPU Xeon (medians of 31 interleaved runs), two parts lost at
#: N = 1031 gray (scatter 3.1 -> 3.5 ms) and won at N = 2048 RGB (scatter
#: 40 -> 22 ms, gather 61 -> 34 ms) and N = 4096 gray (scatter 156 -> 81 ms).
_SPLIT_PIXELS = 1 << 21


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_parts(work, total: int) -> None:
    """Call work(lo, hi) over contiguous parts of range(total).

    Below _SPLIT_PIXELS there is one part, else one per usable CPU: the
    first runs here, each other on its own thread. Every thread is joined
    before this returns, and the first exception raised in any part is
    raised here. work must call no traced library function: it runs NumPy
    copies only.
    """
    k = _usable_cpus() if total >= _SPLIT_PIXELS else 1
    parts = [(total * i // k, total * (i + 1) // k) for i in range(k)]
    errors = []

    def guarded(lo, hi):
        try:
            work(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for part in parts[1:]:
            thread = threading.Thread(target=guarded, args=part)
            thread.start()
            threads.append(thread)
        work(*parts[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


# In _scatter and _gather, mode="clip" lets np.put and np.take write in place
# ("raise" makes them buffer the output); a permutation index never clips.


def _scatter(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """out[index[i]] = src[i] for every pixel i.

    Fancy assignment is the faster scatter for 1-byte gray pixels (20 ms
    against 27 ms for np.put at N = 2048), np.put for 3-byte RGB ones (29 ms
    against 56 ms). np.put copies a read-only source, so that copy is made
    here, in the calling thread: made in the worker threads, it added 20 to
    30 MB to the peak RSS of a run of N = 2048 round trips.
    """
    out = np.empty_like(src)
    if src.itemsize == 1:
        def part(lo, hi):
            out[index[lo:hi]] = src[lo:hi]
    else:
        writable = src.copy()

        def part(lo, hi):
            np.put(out, index[lo:hi], writable[lo:hi], mode="clip")

    _run_parts(part, src.size)
    return out


def _gather(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """out[i] = src[index[i]] for every pixel i, written straight into out.

    np.take on the writable index is the faster gather for both pixel sizes:
    at N = 2048, 8.5 ms against 10.4 ms for fancy indexing on gray, and
    37 ms against 65 ms on RGB.
    """
    out = np.empty_like(src)

    def part(lo, hi):
        np.take(src, index[lo:hi], out=out[lo:hi], mode="clip")

    _run_parts(part, src.size)
    return out


def _pass(img: ImageGrid, key: ScrambleKey, move) -> ImageGrid:
    """Run move (_scatter or _gather) over img's pixels and the index of M^t."""
    if img.side != key.n:
        raise GridShapeError(
            f"key modulus {key.n} does not match image side {img.side}"
        )
    matrix = power_mod(key.validated(), key.iterations)
    if matrix == IDENTITY:
        return img
    out = move(_flat(img.pixels), _cached_index(matrix, key.n))
    return ImageGrid._own(out.view(np.uint8).reshape(img.pixels.shape))


def scramble(img: ImageGrid, key: ScrambleKey) -> ImageGrid:
    """Move every pixel t = key.iterations times: out[M^t (x, y)] = in[x, y]."""
    return _pass(img, key, _scatter)


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
    factors it once. The matrix powers remain: about 2 ms per map at
    n = 4294967291 (2-CPU Xeon), so 10**5 maps there still take minutes.
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

    It gathers through the same cached index that scramble scatters through,
    so it needs only M^t: no period and no inverse matrix. The paper's two
    routes, iterating the map period - t more times or the inverse map t
    times, give the same permutation; plan_unscramble reports their costs.
    """
    return _pass(img, key, _gather)
