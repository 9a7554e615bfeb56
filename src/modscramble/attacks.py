"""Robustness harness: noise, cropping and a blockwise-DCT compression surrogate.

Scrambling is a pure pixel permutation, so any attack that changes pixel
values in place damages the recovered image by exactly the same error
multiset as it damaged the scrambled image. That isometry (checked with
exact integer MSE sums) is the quantitative form of the robustness claim.

Stochastic attacks draw from numpy's default PCG64 generator seeded with the
spec's 64-bit seed: identical (image, spec) inputs reproduce identical output
across runs. Gaussian variance is on the 0..255 pixel scale; speckle variance
is on the dimensionless multiplicative factor.
"""

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from typing import get_args

import numpy as np

from .errors import GridShapeError
from .scramble import ImageGrid, ScrambleKey, _flat, scramble, unscramble


@dataclass(frozen=True)
class SaltPepper:
    """Set ceil(density * N^2) distinct pixels to 0 or 255, equal probability."""

    density: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")

    kind = "salt-pepper"

    def apply(self, img: ImageGrid) -> ImageGrid:
        n = img.side
        count = math.ceil(self.density * n * n)
        out = img.pixels.copy()
        if count:
            rng = np.random.default_rng(self.seed)
            flat = rng.choice(n * n, size=count, replace=False)
            values = rng.integers(0, 2, size=count, dtype=np.uint8) * 255
            out.reshape(n * n, -1)[flat] = values[:, None]
        return ImageGrid._own(out)


@dataclass(frozen=True)
class GaussianNoise:
    """Add rounded, clamped normal noise per channel (0..255 scale)."""

    mean: float = 0.0
    variance: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 <= self.variance < math.inf:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")

    kind = "gaussian"

    def apply(self, img: ImageGrid) -> ImageGrid:
        rng = np.random.default_rng(self.seed)
        noise = rng.normal(self.mean, math.sqrt(self.variance), img.pixels.shape)
        noise += img.pixels
        return _to_grid(noise)


@dataclass(frozen=True)
class Speckle:
    """Multiply by (1 + noise), noise ~ N(0, variance), then round and clamp."""

    variance: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.variance < math.inf:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")

    kind = "speckle"

    def apply(self, img: ImageGrid) -> ImageGrid:
        rng = np.random.default_rng(self.seed)
        noise = rng.normal(0.0, math.sqrt(self.variance), img.pixels.shape)
        noise += 1.0
        noise *= img.pixels
        return _to_grid(noise)


@dataclass(frozen=True)
class Crop:
    """Overwrite the rectangle rows row0..row0+height, cols col0..col0+width with fill."""

    row0: int
    col0: int
    height: int
    width: int
    fill: int = 0

    def __post_init__(self):
        if min(self.row0, self.col0, self.height, self.width) < 0:
            raise ValueError("crop rectangle fields must be >= 0")
        if not 0 <= self.fill <= 255:
            raise ValueError(f"fill must be a byte value, got {self.fill}")

    kind = "crop"

    def apply(self, img: ImageGrid) -> ImageGrid:
        n = img.side
        if self.row0 + self.height > n or self.col0 + self.width > n:
            raise ValueError(
                f"crop rectangle {self.row0},{self.col0} size {self.height}x{self.width} "
                f"exceeds the {n}x{n} grid"
            )
        out = img.pixels.copy()
        out[self.row0 : self.row0 + self.height, self.col0 : self.col0 + self.width] = self.fill
        return ImageGrid._own(out)


#: Base luminance quantization table used by the compression surrogate.
QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class CompressSurrogate:
    """8x8 blockwise DCT, quality-scaled quantization, rounding, reconstruction.

    Not a container codec: it reproduces quantization loss only. The quality
    knob follows the usual rule scale = 5000/q (q < 50) else 200 - 2q, with
    table entries floor((base*scale + 50)/100) clamped to 1..255; quality 100
    therefore quantizes with an all-ones table and only rounding loss remains.
    """

    quality: int = 50

    def __post_init__(self):
        if not 1 <= self.quality <= 100:
            raise ValueError(f"quality must be 1..100, got {self.quality}")

    kind = "compress"

    def scaled_table(self) -> np.ndarray:
        q = self.quality
        scale = 5000 / q if q < 50 else 200 - 2 * q
        return np.clip(np.floor((QUANT_TABLE * scale + 50) / 100), 1, 255)

    def apply(self, img: ImageGrid) -> ImageGrid:
        """Every 8x8 block of every channel in one batched DCT, quantise, inverse DCT.

        The edge-padded (N, N, C) grid becomes contiguous (C, m, m, 8, 8) float64
        blocks; the transforms run in place through one scratch array, which is
        dropped before the blocks are transposed back, so at most two float64
        copies of the padded image are alive at once.
        """
        table = self.scaled_table()
        n = img.side
        m = -(-n // 8)
        pad = 8 * m - n
        blocks = (
            np.pad(img.pixels.reshape(n, n, -1), ((0, pad), (0, pad), (0, 0)), mode="edge")
            .reshape(m, 8, m, 8, -1)
            .transpose(4, 0, 2, 1, 3)
            .astype(np.float64, order="C")
        )
        blocks -= 128.0
        scratch = np.empty_like(blocks)
        np.matmul(_DCT8, blocks, out=scratch)
        np.matmul(scratch, _DCT8.T, out=blocks)
        blocks /= table
        np.round(blocks, out=blocks)
        blocks *= table
        np.matmul(_DCT8.T, blocks, out=scratch)
        np.matmul(scratch, _DCT8, out=blocks)
        del scratch
        blocks += 128.0
        out = blocks.transpose(1, 3, 2, 4, 0).reshape(8 * m, 8 * m, -1)
        del blocks
        return _to_grid(out[:n, :n].reshape(img.pixels.shape))


AttackSpec = SaltPepper | GaussianNoise | Speckle | Crop | CompressSurrogate

#: Attack kind -> spec class, in the order of AttackSpec.
SPECS = {spec.kind: spec for spec in get_args(AttackSpec)}


def _to_grid(arr: np.ndarray) -> ImageGrid:
    """Round and clamp a float array to bytes; arr is overwritten on the way."""
    np.rint(arr, out=arr)
    np.clip(arr, 0, 255, out=arr)
    return ImageGrid._own(arr.astype(np.uint8, order="C"))


def _dct_matrix(size: int = 8) -> np.ndarray:
    k = np.arange(size).reshape(size, 1)
    j = np.arange(size).reshape(1, size)
    m = np.cos((2 * j + 1) * k * np.pi / (2 * size)) * math.sqrt(2 / size)
    m[0, :] = 1 / math.sqrt(size)
    return m


_DCT8 = _dct_matrix(8)


def apply_attack(img: ImageGrid, spec: AttackSpec) -> ImageGrid:
    """Deterministic given (img, spec); stochastic kinds draw from spec.seed."""
    if not isinstance(spec, AttackSpec):
        raise TypeError(f"not an attack spec: {spec!r}")
    return spec.apply(img)


def _check_same_shape(a: ImageGrid, b: ImageGrid) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise GridShapeError(
            f"image shapes differ: {a.pixels.shape} vs {b.pixels.shape}"
        )


def sse(a: ImageGrid, b: ImageGrid) -> int:
    """Exact integer sum of squared per-channel differences."""
    _check_same_shape(a, b)
    d = np.subtract(a.pixels, b.pixels, dtype=np.int16).reshape(-1)
    return int(np.einsum("i,i->", d, d, dtype=np.int64))


def mse(a: ImageGrid, b: ImageGrid) -> float:
    return sse(a, b) / a.pixels.size


def _psnr_from_mse(err: float) -> float:
    if err == 0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / err)


def psnr(a: ImageGrid, b: ImageGrid) -> float:
    """10*log10(255^2 / MSE) in dB; +inf for identical images."""
    return _psnr_from_mse(mse(a, b))


def changed_pixels(a: ImageGrid, b: ImageGrid) -> int:
    """Number of pixel POSITIONS that differ (any channel counts once)."""
    _check_same_shape(a, b)
    return int(np.count_nonzero(_flat(a.pixels) != _flat(b.pixels)))


def spec_to_dict(spec: AttackSpec) -> dict:
    return {"kind": spec.kind, **asdict(spec)}


@dataclass(frozen=True)
class RecoveryReport:
    """Damage metrics on both sides of the unscramble, plus the images themselves."""

    attack: AttackSpec
    mse_on_scrambled: float
    mse_on_recovered: float
    changed_on_scrambled: int
    changed_on_recovered: int
    attacked: ImageGrid = field(repr=False, compare=False)
    recovered: ImageGrid = field(repr=False, compare=False)

    @property
    def psnr_recovered(self) -> float:
        return _psnr_from_mse(self.mse_on_recovered)

    def to_json_dict(self) -> dict:
        return {
            "attack": spec_to_dict(self.attack),
            "mse_on_scrambled": self.mse_on_scrambled,
            "mse_on_recovered": self.mse_on_recovered,
            # JSON has no Infinity; null means lossless recovery
            "psnr_recovered_db": None if math.isinf(self.psnr_recovered) else self.psnr_recovered,
            "changed_on_scrambled": self.changed_on_scrambled,
            "changed_on_recovered": self.changed_on_recovered,
        }

    def to_text(self) -> str:
        p = "inf" if math.isinf(self.psnr_recovered) else f"{self.psnr_recovered:.2f}"
        return "\n".join(
            [
                f"attack:               {spec_to_dict(self.attack)}",
                f"mse scrambled/attacked: {self.mse_on_scrambled:.6f}",
                f"mse original/recovered: {self.mse_on_recovered:.6f}",
                f"psnr recovered (dB):    {p}",
                f"changed pixels (scrambled side): {self.changed_on_scrambled}",
                f"changed pixels (recovered side): {self.changed_on_recovered}",
            ]
        )


def recovery_grid(img: ImageGrid, key: ScrambleKey, named_specs: Iterable[tuple[str, AttackSpec]]
                  ) -> Iterator[tuple[str, RecoveryReport]]:
    """Scramble img once, then yield (name, report) for each (name, spec), each
    report made when asked for: attack -> unscramble, exact damage on both sides."""
    scrambled = scramble(img, key)
    for name, spec in named_specs:
        attacked = apply_attack(scrambled, spec)
        recovered = unscramble(attacked, key)
        yield name, RecoveryReport(
            attack=spec,
            mse_on_scrambled=mse(scrambled, attacked),
            mse_on_recovered=mse(img, recovered),
            changed_on_scrambled=changed_pixels(scrambled, attacked),
            changed_on_recovered=changed_pixels(img, recovered),
            attacked=attacked,
            recovered=recovered,
        )


def recovery_experiment(img: ImageGrid, key: ScrambleKey, spec: AttackSpec) -> RecoveryReport:
    """scramble -> attack -> unscramble: the one-row recovery_grid."""
    [(_, report)] = recovery_grid(img, key, [(spec.kind, spec)])
    return report


def robustness_attacks(n: int) -> tuple[tuple[str, AttackSpec], ...]:
    """The robustness grid for an n x n image: nine named attacks, each seeded
    where it is stochastic; the crop blanks the centred n/2 square."""
    q = n // 2
    return (
        ("salt_pepper_5pct", SaltPepper(0.05, seed=1)),
        ("salt_pepper_20pct", SaltPepper(0.20, seed=2)),
        ("gaussian_var100", GaussianNoise(0.0, 100.0, seed=3)),
        ("speckle_var05", Speckle(0.05, seed=4)),
        ("crop_quarter", Crop(n // 4, n // 4, q, q, fill=0)),
        ("compress_q10", CompressSurrogate(10)),
        ("compress_q8", CompressSurrogate(8)),
        ("compress_q6", CompressSurrogate(6)),
        ("compress_q4", CompressSurrogate(4)),
    )


@dataclass(frozen=True)
class RobustnessReport:
    """The metrics of each named attack (RecoveryReport.to_json_dict(), no
    images), and the verdict: does MSE(scrambled, attacked) equal
    MSE(original, recovered) for every attack?"""

    rows: tuple[tuple[str, dict], ...]

    @property
    def broken(self) -> list[str]:
        """Names of the attacks whose two MSEs differ."""
        return [name for name, doc in self.rows
                if doc["mse_on_scrambled"] != doc["mse_on_recovered"]]

    def to_json_dict(self) -> dict:
        return dict(self.rows)

    def to_text(self) -> str:
        broken = self.broken
        lines = []
        for name, doc in self.rows:
            psnr = doc["psnr_recovered_db"]
            psnr_text = "lossless" if psnr is None else f"{psnr:.2f} dB"
            iso = "BROKEN" if name in broken else "exact"
            lines.append(f"{name:18s} mse {doc['mse_on_recovered']:10.3f}  "
                         f"psnr {psnr_text:>10s}  isometry {iso}")
        if broken:
            lines.append(f"isometry BROKEN for: {', '.join(broken)}")
        else:
            lines.append(f"isometry exact for all {len(self.rows)} attacks")
        return "\n".join(lines)
