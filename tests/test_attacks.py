import math
from collections import Counter

import numpy as np
import pytest

from modscramble import (
    CompressSurrogate,
    Crop,
    GaussianNoise,
    ImageGrid,
    SaltPepper,
    ScrambleKey,
    SequenceFamily,
    Speckle,
    apply_attack,
    changed_pixels,
    inverse_mod,
    make_arnold,
    make_flt,
    make_gft,
    mse,
    psnr,
    recovery_experiment,
    scramble,
    validate,
)
from modscramble.attacks import _DCT8, spec_to_dict, sse

from conftest import random_gray, random_rgb

F = SequenceFamily


def midrange_gray(n, seed=0):
    """Random grid avoiding 0 and 255 so every salt/pepper hit visibly differs."""
    return random_gray(n, seed=seed, lo=1, hi=255)


# ------------------------------------------------------------------- attacks

def test_zero_density_changes_nothing():
    img = midrange_gray(16)
    assert apply_attack(img, SaltPepper(0.0, seed=1)) == img


def test_salt_pepper_flips_the_exact_pixel_count():
    img = midrange_gray(64, seed=3)
    out = apply_attack(img, SaltPepper(0.05, seed=42))
    assert changed_pixels(img, out) == math.ceil(0.05 * 64 * 64) == 205
    flipped = out.pixels[img.pixels != out.pixels]
    assert set(np.unique(flipped)) <= {0, 255}


def test_salt_pepper_on_rgb_sets_whole_pixels():
    img = ImageGrid(np.full((8, 8, 3), 100, dtype=np.uint8))
    out = apply_attack(img, SaltPepper(0.1, seed=9))
    changed = np.any(img.pixels != out.pixels, axis=2)
    assert changed.sum() == math.ceil(0.1 * 64)
    assert all(len(set(px)) == 1 for px in out.pixels[changed])


def test_attacks_are_deterministic_given_the_seed():
    img = midrange_gray(32, seed=7)
    for spec in (SaltPepper(0.2, seed=5), GaussianNoise(0, 100, seed=5), Speckle(0.05, seed=5)):
        assert apply_attack(img, spec) == apply_attack(img, spec)
    assert apply_attack(img, SaltPepper(0.2, seed=5)) != apply_attack(img, SaltPepper(0.2, seed=6))


def test_gaussian_noise_moves_values_and_stays_in_range():
    img = midrange_gray(32, seed=1)
    out = apply_attack(img, GaussianNoise(0, 400, seed=2))
    assert out != img
    assert out.pixels.dtype == np.uint8  # rounding and clamping applied


def test_speckle_scales_with_brightness():
    dark = ImageGrid(np.full((32, 32), 10, dtype=np.uint8))
    bright = ImageGrid(np.full((32, 32), 200, dtype=np.uint8))
    spec = Speckle(0.05, seed=3)
    dev_dark = np.abs(apply_attack(dark, spec).pixels.astype(int) - 10).mean()
    dev_bright = np.abs(apply_attack(bright, spec).pixels.astype(int) - 200).mean()
    assert dev_bright > dev_dark


def test_crop_full_image_with_zero_fill():
    img = midrange_gray(8)
    out = apply_attack(img, Crop(0, 0, 8, 8, fill=0))
    assert not out.pixels.any()


def test_crop_rectangle_out_of_bounds():
    img = midrange_gray(8)
    with pytest.raises(ValueError):
        apply_attack(img, Crop(4, 4, 5, 2))


def test_crop_changes_only_the_rectangle():
    img = midrange_gray(16, seed=4)
    out = apply_attack(img, Crop(2, 3, 4, 5, fill=0))
    changed = img.pixels != out.pixels
    assert not changed[:2].any() and not changed[6:].any()
    assert changed[2:6, 3:8].all()


def test_bad_attack_parameters():
    with pytest.raises(ValueError):
        SaltPepper(1.5)
    with pytest.raises(ValueError):
        GaussianNoise(0, -1)
    for mean, variance in ((math.nan, 1), (math.inf, 1), (-math.inf, 1), (0, math.nan), (0, math.inf)):
        with pytest.raises(ValueError):
            GaussianNoise(mean, variance)
    for variance in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Speckle(variance)
    with pytest.raises(ValueError):
        CompressSurrogate(0)
    with pytest.raises(ValueError):
        Crop(0, 0, 2, 2, fill=300)


def test_quality_100_is_near_lossless():
    spec = CompressSurrogate(100)
    assert np.all(spec.scaled_table() == 1)
    img = random_gray(64, seed=11)
    out = apply_attack(img, spec)
    dev = np.abs(out.pixels.astype(int) - img.pixels.astype(int))
    assert dev.max() <= 1


def test_lower_quality_degrades_more():
    img = random_gray(64, seed=13)
    losses = [mse(img, apply_attack(img, CompressSurrogate(q))) for q in (100, 50, 10, 4)]
    assert losses == sorted(losses)
    assert losses[-1] > losses[0]


def test_compression_is_deterministic():
    img = random_gray(24, seed=8)
    assert apply_attack(img, CompressSurrogate(4)) == apply_attack(img, CompressSurrogate(4))


def test_compression_handles_rgb_and_non_multiple_of_8_sides():
    img = random_rgb(21, seed=5)
    out = apply_attack(img, CompressSurrogate(50))
    assert out.pixels.shape == img.pixels.shape


def compress_oracle(img, quality):
    """Reference: the per-block loop, one 8x8 block and one plane at a time."""
    table = CompressSurrogate(quality).scaled_table()

    def plane(px):
        n = px.shape[0]
        pad = (-n) % 8
        padded = np.pad(px, ((0, pad), (0, pad)), mode="edge").astype(np.float64) - 128.0
        out = np.empty_like(padded)
        for r in range(0, padded.shape[0], 8):
            for c in range(0, padded.shape[1], 8):
                coeffs = _DCT8 @ padded[r : r + 8, c : c + 8] @ _DCT8.T
                coeffs = np.round(coeffs / table) * table
                out[r : r + 8, c : c + 8] = _DCT8.T @ coeffs @ _DCT8
        return out[:n, :n] + 128.0

    px = img.pixels
    planes = plane(px) if px.ndim == 2 else np.stack([plane(px[:, :, c]) for c in range(3)], axis=2)
    return ImageGrid(np.clip(np.rint(planes), 0, 255).astype(np.uint8))


@pytest.mark.parametrize("quality", [1, 10, 50, 100])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 13, 61])
def test_batched_compression_matches_the_per_block_loop(n, quality):
    for img in (random_gray(n, seed=n), random_rgb(n, seed=n)):
        out = apply_attack(img, CompressSurrogate(quality))
        assert out.pixels.tobytes() == compress_oracle(img, quality).pixels.tobytes()
        assert out.pixels.shape == img.pixels.shape


# ------------------------------------------------------------------- metrics

def test_psnr_of_identical_images_is_infinite():
    img = midrange_gray(16)
    assert psnr(img, img) == math.inf
    assert mse(img, img) == 0.0


def test_psnr_of_opposite_extremes_is_zero():
    a = ImageGrid(np.zeros((8, 8), dtype=np.uint8))
    b = ImageGrid(np.full((8, 8), 255, dtype=np.uint8))
    assert psnr(a, b) == 0.0


def test_psnr_single_off_by_one_pixel():
    a = ImageGrid(np.zeros((16, 16), dtype=np.uint8))
    px = np.zeros((16, 16), dtype=np.uint8)
    px[0, 0] = 1
    b = ImageGrid(px)
    assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 * 256), abs=1e-9)


@pytest.mark.parametrize("shape", [(1024, 1024), (1024, 1024, 3)])
def test_sse_of_opposite_extremes_is_exact_at_full_size(shape):
    black = ImageGrid(np.zeros(shape, dtype=np.uint8))
    white = ImageGrid(np.full(shape, 255, dtype=np.uint8))
    expected = math.prod(shape) * 255**2  # N^2 * C * 65025
    assert sse(black, white) == sse(white, black) == expected
    assert mse(black, white) == 255.0**2


@pytest.mark.parametrize("rgb", [False, True])
@pytest.mark.parametrize("n, seed", [(1, 0), (5, 1), (64, 2), (333, 3)])
def test_sse_matches_the_int64_expression(rgb, n, seed):
    a = random_rgb(n, seed) if rgb else random_gray(n, seed)
    b = random_rgb(n, seed + 100) if rgb else random_gray(n, seed + 100)
    diff = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    result = sse(a, b)
    assert type(result) is int
    assert result == int(np.sum(diff * diff, dtype=np.int64))


@pytest.mark.parametrize("rgb", [False, True])
@pytest.mark.parametrize("n, seed", [(1, 0), (4, 1), (33, 2), (128, 3)])
def test_changed_pixels_counts_positions_once_for_rgb(rgb, n, seed):
    a = random_rgb(n, seed) if rgb else random_gray(n, seed)
    rng = np.random.default_rng(seed)
    moved = rng.random((n, n)) < 0.3
    px = a.pixels.copy()
    # flip some bits of one channel, or of all three, at every marked position
    flips = rng.integers(1, 256, px.shape, dtype=np.uint8)
    if rgb:
        flips[rng.random((n, n)) < 0.5, 1:] = 0
    px[moved] ^= flips[moved]
    n_changed = changed_pixels(a, ImageGrid(px))
    per_channel_any = (a.pixels.reshape(n * n, -1) != px.reshape(n * n, -1)).any(axis=1)
    assert n_changed == np.count_nonzero(per_channel_any) == np.count_nonzero(moved)


def test_metric_shape_mismatch():
    from modscramble import GridShapeError

    with pytest.raises(GridShapeError):
        mse(midrange_gray(4), midrange_gray(5))


# ---------------------------------------------------------- recovery reports

def test_null_attack_recovers_losslessly():
    img = midrange_gray(32, seed=20)
    key = ScrambleKey(make_gft(2), 32, 5)
    rep = recovery_experiment(img, key, SaltPepper(0.0, seed=1))
    assert rep.mse_on_recovered == 0.0
    assert rep.psnr_recovered == math.inf
    assert rep.changed_on_scrambled == rep.changed_on_recovered == 0


@pytest.mark.parametrize(
    "spec",
    [
        SaltPepper(0.07, seed=21),
        GaussianNoise(0, 100, seed=22),
        Speckle(0.05, seed=23),
        Crop(3, 4, 10, 9, fill=0),
        CompressSurrogate(10),
    ],
)
def test_unscrambling_neither_amplifies_nor_attenuates_damage(spec):
    img = midrange_gray(48, seed=24)
    key = ScrambleKey(make_flt(F.FIB11, 6), 48, 12)
    rep = recovery_experiment(img, key, spec)
    assert rep.mse_on_scrambled == rep.mse_on_recovered  # exact, not approx
    assert rep.changed_on_scrambled == rep.changed_on_recovered


def test_error_multiset_is_preserved_exactly():
    img = midrange_gray(32, seed=25)
    key = ScrambleKey(make_arnold(), 32, 7)
    rep = recovery_experiment(img, key, GaussianNoise(0, 200, seed=26))
    scrambled = scramble(img, key)
    errs_attack = np.abs(rep.attacked.pixels.astype(int) - scrambled.pixels.astype(int))
    errs_recov = np.abs(rep.recovered.pixels.astype(int) - img.pixels.astype(int))
    assert Counter(errs_attack.ravel().tolist()) == Counter(errs_recov.ravel().tolist())


def test_cropped_pixels_land_on_their_permutation_preimages():
    n, t = 16, 5
    img = midrange_gray(n, seed=27)
    key = ScrambleKey(make_flt(F.FIB32, 4), n, t)
    crop = Crop(2, 3, 4, 6, fill=0)
    rep = recovery_experiment(img, key, crop)

    # preimages of the cropped rectangle under the t-fold map
    from modscramble import power_mod

    vm = validate(key.map, n)
    inv = inverse_mod(vm)
    ia, ib, ic, id_ = power_mod(inv, t)
    preimages = {
        ((ia * x + ib * y) % n, (ic * x + id_ * y) % n)
        for x in range(2, 6)
        for y in range(3, 9)
    }
    diffs = {
        (x, y)
        for x in range(n)
        for y in range(n)
        if rep.recovered.pixels[x, y] != img.pixels[x, y]
    }
    assert diffs <= preimages
    assert len(diffs) == rep.changed_on_recovered <= 4 * 6


def test_report_serialization():
    img = midrange_gray(16, seed=28)
    key = ScrambleKey(make_arnold(), 16, 3)
    rep = recovery_experiment(img, key, SaltPepper(0.1, seed=29))
    doc = rep.to_json_dict()
    assert doc["attack"] == spec_to_dict(SaltPepper(0.1, seed=29))
    assert doc["mse_on_scrambled"] == doc["mse_on_recovered"]
    assert isinstance(doc["psnr_recovered_db"], float)
    lossless = recovery_experiment(img, key, SaltPepper(0.0, seed=1)).to_json_dict()
    assert lossless["psnr_recovered_db"] is None
    assert "changed pixels" in rep.to_text()
