#!/usr/bin/env python3
"""Run the robustness experiment grid and write images + JSON reports.

Scrambles a deterministic synthetic test image, applies each attack to the
scrambled image, unscrambles, and records exact damage metrics. The point the
reports make: MSE(scrambled, attacked) == MSE(original, recovered) for every
in-place attack, so scrambling neither amplifies nor attenuates damage. The
script exits 1 if any attack breaks that isometry.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from modscramble import (
    CompressSurrogate,
    Crop,
    GaussianNoise,
    ImageGrid,
    SaltPepper,
    ScrambleKey,
    Speckle,
    build_map,
    recovery_experiment,
    scramble,
)
from modscramble.analysis import dumps_report
from modscramble.pnm import save_pnm


def synthetic_image(n: int, seed: int = 0) -> ImageGrid:
    """Deterministic stand-in for a photographic test image: smooth gradients
    plus seeded texture, values well inside 1..254."""
    x = np.arange(n).reshape(n, 1)
    y = np.arange(n).reshape(1, n)
    base = 96 + 80 * np.sin(2 * np.pi * x / n) * np.cos(2 * np.pi * y / n) + 0.25 * (x + y)
    texture = np.random.default_rng(seed).normal(0, 12, (n, n))
    return ImageGrid(np.clip(base + texture, 1, 254).astype(np.uint8))


ATTACKS = [
    ("salt_pepper_5pct", SaltPepper(0.05, seed=1)),
    ("salt_pepper_20pct", SaltPepper(0.20, seed=2)),
    ("gaussian_var100", GaussianNoise(0.0, 100.0, seed=3)),
    ("speckle_var05", Speckle(0.05, seed=4)),
    ("crop_quarter", None),  # built per image size below
    ("compress_q10", CompressSurrogate(10)),
    ("compress_q8", CompressSurrogate(8)),
    ("compress_q6", CompressSurrogate(6)),
    ("compress_q4", CompressSurrogate(4)),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--family", default="f11lt")
    parser.add_argument("--index", type=int, default=6)
    parser.add_argument("--out", default="robustness_out")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    img = synthetic_image(args.n)
    key = ScrambleKey(build_map(args.family, {"i": args.index}), args.n, args.iterations)
    save_pnm(out / "original.pgm", img)
    save_pnm(out / "scrambled.pgm", scramble(img, key))

    summary = []
    broken = []
    for name, spec in ATTACKS:
        if spec is None:
            q = args.n // 2
            spec = Crop(args.n // 4, args.n // 4, q, q, fill=0)
        report = recovery_experiment(img, key, spec)
        save_pnm(out / f"{name}_attacked.pgm", report.attacked)
        save_pnm(out / f"{name}_recovered.pgm", report.recovered)
        doc = report.to_json_dict()
        (out / f"{name}.json").write_text(dumps_report(doc) + "\n")
        summary.append((name, doc))
        iso = "exact" if doc["mse_on_scrambled"] == doc["mse_on_recovered"] else "BROKEN"
        if iso == "BROKEN":
            broken.append(name)
        psnr = doc["psnr_recovered_db"]
        psnr_text = "lossless" if psnr is None else f"{psnr:.2f} dB"
        print(f"{name:18s} mse {doc['mse_on_recovered']:10.3f}  psnr {psnr_text:>10s}  isometry {iso}")

    (out / "summary.json").write_text(
        json.dumps({name: doc for name, doc in summary}, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nimages and reports written to {out}/")
    if broken:
        print(f"isometry BROKEN for: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
