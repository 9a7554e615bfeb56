#!/usr/bin/env python3
"""Emit pattern-equivalence classes over the standard map set on an n x n grid.

Classes of size > 1 are flagged: a message scrambled by any map in such a
class can be recovered by iterating any other member, so those maps should
not be treated as distinct keys.

The reference is an RGB grid of shuffled 24-bit ids, so its pixels are
pairwise distinct: the classes are exact and are computed on matrices, with
no orbit scrambled. Past n = 4096 no 24-bit grid is distinct, so larger n
is refused.
"""

import argparse

import numpy as np

from modscramble import (
    ImageGrid,
    SequenceOverflowError,
    equivalence_classes,
    standard_family_maps,
)
from modscramble.analysis import dumps_report


def distinct_reference(n: int) -> ImageGrid:
    """An n x n grid, n <= 4096, whose pixels are pairwise distinct."""
    ids = np.random.default_rng(0).permutation(n * n)
    rgb = np.stack([ids >> 16, ids >> 8, ids], axis=-1) & 255
    return ImageGrid(rgb.astype(np.uint8).reshape(n, n, 3))


def largest_index() -> int:
    """Largest parameter at which every standard family still fits in 64 bits."""
    i = 1
    while True:
        try:
            standard_family_maps(i + 1, i + 1)
        except SequenceOverflowError:
            return i
        i += 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="grid side / modulus")
    parser.add_argument("--params", default="1..8", metavar="LO..HI")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    args = parser.parse_args()
    if args.n < 2:
        parser.error(f"--n must be >= 2, got {args.n}")
    if args.n > 4096:
        parser.error(f"--n {args.n}: an n x n grid of 24-bit pixels repeats a value past n = 4096")

    lo, _, hi = args.params.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        parser.error(f"--params must look like LO..HI with integer bounds, got {args.params!r}")
    if lo < 1:
        parser.error(f"--params {args.params}: LO must be >= 1")
    if lo > hi:
        parser.error(f"--params {args.params} is empty: LO > HI")
    try:
        maps = standard_family_maps(lo, hi)
    except SequenceOverflowError:
        parser.error(
            f"--params {args.params}: a family term leaves 64 bits; "
            f"the largest valid index is {largest_index()}"
        )
    report = equivalence_classes(maps, distinct_reference(args.n), args.n)

    if args.format == "json":
        print(dumps_report(report.to_json_dict()))
        return
    print(f"{len(maps)} maps, {len(report.classes)} classes at n={args.n}:")
    print(report.to_text())
    flagged = report.flagged
    print(f"\n{len(flagged)} classes share a scrambling pattern (size > 1); avoid reusing")
    print("members of one class as if they were independent keys.")


if __name__ == "__main__":
    main()
