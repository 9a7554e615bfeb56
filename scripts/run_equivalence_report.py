#!/usr/bin/env python3
"""Emit pattern-equivalence classes over the standard map set on an n x n grid.

Classes of size > 1 are flagged: a message scrambled by any map in such a
class can be recovered by iterating any other member, so those maps should
not be treated as distinct keys.

The classes are the cyclic groups the maps generate mod n, computed on 2x2
matrices; no image is built, so n may be any modulus up to the period bound.
"""

import argparse

from modscramble import SequenceOverflowError, cyclic_classes, standard_family_maps
from modscramble.analysis import dumps_report
from modscramble.scramble import PERIOD_MODULUS_BOUND


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
    if not 2 <= args.n <= PERIOD_MODULUS_BOUND:
        parser.error(
            f"--n must be between 2 and {PERIOD_MODULUS_BOUND}, the period bound; got {args.n}"
        )

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
    report = cyclic_classes(maps, args.n)

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
