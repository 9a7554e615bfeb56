#!/usr/bin/env python3
"""Reproduce the reference period tables at desk scale.

Prints the fixed-map periods and the five-family survey (parameters 1..16)
at modulus 128, and the small-grid (modulus 3) survey. At modulus 128 each
survey row is compared against its golden row in
`analysis.SURVEY_REFERENCE_128`, and the script exits 1 if any row differs.
"""

import argparse
import sys

from modscramble import make_arnold, make_fibonacci_q, make_flt, make_generalized_arnold, make_gft, period, period_survey, validate
from modscramble.analysis import SURVEY_REFERENCE_128
from modscramble.sequences import SequenceFamily as F


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=128, help="modulus for the main survey")
    args = parser.parse_args()

    fixed = [
        make_arnold(),
        make_generalized_arnold(1, 1),
        make_fibonacci_q(),
        make_gft(1),
        make_flt(F.FIB11, 1),
        make_flt(F.FIB32, 1),
        make_flt(F.FIB31, 1),
    ]
    print(f"fixed-map periods mod {args.n}:")
    for m in fixed:
        print(f"  {m.label:12s} {period(validate(m, args.n)).period}")

    print(f"\nfamily survey mod {args.n}, parameters 1..16:")
    survey = period_survey(list(SURVEY_REFERENCE_128), range(1, 17), args.n)
    print(survey.to_text())
    differs = []
    if args.n == 128:
        differs = [fam for fam, cells in survey.rows if cells != SURVEY_REFERENCE_128[fam]]
        for fam, _ in survey.rows:
            marker = "DIFFERS from golden row" if fam in differs else "ok"
            print(f"  {fam}: {marker}")

    print("\nsmall-grid survey mod 3, parameters 1..8:")
    print(period_survey(["f11lt", "gft", "f32lt"], range(1, 9), 3).to_text())
    print(
        "\nnote: the golden small-grid row for f11lt prints 6 at index 3, but the"
        "\nindex-3 matrix (2, 3 / 3, 4) has order 2 mod 3 (oracle-confirmed, see"
        "\nRESULTS.md); that index is excluded from the family by its source."
    )
    if differs:
        print(f"survey rows DIFFER from golden: {', '.join(differs)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
