"""Command-line surface: scramble/unscramble PNM files, periods, surveys,
unimodular enumeration, pattern-equivalence classes, attack experiments and
the robustness grid.

Exit codes: 0 success, 1 usage error (including an argument the library
refuses, such as a modulus below 2), 2 data/format error, 3 math error
(map not invertible mod N, modulus above the period bound of 2^32, work or
survey cell bound exceeded, overflow, out of memory).
Results go to stdout, diagnostics to stderr.
"""

import argparse
import functools
import json
import pathlib
import sys
from dataclasses import fields

from . import analysis, attacks, keyfile, pnm
from .errors import DataError, MathError
from .maps import build_map
from .scramble import ScrambleKey, period, plan_unscramble, scramble, unscramble


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # built on the first main call, then reused: parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="modscramble", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scramble", help="permute a square PNM image with a key file")
    p.add_argument("input", help="source image (binary PGM/PPM)")
    p.add_argument("key", help="JSON key file")
    p.add_argument("output", help="destination image")

    p = sub.add_parser("unscramble", help="invert a scramble with the same key file")
    p.add_argument("input")
    p.add_argument("key")
    p.add_argument("output")
    p.add_argument("--verbose", action="store_true",
                   help="report the period, both route costs and the cheaper route")

    p = sub.add_parser("period", help="period of a map mod N")
    p.add_argument("--key", help="read the map from a JSON key file")
    p.add_argument("--family", help="map family tag (see README)")
    p.add_argument("--n", type=int, help="modulus (image side)")
    p.add_argument("--i", type=int, help="series index for gft/f11lt/f32lt/f31lt")
    p.add_argument("--k", type=int, help="parameter for gat/triangular")
    p.add_argument("--variant", type=int, help="variant for gat (0..7) / triangular (0..3)")
    p.add_argument("--entries", help="a,b,c,d for --family raw")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("survey", help="period table over families and parameters")
    p.add_argument("--families", required=True,
                   help=f"comma list from {sorted(analysis.SURVEY_FAMILIES)}")
    p.add_argument("--range", required=True, dest="param_range", metavar="LO..HI",
                   help="parameter range, e.g. 1..16 (LO <= HI)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("enumerate", help="count unimodular 2x2 maps with entries in a range")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--list", action="store_true", help="also print every matrix")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("equivalence", help="which standard maps share a scrambling pattern mod N")
    p.add_argument("--n", type=int, default=3, help="modulus (grid side), 2..2^32")
    p.add_argument("--range", default="1..8", dest="param_range", metavar="LO..HI",
                   help="family parameter range (default 1..8)")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("attack", help="scramble, attack, unscramble, report recovery metrics")
    p.add_argument("input")
    p.add_argument("key")
    # Each flag but --rect is named after a spec field, and none has a default
    # here: a flag left out leaves the spec's own default in place.
    p.add_argument("--attack", required=True, choices=list(attacks.SPECS))
    p.add_argument("--density", type=float, help="salt-pepper pixel fraction")
    p.add_argument("--mean", type=float, help="gaussian mean")
    p.add_argument("--variance", type=float,
                   help="gaussian variance (0..255 scale) or speckle variance")
    p.add_argument("--rect", help="crop rectangle row0,col0,height,width")
    p.add_argument("--fill", type=int, help="crop fill value")
    p.add_argument("--quality", type=int, help="compression surrogate quality 1..100")
    p.add_argument("--seed", type=int)
    p.add_argument("--attacked-out", help="write the attacked scrambled image here")
    p.add_argument("--recovered-out", help="write the recovered image here")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("robustness", help="run every attack of the robustness grid, "
                                          "report the damage isometry")
    p.add_argument("input")
    p.add_argument("key")
    p.add_argument("--out", required=True, help="directory for the attacked and recovered images")
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _parse_ints(text: str, count: int, what: str) -> list[int]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated integers, got {text!r}")
    try:
        return [int(s) for s in parts]
    except ValueError:
        raise UsageError(f"{what} needs integers, got {text!r}") from None


def _key_from_args(args) -> ScrambleKey:
    if args.key:
        map_flags = (args.family, args.n, args.i, args.k, args.variant, args.entries)
        if any(v is not None for v in map_flags):
            raise UsageError("--key takes no --family, --n, --i, --k, --variant or --entries")
        return keyfile.read_key_file(args.key)
    if not args.family:
        raise UsageError("period needs either --key or --family")
    if args.n is None:
        raise UsageError("period needs --n with --family")
    params = {f: getattr(args, f) for f in ("i", "k", "variant") if getattr(args, f) is not None}
    if args.entries is not None:
        params["entries"] = _parse_ints(args.entries, 4, "--entries")
    try:
        m = build_map(args.family, params)
    except DataError as exc:
        raise UsageError(str(exc)) from exc
    return ScrambleKey(m, args.n, 0)


def _cmd_scramble(args) -> int:
    key = keyfile.read_key_file(args.key)
    img = pnm.load_pnm(args.input)
    pnm.save_pnm(args.output, scramble(img, key))
    return 0


def _cmd_unscramble(args) -> int:
    key = keyfile.read_key_file(args.key)
    plain = unscramble(pnm.load_pnm(args.input), key)
    if args.verbose:
        plan = plan_unscramble(key.validated(), key.iterations)
        print(
            f"period {plan.period}: forward route {plan.forward_steps} steps, "
            f"inverse route {plan.inverse_steps} steps; cheaper route: {plan.chosen}",
            file=sys.stderr,
        )
    pnm.save_pnm(args.output, plain)
    return 0


def _cmd_period(args) -> int:
    key = _key_from_args(args)
    p = period(key.validated())
    if args.format == "json":
        print(json.dumps({"label": key.map.label, "n": key.n, "period": p}))
    else:
        print(f"{key.map.label} mod {key.n}: period {p}")
    return 0


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"--range must look like LO..HI, got {text!r}")
    try:
        params = range(int(lo), int(hi) + 1)
    except ValueError:
        raise UsageError(f"--range bounds must be integers, got {text!r}") from None
    if not params:
        raise UsageError(f"--range is empty: LO > HI in {text!r}")
    return params


def _print_report(report, fmt: str) -> None:
    """A report on stdout, as JSON or as its text."""
    print(analysis.dumps_report(report.to_json_dict()) if fmt == "json" else report.to_text())


def _cmd_survey(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise UsageError("--families names no family")
    report = analysis.period_survey(families, _parse_range(args.param_range), args.n)
    _print_report(report, args.format)
    if report.error_count:
        print(f"warning: {report.error_count} cell(s) failed", file=sys.stderr)
    return 0


def _cmd_enumerate(args) -> int:
    _print_report(analysis.enumerate_unimodular(args.lo, args.hi, collect=args.list), args.format)
    return 0


def _cmd_equivalence(args) -> int:
    params = _parse_range(args.param_range)
    maps = analysis.standard_family_maps(params[0], params[-1])
    _print_report(analysis.cyclic_classes(maps, args.n), args.format)
    return 0


def _attack_spec_from_args(args) -> attacks.AttackSpec:
    spec = attacks.SPECS[args.attack]
    given = {f.name: getattr(args, f.name) for f in fields(spec)
             if getattr(args, f.name, None) is not None}
    if spec is attacks.Crop:
        if not args.rect:
            raise UsageError("crop needs --rect row0,col0,height,width")
        given.update(zip(("row0", "col0", "height", "width"), _parse_ints(args.rect, 4, "--rect")))
    return spec(**given)


def _cmd_attack(args) -> int:
    key = keyfile.read_key_file(args.key)
    img = pnm.load_pnm(args.input)
    report = attacks.recovery_experiment(img, key, _attack_spec_from_args(args))
    if args.attacked_out:
        pnm.save_pnm(args.attacked_out, report.attacked)
    if args.recovered_out:
        pnm.save_pnm(args.recovered_out, report.recovered)
    _print_report(report, args.format)  # last, so a failed write prints no result
    return 0


def _cmd_robustness(args) -> int:
    key = keyfile.read_key_file(args.key)
    img = pnm.load_pnm(args.input)
    out = pathlib.Path(args.out)
    suffix = ".pgm" if img.channels == 1 else ".ppm"
    rows = []
    for name, report in attacks.recovery_grid(img, key, attacks.robustness_attacks(img.side)):
        out.mkdir(parents=True, exist_ok=True)  # after an attack ran, so a bad key writes nothing
        pnm.save_pnm(out / f"{name}_attacked{suffix}", report.attacked)
        pnm.save_pnm(out / f"{name}_recovered{suffix}", report.recovered)
        rows.append((name, report.to_json_dict()))
    _print_report(attacks.RobustnessReport(tuple(rows)), args.format)
    return 0


_COMMANDS = {
    "scramble": _cmd_scramble,
    "unscramble": _cmd_unscramble,
    "period": _cmd_period,
    "survey": _cmd_survey,
    "enumerate": _cmd_enumerate,
    "equivalence": _cmd_equivalence,
    "attack": _cmd_attack,
    "robustness": _cmd_robustness,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # UsageError, or an argument the library refuses
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # Python's own MemoryError has no message
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
