"""Construction, validation, inversion and exponentiation of 2x2 scrambling maps.

Matrix entries are exact signed integers; nothing is reduced mod N until
:func:`validate`. A validated map carries its reduced entries and is the
only thing the scrambling layer accepts.

Each named family is one row of a table below: a fixed map, a k-variant form
or a pair of series. One constructor per kind of row builds them all.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    IntegerOverflowError,
    InvalidScramblerError,
    KeyFormatError,
    ParameterOverflowError,
    clip,
)
from .sequences import FLT_SERIES, INT64_MAX, SequenceFamily, _lucas_pair, max_index, term

Entries = tuple[int, int, int, int]

IDENTITY: Entries = (1, 0, 0, 1)


@dataclass(frozen=True)
class TransformMap:
    """A 2x2 integer matrix (a, b / c, d) with its family tag and parameters."""

    entries: Entries
    family: str
    params: dict = field(default_factory=dict)
    label: str = ""
    warning: str | None = None

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", f"raw{self.entries}")

    __hash__ = None  # params dict makes instances unhashable


@dataclass(frozen=True)
class ValidatedMap:
    """A map proven invertible mod n, with entries reduced to [0, n)."""

    map: TransformMap
    n: int
    reduced: Entries
    det_mod: int

    @property
    def label(self) -> str:
        return self.map.label

    __hash__ = None


#: Maps with no parameter: family tag -> entries.
_FIXED = {"arnold": (2, 1, 1, 1), "fibonacci-q": (1, 1, 1, 0)}

#: Maps of one parameter k >= 0 in variants whose numbering is frozen: family
#: tag -> (label stem, name in error messages, entries of each variant).
_FORMS = {
    "gat": ("GAT", "generalized-Arnold", {
        0: lambda k: (k + 1, k, 1, 1),
        1: lambda k: (k, k + 1, 1, 1),
        2: lambda k: (k + 1, 1, k, 1),  # 2, 3: transposes of 0, 1
        3: lambda k: (k, 1, k + 1, 1),
        4: lambda k: (1, 1, k + 1, k),  # 4, 5: rows of 0, 1 swapped
        5: lambda k: (1, 1, k, k + 1),
        6: lambda k: (1, k + 1, 1, k),  # 6, 7: transposes of 4, 5
        7: lambda k: (1, k, 1, k + 1),
    }),
    "triangular": ("TRI", "triangular", {
        0: lambda k: (0, 1, 1, k),
        1: lambda k: (k, 1, 1, 0),
        2: lambda k: (1, 0, k, 1),
        3: lambda k: (1, k, 0, 1),
    }),
}

#: Maps of one parameter i >= 1 whose rows are terms i + a, i + a + 1 of one
#: series and i + b, i + b + 1 of another: tag -> (label stem, (top, a), (bottom, b)).
_SERIES = {
    "gft": ("GFT", (SequenceFamily.FIB01, 0), (SequenceFamily.FIB01, 2)),
    "f11lt": ("F(11)LT", (SequenceFamily.FIB11, 0), (SequenceFamily.LUCAS, 0)),
    "f32lt": ("F(32)LT", (SequenceFamily.FIB32, 0), (SequenceFamily.LUCAS, 0)),
    "f31lt": ("F(31)LT", (SequenceFamily.FIB31, 0), (SequenceFamily.LUCAS, 0)),
}


def _fixed_map(tag: str) -> TransformMap:
    return TransformMap(_FIXED[tag], tag, {}, tag)


def _form_map(tag: str, k: int, variant: int) -> TransformMap:
    stem, name, forms = _FORMS[tag]
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if variant not in forms:
        raise ValueError(f"{name} variant must be 0..{len(forms) - 1}, got {variant}")
    params, label = {"k": k, "variant": variant}, f"{stem}(k={k},v{variant})"
    return TransformMap(forms[variant](k), tag, params, label)


def _series_map(tag: str, i: int) -> TransformMap:
    """(S_i+a, S_i+a+1 / T_i+b, T_i+b+1) for the row's series S, T and shifts a, b.

    Index 3 of f11lt is excluded in the source construction but is still
    unimodular, so it is built with a warning flag rather than refused.
    """
    stem, (top, a), (bottom, b) = _SERIES[tag]
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    largest = min(max_index(top) - a, max_index(bottom) - b) - 1
    if i > largest:
        raise ParameterOverflowError(tag, i, largest)
    entries = (term(top, i + a), term(top, i + a + 1),
               term(bottom, i + b), term(bottom, i + b + 1))
    excluded = tag == "f11lt" and i == 3
    warning = "index 3 of the 1,1-seeded series is excluded by convention" if excluded else None
    return TransformMap(entries, tag, {"i": i}, f"{stem}_{i}", warning)


def make_arnold() -> TransformMap:
    return _fixed_map("arnold")


def make_generalized_arnold(k: int, variant: int = 0) -> TransformMap:
    """One of the 8 generalized-Arnold forms; see _FORMS for numbering."""
    return _form_map("gat", k, variant)


def make_fibonacci_q() -> TransformMap:
    return _fixed_map("fibonacci-q")


def make_gft(i: int) -> TransformMap:
    """Four consecutive 0,1-seeded Fibonacci terms: (F_i, F_i+1 / F_i+2, F_i+3)."""
    return _series_map("gft", i)


def make_flt(series: SequenceFamily, i: int) -> TransformMap:
    """Fibonacci-Lucas map: chosen series on the top row, Lucas on the bottom."""
    if series not in FLT_SERIES:
        raise ValueError(f"series must be one of {[s.name for s in FLT_SERIES]}")
    return _series_map("f%d%dlt" % series.seeds, i)  # tags are named by their seeds


def make_triangular(k: int, variant: int = 0) -> TransformMap:
    return _form_map("triangular", k, variant)


def make_raw(a: int, b: int, c: int, d: int) -> TransformMap:
    """Arbitrary entries, negatives permitted; reduction happens at validate."""
    return TransformMap((a, b, c, d), "raw", {"entries": [a, b, c, d]})


def determinant(m: TransformMap) -> int:
    """Exact ad - bc, checked against the 64-bit range."""
    a, b, c, d = m.entries
    det = a * d - b * c
    if any(abs(v) > INT64_MAX for v in (a * d, b * c, det)):
        raise IntegerOverflowError(
            f"determinant of {m.label} leaves the 64-bit signed range"
        )
    return det


def validate(m: TransformMap, n: int) -> ValidatedMap:
    """Reduce entries mod n and require gcd(det mod n, n) = 1 (bijection on the grid)."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    reduced = tuple(v % n for v in m.entries)
    a, b, c, d = reduced
    det_mod = (a * d - b * c) % n
    g = math.gcd(det_mod, n)
    if g != 1:
        raise InvalidScramblerError(m.label, n, det_mod, g)
    return ValidatedMap(m, n, reduced, det_mod)


def inverse_mod(vm: ValidatedMap) -> ValidatedMap:
    """Matrix inverse over Z_n; composing with vm gives the identity mod n."""
    a, b, c, d = vm.reduced
    n = vm.n
    det_inv = pow(vm.det_mod, -1, n)
    entries = (
        (d * det_inv) % n,
        (-b * det_inv) % n,
        (-c * det_inv) % n,
        (a * det_inv) % n,
    )
    inv = TransformMap(entries, "raw", {"entries": list(entries)}, f"inv({vm.label})")
    return validate(inv, n)


def mat_mul_mod(x: Entries, y: Entries, n: int) -> Entries:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % n,
        (a * f + b * h) % n,
        (c * e + d * g) % n,
        (c * f + d * h) % n,
    )


def power_mod(vm: ValidatedMap, e: int) -> Entries:
    """vm's matrix M to the e-th power mod n, from one Lucas pair.

    By Cayley-Hamilton, M^2 = P*M - Q*I for P = trace M and Q = det M, so
    M^e = U_e*(M - P*I) + U_(e+1)*I over the integers for every e >= 0, where
    U is the Lucas sequence U(P, Q). This holds mod every n, with no case split.
    """
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    a, b, c, d = vm.reduced
    n = vm.n
    u, v = _lucas_pair((a + d) % n, vm.det_mod, e, n)
    return ((v - u * d) % n, u * b % n, u * c % n, (v - u * a) % n)


def build_map(family: str, params: dict) -> TransformMap:
    """Single registry from (family tag, params) to a map; shared by key files and CLI."""
    spare = dict(params)
    shown = clip(family)
    if not isinstance(family, str):  # a JSON array or object cannot key a table
        family = None

    def take(name, default=None):
        if name in spare:
            return spare.pop(name)
        if default is not None:
            return default
        raise KeyFormatError(f"family {shown} requires parameter {name!r}")

    def take_int(name, default=None):
        # exact int only: a float, string or bool is rejected, never coerced
        value = take(name, default)
        if type(value) is not int:
            raise KeyFormatError(f"parameter {name!r} must be an integer, got {clip(value)}")
        return value

    try:
        if family in _FIXED:
            m = _fixed_map(family)
        elif family in _FORMS:
            m = _form_map(family, take_int("k"), take_int("variant", 0))
        elif family in _SERIES:
            m = _series_map(family, take_int("i"))
        elif family == "raw":
            entries = take("entries")
            if not (
                isinstance(entries, (list, tuple))
                and len(entries) == 4
                and all(type(v) is int for v in entries)
            ):
                raise KeyFormatError("raw entries must be a list of 4 integers")
            m = make_raw(*entries)
        else:
            raise KeyFormatError(f"unknown map family {shown}")
    except (ValueError, TypeError) as exc:
        raise KeyFormatError(f"bad parameters for family {shown}: {clip(exc)}") from exc
    if spare:
        raise KeyFormatError(f"unknown parameters for family {shown}: {clip(list(spare))}")
    return m
