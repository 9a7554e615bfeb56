"""Construction, validation, inversion and exponentiation of 2x2 scrambling maps.

Matrix entries are exact signed integers; nothing is reduced mod N until
:func:`validate`. A validated map carries its reduced entries and is the
only thing the scrambling layer accepts.

Variant numbering (frozen, also documented in the key-file schema):

generalized Arnold, parameter k, variants 0..7::

    0: (k+1, k / 1, 1)      1: (k, k+1 / 1, 1)
    2: (k+1, 1 / k, 1)      3: (k, 1 / k+1, 1)      # transposes of 0, 1
    4: (1, 1 / k+1, k)      5: (1, 1 / k, k+1)      # rows of 0, 1 swapped
    6: (1, k+1 / 1, k)      7: (1, k / 1, k+1)      # transposes of 4, 5

triangular, parameter k, variants 0..3::

    0: (0, 1 / 1, k)        1: (k, 1 / 1, 0)
    2: (1, 0 / k, 1)        3: (1, k / 0, 1)
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
from .sequences import FLT_SERIES, INT64_MAX, SequenceFamily, max_index, term

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


def make_arnold() -> TransformMap:
    return TransformMap((2, 1, 1, 1), "arnold", {}, "arnold")


_GAT_FORMS = {
    0: lambda k: (k + 1, k, 1, 1),
    1: lambda k: (k, k + 1, 1, 1),
    2: lambda k: (k + 1, 1, k, 1),
    3: lambda k: (k, 1, k + 1, 1),
    4: lambda k: (1, 1, k + 1, k),
    5: lambda k: (1, 1, k, k + 1),
    6: lambda k: (1, k + 1, 1, k),
    7: lambda k: (1, k, 1, k + 1),
}


def make_generalized_arnold(k: int, variant: int = 0) -> TransformMap:
    """One of the 8 generalized-Arnold forms; see the module docstring for numbering."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if variant not in _GAT_FORMS:
        raise ValueError(f"generalized-Arnold variant must be 0..7, got {variant}")
    entries = _GAT_FORMS[variant](k)
    return TransformMap(
        entries, "gat", {"k": k, "variant": variant}, f"GAT(k={k},v{variant})"
    )


def make_fibonacci_q() -> TransformMap:
    return TransformMap((1, 1, 1, 0), "fibonacci-q", {}, "fibonacci-q")


def make_gft(i: int) -> TransformMap:
    """Four consecutive 0,1-seeded Fibonacci terms: (F_i, F_i+1 / F_i+2, F_i+3)."""
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    f = SequenceFamily.FIB01
    if i > max_index(f) - 3:
        raise ParameterOverflowError("gft", i, max_index(f) - 3)
    entries = (term(f, i), term(f, i + 1), term(f, i + 2), term(f, i + 3))
    return TransformMap(entries, "gft", {"i": i}, f"GFT_{i}")


#: Family tag and label stem of each Fibonacci-Lucas series.
_FLT = {
    SequenceFamily.FIB11: ("f11lt", "F(11)LT"),
    SequenceFamily.FIB32: ("f32lt", "F(32)LT"),
    SequenceFamily.FIB31: ("f31lt", "F(31)LT"),
}


def make_flt(series: SequenceFamily, i: int) -> TransformMap:
    """Fibonacci-Lucas map: chosen series on the top row, Lucas on the bottom.

    Index 3 of the 1,1-seeded series is excluded in the source construction;
    the matrix is still unimodular, so it is built here with a warning flag
    rather than refused.
    """
    if series not in FLT_SERIES:
        raise ValueError(f"series must be one of {[s.name for s in FLT_SERIES]}")
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    lucas = SequenceFamily.LUCAS
    tag, stem = _FLT[series]
    largest = min(max_index(series), max_index(lucas)) - 1
    if i > largest:
        raise ParameterOverflowError(tag, i, largest)
    entries = (term(series, i), term(series, i + 1), term(lucas, i), term(lucas, i + 1))
    warning = None
    if series is SequenceFamily.FIB11 and i == 3:
        warning = "index 3 of the 1,1-seeded series is excluded by convention"
    return TransformMap(entries, tag, {"i": i}, f"{stem}_{i}", warning)


_TRIANGULAR_FORMS = {
    0: lambda k: (0, 1, 1, k),
    1: lambda k: (k, 1, 1, 0),
    2: lambda k: (1, 0, k, 1),
    3: lambda k: (1, k, 0, 1),
}


def make_triangular(k: int, variant: int = 0) -> TransformMap:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if variant not in _TRIANGULAR_FORMS:
        raise ValueError(f"triangular variant must be 0..3, got {variant}")
    entries = _TRIANGULAR_FORMS[variant](k)
    return TransformMap(
        entries, "triangular", {"k": k, "variant": variant}, f"TRI(k={k},v{variant})"
    )


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
    """vm's matrix to the e-th power mod n, by square-and-multiply."""
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    result = IDENTITY
    base = vm.reduced
    n = vm.n
    while e:
        if e & 1:
            result = mat_mul_mod(result, base, n)
        base = mat_mul_mod(base, base, n)
        e >>= 1
    return result


def build_map(family: str, params: dict) -> TransformMap:
    """Single registry from (family tag, params) to a map; shared by key files and CLI."""
    spare = dict(params)
    shown = clip(family)

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
        if family == "arnold":
            m = make_arnold()
        elif family == "gat":
            m = make_generalized_arnold(take_int("k"), take_int("variant", 0))
        elif family == "fibonacci-q":
            m = make_fibonacci_q()
        elif family == "gft":
            m = make_gft(take_int("i"))
        elif flt := [series for series, (tag, _) in _FLT.items() if tag == family]:
            m = make_flt(flt[0], take_int("i"))
        elif family == "triangular":
            m = make_triangular(take_int("k"), take_int("variant", 0))
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
