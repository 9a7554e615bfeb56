"""Security analysis: orbit signatures, pattern equivalence, map enumeration, surveys.

Two maps are pattern-equivalent mod n when they generate the same cyclic
group; a message scrambled by one can then be recovered by iterating the
other. cyclic_classes decides that on 2x2 matrices alone: equal orders,
commuting matrices and membership by baby-step giant-step. orbit_signature
lists the grid states one map visits from a reference, as the reference
orbit tables print them. Surveys and the unimodular enumeration are the
desk-scale reproductions of the reference period tables.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GridShapeError,
    IntegerOverflowError,
    InvalidScramblerError,
    SequenceOverflowError,
    WorkBoundError,
)
from .maps import (
    IDENTITY,
    Entries,
    TransformMap,
    ValidatedMap,
    make_arnold,
    make_fibonacci_q,
    make_flt,
    make_generalized_arnold,
    make_gft,
    make_triangular,
    mat_mul_mod,
    power_mod,
    validate,
)
from .scramble import ImageGrid, ScrambleKey, period, scramble
from .sequences import INT64_MAX, SequenceFamily

#: Published reference count of unimodular 2x2 matrices with entries in 0..99.
UNIMODULAR_REFERENCE_COUNT_0_99 = 24030

#: Published reference period table: five survey families, parameters 1..16, modulus 128.
SURVEY_REFERENCE_128 = {
    "gft":   (128, 64, 128, 128, 16, 128, 128, 64, 128, 128, 8, 128, 128, 64, 128, 128),
    "gat":   (128, 192, 64, 192, 128, 192, 32, 192, 128, 192, 64, 192, 128, 192, 16, 192),
    "f11lt": (128, 64, 128, 128, 16, 128, 128, 64, 128, 128, 8, 128, 128, 64, 128, 128),
    "f32lt": (64, 96, 192, 32, 192, 96, 64, 12, 192, 32, 192, 48, 64, 96, 192, 32),
    "f31lt": (64, 64, 32, 64, 64, 8, 64, 64, 32, 64, 64, 4, 64, 64, 32, 64),
}

#: Largest accepted entry range, as (hi-lo+1)^2 entry products, each sorted once:
#: 0..499 is accepted and 0..500 refused. On a 2-CPU Xeon, 0..499 counts in
#: 0.08 s and 47 MB and lists its matrices in 0.9 s and 182 MB.
ENUMERATION_WORK_BOUND = 250_000

#: Largest orbit orbit_signature keeps, as (period - 1) * N^2 * channels bytes
#: of states: GFT_1 on a gray grid is accepted at N = 512 and refused at 1024.
ORBIT_BYTES_BOUND = 1 << 28

#: Most baby steps one cyclic group builds: 2**20 steps took 1.4 s and a
#: peak RSS of 336 MB (2-CPU Xeon), so a commuting pair of equal order above
#: 2**40 is refused rather than compared.
CYCLIC_STEPS_BOUND = 1 << 20

#: Largest accepted survey, as families x parameters cells; checked on the
#: size of the parameter range before anything is built from it.
SURVEY_CELL_BOUND = 10**5


@dataclass(frozen=True)
class OrbitSignature:
    """Grid states visited through one full period, excluding the final return."""

    states: tuple[ImageGrid, ...]

    __hash__ = None


@dataclass(frozen=True)
class EnumerationReport:
    lo: int
    hi: int
    count: int
    det_plus: int
    det_minus: int
    matrices: tuple[tuple[int, int, int, int], ...] | None = None

    @property
    def reference_count(self) -> int | None:
        """The published count for entries in 0..99; None for any other range."""
        return UNIMODULAR_REFERENCE_COUNT_0_99 if (self.lo, self.hi) == (0, 99) else None

    def to_json_dict(self) -> dict:
        d = {
            "lo": self.lo,
            "hi": self.hi,
            "criterion": "|det| == 1",
            "count": self.count,
            "det_plus_one": self.det_plus,
            "det_minus_one": self.det_minus,
        }
        if self.reference_count is not None:
            d["reference_count"] = self.reference_count
            d["matches_reference"] = self.count == self.reference_count
        if self.matrices is not None:
            d["matrices"] = [list(m) for m in self.matrices]
        return d

    def to_text(self) -> str:
        lines = [
            f"unimodular maps with entries in [{self.lo}, {self.hi}]: {self.count} "
            f"(det +1: {self.det_plus}, det -1: {self.det_minus})"
        ]
        if self.reference_count is not None:
            verdict = "matches" if self.count == self.reference_count else "DIFFERS FROM"
            lines.append(
                f"reference count {self.reference_count}: computed value {verdict} the reference"
            )
        if self.matrices is not None:
            lines += [f"({a}, {b} / {c}, {d})" for a, b, c, d in self.matrices]
        return "\n".join(lines)


@dataclass(frozen=True)
class SurveyReport:
    """One row per family, one period per parameter value; errors stay in-cell.

    A survey at N = 128 over parameters 1..16 also compares each row that has
    a published reference (SURVEY_REFERENCE_128) with it.
    """

    n: int
    params: tuple[int, ...]
    rows: tuple[tuple[str, tuple], ...]  # (family, cells); cell int or "ERROR: ..."

    @property
    def error_count(self) -> int:
        return sum(
            1 for _, cells in self.rows for c in cells if not isinstance(c, int)
        )

    @property
    def reference_rows(self) -> dict[str, tuple[int, ...]]:
        """Published rows by family when this is the reference survey (N = 128,
        parameters 1..16); empty for any other survey."""
        is_reference = self.n == 128 and self.params == tuple(range(1, 17))
        return SURVEY_REFERENCE_128 if is_reference else {}

    def to_json_dict(self) -> dict:
        reference = self.reference_rows
        rows = []
        for fam, cells in self.rows:
            row = {
                "family": fam,
                "periods": [c if isinstance(c, int) else None for c in cells],
                "errors": [c if not isinstance(c, int) else None for c in cells],
            }
            if fam in reference:
                row["reference_periods"] = list(reference[fam])
                row["matches_reference"] = cells == reference[fam]
            rows.append(row)
        return {"n": self.n, "params": list(self.params), "rows": rows}

    def to_text(self) -> str:
        head = ["family"] + [str(p) for p in self.params]
        table = [head] + [
            [fam] + [str(c) if isinstance(c, int) else "ERROR" for c in cells]
            for fam, cells in self.rows
        ]
        widths = [max(len(r[i]) for r in table) for i in range(len(head))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
        reference = self.reference_rows
        for fam, cells in self.rows:
            if fam in reference:
                verdict = "matches" if cells == reference[fam] else "DIFFERS FROM"
                lines.append(f"{fam}: computed row {verdict} the reference")
        return "\n".join(lines)


@dataclass(frozen=True)
class EquivalenceReport:
    """Pattern-equivalence classes over a set of maps; size > 1 means avoid."""

    n: int
    classes: tuple[tuple[str, ...], ...]

    @property
    def flagged(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.classes if len(c) > 1)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "classes": [
                {"maps": list(c), "flagged": len(c) > 1} for c in self.classes
            ],
        }

    def to_text(self) -> str:
        maps = sum(len(c) for c in self.classes)
        lines = [f"{maps} maps, {len(self.classes)} classes at n={self.n}:"]
        for c in self.classes:
            mark = "AVOID (shared pattern)" if len(c) > 1 else "ok"
            lines.append(f"[{mark}] {', '.join(c)}")
        lines += [
            f"\n{len(self.flagged)} classes share a scrambling pattern (size > 1); avoid reusing",
            "members of one class as if they were independent keys.",
        ]
        return "\n".join(lines)


def orbit_signature(vm: ValidatedMap, reference: ImageGrid) -> OrbitSignature:
    """All states scramble(reference, t) for 1 <= t < period, in visit order.

    Raises WorkBoundError before the first scramble when the states would
    take more than ORBIT_BYTES_BOUND bytes.
    """
    p = period(vm)
    size = (p - 1) * reference.pixels.nbytes
    if size > ORBIT_BYTES_BOUND:
        raise WorkBoundError(
            f"orbit of {vm.label} mod {vm.n} needs {size} bytes of states, "
            f"above the memory bound of {ORBIT_BYTES_BOUND}"
        )
    states = []
    key = ScrambleKey(vm.map, vm.n, 1)
    grid = reference
    for _ in range(p - 1):
        grid = scramble(grid, key)
        states.append(grid)
    return OrbitSignature(tuple(states))


class _CyclicGroup:
    """The group <A> of one map A of order p, compared by baby-step giant-step.

    With m = ceil(sqrt(p)), every element of <A> is A^(i*m + j) for
    0 <= i, j < m, so x is in <A> exactly when some x * A^(-i*m) is a baby
    step A^j (Shanks 1971). The steps are built on the first comparison; m
    above CYCLIC_STEPS_BOUND raises WorkBoundError before any is built.
    """

    def __init__(self, vm: ValidatedMap, order: int):
        self.vm = vm
        self.order = order

    @cached_property
    def _steps(self) -> tuple[int, set[Entries], Entries]:
        vm, m = self.vm, math.isqrt(self.order - 1) + 1
        if m > CYCLIC_STEPS_BOUND:
            raise WorkBoundError(
                f"group of {vm.label} mod {vm.n} of order {self.order} needs {m} baby steps, "
                f"above the work bound of {CYCLIC_STEPS_BOUND}"
            )
        baby, step = set(), IDENTITY
        for _ in range(m):
            baby.add(step)
            step = mat_mul_mod(step, vm.reduced, vm.n)
        return m, baby, power_mod(vm, self.order - m)  # giant step A^(-m)

    def generated_by(self, vm: ValidatedMap, order: int) -> bool:
        """<B> = <A> for the map B = vm of the given order: equal orders, AB = BA,
        and B in <A>.

        Every element of <A> commutes with A, so a B with AB != BA is refused
        with two products, before the steps are built or walked.
        """
        if order != self.order:
            return False
        a, b, n = self.vm.reduced, vm.reduced, vm.n
        if mat_mul_mod(a, b, n) != mat_mul_mod(b, a, n):
            return False
        m, baby, giant = self._steps
        x = b
        for _ in range(m):
            if x in baby:
                return True
            x = mat_mul_mod(x, giant, n)
        return False


def pattern_equivalent(a: ValidatedMap, b: ValidatedMap) -> bool:
    """True when <a> = <b>: both maps generate the same cyclic group mod their modulus."""
    if a.n != b.n:
        raise ValueError(f"maps validated for different moduli: {a.n} vs {b.n}")
    return len(cyclic_classes([a.map, b.map], a.n).classes) == 1


def enumerate_unimodular(lo: int, hi: int, collect: bool = False) -> EnumerationReport:
    """Count matrices (a, b / c, d) with entries in [lo, hi] and |det| = 1.

    |ad - bc| = 1 means bc = ad - 1 (det +1) or bc = ad + 1 (det -1). Every
    product x*y of two entries is sorted once; the (b, c) partners of each
    (a, d) are then the runs of that sorted array equal to ad - 1 and ad + 1,
    found by binary search. Listed matrices are ordered by (a, d, b, c).
    """
    if lo > hi:
        raise ValueError(f"empty entry range: lo {lo} > hi {hi}")
    span = hi - lo + 1
    work = span**2
    if work > ENUMERATION_WORK_BOUND:
        raise WorkBoundError(
            f"range [{lo}, {hi}] needs {work} entry products, "
            f"above the work bound of {ENUMERATION_WORK_BOUND}"
        )
    if max(abs(lo), abs(hi)) ** 2 + 1 > INT64_MAX:
        raise IntegerOverflowError(
            f"range [{lo}, {hi}]: entry products plus one exceed the 64-bit signed range"
        )
    entries = np.arange(lo, hi + 1, dtype=np.int64)
    prod = np.multiply.outer(entries, entries).ravel()  # [i*span + j] = entries[i]*entries[j]
    order = np.argsort(prod)
    ordered = prod[order]
    targets = np.stack((prod - 1, prod + 1))  # rows: det +1, det -1
    starts = np.searchsorted(ordered, targets, side="left")
    runs = np.searchsorted(ordered, targets, side="right") - starts
    plus, minus = runs.sum(axis=1).tolist()
    matrices = None
    if collect:
        lengths = runs.ravel()
        ad = np.repeat(np.tile(np.arange(prod.size), 2), lengths)
        first = np.cumsum(lengths) - lengths  # offset of each run among the hits
        bc = order[np.repeat(starts.ravel() - first, lengths) + np.arange(ad.size)]
        hits = np.lexsort((bc, ad))
        a, d = np.divmod(ad[hits], span)
        b, c = np.divmod(bc[hits], span)
        matrices = tuple(zip(*(entries[i].tolist() for i in (a, b, c, d))))
    return EnumerationReport(lo, hi, plus + minus, plus, minus, matrices)


#: Parameterized families a survey row can be built from. The generalized
#: Arnold row uses the (k, k+1 / 1, 1) form and triangular the (0, 1 / 1, k)
#: form; other variants are reachable through key files, not surveys.
SURVEY_FAMILIES = {
    "gft": make_gft,
    "gat": lambda i: make_generalized_arnold(i, variant=1),
    "f11lt": lambda i: make_flt(SequenceFamily.FIB11, i),
    "f32lt": lambda i: make_flt(SequenceFamily.FIB32, i),
    "f31lt": lambda i: make_flt(SequenceFamily.FIB31, i),
    "triangular": lambda k: make_triangular(k, variant=0),
}


def period_survey(families: list[str], params, n: int) -> SurveyReport:
    """Period of every (family, parameter) pair mod n; per-cell failures recorded.

    params is any iterable of indices, read up to SURVEY_CELL_BOUND + 1
    items: a survey of more than SURVEY_CELL_BOUND parameters or cells
    raises WorkBoundError before any cell is computed. A failure that
    depends on one parameter (a map not invertible mod n, a parameter out
    of the family's domain, family terms past 64 bits) is recorded in that
    cell. N below 2 would fail every cell and raises ValueError before any
    cell is computed; N above the period bound fails every cell and raises.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    unknown = [f for f in families if f not in SURVEY_FAMILIES]
    if unknown:
        raise ValueError(
            f"not a surveyable family: {unknown} (choose from {sorted(SURVEY_FAMILIES)})"
        )
    bound = f"above the cell bound of {SURVEY_CELL_BOUND}"
    params = tuple(itertools.islice(params, SURVEY_CELL_BOUND + 1))
    if len(params) > SURVEY_CELL_BOUND:
        raise WorkBoundError(f"survey of more than {SURVEY_CELL_BOUND} parameters is {bound}")
    if len(families) * len(params) > SURVEY_CELL_BOUND:
        raise WorkBoundError(f"survey of {len(families) * len(params)} cells is {bound}")
    rows = []
    for fam in families:
        build = SURVEY_FAMILIES[fam]
        cells = []
        for p in params:
            try:
                cells.append(period(validate(build(p), n)))
            except (InvalidScramblerError, SequenceOverflowError, ValueError) as exc:
                cells.append(f"ERROR: {exc}")
        rows.append((fam, tuple(cells)))
    return SurveyReport(n, params, tuple(rows))


def standard_family_maps(lo: int, hi: int) -> list[TransformMap]:
    """The canonical map set used by property suites and equivalence reports:
    both fixed maps plus every surveyable family over parameters lo..hi."""
    maps: list[TransformMap] = [make_arnold(), make_fibonacci_q()]
    for i in range(lo, hi + 1):
        maps.extend(build(i) for build in SURVEY_FAMILIES.values())
    return maps


def equivalence_classes(
    maps: list[TransformMap], reference: ImageGrid, n: int
) -> EquivalenceReport:
    """cyclic_classes(maps, n); the reference is checked only for its side.

    A reference whose side is not n raises GridShapeError before any map
    is read. No image is scrambled.
    """
    if reference.side != n:
        raise GridShapeError(f"reference side {reference.side} does not match modulus {n}")
    return cyclic_classes(maps, n)


def cyclic_classes(maps: list[TransformMap], n: int) -> EquivalenceReport:
    """Group maps mod n by the cyclic group each generates; no image is needed.

    A map joins the first class whose representative generates the same
    group, found by order, commutation and baby-step giant-step. Classes keep
    the order in which their first member appears, and each class keeps its
    members in input order.
    """
    classes: list[tuple[_CyclicGroup, list[str]]] = []
    for m in maps:
        vm = validate(m, n)
        order = period(vm)
        for group, labels in classes:
            if group.generated_by(vm, order):
                labels.append(m.label)
                break
        else:
            classes.append((_CyclicGroup(vm, order), [m.label]))
    return EquivalenceReport(n, tuple(tuple(labels) for _, labels in classes))


def dumps_report(obj: dict) -> str:
    """Stable JSON rendering for survey/enumeration/equivalence reports."""
    return json.dumps(obj, indent=2, sort_keys=True)
