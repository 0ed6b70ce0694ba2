"""Embedded listening-test datasets and the correlation statistics used to
compare computed consonance measures against them.

Four datasets ship with the package as semicolon-delimited CSV files in its
``data`` directory (override it with the ``HARMONY_DATA_DIR`` variable):

* ``dyads`` — 13 two-tone intervals with averaged empirical consonance
  ranks plus third-party roughness and sonance-factor columns.
* ``triads`` — 13 common triads and inversions with ordinal ratings,
  roughness, instability and dual-process columns.
* ``complete_triads`` — all 19 three-tone chords in root position, spread
  beyond one octave as presented to listeners.
* ``church_modes`` — the 7 diatonic modes with preference ratings, sonance
  and harmonic-series-similarity columns.

Printed measure columns that this package can recompute (periodicity,
similarity) are embedded verbatim as *golden* data, so a reproduction
failure distinguishes "our computation drifted" from "our statistics
drifted".  Columns taken from third-party software or literature
(roughness, sonance factor, instability, dual-process ranks, church-mode
similarity) are *static*: data, never recomputed.

Statistics follow the reference analysis: Pearson's r (identical to
Spearman's coefficient when both sides are ranks), tie-averaged ranking,
and a one-sided significance test of H1: r > 0 via the monotone map onto
the regularized incomplete beta function.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

from .errors import DataError, UsageError
from .measures import MEASURES, evaluate_measure
from .periodicity import MAX_SPAN
from .tuning import TuningTable, builtin_tuning

__all__ = [
    "DATASET_IDS",
    "CorrelationReport",
    "DatasetItem",
    "EmpiricalDataset",
    "REPRODUCTION_TARGETS",
    "ReproductionCheck",
    "ReproductionReport",
    "correlate_measure",
    "load_dataset",
    "pearson",
    "rank_with_ties",
    "reproduce",
    "significance",
]


@dataclass(frozen=True)
class _DatasetSpec:
    """What one dataset file must hold: the column names after the fixed
    label;semitones;empirical prefix, the row count, and the orientation of
    its ordinal ``rating`` column (``None`` when it has none)."""

    columns: tuple[str, ...]
    rows: int
    rating: int | None


# Ratings of both triad sets grow with dissonance, church-mode ratings with
# preference; dyads have no rating column.
_DATASETS: dict[str, _DatasetSpec] = {
    "dyads": _DatasetSpec(
        ("roughness", "sonance_factor", "similarity", "rel_periodicity"), 13, None,
    ),
    "triads": _DatasetSpec(
        ("rating", "roughness", "instability", "similarity", "rel_periodicity",
         "dual_process"), 13, 1,
    ),
    "complete_triads": _DatasetSpec(
        ("rating", "roughness", "similarity", "rel_periodicity", "log_periodicity",
         "dual_process"), 19, 1,
    ),
    "church_modes": _DatasetSpec(
        ("rating", "sonance_factor", "similarity", "log_periodicity_just",
         "log_periodicity_rational"), 7, -1,
    ),
}

#: Valid arguments to :func:`load_dataset`.
DATASET_IDS = tuple(_DATASETS)

# Orientation of the static columns that grow with consonance; every other
# static column grows with dissonance (+1).  A column named after a measure
# (similarity, the periodicities) takes the measure registry's orientation.
_COLUMN_ORIENTATION = {"sonance_factor": -1}


@dataclass(frozen=True)
class DatasetItem:
    """One rated harmony: display label, semitone offsets (lowest tone 0,
    duplicates allowed for a literal unison), and the empirical rank."""

    label: str
    semitones: tuple[int, ...]
    empirical: float


@dataclass(frozen=True)
class EmpiricalDataset:
    """One embedded listening-test table."""

    id: str
    items: tuple[DatasetItem, ...]
    static_columns: dict[str, tuple[float | None, ...]]

    def column(self, name: str) -> tuple[float | None, ...]:
        try:
            return self.static_columns[name]
        except KeyError:
            valid = ", ".join(self.static_columns)
            raise UsageError(
                f"dataset {self.id!r} has no column {name!r}; available: {valid}"
            ) from None


def _data_text(dataset_id: str) -> str:
    directory = os.environ.get("HARMONY_DATA_DIR") or Path(__file__).parent / "data"
    path = Path(directory) / f"{dataset_id}.csv"
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc


def load_dataset(dataset_id: str) -> EmpiricalDataset:
    """Load one embedded dataset (or its ``HARMONY_DATA_DIR`` override)."""
    if dataset_id not in DATASET_IDS:
        valid = ", ".join(DATASET_IDS)
        raise UsageError(f"unknown dataset {dataset_id!r}; valid ids: {valid}")
    text = _data_text(dataset_id)
    spec = _DATASETS[dataset_id]
    schema = spec.columns
    lines = text.splitlines()
    if not lines or lines[0] != f"# harmonicity dataset: {dataset_id} v1":
        raise DataError(
            f"dataset {dataset_id!r}: missing or wrong version marker "
            f"(expected '# harmonicity dataset: {dataset_id} v1')"
        )
    expected_header = ";".join(("label", "semitones", "empirical") + schema)
    if len(lines) < 2 or lines[1] != expected_header:
        raise DataError(f"dataset {dataset_id!r}: header does not match schema")

    items: list[DatasetItem] = []
    columns: dict[str, list[float | None]] = {name: [] for name in schema}
    for number, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        cells = line.split(";")
        if len(cells) != 3 + len(schema):
            raise DataError(
                f"dataset {dataset_id!r} line {number}: expected "
                f"{3 + len(schema)} fields, got {len(cells)}"
            )
        try:
            semitones = tuple(int(s) for s in cells[1].split(","))
            empirical = float(cells[2])
            row = [float(cell) if cell else None for cell in cells[3:]]
        except ValueError as exc:
            raise DataError(f"dataset {dataset_id!r} line {number}: {exc}") from exc
        # float() also reads 'nan' and 'inf', which no statistic can rank
        for name, value in zip(("empirical", *schema), (empirical, *row)):
            if value is not None and not math.isfinite(value):
                raise DataError(f"dataset {dataset_id!r} line {number}: column {name!r} "
                                f"must be a finite number, got {value!r}")
        for name, value in zip(schema, row):
            columns[name].append(value)
        if semitones[0] != 0:
            raise DataError(
                f"dataset {dataset_id!r} line {number}: offsets must start at 0"
            )
        if not all(0 <= n <= MAX_SPAN for n in semitones):
            raise DataError(
                f"dataset {dataset_id!r} line {number}: offsets must lie within "
                f"0..{MAX_SPAN}, got {cells[1]}"
            )
        items.append(DatasetItem(cells[0], semitones, empirical))

    if len(items) != spec.rows:
        raise DataError(
            f"dataset {dataset_id!r}: expected {spec.rows} rows, got {len(items)}"
        )
    return EmpiricalDataset(
        id=dataset_id,
        items=tuple(items),
        static_columns={name: tuple(values) for name, values in columns.items()},
    )


# --------------------------------------------------------------------------
# statistics


def rank_with_ties(values: Sequence[float]) -> list[float]:
    """Rank values from 1, giving equal values the mean of the positions
    they occupy.

    >>> rank_with_ties([1.0, 1.0, 2.0])
    [1.5, 1.5, 3.0]
    """
    if not values:
        raise UsageError("rank_with_ties() needs at least one value")
    if not all(map(math.isfinite, values)):
        raise UsageError("rank_with_ties() needs finite values")
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, group in groupby(order, key=values.__getitem__):
        tied = list(group)
        shared = start + (len(tied) + 1) / 2
        for index in tied:
            ranks[index] = shared
        start += len(tied)
    return ranks


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient of two equal-length samples."""
    if len(x) != len(y):
        raise UsageError(f"pearson() needs equal lengths, got {len(x)} and {len(y)}")
    n = len(x)
    if n < 3:
        raise UsageError(f"pearson() needs at least 3 points, got {n}")
    if not all(map(math.isfinite, (*x, *y))):
        raise UsageError("pearson() needs finite values")
    if min(x) == max(x) or min(y) == max(y):
        raise UsageError("pearson() is undefined for zero-variance input")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [a - mean_x for a in x]
    dy = [b - mean_y for b in y]
    var_x = math.fsum(a * a for a in dx)
    var_y = math.fsum(b * b for b in dy)
    if var_x == 0 or var_y == 0:
        raise UsageError("pearson() is undefined for zero-variance input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    # rounding can carry an exact line a few ulps past +-1
    return max(-1.0, min(1.0, r))


def significance(r: float, n: int) -> float:
    """One-sided p-value of H1: r > 0 for a sample correlation ``r`` of
    ``n`` points: the upper tail of Student's t with n-2 degrees of freedom
    at ``t = r * sqrt((n-2) / (1-r^2))``.

    >>> round(significance(0.0, 10), 6)
    0.5
    """
    if type(n) is not int or n < 3:
        raise UsageError(f"significance() needs n >= 3, got {n!r}")
    if not -1.0 <= r <= 1.0:
        raise UsageError(f"significance() needs r in [-1, 1], got {r!r}")
    if r == 1.0:
        return 0.0
    if r == -1.0:
        return 1.0
    df = n - 2
    t = r * math.sqrt(df / (1.0 - r * r))
    tail = 0.5 * _regularized_beta(0.5 * df, 0.5, df / (df + t * t))
    return tail if t >= 0 else 1.0 - tail


_BETA_MAX_ITER = 200
_BETA_EPS = 1e-8
_BETA_FPMIN = 1e-300


def _lentz_step(numerator: float, c: float, d: float) -> tuple[float, float]:
    """One modified-Lentz update of ``(c, d)`` by the next partial
    numerator; ``d`` comes back inverted, and values that would divide by
    zero are clamped to ``_BETA_FPMIN``."""
    d = 1.0 + numerator * d
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    c = 1.0 + numerator / c
    if abs(c) < _BETA_FPMIN:
        c = _BETA_FPMIN
    return c, 1.0 / d


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    # the first term starts from c = d = 1; only its d is kept
    c = 1.0
    _, d = _lentz_step(-qab * x / qap, c, c)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        c, d = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h *= d * c
        c, d = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


# --------------------------------------------------------------------------
# correlating measures against the datasets


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of one measure against one dataset's empirical side."""

    dataset: str
    measure: str
    tuning: str
    mode: str
    n: int
    r: float
    p: float


def measure_values(
    dataset: EmpiricalDataset, measure: str, t: TuningTable | None = None
) -> list[float]:
    """Values of one measure for every dataset item: recomputed from ratios
    for the computable measures, read verbatim for static columns.

    When a computable measure name is also a column of the dataset (the
    church modes carry a published ``similarity`` column produced by a
    different procedure), passing no tuning selects the column; passing a
    tuning recomputes.
    """
    if measure in MEASURES:
        if t is not None:
            return [evaluate_measure(item.semitones, measure, t) for item in dataset.items]
        if measure not in dataset.static_columns:
            raise UsageError(f"measure {measure!r} needs a tuning")
    column = dataset.column(measure)
    if any(v is None for v in column):
        raise UsageError(
            f"column {measure!r} of dataset {dataset.id!r} has gaps; "
            "it cannot be used as a measure"
        )
    return [float(v) for v in column]  # type: ignore[arg-type]


def correlate_measure(
    dataset: EmpiricalDataset,
    measure: str,
    t: TuningTable | None = None,
    mode: str = "ranks",
) -> CorrelationReport:
    """Correlate one measure against the dataset's empirical side.

    In ``ranks`` mode both sides are tie-average-ranked (the measure side
    oriented so rank 1 = most consonant) and Pearson's r of the ranks is
    returned — Spearman's coefficient.  In ``values`` mode the measure
    values are correlated against the ordinal ratings directly; datasets
    without ratings reject this mode.  Sign convention throughout:
    positive r means the measure agrees with the listeners.
    """
    if mode not in ("ranks", "values"):
        raise UsageError(f"mode must be 'ranks' or 'values', got {mode!r}")
    rating_orientation = _DATASETS[dataset.id].rating
    if mode == "values" and rating_orientation is None:
        raise UsageError(f"dataset {dataset.id!r} has no ordinal ratings")
    if measure in MEASURES:
        orientation = MEASURES[measure].orientation
    else:
        orientation = _COLUMN_ORIENTATION.get(measure, 1)
    # oriented so that smaller means more consonant
    values = [orientation * v for v in measure_values(dataset, measure, t)]

    if mode == "ranks":
        x = rank_with_ties([item.empirical for item in dataset.items])
        y = rank_with_ties(values)
    else:
        ratings = dataset.static_columns["rating"]
        paired = [(r_, v) for r_, v in zip(ratings, values) if r_ is not None]
        x = [rating_orientation * r_ for r_, _ in paired]
        y = [v for _, v in paired]

    r = pearson(x, y)
    return CorrelationReport(
        dataset=dataset.id,
        measure=measure,
        tuning=t.name if t is not None and measure in MEASURES else "",
        mode=mode,
        r=r,
        n=len(x),
        p=significance(r, len(x)),
    )


# --------------------------------------------------------------------------
# golden values and reproduction


@dataclass(frozen=True)
class _GoldenCorrelation:
    """One published correlation row of a reproduction target, computed on
    the target's dataset.

    ``kind`` is ``strict`` (recomputed and diffed; mismatch fails the
    reproduction), ``info`` (recomputed and shown, but known not to match
    the published analysis pipeline — excluded from pass/fail), or
    ``external`` (based on data never published; displayed only).
    """

    label: str
    measure: str | None
    tuning: str | None
    mode: str
    r: float
    p: float
    kind: str = "strict"


_G = _GoldenCorrelation

# Each reproduction target: its dataset, the golden measure columns
# recomputed cell by cell as (column name, measure, tuning, tolerance), and
# its published correlation rows.
_TARGETS: dict[str, tuple[str, tuple[tuple[str, str, str, float], ...],
                          tuple[_GoldenCorrelation, ...]]] = {
    # footer of the main ranking table
    "table2": ("dyads", (
        ("rel_periodicity", "rel_periodicity", "just", 0.05),
        ("similarity", "similarity", "just", 0.005),
    ), (
        _G("roughness", "roughness", None, "ranks", 0.967, 0.0000),
        _G("sonance factor", "sonance_factor", None, "ranks", 0.982, 0.0000),
        _G("similarity", "similarity", "just", "ranks", 0.977, 0.0000),
        _G("relative periodicity", "rel_periodicity", "just", "ranks", 0.982, 0.0000),
    )),
    # footer of the main ranking table
    "table3": ("triads", (
        ("rel_periodicity", "rel_periodicity", "just", 0.05),
        ("similarity", "similarity", "just", 0.005),
    ), (
        _G("roughness", "roughness", None, "ranks", 0.352, 0.1193),
        _G("instability", "instability", None, "ranks", 0.698, 0.0040),
        _G("similarity", "similarity", "just", "ranks", 0.802, 0.0005),
        _G("relative periodicity", "rel_periodicity", "just", "ranks", 0.846, 0.0001),
        _G("dual process", "dual_process", None, "ranks", 0.791, 0.0006),
    )),
    # all 19 root-position three-tone chords
    "table4": ("complete_triads", (
        ("rel_periodicity", "rel_periodicity", "just", 0.05),
        ("log_periodicity", "log_periodicity", "just", 0.001),
        ("similarity", "similarity", "just", 0.005),
    ), (
        _G("roughness", "roughness", None, "ranks", 0.761, 0.0001),
        _G("roughness", "roughness", None, "values", 0.746, 0.0001),
        _G("similarity", "similarity", "just", "ranks", 0.760, 0.0001),
        _G("similarity", "similarity", "just", "values", 0.765, 0.0001),
        _G("relative periodicity", "rel_periodicity", "just", "ranks", 0.713, 0.0003),
        _G("relative periodicity", "rel_periodicity", "just", "values", 0.548, 0.0075),
        _G("logarithmic periodicity", "log_periodicity", "just", "ranks", 0.867, 0.0000),
        _G("logarithmic periodicity", "log_periodicity", "just", "values", 0.810, 0.0000),
        _G("dual process", "dual_process", None, "ranks", 0.916, 0.0000),
    )),
    # heptatonic scales
    "table6": ("church_modes", (
        ("log_periodicity_just", "log_periodicity", "just", 0.001),
        ("log_periodicity_rational", "log_periodicity", "rational", 0.001),
    ), (
        _G("sonance factor", "sonance_factor", None, "ranks", 0.667, 0.0510),
        _G("similarity", "similarity", None, "ranks", 0.036, 0.4697),
        _G("logarithmic periodicity (just)", "log_periodicity", "just", "ranks", 0.786, 0.0181),
        _G("logarithmic periodicity (rational)", "log_periodicity", "rational", "ranks", 0.964, 0.0002),
    )),
    # full correlation survey
    "cor2": ("dyads", (), (
        _G("sonance factor", "sonance_factor", None, "ranks", 0.982, 0.0000),
        _G("relative periodicity (just)", "rel_periodicity", "just", "ranks", 0.982, 0.0000),
        _G("logarithmic periodicity (just)", "log_periodicity", "just", "ranks", 0.982, 0.0000),
        _G("consonance raw value", None, None, "ranks", 0.978, 0.0000, "external"),
        _G("percentage similarity", "similarity", "just", "ranks", 0.977, 0.0000),
        _G("roughness", "roughness", None, "ranks", 0.967, 0.0000),
        _G("gradus suavitatis", "gradus", "just", "ranks", 0.941, 0.0000, "info"),
        _G("consonance value", "brefeld", "just", "ranks", 0.940, 0.0000, "info"),
        _G("pure tonalness", None, None, "ranks", 0.938, 0.0000, "external"),
        _G("relative periodicity (rational)", "rel_periodicity", "rational", "ranks", 0.936, 0.0000),
        _G("logarithmic periodicity (rational)", "log_periodicity", "rational", "ranks", 0.936, 0.0000),
        _G("dissonance curve", None, None, "ranks", 0.905, 0.0000, "external"),
        _G("omega measure", "omega", "just", "ranks", 0.886, 0.0000, "info"),
        _G("generalized coincidence", None, None, "ranks", 0.841, 0.0002, "external"),
        _G("relative periodicity (pythagorean)", "rel_periodicity", "pythagorean", "ranks", 0.817, 0.0003),
        _G("relative periodicity (kirnberger3)", "rel_periodicity", "kirnberger3", "ranks", 0.796, 0.0006),
        _G("complex tonalness", None, None, "ranks", 0.738, 0.0020, "external"),
    )),
    # full correlation survey
    "cor3": ("triads", (), (
        _G("relative periodicity (just)", "rel_periodicity", "just", "ranks", 0.846, 0.0001),
        _G("logarithmic periodicity (just)", "log_periodicity", "just", "ranks", 0.831, 0.0002),
        _G("logarithmic periodicity (rational)", "log_periodicity", "rational", "ranks", 0.813, 0.0004),
        _G("relative periodicity (rational)", "rel_periodicity", "rational", "ranks", 0.808, 0.0004),
        _G("percentage similarity", "similarity", "just", "ranks", 0.802, 0.0005),
        _G("dual process", "dual_process", None, "ranks", 0.791, 0.0006),
        _G("consonance value", "brefeld", "just", "ranks", 0.755, 0.0014),
        _G("consonance degree", None, None, "ranks", 0.826, 0.0016, "external"),
        _G("dissonance curve", None, None, "ranks", 0.723, 0.0026, "external"),
        _G("instability", "instability", None, "ranks", 0.698, 0.0040),
        _G("gradus suavitatis", "gradus", "just", "ranks", 0.690, 0.0045, "info"),
        _G("sensory dissonance", None, None, "ranks", 0.607, 0.0139, "external"),
        _G("tension", None, None, "ranks", 0.599, 0.0153, "external"),
        _G("pure tonalness", None, None, "ranks", 0.675, 0.0162, "external"),
        _G("critical bandwidth", None, None, "ranks", 0.570, 0.0210, "external"),
        _G("temporal dissonance", None, None, "ranks", 0.503, 0.0399, "external"),
        _G("sonance factor", None, None, "ranks", 0.434, 0.0692, "external"),
        _G("roughness", "roughness", None, "ranks", 0.352, 0.1193),
    )),
}

#: Valid arguments to :func:`reproduce`.
REPRODUCTION_TARGETS = tuple(_TARGETS)

_TOLERANCE_R = 0.005
_TOLERANCE_P = 0.0005


@dataclass(frozen=True)
class ReproductionCheck:
    """One recomputed cell or correlation, diffed against its golden value."""

    name: str
    expected: float
    computed: float | None
    tolerance: float
    kind: str  # strict | info | external

    @property
    def ok(self) -> bool:
        if self.kind != "strict":
            return True
        assert self.computed is not None
        return abs(self.computed - self.expected) <= self.tolerance


@dataclass(frozen=True)
class ReproductionReport:
    """Outcome of re-deriving one published table."""

    target: str
    checks: tuple[ReproductionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> tuple[ReproductionCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def reproduce(target: str, tuning: str | None = None) -> ReproductionReport:
    """Re-derive every computable cell and correlation of one published
    table and diff against the embedded golden values.

    ``tuning`` optionally restricts the work to golden cells computed under
    that tuning (rows with no tuning — static columns — are kept).
    """
    if target not in _TARGETS:
        valid = ", ".join(_TARGETS)
        raise UsageError(f"unknown reproduction target {target!r}; valid targets: {valid}")
    dataset_id, golden_columns, golden_rows = _TARGETS[target]
    dataset = load_dataset(dataset_id)
    checks: list[ReproductionCheck] = []

    if tuning is not None:
        present = {g[2] for g in golden_columns} | {
            g.tuning for g in golden_rows if g.tuning is not None
        }
        if tuning not in present:
            raise UsageError(
                f"target {target!r} has no golden cells under tuning {tuning!r}; "
                f"tunings present: {', '.join(sorted(present))}"
            )
        golden_columns = tuple(g for g in golden_columns if g[2] == tuning)
        golden_rows = tuple(g for g in golden_rows if g.tuning in (None, tuning))

    for column_name, measure, tuning_name, tolerance in golden_columns:
        t = builtin_tuning(tuning_name)
        computed = measure_values(dataset, measure, t)
        expected = dataset.column(column_name)
        for item, got, want in zip(dataset.items, computed, expected):
            if want is None:
                raise DataError(
                    f"dataset {dataset.id!r} column {column_name!r} row "
                    f"{item.label!r}: golden cell is empty"
                )
            checks.append(
                ReproductionCheck(
                    name=f"{column_name}[{item.label}]",
                    expected=want,
                    computed=got,
                    tolerance=tolerance,
                    kind="strict",
                )
            )

    for golden in golden_rows:
        # (statistic, published, computed, tolerance); an external row's r
        # is displayed only, and every external row has mode ranks
        if golden.kind == "external":
            statistics = [("r", golden.r, None, _TOLERANCE_R)]
        else:
            assert golden.measure is not None
            t = builtin_tuning(golden.tuning) if golden.tuning else None
            report = correlate_measure(dataset, golden.measure, t, golden.mode)
            statistics = [("r", golden.r, report.r, _TOLERANCE_R),
                          ("p", golden.p, report.p, _TOLERANCE_P)]
        mode_tag = "" if golden.mode == "ranks" else ", values"
        for statistic, expected, computed, tolerance in statistics:
            checks.append(
                ReproductionCheck(
                    name=f"{statistic}[{golden.label}{mode_tag}]",
                    expected=expected,
                    computed=computed,
                    tolerance=tolerance,
                    kind=golden.kind,
                )
            )
    return ReproductionReport(target=target, checks=tuple(checks))
