"""Embedded listening-test datasets and the correlation statistics used to
compare computed consonance measures against them.

Four datasets ship with the package as semicolon-delimited CSV resources
(override the directory with the ``HARMONY_DATA_DIR`` environment variable):

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
from importlib import resources
from pathlib import Path
from typing import Sequence

from .errors import DataError, UsageError
from .measures import MEASURES, evaluate_measure
from .tuning import TuningTable, builtin_tuning

__all__ = [
    "DATASET_IDS",
    "CorrelationReport",
    "DatasetItem",
    "EmpiricalDataset",
    "GoldenCorrelation",
    "REPRODUCTION_TARGETS",
    "ReproductionCheck",
    "ReproductionReport",
    "correlate_measure",
    "golden_correlations",
    "load_dataset",
    "pearson",
    "rank_with_ties",
    "reproduce",
    "significance",
]

DATASET_IDS = ("dyads", "triads", "complete_triads", "church_modes")

# Column layout of each dataset file: (name, format spec) after the fixed
# label;semitones;empirical prefix.  "d" formats as an integer.
_SCHEMAS: dict[str, tuple[tuple[str, str], ...]] = {
    "dyads": (
        ("roughness", ".4f"),
        ("sonance_factor", ".3f"),
        ("similarity", ".2f"),
        ("rel_periodicity", ".1f"),
    ),
    "triads": (
        ("rating", ".3f"),
        ("roughness", ".4f"),
        ("instability", ".3f"),
        ("similarity", ".2f"),
        ("rel_periodicity", ".1f"),
        ("dual_process", "d"),
    ),
    "complete_triads": (
        ("rating", ".3f"),
        ("roughness", ".4f"),
        ("similarity", ".2f"),
        ("rel_periodicity", ".1f"),
        ("log_periodicity", ".3f"),
        ("dual_process", "d"),
    ),
    "church_modes": (
        ("rating", ".2f"),
        ("sonance_factor", ".3f"),
        ("similarity", ".2f"),
        ("log_periodicity_just", ".3f"),
        ("log_periodicity_rational", ".3f"),
    ),
}

_EXPECTED_COUNTS = {"dyads": 13, "triads": 13, "complete_triads": 19, "church_modes": 7}

# Orientation of the static columns that grow with consonance; every other
# static column grows with dissonance (+1).  Recomputed measures take their
# orientation from the measure registry.
_COLUMN_ORIENTATION = {"sonance_factor": -1, "similarity": -1}

# Orientation of the ordinal rating column: dyads have none; triad ratings
# grow with dissonance; church-mode ratings grow with preference.
_RATING_ORIENTATION = {"triads": 1, "complete_triads": 1, "church_modes": -1}


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

    def to_csv(self) -> str:
        """Serialize back to the exact on-disk CSV form."""
        schema = _SCHEMAS[self.id]
        lines = [f"# harmonicity dataset: {self.id} v1"]
        lines.append(";".join(["label", "semitones", "empirical"] + [c for c, _ in schema]))
        for row, item in enumerate(self.items):
            cells = [
                item.label,
                ",".join(str(n) for n in item.semitones),
                _format_rank(item.empirical),
            ]
            for name, spec in schema:
                value = self.static_columns[name][row]
                if value is None:
                    cells.append("")
                elif spec == "d":
                    cells.append(str(int(value)))
                else:
                    cells.append(format(value, spec))
            lines.append(";".join(cells))
        return "\n".join(lines) + "\n"


def _format_rank(value: float) -> str:
    return str(int(value)) if value == int(value) else format(value, ".1f")


def _data_text(dataset_id: str) -> str:
    override = os.environ.get("HARMONY_DATA_DIR")
    if override:
        path = Path(override) / f"{dataset_id}.csv"
        try:
            return path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    try:
        return (
            resources.files(__package__)
            .joinpath("data")
            .joinpath(f"{dataset_id}.csv")
            .read_text(encoding="utf-8")
        )
    except OSError as exc:  # pragma: no cover - packaging defect
        raise DataError(f"packaged dataset {dataset_id!r} is missing: {exc}") from exc


def load_dataset(dataset_id: str) -> EmpiricalDataset:
    """Load one embedded dataset (or its ``HARMONY_DATA_DIR`` override)."""
    if dataset_id not in DATASET_IDS:
        valid = ", ".join(DATASET_IDS)
        raise UsageError(f"unknown dataset {dataset_id!r}; valid ids: {valid}")
    text = _data_text(dataset_id)
    schema = _SCHEMAS[dataset_id]
    lines = text.splitlines()
    if not lines or lines[0] != f"# harmonicity dataset: {dataset_id} v1":
        raise DataError(
            f"dataset {dataset_id!r}: missing or wrong version marker "
            f"(expected '# harmonicity dataset: {dataset_id} v1')"
        )
    expected_header = ";".join(["label", "semitones", "empirical"] + [c for c, _ in schema])
    if len(lines) < 2 or lines[1] != expected_header:
        raise DataError(f"dataset {dataset_id!r}: header does not match schema")

    items: list[DatasetItem] = []
    columns: dict[str, list[float | None]] = {name: [] for name, _ in schema}
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
            for (name, _), cell in zip(schema, cells[3:]):
                columns[name].append(float(cell) if cell else None)
        except ValueError as exc:
            raise DataError(f"dataset {dataset_id!r} line {number}: {exc}") from exc
        if semitones[0] != 0:
            raise DataError(
                f"dataset {dataset_id!r} line {number}: offsets must start at 0"
            )
        items.append(DatasetItem(cells[0], semitones, empirical))

    if len(items) != _EXPECTED_COUNTS[dataset_id]:
        raise DataError(
            f"dataset {dataset_id!r}: expected {_EXPECTED_COUNTS[dataset_id]} rows, "
            f"got {len(items)}"
        )
    return EmpiricalDataset(
        id=dataset_id,
        items=tuple(items),
        static_columns={name: tuple(values) for name, values in columns.items()},
    )


# --------------------------------------------------------------------------
# statistics


def rank_with_ties(values: Sequence[float], ascending: bool = True) -> list[float]:
    """Rank values from 1, giving equal values the mean of the positions
    they occupy.

    >>> rank_with_ties([1.0, 1.0, 2.0])
    [1.5, 1.5, 3.0]
    """
    if not values:
        raise UsageError("rank_with_ties() needs at least one value")
    keyed = list(values) if ascending else [-v for v in values]
    order = sorted(range(len(keyed)), key=keyed.__getitem__)
    ranks = [0.0] * len(keyed)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and keyed[order[stop + 1]] == keyed[order[start]]:
            stop += 1
        shared = (start + stop) / 2 + 1
        for position in range(start, stop + 1):
            ranks[order[position]] = shared
        start = stop + 1
    return ranks


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient of two equal-length samples."""
    if len(x) != len(y):
        raise UsageError(f"pearson() needs equal lengths, got {len(x)} and {len(y)}")
    n = len(x)
    if n < 3:
        raise UsageError(f"pearson() needs at least 3 points, got {n}")
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
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)


def significance(r: float, n: int) -> float:
    """One-sided p-value of H1: r > 0 for a sample correlation ``r`` of
    ``n`` points: the upper tail of Student's t with n-2 degrees of freedom
    at ``t = r * sqrt((n-2) / (1-r^2))``.

    >>> round(significance(0.0, 10), 6)
    0.5
    """
    if not isinstance(n, int) or n < 3:
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


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + numerator / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + numerator / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
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
    r: float
    n: int
    p: float

    def to_csv_row(self) -> str:
        return (
            f"{self.dataset};{self.measure};{self.tuning};{self.mode};"
            f"{self.n};{self.r:.3f};{self.p:.4f}"
        )

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "measure": self.measure,
            "tuning": self.tuning,
            "mode": self.mode,
            "n": self.n,
            "r": self.r,
            "p": self.p,
        }


def correlation_csv_header() -> str:
    """Header row for :meth:`CorrelationReport.to_csv_row`."""
    return "dataset;measure;tuning;mode;n;r;p"


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
    values = measure_values(dataset, measure, t)
    if t is not None and measure in MEASURES:
        orientation, tuning_name = MEASURES[measure].orientation, t.name
    else:
        orientation, tuning_name = _COLUMN_ORIENTATION.get(measure, 1), ""

    if mode == "ranks":
        x = rank_with_ties([item.empirical for item in dataset.items])
        y = rank_with_ties(values, ascending=orientation > 0)
    else:
        rating_orientation = _RATING_ORIENTATION.get(dataset.id)
        if rating_orientation is None or "rating" not in dataset.static_columns:
            raise UsageError(f"dataset {dataset.id!r} has no ordinal ratings")
        ratings = dataset.static_columns["rating"]
        paired = [(r_, v) for r_, v in zip(ratings, values) if r_ is not None]
        x = [rating_orientation * r_ for r_, _ in paired]
        y = [orientation * v for _, v in paired]

    r = pearson(x, y)
    return CorrelationReport(
        dataset=dataset.id,
        measure=measure,
        tuning=tuning_name,
        mode=mode,
        r=r,
        n=len(x),
        p=significance(r, len(x)),
    )


# --------------------------------------------------------------------------
# golden values and reproduction


@dataclass(frozen=True)
class GoldenCorrelation:
    """One published correlation row.

    ``kind`` is ``strict`` (recomputed and diffed; mismatch fails the
    reproduction), ``info`` (recomputed and shown, but known not to match
    the published analysis pipeline — excluded from pass/fail), or
    ``external`` (based on data never published; displayed only).
    """

    table: str
    label: str
    dataset: str | None
    measure: str | None
    tuning: str | None
    mode: str
    r: float
    p: float
    kind: str = "strict"


_G = GoldenCorrelation

_GOLDEN: tuple[GoldenCorrelation, ...] = (
    # dyads: footer of the main ranking table
    _G("table2", "roughness", "dyads", "roughness", None, "ranks", 0.967, 0.0000),
    _G("table2", "sonance factor", "dyads", "sonance_factor", None, "ranks", 0.982, 0.0000),
    _G("table2", "similarity", "dyads", "similarity", "just", "ranks", 0.977, 0.0000),
    _G("table2", "relative periodicity", "dyads", "rel_periodicity", "just", "ranks", 0.982, 0.0000),
    # dyads: full correlation survey
    _G("cor2", "sonance factor", "dyads", "sonance_factor", None, "ranks", 0.982, 0.0000),
    _G("cor2", "relative periodicity (just)", "dyads", "rel_periodicity", "just", "ranks", 0.982, 0.0000),
    _G("cor2", "logarithmic periodicity (just)", "dyads", "log_periodicity", "just", "ranks", 0.982, 0.0000),
    _G("cor2", "consonance raw value", None, None, None, "ranks", 0.978, 0.0000, "external"),
    _G("cor2", "percentage similarity", "dyads", "similarity", "just", "ranks", 0.977, 0.0000),
    _G("cor2", "roughness", "dyads", "roughness", None, "ranks", 0.967, 0.0000),
    _G("cor2", "gradus suavitatis", "dyads", "gradus", "just", "ranks", 0.941, 0.0000, "info"),
    _G("cor2", "consonance value", "dyads", "brefeld", "just", "ranks", 0.940, 0.0000, "info"),
    _G("cor2", "pure tonalness", None, None, None, "ranks", 0.938, 0.0000, "external"),
    _G("cor2", "relative periodicity (rational)", "dyads", "rel_periodicity", "rational", "ranks", 0.936, 0.0000),
    _G("cor2", "logarithmic periodicity (rational)", "dyads", "log_periodicity", "rational", "ranks", 0.936, 0.0000),
    _G("cor2", "dissonance curve", None, None, None, "ranks", 0.905, 0.0000, "external"),
    _G("cor2", "omega measure", "dyads", "omega", "just", "ranks", 0.886, 0.0000, "info"),
    _G("cor2", "generalized coincidence", None, None, None, "ranks", 0.841, 0.0002, "external"),
    _G("cor2", "relative periodicity (pythagorean)", "dyads", "rel_periodicity", "pythagorean", "ranks", 0.817, 0.0003),
    _G("cor2", "relative periodicity (kirnberger3)", "dyads", "rel_periodicity", "kirnberger3", "ranks", 0.796, 0.0006),
    _G("cor2", "complex tonalness", None, None, None, "ranks", 0.738, 0.0020, "external"),
    # triads: footer of the main ranking table
    _G("table3", "roughness", "triads", "roughness", None, "ranks", 0.352, 0.1193),
    _G("table3", "instability", "triads", "instability", None, "ranks", 0.698, 0.0040),
    _G("table3", "similarity", "triads", "similarity", "just", "ranks", 0.802, 0.0005),
    _G("table3", "relative periodicity", "triads", "rel_periodicity", "just", "ranks", 0.846, 0.0001),
    _G("table3", "dual process", "triads", "dual_process", None, "ranks", 0.791, 0.0006),
    # triads: full correlation survey
    _G("cor3", "relative periodicity (just)", "triads", "rel_periodicity", "just", "ranks", 0.846, 0.0001),
    _G("cor3", "logarithmic periodicity (just)", "triads", "log_periodicity", "just", "ranks", 0.831, 0.0002),
    _G("cor3", "logarithmic periodicity (rational)", "triads", "log_periodicity", "rational", "ranks", 0.813, 0.0004),
    _G("cor3", "relative periodicity (rational)", "triads", "rel_periodicity", "rational", "ranks", 0.808, 0.0004),
    _G("cor3", "percentage similarity", "triads", "similarity", "just", "ranks", 0.802, 0.0005),
    _G("cor3", "dual process", "triads", "dual_process", None, "ranks", 0.791, 0.0006),
    _G("cor3", "consonance value", "triads", "brefeld", "just", "ranks", 0.755, 0.0014),
    _G("cor3", "consonance degree", None, None, None, "ranks", 0.826, 0.0016, "external"),
    _G("cor3", "dissonance curve", None, None, None, "ranks", 0.723, 0.0026, "external"),
    _G("cor3", "instability", "triads", "instability", None, "ranks", 0.698, 0.0040),
    _G("cor3", "gradus suavitatis", "triads", "gradus", "just", "ranks", 0.690, 0.0045, "info"),
    _G("cor3", "sensory dissonance", None, None, None, "ranks", 0.607, 0.0139, "external"),
    _G("cor3", "tension", None, None, None, "ranks", 0.599, 0.0153, "external"),
    _G("cor3", "pure tonalness", None, None, None, "ranks", 0.675, 0.0162, "external"),
    _G("cor3", "critical bandwidth", None, None, None, "ranks", 0.570, 0.0210, "external"),
    _G("cor3", "temporal dissonance", None, None, None, "ranks", 0.503, 0.0399, "external"),
    _G("cor3", "sonance factor", None, None, None, "ranks", 0.434, 0.0692, "external"),
    _G("cor3", "roughness", "triads", "roughness", None, "ranks", 0.352, 0.1193),
    # all 19 root-position three-tone chords
    _G("table4", "roughness", "complete_triads", "roughness", None, "ranks", 0.761, 0.0001),
    _G("table4", "roughness", "complete_triads", "roughness", None, "values", 0.746, 0.0001),
    _G("table4", "similarity", "complete_triads", "similarity", "just", "ranks", 0.760, 0.0001),
    _G("table4", "similarity", "complete_triads", "similarity", "just", "values", 0.765, 0.0001),
    _G("table4", "relative periodicity", "complete_triads", "rel_periodicity", "just", "ranks", 0.713, 0.0003),
    _G("table4", "relative periodicity", "complete_triads", "rel_periodicity", "just", "values", 0.548, 0.0075),
    _G("table4", "logarithmic periodicity", "complete_triads", "log_periodicity", "just", "ranks", 0.867, 0.0000),
    _G("table4", "logarithmic periodicity", "complete_triads", "log_periodicity", "just", "values", 0.810, 0.0000),
    _G("table4", "dual process", "complete_triads", "dual_process", None, "ranks", 0.916, 0.0000),
    # heptatonic scales
    _G("table6", "sonance factor", "church_modes", "sonance_factor", None, "ranks", 0.667, 0.0510),
    _G("table6", "similarity", "church_modes", "similarity", None, "ranks", 0.036, 0.4697),
    _G("table6", "logarithmic periodicity (just)", "church_modes", "log_periodicity", "just", "ranks", 0.786, 0.0181),
    _G("table6", "logarithmic periodicity (rational)", "church_modes", "log_periodicity", "rational", "ranks", 0.964, 0.0002),
)

#: Valid arguments to :func:`reproduce`.
REPRODUCTION_TARGETS = ("table2", "table3", "table4", "table6", "cor2", "cor3")

# Golden measure columns recomputed cell by cell per target:
# (column name, measure, tuning, tolerance)
_GOLDEN_COLUMNS: dict[str, tuple[tuple[str, str, str, float], ...]] = {
    "table2": (
        ("rel_periodicity", "rel_periodicity", "just", 0.05),
        ("similarity", "similarity", "just", 0.005),
    ),
    "table3": (
        ("rel_periodicity", "rel_periodicity", "just", 0.05),
        ("similarity", "similarity", "just", 0.005),
    ),
    "table4": (
        ("rel_periodicity", "rel_periodicity", "just", 0.05),
        ("log_periodicity", "log_periodicity", "just", 0.001),
        ("similarity", "similarity", "just", 0.005),
    ),
    "table6": (
        ("log_periodicity_just", "log_periodicity", "just", 0.001),
        ("log_periodicity_rational", "log_periodicity", "rational", 0.001),
    ),
}

_TARGET_DATASET = {
    "table2": "dyads",
    "table3": "triads",
    "table4": "complete_triads",
    "table6": "church_modes",
    "cor2": "dyads",
    "cor3": "triads",
}

_TOLERANCE_R = 0.005
_TOLERANCE_P = 0.0005


def golden_correlations(table: str | None = None) -> tuple[GoldenCorrelation, ...]:
    """The published correlation rows, optionally filtered by table."""
    if table is None:
        return _GOLDEN
    if table not in REPRODUCTION_TARGETS:
        valid = ", ".join(REPRODUCTION_TARGETS)
        raise UsageError(f"unknown table {table!r}; valid targets: {valid}")
    return tuple(g for g in _GOLDEN if g.table == table)


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

    def to_text(self) -> str:
        lines = [f"reproduction target: {self.target}"]
        for check in self.checks:
            if check.kind == "external":
                lines.append(f"  {check.name}: published {check.expected:.4g} (external data; not recomputed)")
            elif check.kind == "info":
                lines.append(
                    f"  {check.name}: computed {check.computed:.4g}, published "
                    f"{check.expected:.4g} (info only; known pipeline difference)"
                )
            else:
                verdict = "ok" if check.ok else "MISMATCH"
                lines.append(
                    f"  {check.name}: computed {check.computed:.4g}, published "
                    f"{check.expected:.4g} (tolerance {check.tolerance:g}) {verdict}"
                )
        summary = "PASS" if self.passed else f"FAIL ({len(self.failures)} mismatching checks)"
        lines.append(f"result: {summary}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "computed": c.computed,
                    "tolerance": c.tolerance,
                    "kind": c.kind,
                    "ok": c.ok,
                }
                for c in self.checks
            ],
        }


def reproduce(target: str, tuning: str | None = None) -> ReproductionReport:
    """Re-derive every computable cell and correlation of one published
    table and diff against the embedded golden values.

    ``tuning`` optionally restricts the work to golden cells computed under
    that tuning (rows with no tuning — static columns — are kept).
    """
    if target not in REPRODUCTION_TARGETS:
        valid = ", ".join(REPRODUCTION_TARGETS)
        raise UsageError(f"unknown reproduction target {target!r}; valid: {valid}")

    dataset = load_dataset(_TARGET_DATASET[target])
    checks: list[ReproductionCheck] = []

    golden_columns = _GOLDEN_COLUMNS.get(target, ())
    golden_rows = golden_correlations(target)
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
            assert want is not None
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
        if golden.kind == "external":
            checks.append(
                ReproductionCheck(
                    name=f"r[{golden.label}]",
                    expected=golden.r,
                    computed=None,
                    tolerance=_TOLERANCE_R,
                    kind="external",
                )
            )
            continue
        assert golden.dataset is not None and golden.measure is not None
        t = builtin_tuning(golden.tuning) if golden.tuning else None
        report = correlate_measure(dataset, golden.measure, t, golden.mode)
        mode_tag = "" if golden.mode == "ranks" else ", values"
        checks.append(
            ReproductionCheck(
                name=f"r[{golden.label}{mode_tag}]",
                expected=golden.r,
                computed=report.r,
                tolerance=_TOLERANCE_R,
                kind=golden.kind,
            )
        )
        checks.append(
            ReproductionCheck(
                name=f"p[{golden.label}{mode_tag}]",
                expected=golden.p,
                computed=report.p,
                tolerance=_TOLERANCE_P,
                kind=golden.kind,
            )
        )
    return ReproductionReport(target=target, checks=tuple(checks))
