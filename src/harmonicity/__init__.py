"""Periodicity-based analysis of musical consonance.

The core model: map a harmony's tones to exact frequency ratios under a
rational tuning, and measure how many periods of the lowest tone pass
before the combined waveform repeats (the *relative periodicity* h).
Smaller h — faster repetition — correlates strongly with perceived
consonance across dyads, triads and scales.  The package bundles the
listening-test datasets, rival measures, a signal-level oracle, and a CLI
to reproduce the published tables.
"""

from .empirics import (
    DATASET_IDS,
    REPRODUCTION_TARGETS,
    CorrelationReport,
    DatasetItem,
    EmpiricalDataset,
    GoldenCorrelation,
    ReproductionCheck,
    ReproductionReport,
    correlate_measure,
    golden_correlations,
    load_dataset,
    pearson,
    rank_with_ties,
    reproduce,
    significance,
)
from .enumeration import (
    RankedRow,
    RankTable,
    enumerate_harmonies,
    rank_table,
    top_share_count,
)
from .errors import (
    DataError,
    HarmonicityError,
    ParseError,
    TuningError,
    UndefinedMeasureError,
    UsageError,
)
from .measures import (
    MEASURES,
    Measure,
    evaluate_measure,
    pairwise_intervals,
)
from .periodicity import (
    AnalysisResult,
    Harmony,
    analyze,
    fundamental_frequency,
    inversion_offsets,
    ratios_for,
    raw_periodicity,
)
from .rationals import (
    ApproximationTrace,
    approximate,
    lcm_many,
    mediant_sequence,
    prime_factor_multiset,
)
from .signal_oracle import ToneStack, autocorrelation, detect_period
from .tuning import (
    BUILTIN_TUNING_NAMES,
    INTERVAL_NAMES,
    TuningTable,
    builtin_tuning,
    deviation,
    ratio_for_semitone,
    rational_tuning,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "ApproximationTrace",
    "BUILTIN_TUNING_NAMES",
    "CorrelationReport",
    "DATASET_IDS",
    "DataError",
    "DatasetItem",
    "EmpiricalDataset",
    "GoldenCorrelation",
    "Harmony",
    "HarmonicityError",
    "INTERVAL_NAMES",
    "MEASURES",
    "Measure",
    "ParseError",
    "REPRODUCTION_TARGETS",
    "RankTable",
    "RankedRow",
    "ReproductionCheck",
    "ReproductionReport",
    "ToneStack",
    "TuningError",
    "TuningTable",
    "UndefinedMeasureError",
    "UsageError",
    "__version__",
    "analyze",
    "approximate",
    "autocorrelation",
    "builtin_tuning",
    "correlate_measure",
    "detect_period",
    "deviation",
    "enumerate_harmonies",
    "evaluate_measure",
    "fundamental_frequency",
    "golden_correlations",
    "inversion_offsets",
    "lcm_many",
    "load_dataset",
    "mediant_sequence",
    "pairwise_intervals",
    "pearson",
    "prime_factor_multiset",
    "rank_table",
    "rank_with_ties",
    "ratio_for_semitone",
    "ratios_for",
    "rational_tuning",
    "raw_periodicity",
    "reproduce",
    "significance",
    "top_share_count",
]
