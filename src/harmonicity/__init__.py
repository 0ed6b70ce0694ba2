"""Periodicity-based analysis of musical consonance.

The core model: map a harmony's tones to exact frequency ratios under a
rational tuning, and measure how many periods of the lowest tone pass
before the combined waveform repeats (the *relative periodicity* h).
Smaller h — faster repetition — correlates strongly with perceived
consonance across dyads, triads and scales.  The package bundles the
listening-test datasets, rival measures, a signal-level oracle, and a CLI
to reproduce the published tables.

The datasets and statistics (``empirics``) and the ranking of every
one-octave harmony (``enumeration``) load on first use of one of their
names, so a program that needs neither does not pay for them.
"""

import importlib

from . import errors, measures, periodicity, rationals, signal_oracle, tuning
from .errors import *
from .measures import *
from .periodicity import *
from .rationals import *
from .signal_oracle import *
from .tuning import *

__version__ = "0.1.0"

# The modules that load on first use, each with its ``__all__``.
_LAZY = {
    "empirics": (
        "DATASET_IDS", "CorrelationReport", "DatasetItem", "EmpiricalDataset",
        "REPRODUCTION_TARGETS", "ReproductionCheck", "ReproductionReport",
        "correlate_measure", "load_dataset", "pearson", "rank_with_ties", "reproduce",
        "significance",
    ),
    "enumeration": (
        "RankTable", "RankedRow", "enumerate_harmonies", "rank_table", "top_share_count",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    *_LAZY["empirics"],
    *_LAZY["enumeration"],
    *errors.__all__,
    *measures.__all__,
    *periodicity.__all__,
    *rationals.__all__,
    *signal_oracle.__all__,
    *tuning.__all__,
    "__version__",
]


def __getattr__(name: str) -> object:
    """Load a lazy module on first use of it or of a name it exports."""
    module = _HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import``: that form looks the name up on
    # this package first, which would call this function again
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    """The package's names, those of the modules not loaded yet included."""
    return sorted({*globals(), *_LAZY, *_HOME})
