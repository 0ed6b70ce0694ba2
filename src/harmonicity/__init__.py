"""Periodicity-based analysis of musical consonance.

The core model: map a harmony's tones to exact frequency ratios under a
rational tuning, and measure how many periods of the lowest tone pass
before the combined waveform repeats (the *relative periodicity* h).
Smaller h — faster repetition — correlates strongly with perceived
consonance across dyads, triads and scales.  The package bundles the
listening-test datasets, rival measures, a signal-level oracle, and a CLI
to reproduce the published tables.
"""

from . import (empirics, enumeration, errors, measures, periodicity, rationals,
               signal_oracle, tuning)
from .empirics import *
from .enumeration import *
from .errors import *
from .measures import *
from .periodicity import *
from .rationals import *
from .signal_oracle import *
from .tuning import *

__version__ = "0.1.0"

__all__ = [
    *empirics.__all__,
    *enumeration.__all__,
    *errors.__all__,
    *measures.__all__,
    *periodicity.__all__,
    *rationals.__all__,
    *signal_oracle.__all__,
    *tuning.__all__,
    "__version__",
]
