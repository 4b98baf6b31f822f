"""Mostly-unsupervised word segmentation from character n-gram statistics.

The package builds pruned character n-gram count tables from a raw
unsegmented corpus, segments delimiter-free character sequences by n-gram
boundary voting with local-maximum and threshold placement rules, and ships
a bigram mutual-information / t-score-difference segmenter as a baseline.
Gold data uses a two-level (word / morpheme) bracket annotation, scored
with exact-match precision, recall, and F plus crossing, morpheme-dividing,
and compatible-brackets diagnostics.  Grid-search training with fixed
tie-breaking selects parameters from a small annotated set.
"""

__version__ = "0.1.0"

from . import annotations, errors, metrics, ngrams, segmenter, sst, synth, training
from .annotations import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .ngrams import *  # noqa: F401,F403
from .segmenter import *  # noqa: F401,F403
from .sst import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403
from .training import *  # noqa: F401,F403

# the package exports what each module exports
__all__ = [
    name
    for module in (annotations, errors, metrics, ngrams, segmenter, sst, synth, training)
    for name in module.__all__
]
