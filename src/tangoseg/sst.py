"""Bigram-statistics segmenter: mutual information and t-score differences.

A gap between characters D and W (with left context C and right context X)
is scored two ways.  The pointwise mutual information of D and W measures
their cohesion; gaps at or above the threshold are never boundaries.  The
difference in t-score between the transition into the gap and the
transition out of it produces a per-sequence profile whose peaks mark
boundary candidates; four bounds gate how pronounced a peak must be.

The published description of this method leaves the exact meaning of its
extremum parameters open, so the peak test here is one concrete
reconstruction: a *primary* peak is a strict local maximum of the profile
and a *secondary* peak a weak one (plateaus allowed); each is accepted when
its rise from the nearest minimum on the left and its fall to the nearest
minimum on the right reach the respective bounds (primary_rise,
primary_fall, secondary_rise, secondary_fall).  Profile ends count as
minima, so all gated quantities are non-negative.  A bound on a peak's
prominence (value above the higher adjacent minimum) would add nothing: it
is the smaller of rise and fall, so such a bound acts only by raising both.

One array engine serves sst_segment and train_sst: _gap_features gives a
sequence's mutual information and peak features as arrays over its
interior gaps, _peak_test is the one peak rule, and _sst_rule, the MI gate
and the peak rule, is the one boundary rule.  sst_segment applies it with
one parameter setting; train_sst broadcasts it over blocks of grid
settings.  dts_terms and mutual_information stay scalar: they are the
formulas the oracle checks term by term.
"""

import copy
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .annotations import FlatSegmentation
from .errors import FormatError, ParameterError, UndefinedStatisticError
from .ngrams import (
    STATS,
    Corpus,
    _block_dict,
    _code_blocks,
    _dict_counts,
    _walk,
    float_text,
    read_counts,
    read_key_values,
    write_counts,
    write_to,
)

__all__ = [
    "BigramStats",
    "DtsTerms",
    "SstParams",
    "dts_profile",
    "dts_terms",
    "extremum_features",
    "load_stats",
    "mutual_information",
    "read_sst_params",
    "save_stats",
    "sst_segment",
    "write_sst_params",
]

ESTIMATORS = ("mle", "ele")
# the least rise and fall of an accepted primary peak, then of a secondary one
PEAK_BOUNDS = ("primary_rise", "primary_fall", "secondary_rise", "secondary_fall")


def _require_estimator(estimator: str) -> str:
    if estimator not in ESTIMATORS:
        raise ParameterError(f"estimator must be one of {ESTIMATORS}")
    return estimator


@dataclass(frozen=True)
class SstParams:
    """Mutual-information threshold, the four PEAK_BOUNDS in order, estimator."""

    theta: float
    peak_bounds: tuple[float, float, float, float]
    estimator: str = "mle"

    def __post_init__(self):
        object.__setattr__(self, "peak_bounds", tuple(map(float, self.peak_bounds)))
        # written as "not >= 0" so that NaN fails too
        if not self.theta >= 0:
            raise ParameterError(f"theta must be non-negative, got {self.theta}")
        if len(self.peak_bounds) != len(PEAK_BOUNDS):
            raise ParameterError("exactly four peak bounds required")
        if not all(e >= 0 for e in self.peak_bounds):
            raise ParameterError(f"peak bounds must be non-negative, got {self.peak_bounds}")
        _require_estimator(self.estimator)


class BigramStats:
    """Raw unigram/bigram counts (Counters) plus probability estimates.

    Counts are unpruned and bigrams never span sequence boundaries.  The
    estimator is either ``mle`` (relative frequencies; _given refuses an
    unseen condition) or ``ele`` (add-half smoothing over the observed type
    inventory).
    """

    def __init__(
        self,
        unigrams: Counter,
        bigrams: Counter,
        total_chars: int,
        estimator: str = "mle",
    ):
        self.unigrams = unigrams
        self.bigrams = bigrams
        self.total_chars = total_chars
        self.total_bigrams = sum(bigrams.values())
        self.estimator = _require_estimator(estimator)

    @classmethod
    def from_corpus(cls, corpus: "Corpus | Iterable[str]", estimator: str = "mle") -> "BigramStats":
        sequences = corpus.sequences if isinstance(corpus, Corpus) else list(corpus)
        _, blocks = _code_blocks(*_walk(sequences, stats=True))
        unigrams, bigrams = (Counter(_block_dict({n: blocks[n]})) for n in (1, 2))
        return cls(unigrams, bigrams, sum(map(len, sequences)), estimator)

    def using(self, estimator: str) -> "BigramStats":
        """Same counts under a different estimator (counts are shared)."""
        if estimator == self.estimator:
            return self
        out = copy.copy(self)
        out.estimator = _require_estimator(estimator)
        return out

    def _estimate(self, count: int, total: int, types: int) -> float:
        """The one estimate: relative frequency under MLE, add-half over the
        types under ELE."""
        k = 0.0 if self.estimator == "mle" else 0.5
        return (count + k) / (total + k * types)

    def _given(self, x: str) -> int:
        """The count of x as an estimate's condition; an error if unseen under MLE."""
        c = self.unigrams[x]
        if c == 0 and self.estimator == "mle":
            raise UndefinedStatisticError(f"character {x!r} unseen under MLE")
        return c

    def p_char(self, x: str) -> float:
        return self._estimate(self._given(x), self.total_chars, len(self.unigrams))

    def p_pair(self, x: str, y: str) -> float:
        if self.total_bigrams == 0:
            raise UndefinedStatisticError("corpus contains no bigram tokens")
        return self._estimate(self.bigrams[x + y], self.total_bigrams, len(self.bigrams))

    def p_cond(self, y: str, x: str) -> float:
        """Probability that y immediately follows x."""
        return self._transition(y, x)[0]

    def var_cond(self, y: str, x: str) -> float:
        """Binomial variance of the conditional relative frequency."""
        return self._transition(y, x)[1]

    def _transition(self, y: str, x: str) -> tuple[float, float]:
        """(p_cond(y, x), var_cond(y, x)), the conditional estimated once;
        the variance is infinite when x is unseen (under ELE)."""
        cx = self._given(x)
        p = self._estimate(self.bigrams[x + y], cx, len(self.unigrams))
        return p, p * (1.0 - p) / cx if cx else math.inf


def mutual_information(stats: BigramStats, d: str, w: str) -> float:
    """log2 p(d,w) / (p(d) p(w)); -inf when the pair is unseen under MLE."""
    pd = stats.p_char(d)
    pw = stats.p_char(w)
    pdw = stats.p_pair(d, w)
    if pdw == 0.0:
        return -math.inf
    return math.log2(pdw / (pd * pw))


class DtsTerms(NamedTuple):
    """Both t-score terms of a gap, with degenerate-denominator flags."""

    value: float
    left_term: float
    right_term: float
    left_degenerate: bool
    right_degenerate: bool


def _t_term(num: float, var_sum: float) -> tuple[float, bool]:
    # zero pooled variance leaves the t-score undefined; report term 0
    if var_sum == 0.0:
        return 0.0, True
    return num / math.sqrt(var_sum), False


def dts_terms(stats: BigramStats, c: str, d: str, w: str, x: str) -> DtsTerms:
    """Difference in t-score across the gap between d and w, term by term.

    The left term compares the d-to-w transition against the c-to-d one;
    the right term compares w-to-x against d-to-w.  Each term is a t-score
    of the difference of conditional probabilities with pooled binomial
    variances.
    """
    p_wd, v_wd = stats._transition(w, d)
    p_dc, v_dc = stats._transition(d, c)
    p_xw, v_xw = stats._transition(x, w)
    left, left_degen = _t_term(p_wd - p_dc, v_wd + v_dc)
    right, right_degen = _t_term(p_xw - p_wd, v_xw + v_wd)
    return DtsTerms(left - right, left, right, left_degen, right_degen)


def dts_profile(seq: str, stats: BigramStats) -> list[float]:
    """dts value at each interior gap k = 2 .. len-2 (gaps with a full
    two-character context on both sides)."""
    return [
        dts_terms(stats, seq[k - 2], seq[k - 1], seq[k], seq[k + 1]).value
        for k in range(2, len(seq) - 1)
    ]


def extremum_features(values) -> "tuple[np.ndarray, ...]":
    """Classify every profile position and measure its rise and fall.

    Returns the arrays (primary, secondary, rise, fall).  Rise (fall) is the
    drop from the position's value to the nearest local minimum on the left
    (right); profile ends count as minima, and at weak maxima both are
    non-negative.  A position with no neighbours is neither kind of peak.
    """
    v = np.asarray(values, dtype=np.float64)
    m = len(v)
    # an end is compared with its one neighbour; a lone position is no peak
    edge = np.full(min(m, 1), m > 1)
    primary = np.concatenate((edge, v[1:] > v[:-1])) & np.concatenate((v[:-1] > v[1:], edge))
    secondary = np.concatenate((edge, v[1:] >= v[:-1])) & np.concatenate((v[:-1] >= v[1:], edge))
    is_min = np.ones(m, dtype=bool)
    is_min[1:-1] = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
    pos = np.arange(m)
    # the nearest minimum at or before (after) each position
    left = np.maximum.accumulate(np.where(is_min, pos, 0))
    right = np.minimum.accumulate(np.where(is_min, pos, m - 1)[::-1])[::-1]
    rise = np.zeros(m)
    rise[1:] = v[1:] - v[left[:-1]]
    fall = np.zeros(m)
    fall[:-1] = v[:-1] - v[right[1:]]
    return primary, secondary, rise, fall


def _gap_features(seq: str, stats: BigramStats) -> "tuple[np.ndarray, ...]":
    """(mi, primary, secondary, rise, fall) at the interior gaps k = 2 .. len-2."""
    mi = [mutual_information(stats, seq[k - 1], seq[k]) for k in range(2, len(seq) - 1)]
    return (np.array(mi, dtype=np.float64), *extremum_features(dts_profile(seq, stats)))


def _peak_test(primary, secondary, rise, fall, bounds):
    """The peak rule: a primary (secondary) peak whose rise and fall reach
    bounds 1 and 2 (3 and 4).  The bounds broadcast against the feature
    arrays, so columns of bounds test many settings at once."""
    p_rise, p_fall, s_rise, s_fall = bounds
    return (primary & (rise >= p_rise) & (fall >= p_fall)) | (
        secondary & (rise >= s_rise) & (fall >= s_fall)
    )


def _sst_rule(mi, primary, secondary, rise, fall, theta, bounds):
    """The boundary rule: mi below theta and the peak test passed.  theta
    and the bounds broadcast like the peak test's."""
    return (mi < theta) & _peak_test(primary, secondary, rise, fall, bounds)


def sst_segment(seq: str, params: SstParams, stats: BigramStats) -> FlatSegmentation:
    """Boundary at gap k iff mi < theta there and the dts peak test passes.

    Only interior gaps (two characters of context on each side) can become
    boundaries, so sequences shorter than five characters come back whole.
    The params' estimator is applied to the statistics.
    """
    features = _gap_features(seq, stats.using(params.estimator))
    ok = _sst_rule(*features, params.theta, params.peak_bounds)
    return FlatSegmentation(seq, tuple((np.flatnonzero(ok) + 2).tolist()))


def write_sst_params(params: SstParams, destination) -> None:
    """Plain key=value parameter file (theta, the PEAK_BOUNDS, estimator)."""
    lines = [f"theta={float_text(params.theta)}"]
    lines += [f"{key}={float_text(e)}" for key, e in zip(PEAK_BOUNDS, params.peak_bounds)]
    lines.append(f"estimator={params.estimator}")
    write_to(destination, "\n".join(lines) + "\n")


def read_sst_params(source) -> SstParams:
    keys = {"theta": None, **dict.fromkeys(PEAK_BOUNDS), "estimator": "mle"}
    values = read_key_values(source, keys)
    try:
        theta = float(values["theta"])
        bounds = tuple(float(values[key]) for key in PEAK_BOUNDS)
    except ValueError:
        raise FormatError("non-numeric parameter value", path=source) from None
    return SstParams(theta, bounds, values["estimator"])


def save_stats(stats: BigramStats, destination) -> int:
    """Versioned text sidecar with raw unigram and bigram counts."""
    blocks = _dict_counts({**stats.unigrams, **stats.bigrams}, STATS.orders).blocks()
    return write_counts(destination, STATS, stats.total_chars, STATS.orders, blocks)


def load_stats(source, estimator: str = "mle") -> BigramStats:
    total, _, counts = read_counts(source, STATS)
    blocks = counts.blocks()  # the orders the file holds entries of
    unigrams, bigrams = (Counter(_block_dict({n: blocks[n]} if n in blocks else {}))
                         for n in (1, 2))
    return BigramStats(unigrams, bigrams, total, estimator)
