"""Bigram-statistics segmenter: mutual information and t-score differences.

A gap between characters D and W (with left context C and right context X)
is scored two ways.  The pointwise mutual information of D and W measures
their cohesion; gaps at or above the threshold are never boundaries.  The
difference in t-score between the transition into the gap and the
transition out of it produces a per-sequence profile whose peaks mark
boundary candidates; six thresholds gate how pronounced a peak must be.

The published description of this method leaves the exact meaning of its
six extremum parameters open, so the peak test here is one concrete
reconstruction, kept behind a replaceable rule function: a *primary* peak
is a strict local maximum of the profile and a *secondary* peak a weak one
(plateaus allowed); each is accepted when its prominence (value above the
higher adjacent minimum), rise from the nearest minimum on the left, and
fall to the nearest minimum on the right meet the respective thresholds.
Profile ends count as minima, so all gated quantities are non-negative.
"""

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .annotations import FlatSegmentation
from .errors import FormatError, ParameterError, UndefinedStatisticError
from .ngrams import Corpus, split_lines

__all__ = [
    "BigramStats",
    "DtsTerms",
    "ExtremumFeatures",
    "SstParams",
    "dts",
    "dts_profile",
    "dts_terms",
    "extremum_features",
    "load_stats",
    "mutual_information",
    "prominence_extremum_rule",
    "read_sst_params",
    "save_stats",
    "sst_segment",
    "write_sst_params",
]

ESTIMATORS = ("mle", "ele")

STATS_HEADER = "tango-bigrams v1"


@dataclass(frozen=True)
class SstParams:
    """Mutual-information threshold, six extremum thresholds, estimator."""

    theta: float
    extremum_thresholds: tuple[float, float, float, float, float, float]
    estimator: str = "mle"

    def __post_init__(self):
        object.__setattr__(
            self, "extremum_thresholds", tuple(float(e) for e in self.extremum_thresholds)
        )
        if self.theta < 0:
            raise ParameterError("theta must be non-negative")
        if len(self.extremum_thresholds) != 6:
            raise ParameterError("exactly six extremum thresholds required")
        if any(e < 0 for e in self.extremum_thresholds):
            raise ParameterError("extremum thresholds must be non-negative")
        if self.estimator not in ESTIMATORS:
            raise ParameterError(f"estimator must be one of {ESTIMATORS}")


class BigramStats:
    """Raw unigram/bigram counts plus probability estimates.

    Counts are unpruned and bigrams never span sequence boundaries.  The
    estimator is either ``mle`` (relative frequencies; unseen marginals are
    errors) or ``ele`` (add-half smoothing over the observed type
    inventory).
    """

    def __init__(
        self,
        unigrams: Counter,
        bigrams: Counter,
        total_chars: int,
        estimator: str = "mle",
    ):
        if estimator not in ESTIMATORS:
            raise ParameterError(f"estimator must be one of {ESTIMATORS}")
        self.unigrams = unigrams
        self.bigrams = bigrams
        self.total_chars = total_chars
        self.total_bigrams = sum(bigrams.values())
        self.estimator = estimator

    @classmethod
    def from_corpus(cls, corpus: "Corpus | Iterable[str]", estimator: str = "mle") -> "BigramStats":
        sequences = corpus.sequences if isinstance(corpus, Corpus) else list(corpus)
        unigrams: Counter = Counter()
        bigrams: Counter = Counter()
        total = 0
        for seq in sequences:
            unigrams.update(seq)
            total += len(seq)
            for i in range(len(seq) - 1):
                bigrams[seq[i : i + 2]] += 1
        if total == 0:
            raise ParameterError("corpus contains no characters")
        return cls(unigrams, bigrams, total, estimator)

    def using(self, estimator: str) -> "BigramStats":
        """Same counts under a different estimator (counts are shared)."""
        if estimator == self.estimator:
            return self
        out = BigramStats.__new__(BigramStats)
        out.unigrams = self.unigrams
        out.bigrams = self.bigrams
        out.total_chars = self.total_chars
        out.total_bigrams = self.total_bigrams
        if estimator not in ESTIMATORS:
            raise ParameterError(f"estimator must be one of {ESTIMATORS}")
        out.estimator = estimator
        return out

    @property
    def alphabet_size(self) -> int:
        return len(self.unigrams)

    @property
    def bigram_types(self) -> int:
        return len(self.bigrams)

    def p_char(self, x: str) -> float:
        c = self.unigrams[x]
        if self.estimator == "mle":
            if c == 0:
                raise UndefinedStatisticError(f"character {x!r} unseen under MLE")
            return c / self.total_chars
        return (c + 0.5) / (self.total_chars + 0.5 * self.alphabet_size)

    def p_pair(self, x: str, y: str) -> float:
        if self.total_bigrams == 0:
            raise UndefinedStatisticError("corpus contains no bigram tokens")
        c = self.bigrams[x + y]
        if self.estimator == "mle":
            return c / self.total_bigrams
        return (c + 0.5) / (self.total_bigrams + 0.5 * self.bigram_types)

    def p_cond(self, y: str, x: str) -> float:
        """Probability that y immediately follows x."""
        cx = self.unigrams[x]
        cxy = self.bigrams[x + y]
        if self.estimator == "mle":
            if cx == 0:
                raise UndefinedStatisticError(f"character {x!r} unseen under MLE")
            return cxy / cx
        return (cxy + 0.5) / (cx + 0.5 * self.alphabet_size)

    def var_cond(self, y: str, x: str) -> float:
        """Binomial variance of the conditional relative frequency."""
        p = self.p_cond(y, x)
        cx = self.unigrams[x]
        if cx == 0:
            return math.inf
        return p * (1.0 - p) / cx


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
    p_wd = stats.p_cond(w, d)
    p_dc = stats.p_cond(d, c)
    p_xw = stats.p_cond(x, w)
    v_wd = stats.var_cond(w, d)
    v_dc = stats.var_cond(d, c)
    v_xw = stats.var_cond(x, w)
    left, left_degen = _t_term(p_wd - p_dc, v_wd + v_dc)
    right, right_degen = _t_term(p_xw - p_wd, v_xw + v_wd)
    return DtsTerms(left - right, left, right, left_degen, right_degen)


def dts(stats: BigramStats, c: str, d: str, w: str, x: str) -> float:
    return dts_terms(stats, c, d, w, x).value


def dts_profile(seq: str, stats: BigramStats) -> list[float]:
    """dts value at each interior gap k = 2 .. len-2 (gaps with a full
    two-character context on both sides)."""
    return [
        dts(stats, seq[k - 2], seq[k - 1], seq[k], seq[k + 1])
        for k in range(2, len(seq) - 1)
    ]


class ExtremumFeatures(NamedTuple):
    """Peak shape of one profile position."""

    primary: bool
    secondary: bool
    rise: float
    fall: float


def _is_minimum(values, i) -> bool:
    # profile ends always count as minima
    if i == 0 or i == len(values) - 1:
        return True
    return values[i] <= values[i - 1] and values[i] <= values[i + 1]


def extremum_features(values: "list[float]") -> list[ExtremumFeatures]:
    """Classify every profile position and measure its rise and fall.

    Rise (fall) is the drop from the position's value to the nearest local
    minimum on the left (right); at weak maxima both are non-negative.
    A position with no neighbours is neither kind of peak.
    """
    m = len(values)
    feats = []
    for i, v in enumerate(values):
        if m == 1:
            feats.append(ExtremumFeatures(False, False, 0.0, 0.0))
            continue
        left_strict = i == 0 or v > values[i - 1]
        right_strict = i == m - 1 or v > values[i + 1]
        left_weak = i == 0 or v >= values[i - 1]
        right_weak = i == m - 1 or v >= values[i + 1]
        primary = left_strict and right_strict
        secondary = left_weak and right_weak
        j = i - 1
        while j > 0 and not _is_minimum(values, j):
            j -= 1
        rise = v - values[j] if i > 0 else 0.0
        j = i + 1
        while j < m - 1 and not _is_minimum(values, j):
            j += 1
        fall = v - values[j] if i < m - 1 else 0.0
        feats.append(ExtremumFeatures(primary, secondary, rise, fall))
    return feats


def prominence_extremum_rule(feature: ExtremumFeatures, thresholds) -> bool:
    """Default peak test: primary peaks gated by thresholds 1-3, secondary
    peaks by thresholds 4-6, each as (prominence, rise, fall)."""
    e1, e2, e3, e4, e5, e6 = thresholds
    height = min(feature.rise, feature.fall)
    if feature.primary and height >= e1 and feature.rise >= e2 and feature.fall >= e3:
        return True
    if feature.secondary and height >= e4 and feature.rise >= e5 and feature.fall >= e6:
        return True
    return False


ExtremumRule = Callable[[ExtremumFeatures, tuple], bool]


def sst_segment(
    seq: str,
    params: SstParams,
    stats: BigramStats,
    extremum_rule: ExtremumRule = prominence_extremum_rule,
) -> FlatSegmentation:
    """Boundary at gap k iff mi < theta there and the dts peak test passes.

    Only interior gaps (two characters of context on each side) can become
    boundaries, so sequences shorter than five characters come back whole.
    The params' estimator is applied to the statistics.
    """
    stats = stats.using(params.estimator)
    values = dts_profile(seq, stats)
    feats = extremum_features(values)
    bounds = []
    for i, feature in enumerate(feats):
        k = i + 2
        if not extremum_rule(feature, params.extremum_thresholds):
            continue
        if mutual_information(stats, seq[k - 1], seq[k]) < params.theta:
            bounds.append(k)
    return FlatSegmentation(seq, tuple(bounds))


def write_sst_params(params: SstParams, destination) -> None:
    """Plain key=value parameter file (theta, e1..e6, estimator)."""
    lines = [f"theta={params.theta:g}"]
    lines += [f"e{i + 1}={e:g}" for i, e in enumerate(params.extremum_thresholds)]
    lines.append(f"estimator={params.estimator}")
    payload = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_text(payload, encoding="utf-8")


def read_sst_params(source) -> SstParams:
    if hasattr(source, "read"):
        payload = source.read()
    else:
        payload = Path(source).read_text(encoding="utf-8")
    values: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(payload), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError("expected key=value", line=lineno)
        values[key.strip()] = value.strip()
    try:
        theta = float(values["theta"])
        thresholds = tuple(float(values[f"e{i}"]) for i in range(1, 7))
    except KeyError as exc:
        raise FormatError(f"missing parameter {exc.args[0]!r}") from None
    except ValueError:
        raise FormatError("non-numeric parameter value") from None
    estimator = values.get("estimator", "mle")
    return SstParams(theta, thresholds, estimator)


def save_stats(stats: BigramStats, destination) -> int:
    """Versioned text sidecar with raw unigram and bigram counts."""
    for gram in stats.unigrams:
        if gram in ("\t", "\n", "\r"):
            raise ParameterError("corpus characters include tab/newline; cannot serialize")
    lines = [STATS_HEADER, f"total_chars {stats.total_chars}"]
    for ch in sorted(stats.unigrams):
        lines.append(f"1\t{stats.unigrams[ch]}\t{ch}")
    for gram in sorted(stats.bigrams):
        lines.append(f"2\t{stats.bigrams[gram]}\t{gram}")
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_bytes(payload)
    return len(payload)


def load_stats(source, estimator: str = "mle") -> BigramStats:
    if hasattr(source, "read"):
        payload = source.read()
    else:
        payload = Path(source).read_bytes()
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8")
    lines = split_lines(payload)
    if not lines or lines[0] != STATS_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise FormatError(f"expected header {STATS_HEADER!r}, found {found!r}", line=1)
    if len(lines) < 2 or not lines[1].startswith("total_chars "):
        raise FormatError("expected 'total_chars <int>'", line=2)
    try:
        total = int(lines[1].split(" ", 1)[1])
    except ValueError:
        raise FormatError("bad total_chars value", line=2) from None
    if total < 0:
        raise FormatError("total_chars must be >= 0", line=2)
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise FormatError("entry needs 3 tab-separated fields", line=lineno)
        try:
            order = int(parts[0])
            cnt = int(parts[1])
        except ValueError:
            raise FormatError("non-integer order or count", line=lineno) from None
        gram = parts[2]
        if order not in (1, 2) or len(gram) != order or cnt < 1:
            raise FormatError("bad stats entry", line=lineno)
        entries = unigrams if order == 1 else bigrams
        if gram in entries:
            raise FormatError(f"duplicate gram {gram!r}", line=lineno)
        entries[gram] = cnt
    return BigramStats(unigrams, bigrams, total, estimator)
