"""Scoring proposed segmentations against two-level annotations.

Word and morpheme precision/recall/F count exact bracket matches at the
respective annotation level.  Each proposed bracket is also classified:
*morpheme-dividing* when it is a proper subrange of a morpheme bracket,
*crossing* when it partially overlaps an annotation bracket of either
level, and *compatible* otherwise (split into exact matches of an
annotation bracket and merely contained/containing spans).  The compatible
rate is the percentage of compatible proposed brackets; the all-compatible
rate is the percentage of sequences whose proposed brackets are all
compatible.  Neither rate is a valid training criterion: bracketing each
whole sequence as one segment scores 100 on both.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .annotations import Bracket, FlatSegmentation, TwoLevelAnnotation
from .errors import AlignmentError, ParameterError

__all__ = [
    "BracketClass",
    "ScoreReport",
    "SequenceScore",
    "classify_bracket",
    "f_measure",
    "format_report",
    "machine_lines",
    "score_sequence",
    "score_set",
]


class BracketClass(Enum):
    EXACT_COMPATIBLE = "exact-compatible"
    CONTAINED_COMPATIBLE = "contained-compatible"
    CROSSING = "crossing"
    MORPHEME_DIVIDING = "morpheme-dividing"

    @property
    def compatible(self) -> bool:
        return self in (BracketClass.EXACT_COMPATIBLE, BracketClass.CONTAINED_COMPATIBLE)


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _partial_overlap(a: Bracket, b: Bracket) -> bool:
    if a.start >= b.end or b.start >= a.end:
        return False
    a_in_b = b.start <= a.start and a.end <= b.end
    b_in_a = a.start <= b.start and b.end <= a.end
    return not (a_in_b or b_in_a)


def classify_bracket(b: Bracket, gold: TwoLevelAnnotation) -> BracketClass:
    """Classify one proposed bracket; morpheme-dividing takes precedence."""
    return _classify(b, gold.words, gold.morpheme_brackets)


def _classify(b: Bracket, words: tuple, morphemes: tuple) -> BracketClass:
    for m in morphemes:
        if m.start <= b.start and b.end <= m.end and b != m:
            return BracketClass.MORPHEME_DIVIDING
    annotation = words + morphemes
    for a in annotation:
        if _partial_overlap(b, a):
            return BracketClass.CROSSING
    if b in annotation:
        return BracketClass.EXACT_COMPATIBLE
    return BracketClass.CONTAINED_COMPATIBLE


def _match_counts(proposed: tuple, gold: tuple) -> tuple[int, int, int]:
    return len(set(proposed) & set(gold)), len(proposed), len(gold)


def _prf(matched: int, proposed: int, gold: int) -> tuple[float, float, float]:
    precision = 100.0 * matched / proposed if proposed else 100.0
    recall = 100.0 * matched / gold if gold else 100.0
    return precision, recall, f_measure(precision, recall)


def _check_aligned(pred: FlatSegmentation, gold: TwoLevelAnnotation):
    if pred.sequence != gold.sequence:
        raise AlignmentError(
            f"segmentation covers {pred.sequence!r} but annotation covers {gold.sequence!r}"
        )


@dataclass
class SequenceScore:
    """Bracket-match and classification counts for one sequence."""

    word_matched: int
    word_proposed: int
    word_gold: int
    morpheme_matched: int
    morpheme_proposed: int
    morpheme_gold: int
    crossing: int
    morpheme_dividing: int
    compatible: int

    all_compatible = property(lambda s: s.compatible == s.word_proposed)
    word_precision_errors = property(lambda s: s.word_proposed - s.word_matched)
    word_recall_errors = property(lambda s: s.word_gold - s.word_matched)
    morpheme_precision_errors = property(lambda s: s.morpheme_proposed - s.morpheme_matched)
    morpheme_recall_errors = property(lambda s: s.morpheme_gold - s.morpheme_matched)
    # (precision, recall, F) of the sequence's word or morpheme brackets
    word_prf = property(lambda s: _prf(s.word_matched, s.word_proposed, s.word_gold))
    morpheme_prf = property(lambda s: _prf(s.morpheme_matched, s.morpheme_proposed,
                                           s.morpheme_gold))


def score_sequence(pred: FlatSegmentation, gold: TwoLevelAnnotation) -> SequenceScore:
    _check_aligned(pred, gold)
    # each bracket view is built once, not once per proposed bracket
    proposed, words, morphemes = pred.brackets, gold.words, gold.morpheme_brackets
    wm, wp, wg = _match_counts(proposed, words)
    mm, mp, mg = _match_counts(proposed, morphemes)
    classes = Counter(_classify(b, words, morphemes) for b in proposed)
    crossing, dividing = classes[BracketClass.CROSSING], classes[BracketClass.MORPHEME_DIVIDING]
    return SequenceScore(wm, wp, wg, mm, mp, mg, crossing, dividing, wp - crossing - dividing)


def _pooled(count: str) -> property:
    """A report property: the sum of a per-sequence count."""
    return property(lambda self: sum(getattr(s, count) for s in self.per_sequence))


def _micro(level: str, index: int) -> property:
    """A report property: precision (0), recall (1) or F (2) of the pooled
    counts of the word or morpheme level."""
    fields = [f"{level}_{count}" for count in ("matched", "proposed", "gold")]
    return property(lambda self: _prf(*(getattr(self, f) for f in fields))[index])


def _macro(level: str, index: int) -> property:
    """A report property: the mean of the per-sequence percentages."""
    prf = f"{level}_prf"
    return property(
        lambda self: sum(getattr(s, prf)[index] for s in self.per_sequence) / self.sequences
    )


@dataclass
class ScoreReport:
    """Aggregate scores over a test set.

    Micro scores pool bracket counts over all sequences; macro scores
    average the per-sequence percentages.
    """

    per_sequence: list[SequenceScore]

    def __post_init__(self):
        if not self.per_sequence:
            raise ParameterError("cannot score an empty set")

    @property
    def sequences(self) -> int:
        return len(self.per_sequence)

    word_matched = _pooled("word_matched")
    word_proposed = _pooled("word_proposed")
    word_gold = _pooled("word_gold")
    morpheme_matched = _pooled("morpheme_matched")
    morpheme_proposed = _pooled("morpheme_proposed")
    morpheme_gold = _pooled("morpheme_gold")
    crossing_count = _pooled("crossing")
    morpheme_dividing_count = _pooled("morpheme_dividing")
    compatible_count = _pooled("compatible")
    word_precision = _micro("word", 0)
    word_recall = _micro("word", 1)
    word_f = _micro("word", 2)
    morpheme_precision = _micro("morpheme", 0)
    morpheme_recall = _micro("morpheme", 1)
    morpheme_f = _micro("morpheme", 2)
    macro_word_precision = _macro("word", 0)
    macro_word_recall = _macro("word", 1)
    macro_word_f = _macro("word", 2)
    macro_morpheme_precision = _macro("morpheme", 0)
    macro_morpheme_recall = _macro("morpheme", 1)
    macro_morpheme_f = _macro("morpheme", 2)

    @property
    def compatible_rate(self) -> float:
        proposed = self.word_proposed
        return 100.0 * self.compatible_count / proposed if proposed else 100.0

    @property
    def all_compatible_rate(self) -> float:
        good = sum(1 for s in self.per_sequence if s.all_compatible)
        return 100.0 * good / self.sequences


def score_set(pairs) -> ScoreReport:
    """Score a list of (segmentation, annotation) pairs; the report refuses
    an empty set."""
    return ScoreReport([score_sequence(p, g) for p, g in pairs])


_METRIC_FIELDS = (
    "sequences",
    *(f"{macro}{level}_{kind}" for macro in ("", "macro_") for level in ("word", "morpheme")
      for kind in ("precision", "recall", "f")),
    "crossing_count",
    "morpheme_dividing_count",
    "compatible_rate",
    "all_compatible_rate",
)

_PER_SEQUENCE_FIELDS = (
    "word_precision_errors",
    "word_recall_errors",
    "morpheme_precision_errors",
    "morpheme_recall_errors",
    "crossing",
    "morpheme_dividing",
)


def machine_lines(report: ScoreReport, per_sequence: bool = False) -> list[str]:
    """``metric<TAB>value`` lines; floats carry four decimals."""
    lines = []
    for name in _METRIC_FIELDS:
        value = getattr(report, name)
        text = str(value) if isinstance(value, int) else f"{value:.4f}"
        lines.append(f"{name}\t{text}")
    if per_sequence:
        for i, s in enumerate(report.per_sequence):
            for name in _PER_SEQUENCE_FIELDS:
                lines.append(f"sequence\t{i}\t{name}\t{getattr(s, name)}")
    return lines


def format_report(report: ScoreReport, per_sequence: bool = False) -> str:
    """Aligned plain-text table of the aggregate scores."""
    rows = []
    for name in _METRIC_FIELDS:
        value = getattr(report, name)
        text = f"{value:>8}" if isinstance(value, int) else f"{value:>8.2f}"
        rows.append((name, text))
    width = max(len(name) for name, _ in rows)
    out = [f"{name:<{width}}  {text}" for name, text in rows]
    if per_sequence:
        out.append("")
        header = ["seq"] + [f.replace("morpheme", "morph") for f in _PER_SEQUENCE_FIELDS]
        out.append("  ".join(header))
        for i, s in enumerate(report.per_sequence):
            cells = [str(i)] + [str(getattr(s, f)) for f in _PER_SEQUENCE_FIELDS]
            out.append("  ".join(c.rjust(len(h)) for c, h in zip(cells, header)))
    return "\n".join(out)
