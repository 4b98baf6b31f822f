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
    morphemes = gold.morpheme_brackets
    for m in morphemes:
        if m.start <= b.start and b.end <= m.end and b != m:
            return BracketClass.MORPHEME_DIVIDING
    annotation = gold.words + morphemes
    for a in annotation:
        if _partial_overlap(b, a):
            return BracketClass.CROSSING
    if b in set(annotation):
        return BracketClass.EXACT_COMPATIBLE
    return BracketClass.CONTAINED_COMPATIBLE


def _match_counts(pred: FlatSegmentation, gold_brackets) -> tuple[int, int, int]:
    proposed = pred.brackets
    matched = len(set(proposed) & set(gold_brackets))
    return matched, len(proposed), len(gold_brackets)


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

    @property
    def all_compatible(self) -> bool:
        return self.compatible == self.word_proposed

    @property
    def word_precision_errors(self) -> int:
        return self.word_proposed - self.word_matched

    @property
    def word_recall_errors(self) -> int:
        return self.word_gold - self.word_matched

    @property
    def morpheme_precision_errors(self) -> int:
        return self.morpheme_proposed - self.morpheme_matched

    @property
    def morpheme_recall_errors(self) -> int:
        return self.morpheme_gold - self.morpheme_matched

    @property
    def word_prf(self) -> tuple[float, float, float]:
        return _prf(self.word_matched, self.word_proposed, self.word_gold)

    @property
    def morpheme_prf(self) -> tuple[float, float, float]:
        return _prf(self.morpheme_matched, self.morpheme_proposed, self.morpheme_gold)


def score_sequence(pred: FlatSegmentation, gold: TwoLevelAnnotation) -> SequenceScore:
    _check_aligned(pred, gold)
    wm, wp, wg = _match_counts(pred, gold.words)
    mm, mp, mg = _match_counts(pred, gold.morpheme_brackets)
    crossing = dividing = compatible = 0
    for b in pred.brackets:
        cls = classify_bracket(b, gold)
        if cls is BracketClass.CROSSING:
            crossing += 1
        elif cls is BracketClass.MORPHEME_DIVIDING:
            dividing += 1
        else:
            compatible += 1
    return SequenceScore(wm, wp, wg, mm, mp, mg, crossing, dividing, compatible)


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
    def n_sequences(self) -> int:
        return len(self.per_sequence)

    def _pool(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.per_sequence)

    @property
    def word_matched(self) -> int:
        return self._pool("word_matched")

    @property
    def word_proposed(self) -> int:
        return self._pool("word_proposed")

    @property
    def word_gold(self) -> int:
        return self._pool("word_gold")

    @property
    def morpheme_matched(self) -> int:
        return self._pool("morpheme_matched")

    @property
    def morpheme_proposed(self) -> int:
        return self._pool("morpheme_proposed")

    @property
    def morpheme_gold(self) -> int:
        return self._pool("morpheme_gold")

    @property
    def crossing_count(self) -> int:
        return self._pool("crossing")

    @property
    def morpheme_dividing_count(self) -> int:
        return self._pool("morpheme_dividing")

    @property
    def compatible_count(self) -> int:
        return self._pool("compatible")

    @property
    def word_precision(self) -> float:
        return _prf(self.word_matched, self.word_proposed, self.word_gold)[0]

    @property
    def word_recall(self) -> float:
        return _prf(self.word_matched, self.word_proposed, self.word_gold)[1]

    @property
    def word_f(self) -> float:
        return _prf(self.word_matched, self.word_proposed, self.word_gold)[2]

    @property
    def morpheme_precision(self) -> float:
        return _prf(self.morpheme_matched, self.morpheme_proposed, self.morpheme_gold)[0]

    @property
    def morpheme_recall(self) -> float:
        return _prf(self.morpheme_matched, self.morpheme_proposed, self.morpheme_gold)[1]

    @property
    def morpheme_f(self) -> float:
        return _prf(self.morpheme_matched, self.morpheme_proposed, self.morpheme_gold)[2]

    def _macro(self, index: int, attr: str) -> float:
        return sum(getattr(s, attr)[index] for s in self.per_sequence) / self.n_sequences

    @property
    def macro_word_precision(self) -> float:
        return self._macro(0, "word_prf")

    @property
    def macro_word_recall(self) -> float:
        return self._macro(1, "word_prf")

    @property
    def macro_word_f(self) -> float:
        return self._macro(2, "word_prf")

    @property
    def macro_morpheme_precision(self) -> float:
        return self._macro(0, "morpheme_prf")

    @property
    def macro_morpheme_recall(self) -> float:
        return self._macro(1, "morpheme_prf")

    @property
    def macro_morpheme_f(self) -> float:
        return self._macro(2, "morpheme_prf")

    @property
    def compatible_rate(self) -> float:
        proposed = self.word_proposed
        return 100.0 * self.compatible_count / proposed if proposed else 100.0

    @property
    def all_compatible_rate(self) -> float:
        good = sum(1 for s in self.per_sequence if s.all_compatible)
        return 100.0 * good / self.n_sequences


def score_set(pairs) -> ScoreReport:
    """Score a list of (segmentation, annotation) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ParameterError("cannot score an empty set")
    return ScoreReport([score_sequence(p, g) for p, g in pairs])


_METRIC_FIELDS = (
    "sequences",
    "word_precision",
    "word_recall",
    "word_f",
    "morpheme_precision",
    "morpheme_recall",
    "morpheme_f",
    "macro_word_precision",
    "macro_word_recall",
    "macro_word_f",
    "macro_morpheme_precision",
    "macro_morpheme_recall",
    "macro_morpheme_f",
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


def _metric_value(report: ScoreReport, name: str):
    if name == "sequences":
        return report.n_sequences
    return getattr(report, name)


def machine_lines(report: ScoreReport, per_sequence: bool = False) -> list[str]:
    """``metric<TAB>value`` lines; floats carry four decimals."""
    lines = []
    for name in _METRIC_FIELDS:
        value = _metric_value(report, name)
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
        value = _metric_value(report, name)
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
