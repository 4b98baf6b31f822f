"""Bracket data model for segmentations and two-level gold annotations.

A flat segmentation is a partition of a character sequence into contiguous
segments, written ``|data|base|system|``.  A gold annotation is two flat
segmentations of one sequence: *words*, and the finer *morphemes*, every
word boundary also being a morpheme boundary.  It is written with two
bracket levels, ``[[data][base]][system]``; a word containing a single
morpheme is written with one pair of brackets.
"""

from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral
from typing import Iterable, NamedTuple

from .errors import FormatError

__all__ = [
    "Bracket",
    "FlatSegmentation",
    "TwoLevelAnnotation",
    "parse_annotation",
    "parse_flat",
    "serialize_annotation",
    "serialize_flat",
]


class Bracket(NamedTuple):
    """Half-open character range [start, end) within a sequence."""

    start: int
    end: int


def _integer_boundary(k) -> int:
    """k as a plain int: a NumPy integer is the int it holds; a bool or a
    float is no boundary."""
    if isinstance(k, bool) or not isinstance(k, Integral):
        raise ValueError(f"boundary {k!r} is not an integer")
    return int(k)


@dataclass(frozen=True, slots=True)
class FlatSegmentation:
    """A sequence plus a sorted set of boundary locations.

    Location k (1 <= k <= len-1) is the gap after the k-th character; the
    boundaries induce non-empty segments that concatenate to the sequence.
    """

    sequence: str
    boundaries: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.sequence:
            raise ValueError("segmentation over an empty sequence")
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        last = 0
        for k in self.boundaries:
            if type(k) is not int:
                # checked again as the plain ints they hold
                boundaries = tuple(map(_integer_boundary, self.boundaries))
                object.__setattr__(self, "boundaries", boundaries)
                return self.__post_init__()
            if not 0 < k < len(self.sequence):
                raise ValueError(f"boundary {k!r} out of range 1..{len(self.sequence) - 1}")
            if k <= last:
                raise ValueError("boundaries not strictly increasing")
            last = k

    @classmethod
    def from_segments(cls, segments: Iterable[str]) -> "FlatSegmentation":
        segments = list(segments)
        return cls("".join(segments), tuple(accumulate(map(len, segments[:-1]))))

    @property
    def brackets(self) -> tuple[Bracket, ...]:
        edges = (0,) + self.boundaries + (len(self.sequence),)
        return tuple(map(Bracket, edges, edges[1:]))

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.sequence[b.start:b.end] for b in self.brackets)


@dataclass(frozen=True, slots=True)
class TwoLevelAnnotation:
    """Gold annotation: a word segmentation and a morpheme segmentation of
    the same sequence, every word boundary also a morpheme boundary."""

    word_segmentation: FlatSegmentation
    morpheme_segmentation: FlatSegmentation

    def __post_init__(self):
        words, morphemes = self.word_segmentation, self.morpheme_segmentation
        if words.sequence != morphemes.sequence:
            raise ValueError("word and morpheme segmentations cover different sequences")
        if not set(words.boundaries) <= set(morphemes.boundaries):
            raise ValueError("a word boundary is not a morpheme boundary")

    @classmethod
    def from_segments(cls, words: Iterable[Iterable[str]]) -> "TwoLevelAnnotation":
        """Build from nested strings, e.g. [["data", "base"], ["system"]]."""
        words = [list(morphs) for morphs in words]
        morphemes = FlatSegmentation.from_segments([m for ms in words for m in ms])
        ends = accumulate(sum(map(len, ms)) for ms in words[:-1])
        return cls(FlatSegmentation(morphemes.sequence, tuple(ends)), morphemes)

    @property
    def sequence(self) -> str:
        return self.word_segmentation.sequence

    @property
    def words(self) -> tuple[Bracket, ...]:
        return self.word_segmentation.brackets

    @property
    def morpheme_brackets(self) -> tuple[Bracket, ...]:
        """All morpheme brackets in sequence order."""
        return self.morpheme_segmentation.brackets

    @property
    def morphemes(self) -> tuple[tuple[Bracket, ...], ...]:
        """The morpheme brackets grouped by word."""
        word_ends = set(self.word_segmentation.boundaries)
        groups, group = [], []
        for m in self.morpheme_brackets:
            group.append(m)
            if m.end in word_ends:
                groups.append(tuple(group))
                group = []
        return (*groups, tuple(group))


def parse_annotation(line: str) -> TwoLevelAnnotation:
    """Parse one annotated sequence, e.g. ``[[data][base]][system]``.

    A word is either plain content or one or more morpheme brackets; mixing
    content and brackets inside a word, nesting beyond two levels, empty
    brackets, and characters outside brackets are all rejected with the
    offending column.
    """
    chars: list[str] = []
    word_ends: list[int] = []
    morpheme_ends: list[int] = []
    depth = 0
    start = 0  # of the open word or morpheme
    has_morphemes = False  # whether the open word holds morpheme brackets
    for col, ch in enumerate(line, start=1):
        if depth == 0:
            if ch != "[":
                raise FormatError(f"character {ch!r} outside brackets", column=col)
            depth = 1
            start = len(chars)
            has_morphemes = False
        elif depth == 1:
            if ch == "[":
                if len(chars) > start and not has_morphemes:  # content before it
                    raise FormatError("word mixes content and morpheme brackets", column=col)
                depth = 2
                start = len(chars)
            elif ch == "]":
                if not has_morphemes:
                    if len(chars) == start:
                        raise FormatError("empty bracket", column=col)
                    morpheme_ends.append(len(chars))
                word_ends.append(len(chars))
                depth = 0
            else:
                if has_morphemes:
                    raise FormatError("word mixes morpheme brackets and content", column=col)
                chars.append(ch)
        else:
            if ch == "[":
                raise FormatError("nesting deeper than two levels", column=col)
            if ch == "]":
                if len(chars) == start:
                    raise FormatError("empty bracket", column=col)
                morpheme_ends.append(len(chars))
                depth = 1
                has_morphemes = True
            else:
                chars.append(ch)
    if depth != 0:
        raise FormatError("unbalanced brackets", column=len(line) + 1)
    if not word_ends:
        raise FormatError("annotation contains no brackets", column=1)
    sequence = "".join(chars)
    return TwoLevelAnnotation(FlatSegmentation(sequence, tuple(word_ends[:-1])),
                              FlatSegmentation(sequence, tuple(morpheme_ends[:-1])))


def serialize_annotation(ann: TwoLevelAnnotation) -> str:
    """Inverse of parse_annotation; single-morpheme words use the short form."""
    seq = ann.sequence
    if "[" in seq or "]" in seq:
        raise FormatError("sequence contains a bracket character")
    # one pass over the morpheme edges: going through the morphemes view,
    # which builds a Bracket per morpheme, took about three times as long
    word_ends = {*ann.word_segmentation.boundaries, len(seq)}
    edges = (0,) + ann.morpheme_segmentation.boundaries + (len(seq),)
    out, word = [], []
    for a, b in zip(edges, edges[1:]):
        word.append(seq[a:b])
        if b in word_ends:
            out.append("[" + word[0] + "]" if len(word) == 1 else "[[" + "][".join(word) + "]]")
            word = []
    return "".join(out)


def parse_flat(line: str) -> FlatSegmentation:
    """Parse a pipe-delimited segmentation, e.g. ``|data|base|system|``."""
    if len(line) < 3 or line[0] != "|" or line[-1] != "|":
        raise FormatError("segmentation must start and end with '|'", column=1)
    if "||" in line:  # the column of the first empty segment's closing '|'
        raise FormatError("empty segment", column=line.index("||") + 2)
    return FlatSegmentation.from_segments(line[1:-1].split("|"))


def serialize_flat(seg: FlatSegmentation) -> str:
    """Inverse of parse_flat."""
    if "|" in seg.sequence:
        raise FormatError("sequence contains the delimiter '|'")
    return "|" + "|".join(seg.segments) + "|"
