"""Bracket data model for segmentations and two-level gold annotations.

A flat segmentation is a partition of a character sequence into contiguous
segments, written ``|data|base|system|``.  A gold annotation carries two
nesting levels: outer *word* brackets and, inside each word, *morpheme*
brackets, written ``[[data][base]][system]``.  A word containing a single
morpheme is written with one pair of brackets.
"""

from dataclasses import dataclass
from itertools import accumulate
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


def _check_partition(brackets, start, end, what):
    pos = start
    for b in brackets:
        if b.start != pos:
            raise ValueError(f"{what} brackets do not tile [{start},{end}): gap at {pos}")
        if b.end <= b.start:
            raise ValueError(f"empty {what} bracket at {b.start}")
        pos = b.end
    if pos != end:
        raise ValueError(f"{what} brackets do not cover [{start},{end}): stop at {pos}")


@dataclass(frozen=True)
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
            if not isinstance(k, int) or not 0 < k < len(self.sequence):
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
        return tuple(Bracket(a, b) for a, b in zip(edges, edges[1:]))

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.sequence[b.start:b.end] for b in self.brackets)


@dataclass(frozen=True)
class TwoLevelAnnotation:
    """Gold segmentation with word brackets and per-word morpheme brackets."""

    sequence: str
    words: tuple[Bracket, ...]
    morphemes: tuple[tuple[Bracket, ...], ...]

    def __post_init__(self):
        if not self.sequence:
            raise ValueError("annotation over an empty sequence")
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "morphemes", tuple(tuple(ms) for ms in self.morphemes))
        _check_partition(self.words, 0, len(self.sequence), "word")
        if len(self.morphemes) != len(self.words):
            raise ValueError("one morpheme list required per word")
        for w, ms in zip(self.words, self.morphemes):
            _check_partition(ms, w.start, w.end, "morpheme")

    @classmethod
    def from_segments(cls, words: Iterable[Iterable[str]]) -> "TwoLevelAnnotation":
        """Build from nested strings, e.g. [["data", "base"], ["system"]]."""
        word_brackets, morph_lists, parts, pos = [], [], [], 0
        for morphs in words:
            start, ms = pos, []
            for m in morphs:
                ms.append(Bracket(pos, pos + len(m)))
                parts.append(m)
                pos += len(m)
            word_brackets.append(Bracket(start, pos))
            morph_lists.append(tuple(ms))
        return cls("".join(parts), tuple(word_brackets), tuple(morph_lists))

    @property
    def morpheme_brackets(self) -> tuple[Bracket, ...]:
        """All morpheme brackets in sequence order."""
        return tuple(m for ms in self.morphemes for m in ms)

    @property
    def word_segmentation(self) -> FlatSegmentation:
        return FlatSegmentation(self.sequence, tuple(w.end for w in self.words[:-1]))

    @property
    def morpheme_segmentation(self) -> FlatSegmentation:
        flat = self.morpheme_brackets
        return FlatSegmentation(self.sequence, tuple(m.end for m in flat[:-1]))


def parse_annotation(line: str) -> TwoLevelAnnotation:
    """Parse one annotated sequence, e.g. ``[[data][base]][system]``.

    A word is either plain content or one or more morpheme brackets; mixing
    content and brackets inside a word, nesting beyond two levels, empty
    brackets, and characters outside brackets are all rejected with the
    offending column.
    """
    chars: list[str] = []
    words: list[Bracket] = []
    morphemes: list[tuple[Bracket, ...]] = []
    depth = 0
    word_start = 0
    word_morphs: list[Bracket] = []
    word_has_content = False
    morph_start = 0
    for idx, ch in enumerate(line):
        col = idx + 1
        if depth == 0:
            if ch == "[":
                depth = 1
                word_start = len(chars)
                word_morphs = []
                word_has_content = False
            else:
                raise FormatError(f"character {ch!r} outside brackets", column=col)
        elif depth == 1:
            if ch == "[":
                if word_has_content:
                    raise FormatError("word mixes content and morpheme brackets", column=col)
                depth = 2
                morph_start = len(chars)
            elif ch == "]":
                end = len(chars)
                if word_morphs:
                    morphemes.append(tuple(word_morphs))
                elif end == word_start:
                    raise FormatError("empty bracket", column=col)
                else:
                    morphemes.append((Bracket(word_start, end),))
                words.append(Bracket(word_start, end))
                depth = 0
            else:
                if word_morphs:
                    raise FormatError("word mixes morpheme brackets and content", column=col)
                word_has_content = True
                chars.append(ch)
        else:
            if ch == "[":
                raise FormatError("nesting deeper than two levels", column=col)
            if ch == "]":
                if len(chars) == morph_start:
                    raise FormatError("empty bracket", column=col)
                word_morphs.append(Bracket(morph_start, len(chars)))
                depth = 1
            else:
                chars.append(ch)
    if depth != 0:
        raise FormatError("unbalanced brackets", column=len(line) + 1)
    if not words:
        raise FormatError("annotation contains no brackets", column=1)
    return TwoLevelAnnotation("".join(chars), tuple(words), tuple(morphemes))


def serialize_annotation(ann: TwoLevelAnnotation) -> str:
    """Inverse of parse_annotation; single-morpheme words use the short form."""
    if "[" in ann.sequence or "]" in ann.sequence:
        raise FormatError("sequence contains a bracket character")
    out = []
    for word, morphs in zip(ann.words, ann.morphemes):
        if len(morphs) == 1:
            out.append("[" + ann.sequence[word.start:word.end] + "]")
        else:
            out.append(
                "[" + "".join("[" + ann.sequence[m.start:m.end] + "]" for m in morphs) + "]"
            )
    return "".join(out)


def parse_flat(line: str) -> FlatSegmentation:
    """Parse a pipe-delimited segmentation, e.g. ``|data|base|system|``."""
    if len(line) < 3 or line[0] != "|" or line[-1] != "|":
        raise FormatError("segmentation must start and end with '|'", column=1)
    segments = line[1:-1].split("|")
    col = 1
    for seg in segments:
        if not seg:
            raise FormatError("empty segment", column=col + 1)
        col += len(seg) + 1
    return FlatSegmentation.from_segments(segments)


def serialize_flat(seg: FlatSegmentation) -> str:
    """Inverse of parse_flat."""
    if "|" in seg.sequence:
        raise FormatError("sequence contains the delimiter '|'")
    return "|" + "|".join(seg.segments) + "|"
