import random
import re

import numpy as np
import pytest

from tangoseg import (
    Bracket,
    FlatSegmentation,
    FormatError,
    TwoLevelAnnotation,
    parse_annotation,
    parse_flat,
    serialize_annotation,
    serialize_flat,
)


class TestParseAnnotation:
    def test_two_level_example(self):
        ann = parse_annotation("[[data][base]][system]")
        assert ann.sequence == "databasesystem"
        assert ann.words == (Bracket(0, 8), Bracket(8, 14))
        assert ann.morphemes == (
            (Bracket(0, 4), Bracket(4, 8)),
            (Bracket(8, 14),),
        )

    def test_minimal_annotation(self):
        ann = parse_annotation("[x]")
        assert ann.words == (Bracket(0, 1),)
        assert ann.morphemes == ((Bracket(0, 1),),)

    def test_morpheme_counts(self):
        ann = parse_annotation("[[a][b]][[c][d][e]]")
        assert [len(ms) for ms in ann.morphemes] == [2, 3]
        assert serialize_annotation(ann) == "[[a][b]][[c][d][e]]"

    def test_single_morpheme_word_canonicalized(self):
        ann = parse_annotation("[[abc]]")
        assert ann.words == (Bracket(0, 3),)
        assert serialize_annotation(ann) == "[abc]"

    @pytest.mark.parametrize(
        "line,column",
        [
            ("[ab", 4),        # unbalanced
            ("[]", 2),         # empty word
            ("[[a][]]", 6),    # empty morpheme
            ("x[a]", 1),       # stray content before
            ("[a]x", 4),       # stray content after
            ("[[[a]]]", 3),    # third level
            ("[a[b]]", 3),     # content then morpheme
            ("[[a]b]", 5),     # morpheme then content
        ],
    )
    def test_errors_carry_column(self, line, column):
        with pytest.raises(FormatError) as err:
            parse_annotation(line)
        assert err.value.column == column

    def test_empty_line_rejected(self):
        with pytest.raises(FormatError):
            parse_annotation("")

    def test_words_are_morpheme_list_spans(self):
        ann = parse_annotation("[[ab][c]][d][[ef][gh]]")
        for word, morphs in zip(ann.words, ann.morphemes):
            assert word == Bracket(morphs[0].start, morphs[-1].end)


class TestParseFlat:
    def test_two_segments(self):
        seg = parse_flat("|database|system|")
        assert seg.brackets == (Bracket(0, 8), Bracket(8, 14))

    def test_single_segment(self):
        assert parse_flat("|x|").segments == ("x",)

    def test_three_segments(self):
        assert parse_flat("|data|base|system|").boundaries == (4, 8)

    @pytest.mark.parametrize("line", ["||", "|a||b|", "a|b", "|a|b", "a|b|", "|"])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(FormatError):
            parse_flat(line)


class TestSerialize:
    def test_flat_roundtrip(self):
        for line in ("|a|b|c|", "|x|", "|data|base|system|"):
            assert serialize_flat(parse_flat(line)) == line

    def test_annotation_roundtrip(self):
        for line in ("[[data][base]][system]", "[x]", "[[a][b]][[c][d][e]]"):
            assert serialize_annotation(parse_annotation(line)) == line

    def test_flat_rejects_delimiter_in_content(self):
        seg = FlatSegmentation("a|b", (1,))
        with pytest.raises(FormatError):
            serialize_flat(seg)

    def test_annotation_rejects_bracket_in_content(self):
        ann = TwoLevelAnnotation(FlatSegmentation("a[b"), FlatSegmentation("a[b"))
        with pytest.raises(FormatError):
            serialize_annotation(ann)

    def test_random_roundtrip(self):
        rng = random.Random(41)
        alphabet = "abcdefgh"
        for _ in range(100):
            words = []
            for _ in range(rng.randint(1, 6)):
                words.append(
                    [
                        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                        for _ in range(rng.randint(1, 3))
                    ]
                )
            ann = TwoLevelAnnotation.from_segments(words)
            assert parse_annotation(serialize_annotation(ann)) == ann


class TestStructures:
    def test_flat_from_segments(self):
        seg = FlatSegmentation.from_segments(["ab", "c", "def"])
        assert seg.sequence == "abcdef"
        assert seg.boundaries == (2, 3)
        assert seg.segments == ("ab", "c", "def")

    def test_flat_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            FlatSegmentation("", ())

    def test_flat_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            FlatSegmentation("abc", (3,))
        with pytest.raises(ValueError):
            FlatSegmentation("abc", (2, 1))

    @pytest.mark.parametrize("boundaries, outcome", [
        ((np.int64(1),), (1,)),
        ((1, np.int32(2)), (1, 2)),
        ((np.uint8(2),), (2,)),
        ((True,), "boundary True is not an integer"),
        ((np.bool_(True),), "is not an integer"),
        ((1.0,), "boundary 1.0 is not an integer"),
        ((np.float64(2.0),), "is not an integer"),
        ((np.int64(3),), "boundary 3 out of range 1..2"),
        ((np.int64(2), 1), "boundaries not strictly increasing"),
    ])
    def test_flat_boundary_types(self, boundaries, outcome):
        # a NumPy integer is kept as the plain int it holds; a bool or a float is refused
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=re.escape(outcome)):
                FlatSegmentation("abc", boundaries)
        else:
            seg = FlatSegmentation("abc", boundaries)
            assert seg.boundaries == outcome
            assert [type(k) for k in seg.boundaries] == [int] * len(outcome)

    def test_annotation_partition_enforced(self):
        # the two segmentations cover different sequences
        with pytest.raises(ValueError):
            TwoLevelAnnotation(FlatSegmentation("ab"), FlatSegmentation("a"))
        # a word boundary that is not a morpheme boundary
        with pytest.raises(ValueError):
            TwoLevelAnnotation(FlatSegmentation("ab", (1,)), FlatSegmentation("ab"))

    def test_word_and_morpheme_segmentations(self):
        ann = parse_annotation("[[data][base]][system]")
        assert ann.word_segmentation.boundaries == (8,)
        assert ann.morpheme_segmentation.boundaries == (4, 8)
