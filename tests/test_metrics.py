import random

import pytest

from tangoseg import (
    AlignmentError,
    Bracket,
    BracketClass,
    FlatSegmentation,
    ParameterError,
    TwoLevelAnnotation,
    classify_bracket,
    f_measure,
    format_report,
    machine_lines,
    parse_annotation,
    parse_flat,
    score_sequence,
    score_set,
)
from tangoseg.metrics import _prf


class TestWordScores:
    def test_word_level_match(self, figure_gold):
        score = score_sequence(parse_flat("|database|system|"), figure_gold)
        assert score.word_prf == (100.0, 100.0, 100.0)

    def test_oversegmented(self, figure_gold):
        p, r, f = score_sequence(parse_flat("|data|base|system|"), figure_gold).word_prf
        assert p == pytest.approx(100 / 3)
        assert r == 50.0
        assert f == f_measure(p, r)

    def test_identity_prediction(self, figure_gold):
        pred = figure_gold.word_segmentation
        assert score_sequence(pred, figure_gold).word_prf == (100.0, 100.0, 100.0)

    def test_sequence_mismatch(self, figure_gold):
        with pytest.raises(AlignmentError):
            score_sequence(FlatSegmentation("other", ()), figure_gold)


class TestMorphemeScores:
    def test_word_level_prediction(self, figure_gold):
        p, r, _ = score_sequence(parse_flat("|database|system|"), figure_gold).morpheme_prf
        assert (p, r) == (50.0, pytest.approx(100 / 3))

    def test_divided_morphemes(self, figure_gold):
        p, r, _ = score_sequence(parse_flat("|database|sys|tem|"), figure_gold).morpheme_prf
        assert (p, r) == (0.0, 0.0)

    def test_exact_morpheme_level(self, figure_gold):
        score = score_sequence(parse_flat("|data|base|system|"), figure_gold)
        assert score.morpheme_prf == (100.0, 100.0, 100.0)


class TestFigureErrorCounts:
    def test_all_rows(self, figure_pairs):
        for pred, gold, expect in figure_pairs:
            s = score_sequence(pred, gold)
            got = (
                s.word_precision_errors,
                s.word_recall_errors,
                s.morpheme_precision_errors,
                s.morpheme_recall_errors,
                s.crossing,
                s.morpheme_dividing,
            )
            assert got == expect


class TestClassifyBracket:
    def test_crossing_example(self, figure_gold):
        assert classify_bracket(Bracket(4, 14), figure_gold) is BracketClass.CROSSING

    def test_morpheme_dividing_examples(self, figure_gold):
        assert classify_bracket(Bracket(8, 11), figure_gold) is BracketClass.MORPHEME_DIVIDING
        assert classify_bracket(Bracket(11, 14), figure_gold) is BracketClass.MORPHEME_DIVIDING

    def test_exact_matches_compatible(self, figure_gold):
        assert classify_bracket(Bracket(0, 8), figure_gold) is BracketClass.EXACT_COMPATIBLE
        assert classify_bracket(Bracket(0, 4), figure_gold) is BracketClass.EXACT_COMPATIBLE

    def test_containing_span_compatible(self, figure_gold):
        whole = Bracket(0, 14)
        assert classify_bracket(whole, figure_gold) is BracketClass.CONTAINED_COMPATIBLE
        assert classify_bracket(whole, figure_gold).compatible

    def test_morpheme_run_inside_word_compatible(self):
        gold = parse_annotation("[[ab][cd][ef]]")
        assert classify_bracket(Bracket(0, 4), gold) is BracketClass.CONTAINED_COMPATIBLE

    def test_dividing_takes_precedence(self):
        # proper subrange of a morpheme can never also cross a sibling,
        # but the precedence is pinned anyway
        gold = parse_annotation("[[ab][cd]]")
        assert classify_bracket(Bracket(0, 1), gold) is BracketClass.MORPHEME_DIVIDING
        assert classify_bracket(Bracket(1, 3), gold) is BracketClass.CROSSING

    def test_every_bracket_classified_once(self):
        rng = random.Random(47)
        gold = parse_annotation("[[ab][cde]][fg][[h][ij]]")
        length = len(gold.sequence)
        for _ in range(200):
            cuts = sorted(rng.sample(range(1, length), rng.randint(0, length - 1)))
            pred = FlatSegmentation(gold.sequence, tuple(cuts))
            s = score_sequence(pred, gold)
            assert s.crossing + s.morpheme_dividing + s.compatible == len(pred.brackets)


class TestBracketRates:
    def test_perfect_predictions(self, figure_gold):
        pairs = [(figure_gold.word_segmentation, figure_gold)] * 3
        report = score_set(pairs)
        assert (report.compatible_rate, report.all_compatible_rate) == (100.0, 100.0)

    def test_figure_row_five(self, figure_gold):
        pairs = [(parse_flat("|database|sys|tem|"), figure_gold)]
        report = score_set(pairs)
        assert report.compatible_rate == pytest.approx(100 / 3)
        assert report.all_compatible_rate == 0.0

    def test_degenerate_whole_sequence_scores_perfect(self, figure_gold):
        # the reason these rates are inadmissible as training criteria
        pairs = [(FlatSegmentation(figure_gold.sequence, ()), figure_gold)]
        report = score_set(pairs)
        assert (report.compatible_rate, report.all_compatible_rate) == (100.0, 100.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ParameterError):
            score_set([])


class TestReport:
    def test_micro_pools_counts(self, figure_gold):
        pairs = [
            (parse_flat("|database|system|"), figure_gold),
            (parse_flat("|data|base|system|"), figure_gold),
        ]
        report = score_set(pairs)
        assert report.word_matched == 2 + 1
        assert report.word_proposed == 2 + 3
        assert report.word_gold == 4
        assert report.word_precision == 100.0 * 3 / 5

    def test_macro_averages_sequences(self, figure_gold):
        pairs = [
            (parse_flat("|database|system|"), figure_gold),
            (parse_flat("|data|base|system|"), figure_gold),
        ]
        report = score_set(pairs)
        assert report.macro_word_precision == pytest.approx((100.0 + 100 / 3) / 2)

    def test_machine_lines_cover_fixed_fields(self, figure_gold):
        report = score_set([(parse_flat("|database|system|"), figure_gold)])
        lines = machine_lines(report)
        names = [line.split("\t")[0] for line in lines]
        for required in (
            "word_precision", "word_recall", "word_f",
            "morpheme_precision", "morpheme_recall", "morpheme_f",
            "crossing_count", "morpheme_dividing_count",
            "compatible_rate", "all_compatible_rate",
        ):
            assert required in names

    def test_per_sequence_lines(self, figure_gold):
        report = score_set([(parse_flat("|database|sys|tem|"), figure_gold)])
        lines = machine_lines(report, per_sequence=True)
        assert "sequence\t0\tmorpheme_dividing\t2" in lines

    def test_format_report_renders(self, figure_gold):
        report = score_set([(parse_flat("|database|system|"), figure_gold)])
        text = format_report(report, per_sequence=True)
        assert "word_precision" in text
        assert "all_compatible_rate" in text


class TestFMeasure:
    def test_zero_when_both_zero(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_bounds_properties(self):
        rng = random.Random(53)
        for _ in range(500):
            matched = rng.randint(0, 10)
            proposed = rng.randint(max(matched, 1), 15)
            gold = rng.randint(max(matched, 1), 15)
            p, r, f = _prf(matched, proposed, gold)
            assert f <= (p + r) / 2 + 1e-9
            assert (f > 0) == (p * r > 0)

    def test_vacuous_precision_with_no_proposals(self):
        assert _prf(0, 0, 5) == (100.0, 0.0, 0.0)


class TestSpanHelpers:
    def test_words_derivable_from_morpheme_lists(self):
        rng = random.Random(59)
        for _ in range(50):
            words = [
                ["".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 5))
            ]
            ann = TwoLevelAnnotation.from_segments(words)
            derived = tuple(
                Bracket(ms[0].start, ms[-1].end) for ms in ann.morphemes
            )
            assert derived == ann.words
