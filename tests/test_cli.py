from pathlib import Path

import pytest

from tangoseg import NGramTable, load_stats, parse_flat, read_sst_params
from tangoseg.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def abab_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("ABAB\n")
    return path


class TestBuildIndex:
    def test_builds_expected_table(self, tmp_path, abab_corpus, capsys):
        out = tmp_path / "c.tab"
        code, _, err = run(capsys, "build-index", "--orders", "2,3,4,5,6",
                           "--corpus", abab_corpus, "--out", out)
        assert code == 0
        assert "corpus_size 4" in err
        table = NGramTable.load(out)
        assert table.counts == {"AB": 2}

    def test_rebuild_is_byte_identical(self, tmp_path, abab_corpus, capsys):
        first, second = tmp_path / "a.tab", tmp_path / "b.tab"
        assert run(capsys, "build-index", "--corpus", abab_corpus, "--out", first)[0] == 0
        assert run(capsys, "build-index", "--corpus", abab_corpus, "--out", second)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unreadable_path_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        code, _, err = run(capsys, "build-index", "--corpus", missing,
                           "--out", tmp_path / "t.tab")
        assert code == 2
        assert "nope.txt" in err

    def test_bigram_stats_output(self, tmp_path, abab_corpus, capsys):
        big = tmp_path / "c.big"
        code, _, err = run(capsys, "build-index", "--corpus", abab_corpus,
                           "--bigrams-out", big)
        assert code == 0
        stats = load_stats(big)
        assert stats.unigrams == {"A": 2, "B": 2}
        assert stats.bigrams == {"AB": 2, "BA": 1}

    def test_filter_range(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("xxAByyAB\n")
        out = tmp_path / "c.tab"
        code, _, err = run(capsys, "build-index", "--corpus", corpus, "--out", out,
                           "--orders", "2", "--filter-range", "41-5A")
        assert code == 0
        assert NGramTable.load(out).counts == {"AB": 2}

    def test_filter_range_keeps_nel_inside_grams(self, tmp_path, capsys):
        # U+0085 is in 0020-00FF; the saved table must load back whole
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab\x85ab\x85ab\n", encoding="utf-8")
        out = tmp_path / "c.tab"
        code, _, _ = run(capsys, "build-index", "--corpus", corpus, "--out", out,
                         "--orders", "2", "--filter-range", "0020-00FF")
        assert code == 0
        assert NGramTable.load(out).counts == {"ab": 3, "b\x85": 2, "\x85a": 2}

    def test_requires_some_output(self, tmp_path, abab_corpus, capsys):
        code, _, err = run(capsys, "build-index", "--corpus", abab_corpus)
        assert code == 2


class TestSegment:
    @pytest.fixture
    def index(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("".join(line + "\n" for line in ["ABCD"] * 9 + ["WXYZ"] * 9))
        out = tmp_path / "c.tab"
        assert run(capsys, "build-index", "--corpus", corpus, "--out", out)[0] == 0
        return out

    def test_zero_threshold_fully_splits(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("ABCD\nWX\n")
        code, out, _ = run(capsys, "segment", "--index", index, "--input", inp,
                           "--orders", "2,3", "--threshold", "0")
        assert code == 0
        assert out.splitlines() == ["|A|B|C|D|", "|W|X|"]

    def test_unicode_line_separator_stays_in_its_line(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("abab\u2028cdcd\nABCD\n", encoding="utf-8")
        code, out, _ = run(capsys, "segment", "--index", index, "--input", inp,
                           "--orders", "2", "--threshold", "0.5")
        assert code == 0
        lines = out.split("\n")
        assert lines[-1] == ""
        assert [parse_flat(line).sequence for line in lines[:-1]] == ["abab\u2028cdcd", "ABCD"]

    def test_single_character_lines(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("x\nABCDWXYZ\n")
        code, out, _ = run(capsys, "segment", "--index", index, "--input", inp,
                           "--orders", "2,3,4", "--threshold", "1")
        assert code == 0
        assert out.splitlines()[0] == "|x|"

    def test_golden_toy_run(self, tmp_path, capsys):
        index = tmp_path / "toy.tab"
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--out", index)[0] == 0
        out = tmp_path / "segmented.txt"
        code, _, _ = run(capsys, "segment", "--index", index,
                         "--input", DATA / "toy_input.txt",
                         "--params", DATA / "toy_params.txt", "--out", out)
        assert code == 0
        assert out.read_text() == (DATA / "expected_segmented.txt").read_text()

    def test_both_conditions_disabled_rejected(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("ABCD\n")
        code, _, err = run(capsys, "segment", "--index", index, "--input", inp,
                           "--orders", "2", "--threshold", "0.5",
                           "--no-local-max", "--no-threshold")
        assert code == 2
        assert "condition" in err

    def test_unsupported_order_rejected(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("ABCD\n")
        code, _, err = run(capsys, "segment", "--index", index, "--input", inp,
                           "--orders", "7", "--threshold", "0.5")
        assert code == 2

    def test_params_file_conflicts_with_inline_params(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("ABCD\n")
        params = tmp_path / "p.txt"
        params.write_text("N=2\nt=0.5\n")
        code, _, err = run(capsys, "segment", "--index", index, "--input", inp,
                           "--params", params, "--orders", "2", "--threshold", "0.5")
        assert code == 2
        assert "not both" in err

    def test_blank_input_line_rejected(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("ABCD\n\nABCD\n")
        code, _, err = run(capsys, "segment", "--index", index, "--input", inp,
                           "--orders", "2", "--threshold", "0.5")
        assert code == 2
        assert "line 2" in err

    def test_sst_segmentation(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("".join(line + "\n" for line in ["ABCD"] * 9 + ["WXYZ"] * 9))
        big = tmp_path / "c.big"
        assert run(capsys, "build-index", "--corpus", corpus, "--bigrams-out", big)[0] == 0
        inp = tmp_path / "in.txt"
        inp.write_text("ABCDWXYZ\n")
        code, out, _ = run(capsys, "segment", "--algorithm", "sst", "--stats", big,
                           "--input", inp, "--theta", "5", "--extremum", "0,0,0,0,0,0")
        assert code == 0
        seg = parse_flat(out.strip())
        assert seg.sequence == "ABCDWXYZ"
        # same run through a written parameter file
        params = tmp_path / "sst.params"
        params.write_text("theta=5\ne1=0\ne2=0\ne3=0\ne4=0\ne5=0\ne6=0\nestimator=mle\n")
        code, out2, _ = run(capsys, "segment", "--algorithm", "sst", "--stats", big,
                            "--input", inp, "--params", params)
        assert code == 0
        assert out2 == out


class TestTrainAndEvaluate:
    def test_train_tango_writes_params(self, tmp_path, capsys):
        index = tmp_path / "toy.tab"
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--out", index)[0] == 0
        params = tmp_path / "tango.params"
        grid = tmp_path / "grid.tsv"
        code, _, err = run(capsys, "train", "--index", index,
                           "--train", DATA / "toy_gold.txt",
                           "--criterion", "word-f", "--out", params,
                           "--grid-out", grid)
        assert code == 0
        assert "best word-f" in err
        text = params.read_text()
        assert text.startswith("N=") and "t=" in text
        assert grid.read_text().startswith("N\tt\tscore\n")

    def test_train_sst_writes_params(self, tmp_path, capsys):
        big = tmp_path / "toy.big"
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--bigrams-out", big)[0] == 0
        params = tmp_path / "sst.params"
        code, _, err = run(capsys, "train", "--algorithm", "sst", "--stats", big,
                           "--train", DATA / "toy_gold.txt",
                           "--criterion", "word-f", "--out", params)
        assert code == 0
        loaded = read_sst_params(params)
        assert loaded.estimator == "mle"

    def test_inadmissible_criterion_exits_2(self, tmp_path, capsys):
        index = tmp_path / "toy.tab"
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--out", index)[0] == 0
        code, _, err = run(capsys, "train", "--index", index,
                           "--train", DATA / "toy_gold.txt",
                           "--criterion", "compatible-rate",
                           "--out", tmp_path / "p.txt")
        assert code == 2
        assert "not admissible" in err

    def test_evaluate_perfect_prediction(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("[[data][base]][system]\n[x]\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("|database|system|\n|x|\n")
        code, out, _ = run(capsys, "evaluate", "--pred", pred, "--gold", gold, "--machine")
        assert code == 0
        values = dict(line.split("\t", 1) for line in out.splitlines()
                      if line.count("\t") == 1)
        assert values["word_precision"] == "100.0000"
        assert values["word_recall"] == "100.0000"

    def test_evaluate_figure_fixture_per_sequence(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("[[data][base]][system]\n" * 4)
        pred = tmp_path / "pred.txt"
        pred.write_text(
            "|database|system|\n|data|base|system|\n|data|basesystem|\n|database|sys|tem|\n"
        )
        code, out, _ = run(capsys, "evaluate", "--pred", pred, "--gold", gold,
                           "--machine", "--per-sequence")
        assert code == 0
        lines = set(out.splitlines())
        expected = {
            (0, "word_precision_errors", 0), (0, "word_recall_errors", 0),
            (0, "morpheme_precision_errors", 1), (0, "morpheme_recall_errors", 2),
            (0, "crossing", 0), (0, "morpheme_dividing", 0),
            (1, "word_precision_errors", 2), (1, "word_recall_errors", 1),
            (1, "morpheme_precision_errors", 0), (1, "morpheme_recall_errors", 0),
            (2, "word_precision_errors", 2), (2, "word_recall_errors", 2),
            (2, "morpheme_precision_errors", 1), (2, "morpheme_recall_errors", 2),
            (2, "crossing", 1), (2, "morpheme_dividing", 0),
            (3, "word_precision_errors", 2), (3, "word_recall_errors", 1),
            (3, "morpheme_precision_errors", 3), (3, "morpheme_recall_errors", 3),
            (3, "crossing", 0), (3, "morpheme_dividing", 2),
        }
        for i, name, value in expected:
            assert f"sequence\t{i}\t{name}\t{value}" in lines

    def test_evaluate_line_count_mismatch(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("[x]\n[y]\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("|x|\n")
        code, _, err = run(capsys, "evaluate", "--pred", pred, "--gold", gold)
        assert code == 2

    def test_evaluate_sequence_mismatch(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("[xy]\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("|ab|\n")
        code, _, err = run(capsys, "evaluate", "--pred", pred, "--gold", gold)
        assert code == 2
        assert "covers" in err

    def test_evaluate_table_output(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("[x]\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("|x|\n")
        code, out, _ = run(capsys, "evaluate", "--pred", pred, "--gold", gold)
        assert code == 0
        assert "word_precision" in out


class TestSynth:
    def test_seeded_runs_identical(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            corpus = tmp_path / f"{name}.txt"
            gold = tmp_path / f"{name}.ann"
            code, _, _ = run(capsys, "synth", "--lexicon", DATA / "toy_lexicon.tsv",
                             "--sequences", "40", "--seed", "5",
                             "--out-corpus", corpus, "--out-annotations", gold)
            assert code == 0
            outputs.append((corpus.read_text(), gold.read_text()))
        assert outputs[0] == outputs[1]

    def test_different_seed_differs(self, tmp_path, capsys):
        texts = []
        for seed in ("5", "6"):
            corpus = tmp_path / f"s{seed}.txt"
            run(capsys, "synth", "--lexicon", DATA / "toy_lexicon.tsv",
                "--sequences", "40", "--seed", seed, "--out-corpus", corpus)
            texts.append(corpus.read_text())
        assert texts[0] != texts[1]

    def test_annotations_align_with_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        gold = tmp_path / "g.ann"
        run(capsys, "synth", "--lexicon", DATA / "toy_lexicon.tsv",
            "--sequences", "10", "--seed", "1",
            "--out-corpus", corpus, "--out-annotations", gold)
        from tangoseg import parse_annotation

        raw = corpus.read_text().splitlines()
        anns = [parse_annotation(line) for line in gold.read_text().splitlines()]
        assert [a.sequence for a in anns] == raw

    def test_requires_an_output(self, capsys):
        code, _, _ = run(capsys, "synth", "--lexicon", DATA / "toy_lexicon.tsv",
                         "--sequences", "5")
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "tangoseg", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "tangoseg" in proc.stdout
