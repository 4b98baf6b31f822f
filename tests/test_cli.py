import hashlib
import io
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from tangoseg import (
    Corpus,
    NGramTable,
    SstParams,
    build_table,
    generate_corpus,
    load_stats,
    make_zipf_lexicon,
    parse_annotation,
    parse_flat,
    read_sst_params,
    train_sst,
    write_lexicon,
)
from tangoseg import cli
from tangoseg.cli import main
from tangoseg.sst import PEAK_BOUNDS
from tangoseg.training import SST_EXTREMUM_VALUES, SST_THETAS

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

    @pytest.mark.parametrize("orders", ["2,1_0", "+4", "\u0663", "2, 3", ""])
    def test_orders_take_one_to_eighteen_ascii_digits_per_field(self, tmp_path, abab_corpus,
                                                               capsys, orders):
        # int() takes the first four, 1_0 as 10
        out = tmp_path / "t.tab"
        code, _, err = run(capsys, "build-index", "--corpus", abab_corpus, "--out", out,
                           "--orders", orders)
        assert (code, err) == (2, f"error: bad orders list {orders!r}\n")
        assert not out.exists()

    def test_orders_are_read_before_the_corpus(self, tmp_path, capsys):
        code, _, err = run(capsys, "build-index", "--corpus", tmp_path / "missing.txt",
                           "--out", tmp_path / "t.tab", "--orders", "2,1_0")
        assert (code, err) == (2, "error: bad orders list '2,1_0'\n")

    @pytest.mark.parametrize("spec", ["+4_1-0x5A", "\u0664\u0661-5A", "41 - 5A", "0x41"])
    def test_filter_range_bounds_take_one_to_six_ascii_hex_digits(self, tmp_path, abab_corpus,
                                                                 capsys, spec):
        out = tmp_path / "t.tab"
        code, _, err = run(capsys, "build-index", "--corpus", abab_corpus, "--out", out,
                           "--filter-range", spec)
        assert (code, err) == (2, f"error: bad codepoint range {spec!r}\n")
        assert not out.exists()

    def test_filter_range_past_10ffff_exits_2(self, tmp_path, abab_corpus, capsys):
        out = tmp_path / "t.tab"
        code, _, err = run(capsys, "build-index", "--corpus", abab_corpus, "--out", out,
                           "--filter-range", "41-5A,110000")
        assert (code, err) == (2, "error: codepoint range '110000' goes past 10FFFF\n")
        assert not out.exists()

    def test_writes_the_table_without_building_one(self, tmp_path, capsys, constructions):
        # the table goes from the counting walk's blocks to the file; the
        # library table, saved through its dict, writes the same bytes
        built = constructions(NGramTable)
        corpus = DATA / "toy_corpus.txt"
        out = tmp_path / "t.tab"
        code, _, _ = run(capsys, "build-index", "--corpus", corpus, "--out", out,
                         "--bigrams-out", tmp_path / "s.big")
        assert code == 0
        assert built == []
        buf = io.BytesIO()
        table = build_table(Corpus.from_text(corpus.read_bytes()), range(2, 7))
        table.save(buf)
        assert out.read_bytes() == buf.getvalue()
        assert built == [table]

    def test_requires_some_output(self, tmp_path, abab_corpus, capsys):
        code, _, err = run(capsys, "build-index", "--corpus", abab_corpus)
        assert code == 2

    def test_failed_stats_write_leaves_no_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                           "--out", "t.tab", "--bigrams-out", "missing/s.big")
        assert code == 2
        assert "No such file or directory" in err
        assert list(Path().iterdir()) == []


    @pytest.mark.parametrize("orders, summaries", [
        ("2,3,4,5,6", ["order 2: 141 distinct grams", "order 3: 312 distinct grams",
                       "order 4: 465 distinct grams", "order 5: 488 distinct grams",
                       "order 6: 446 distinct grams"]),
        ("3,5", ["order 3: 312 distinct grams", "order 5: 488 distinct grams"]),
    ], ids=["shared-order-2", "no-shared-order"])
    def test_one_walk_writes_what_two_single_runs_write(self, tmp_path, monkeypatch, capsys,
                                                        orders, summaries):
        # one run with both outputs counts both in one walk, the table's order
        # 2 pruned from the stats' unpruned bigrams; the summaries are pinned
        # from the runs that counted each output on its own
        corpus = DATA / "toy_corpus.txt"
        errs = {}
        for name, outputs in [("both", ["--out", "t.tab", "--bigrams-out", "s.big"]),
                              ("table", ["--out", "t.tab"]),
                              ("stats", ["--bigrams-out", "s.big"])]:
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            code, _, errs[name] = run(capsys, "build-index", "--corpus", corpus,
                                      "--orders", orders, *outputs)
            assert code == 0
        for file in ("t.tab", "s.big"):
            alone = tmp_path / ("table" if file == "t.tab" else "stats") / file
            assert (tmp_path / "both" / file).read_bytes() == alone.read_bytes()
        stats_line = "bigram stats: 20 characters, 155 bigram types"
        table_bytes = (tmp_path / "table" / "t.tab").stat().st_size
        wrote_table = f"wrote {table_bytes} bytes to t.tab"
        wrote_stats = "wrote 1350 bytes to s.big"
        assert errs["table"].splitlines() == ["corpus_size 4572", *summaries, wrote_table]
        assert errs["stats"].splitlines() == ["corpus_size 4572", stats_line, wrote_stats]
        assert errs["both"].splitlines() == [
            "corpus_size 4572", *summaries, stats_line, wrote_table, wrote_stats,
        ]
        assert table_bytes == {"2,3,4,5,6": 17845, "3,5": 7573}[orders]

    def test_traced_peak_per_corpus_character(self, tmp_path, capsys):
        # The walk starts from the corpus ranks and line lengths alone: the file's
        # text and code array are freed before it and no line is a string: 26.1
        # bytes a character here, against 30.5 when every line stayed a str, with
        # their joined copy, through the walk.
        corpus, _ = generate_corpus(make_zipf_lexicon(50, 10, seed=100),
                                    target_chars=200_000, seed=11)
        (tmp_path / "c.txt").write_text("".join(s + "\n" for s in corpus))
        tracemalloc.start()
        try:
            code = main(["build-index", "--corpus", str(tmp_path / "c.txt"), "--out",
                         str(tmp_path / "t.tab"), "--bigrams-out", str(tmp_path / "s.big")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / sum(map(len, corpus)) < 28


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
        assert "orders [7]" in err

    def test_inline_orders_take_ascii_digits(self, tmp_path, index, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("ABCD\n")
        code, _, err = run(capsys, "segment", "--index", index, "--input", inp,
                           "--orders", "2,+3", "--threshold", "0.5")
        assert (code, err) == (2, "error: bad orders list '2,+3'\n")

    def test_unsupported_order_rejected_before_reading_input(self, tmp_path, index, capsys):
        code, _, err = run(capsys, "segment", "--index", index,
                           "--input", tmp_path / "missing.txt",
                           "--orders", "2,7", "--threshold", "0.5")
        assert code == 2
        assert "orders [7]" in err

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
                           "--input", inp, "--theta", "5", "--extremum", "0,0,0,0")
        assert code == 0
        seg = parse_flat(out.strip())
        assert seg.sequence == "ABCDWXYZ"
        # same run through a written parameter file
        params = tmp_path / "sst.params"
        params.write_text("theta=5\nprimary_rise=0\nprimary_fall=0\nsecondary_rise=0\n"
                          "secondary_fall=0\nestimator=mle\n")
        code, out2, _ = run(capsys, "segment", "--algorithm", "sst", "--stats", big,
                            "--input", inp, "--params", params)
        assert code == 0
        assert out2 == out

    @pytest.mark.parametrize("params", [
        ["--theta", "nan"],
        ["--theta", "5", "--extremum", "0,0,nan,0"],
        ["--params", "sst.params"],
    ])
    def test_sst_nan_parameter_exits_2(self, tmp_path, monkeypatch, params, capsys):
        monkeypatch.chdir(tmp_path)
        Path("c.big").write_text("tango-bigrams v1\ntotal_chars 4\n1\t2\tA\n1\t2\tB\n2\t2\tAB\n")
        Path("in.txt").write_text("ABAB\n")
        Path("sst.params").write_text("theta=nan\n" + "".join(f"{b}=0\n" for b in PEAK_BOUNDS))
        code, out, err = run(capsys, "segment", "--algorithm", "sst", "--stats", "c.big",
                             "--input", "in.txt", *params)
        assert code == 2
        assert out == ""
        assert "must be non-negative" in err


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
        grid = tmp_path / "grid.tsv"
        code, _, err = run(capsys, "train", "--algorithm", "sst", "--stats", big,
                           "--train", DATA / "toy_gold.txt",
                           "--criterion", "word-f", "--out", params,
                           "--grid-out", grid)
        assert code == 0
        loaded = read_sst_params(params)
        assert loaded.estimator == "mle"
        # the grid dump: one row per setting, in ascending order of the
        # parameter vector, with the library's scores
        lines = grid.read_text().splitlines()
        assert lines[0] == "\t".join(["theta", *PEAK_BOUNDS, "score"])
        assert PEAK_BOUNDS == ("primary_rise", "primary_fall", "secondary_rise", "secondary_fall")
        assert len(lines) == 3126
        rows = [line.split("\t") for line in lines[1:]]
        assert [tuple(map(float, row[:5])) for row in rows] == list(
            product(SST_THETAS, *[SST_EXTREMUM_VALUES] * 4))
        gold = [parse_annotation(line) for line in (DATA / "toy_gold.txt").read_text().splitlines()]
        result = train_sst(gold, load_stats(big), "word-f")
        assert [row[5] for row in rows] == [f"{score:.6f}" for _, score in result.grid]

    @pytest.mark.parametrize("algorithm", ["tango", "sst"])
    def test_failed_grid_write_leaves_no_params(self, tmp_path, monkeypatch, capsys,
                                                algorithm):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--out", "toy.tab", "--bigrams-out", "toy.big")[0] == 0
        model = ["--index", "toy.tab"] if algorithm == "tango" else ["--stats", "toy.big"]
        code, _, err = run(capsys, "train", "--algorithm", algorithm, *model,
                           "--train", DATA / "toy_gold.txt", "--criterion", "word-f",
                           "--out", "p.params", "--grid-out", "missing/g.tsv")
        assert code == 2
        assert "No such file or directory" in err
        assert sorted(p.name for p in Path().iterdir()) == ["toy.big", "toy.tab"]

    @pytest.fixture
    def toy_models(self, tmp_path, capsys):
        index, big = tmp_path / "toy.tab", tmp_path / "toy.big"
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--out", index, "--bigrams-out", big)[0] == 0
        return {"tango": ["--index", index], "sst": ["--stats", big]}

    @pytest.mark.parametrize("argv, digest", [
        (["--algorithm", "tango", "--criterion", "word-f"],
         "ef3f387bd5a389367d7f038016de0bdfaa802e2bcac13f28747879a7ced4f8e9"),
        (["--algorithm", "sst", "--criterion", "word-f"],
         "1b8d7aeacd5986512ce45393bd70510c0abd6c1aa1a53ff1b130e3764f2ccfe8"),
        (["--algorithm", "sst", "--estimator", "ele", "--criterion", "morpheme-recall"],
         "ca6d58e25f55fd150679000074e4409c56ea7baf3f755e6e307a8f9e93695350"),
    ], ids=["tango", "sst", "sst-ele-morpheme"])
    def test_grid_out_is_pinned(self, tmp_path, capsys, toy_models, argv, digest):
        # digests of the grid dump written when every row was formatted from
        # a parameter object: formatting from the grid's arrays must not change it.
        # The sst dumps are the six-threshold dumps' rows with e1 = e4 = 0, byte
        # for byte, with those two columns dropped and the header renamed.
        grid = tmp_path / "grid.tsv"
        code, _, err = run(capsys, "train", *argv, *toy_models[argv[1]],
                           "--train", DATA / "toy_gold.txt", "--out", tmp_path / "p.txt",
                           "--grid-out", grid)
        assert code == 0
        assert hashlib.sha256(grid.read_bytes()).hexdigest() == digest
        scores = [line.rsplit("\t", 1)[1] for line in grid.read_text().splitlines()[1:]]
        best = max(scores, key=float)
        assert f"{scores.count(best)} of {len(scores)} settings tie at the best score" in err

    @pytest.mark.parametrize("algorithm, corpus, model, total", [
        ("tango", "QRSTUVW\n", "--out", 620),
        ("sst", "ABCABCABC\nCABCAB\nBCABCA\n", "--bigrams-out", 5 ** 5),
    ])
    def test_all_tied_grid_reports_every_setting(self, tmp_path, capsys, algorithm, corpus,
                                                 model, total):
        # no repeated gram votes 0 everywhere, and a four-character sequence
        # has no dts peak: every setting leaves every sequence whole
        (tmp_path / "c.txt").write_text(corpus)
        (tmp_path / "train.ann").write_text("[AB][CA]\n[BC][AB]\n[CA][BC]\n")
        assert run(capsys, "build-index", "--corpus", tmp_path / "c.txt",
                   model, tmp_path / "model")[0] == 0
        flag = "--index" if algorithm == "tango" else "--stats"
        code, _, err = run(capsys, "train", "--algorithm", algorithm, flag, tmp_path / "model",
                           "--train", tmp_path / "train.ann", "--criterion", "word-f",
                           "--out", tmp_path / "p.txt")
        assert code == 0
        lines = err.splitlines()
        assert lines[0].startswith("best word-f = 0.0000 with ")
        assert lines[1] == f"{total} of {total} settings tie at the best score"

    @pytest.mark.parametrize("grid_out", [False, True])
    def test_train_sst_builds_one_params(self, tmp_path, capsys, toy_models, constructions,
                                         grid_out):
        built = constructions(SstParams)
        extra = ["--grid-out", tmp_path / "grid.tsv"] if grid_out else []
        code, _, _ = run(capsys, "train", "--algorithm", "sst", *toy_models["sst"],
                         "--train", DATA / "toy_gold.txt", "--criterion", "word-f",
                         "--out", tmp_path / "sst.params", *extra)
        assert code == 0
        assert len(built) == 1

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

    @pytest.fixture
    def acceptance_lexicon(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(make_zipf_lexicon(50, 10, seed=100), path)
        return path

    def test_corpus_is_pinned(self, tmp_path, acceptance_lexicon, capsys):
        # digests from choices(words, cum_weights=...) draws: the draws must not change
        corpus = tmp_path / "c.txt"
        code, _, err = run(capsys, "synth", "--lexicon", acceptance_lexicon,
                           "--target-chars", "3000", "--seed", "101", "--out-corpus", corpus)
        assert code == 0
        assert "generated 200 sequences, 3008 characters" in err
        assert hashlib.sha256(corpus.read_bytes()).hexdigest() == (
            "32b5d8c6343dd70a575862dad10db19b66c02628841622ae1ca7bfeef83c275c")

    def test_corpus_and_annotations_are_pinned(self, tmp_path, acceptance_lexicon, capsys):
        corpus = tmp_path / "c.txt"
        gold = tmp_path / "g.ann"
        code, _, err = run(capsys, "synth", "--lexicon", acceptance_lexicon,
                           "--sequences", "40", "--seed", "102",
                           "--out-corpus", corpus, "--out-annotations", gold)
        assert code == 0
        assert "generated 40 sequences, 613 characters" in err
        assert hashlib.sha256(corpus.read_bytes()).hexdigest() == (
            "ef19dcf8f4e94d8ff515f11b685adadc8cee820d7343b0c953726e1782ac3ac1")
        assert hashlib.sha256(gold.read_bytes()).hexdigest() == (
            "69e16883ea8a379c9d85c4f94714eb284bb6fa487f6c269606fce83c6fd287f2")

    def test_acceptance_corpus_is_pinned_across_chunks(self, tmp_path, acceptance_lexicon,
                                                       capsys):
        # the pipeline benchmark's corpus.txt: about 230 chunks of the random stream
        corpus = tmp_path / "c.txt"
        code, _, err = run(capsys, "synth", "--lexicon", acceptance_lexicon,
                           "--target-chars", "1000000", "--seed", "101", "--out-corpus", corpus)
        assert code == 0
        assert err == "generated 68061 sequences, 1000008 characters\n"
        assert hashlib.sha256(corpus.read_bytes()).hexdigest() == (
            "08976261f36069375a64d356c1a07ce57f94fe3ba565f78275597a8ba1d4749c")

    @pytest.mark.parametrize("words_max", ["1025", "10000000000"])
    def test_words_max_above_the_bound_exits_2(self, tmp_path, capsys, words_max):
        corpus = tmp_path / "c.txt"
        code, _, err = run(capsys, "synth", "--lexicon", DATA / "toy_lexicon.tsv",
                           "--sequences", "1", "--words-max", words_max, "--out-corpus", corpus)
        assert code == 2
        assert err == "error: need 1 <= words_min <= words_max <= 1024\n"
        assert not corpus.exists()

    @pytest.mark.parametrize("rows, message", [
        ("ab\tnan\tstem\n", "line 1"),
        ("ab\t1\tstem\ncd\tinf\tstem\n", "line 2"),
        ("ab\t1e308\tstem\ncd\t1e308\tstem\n", "stem weights sum to inf"),
        ("ab\t1\tstem\nc\t1e308\tsuffix\nd\t1e308\tsuffix\n", "suffix weights sum to inf"),
    ])
    def test_non_finite_weights_exit_2(self, tmp_path, capsys, rows, message):
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(rows)
        corpus = tmp_path / "c.txt"
        code, _, err = run(capsys, "synth", "--lexicon", lexicon, "--sequences", "5",
                           "--out-corpus", corpus)
        assert code == 2
        assert message in err
        assert not corpus.exists()

    @pytest.mark.parametrize("target", [["--sequences", "-4"], ["--sequences", "0"],
                                        ["--target-chars", "0"]])
    def test_empty_target_exits_2(self, tmp_path, capsys, target):
        corpus = tmp_path / "c.txt"
        code, _, err = run(capsys, "synth", "--lexicon", DATA / "toy_lexicon.tsv", *target,
                           "--out-corpus", corpus)
        assert code == 2
        assert "at least 1" in err
        assert not corpus.exists()

    def test_failure_writes_no_file(self, tmp_path, capsys):
        # a bracket is fine in the corpus but cannot be written as an annotation
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("a[b\t1.0\tstem\n")
        corpus = tmp_path / "c.txt"
        gold = tmp_path / "g.ann"
        code, _, err = run(capsys, "synth", "--lexicon", lexicon, "--sequences", "3",
                           "--out-corpus", corpus, "--out-annotations", gold)
        assert code == 2
        assert "bracket" in err
        assert not corpus.exists() and not gold.exists()
        code, _, _ = run(capsys, "synth", "--lexicon", lexicon, "--sequences", "3",
                         "--out-corpus", corpus)
        assert code == 0
        lines = corpus.read_text().splitlines()
        assert len(lines) == 3 and all(3 <= line.count("a[b") == len(line) // 3 for line in lines)

    def test_failed_second_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("d").mkdir()
        code, _, err = run(capsys, "synth", "--lexicon", DATA / "toy_lexicon.tsv",
                           "--sequences", "3", "--out-corpus", "d/c.txt",
                           "--out-annotations", "d/missing/g.ann")
        assert code == 2
        assert "No such file or directory" in err
        assert list(Path("d").iterdir()) == []


class TestModelFlags:
    """A model flag the chosen algorithm ignores, or one a parameter file
    already holds, exits 2 naming it."""

    @pytest.fixture
    def models(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--out", "c.tab", "--bigrams-out", "c.big")[0] == 0
        Path("in.txt").write_text("ABAB\n")
        Path("tango.params").write_text("N=2\nt=0.5\n")
        Path("sst.params").write_text("theta=5\n" + "".join(f"{b}=0\n" for b in PEAK_BOUNDS))

    # the flags that only segment takes are tried with segment alone
    @pytest.mark.parametrize("command, algorithm, model, flag", [
        pytest.param(command, algorithm, model, flag, id=f"{algorithm}-{flag[0][2:]}-{command}")
        for algorithm, model, flag, commands in [
            ("tango", ["--index", "c.tab"], ["--stats", "c.big"], ["segment", "train"]),
            ("tango", ["--index", "c.tab"], ["--estimator", "mle"], ["segment", "train"]),
            ("tango", ["--index", "c.tab"], ["--theta", "3"], ["segment"]),
            ("tango", ["--index", "c.tab"], ["--extremum", "0,0,0,0"], ["segment"]),
            ("sst", ["--stats", "c.big"], ["--index", "c.tab"], ["segment", "train"]),
            ("sst", ["--stats", "c.big"], ["--no-local-max"], ["segment", "train"]),
            ("sst", ["--stats", "c.big"], ["--no-threshold"], ["segment", "train"]),
            ("sst", ["--stats", "c.big"], ["--orders", "2"], ["segment"]),
            ("sst", ["--stats", "c.big"], ["--threshold", "0.5"], ["segment"]),
        ]
        for command in commands
    ])
    def test_flag_the_algorithm_ignores_exits_2(self, models, capsys, command, algorithm, model,
                                                flag):
        rest = (["--input", "in.txt", "--params", f"{algorithm}.params"] if command == "segment"
                else ["--train", DATA / "toy_gold.txt", "--criterion", "word-f", "--out", "p.txt"])
        code, out, err = run(capsys, command, "--algorithm", algorithm, *model, *flag, *rest)
        assert (code, out, err) == (2, "", f"error: {flag[0]} is not read by the {algorithm} "
                                           "algorithm\n")
        assert not Path("p.txt").exists()

    @pytest.mark.parametrize("algorithm, model, flag, message", [
        ("tango", ["--index", "c.tab"], "--no-local-max",
         "--orders/--threshold/--no-local-max/--no-threshold"),
        ("tango", ["--index", "c.tab"], "--no-threshold",
         "--orders/--threshold/--no-local-max/--no-threshold"),
        ("sst", ["--stats", "c.big"], "--estimator=ele", "--theta/--extremum/--estimator"),
        ("sst", ["--stats", "c.big"], "--extremum=0,50,0,0", "--theta/--extremum/--estimator"),
    ], ids=["tango-no-local-max", "tango-no-threshold", "sst-estimator", "sst-extremum"])
    def test_flag_the_params_file_holds_exits_2(self, models, capsys, algorithm, model, flag,
                                                message):
        code, out, err = run(capsys, "segment", "--algorithm", algorithm, *model, flag,
                             "--input", "in.txt", "--params", f"{algorithm}.params")
        assert (code, out, err) == (2, "", f"error: give either --params or {message}, not both\n")

    def test_train_with_both_conditions_disabled_exits_2(self, models, capsys):
        code, out, err = run(capsys, "train", "--index", "c.tab", "--train", DATA / "toy_gold.txt",
                             "--criterion", "word-f", "--out", "p.txt",
                             "--no-local-max", "--no-threshold")
        assert (code, out, err) == (2, "", "error: at least one boundary condition must be "
                                           "enabled\n")
        assert not Path("p.txt").exists()

    @pytest.mark.parametrize("flag", ["--no-local-max", "--no-threshold"])
    def test_trained_condition_reaches_segment_through_the_file(self, models, capsys, flag):
        assert run(capsys, "train", "--index", "c.tab", "--train", DATA / "toy_gold.txt",
                   "--criterion", "word-f", "--out", "p.txt", flag)[0] == 0
        values = dict(line.split("=") for line in Path("p.txt").read_text().splitlines())
        kept = "threshold" if flag == "--no-local-max" else "local-max"
        assert values["conditions"] == kept
        Path("in.txt").write_text((DATA / "toy_input.txt").read_text())
        code, from_file, _ = run(capsys, "segment", "--index", "c.tab", "--input", "in.txt",
                                 "--params", "p.txt")
        assert code == 0
        code, inline, _ = run(capsys, "segment", "--index", "c.tab", "--input", "in.txt",
                              "--orders", values["N"], "--threshold", values["t"], flag)
        assert code == 0
        assert from_file == inline


class TestLineFileErrors:
    """A bad line of a line file exits 2 with ``file: message (line L, column C)``."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        NGramTable({2}, {"AB": 2}, 4).save("c.tab")
        Path("c.big").write_text("tango-bigrams v1\ntotal_chars 4\n1\t2\tA\n1\t2\tB\n2\t2\tAB\n")
        Path("in.txt").write_text("ABAB\n")
        Path("gold.ann").write_text("[ab]\n[a]\n")
        Path("good.pred").write_text("|ab|\n|a|\n")

    @pytest.mark.parametrize("name, text, argv, message", [
        ("bad.pred", "|ab|\n|a||\n", ["evaluate", "--pred", "bad.pred", "--gold", "gold.ann"],
         "bad.pred: empty segment (line 2, column 4)"),
        ("bad.ann", "[ab]\n[a]]\n", ["evaluate", "--pred", "good.pred", "--gold", "bad.ann"],
         "bad.ann: character ']' outside brackets (line 2, column 4)"),
        ("bad.params", "N=2\nt\n",
         ["segment", "--index", "c.tab", "--input", "in.txt", "--params", "bad.params"],
         "bad.params: expected key=value (line 2)"),
        ("bad.params", "theta=1\ntheta=2\n",
         ["segment", "--algorithm", "sst", "--stats", "c.big", "--input", "in.txt",
          "--params", "bad.params"],
         "bad.params: duplicate key 'theta' (line 2)"),
        ("lex.tsv", "ab\t1\tstem\ncd\tx\tstem\n",
         ["synth", "--lexicon", "lex.tsv", "--sequences", "2", "--out-corpus", "c.txt"],
         "lex.tsv: could not convert string to float: 'x' (line 2)"),
        ("lex.tsv", "ab\t1\tstem\n\ncd\t1\n",
         ["synth", "--lexicon", "lex.tsv", "--sequences", "2", "--out-corpus", "c.txt"],
         "lex.tsv: expected word<TAB>weight<TAB>role (line 3)"),
        ("miss.params", "N=2\n",
         ["segment", "--index", "c.tab", "--input", "in.txt", "--params", "miss.params"],
         "miss.params: missing parameter 't'"),
        ("bad.params", "theta=x\n" + "".join(f"{b}=0\n" for b in PEAK_BOUNDS),
         ["segment", "--algorithm", "sst", "--stats", "c.big", "--input", "in.txt",
          "--params", "bad.params"],
         "bad.params: non-numeric parameter value"),
        ("bad.tab", "tango-ngrams v1\ncorpus_size 4\norders 2\n2\tx\tAB\n",
         ["segment", "--index", "bad.tab", "--input", "in.txt", "--orders", "2",
          "--threshold", "0.5"],
         "bad.tab: non-integer order or count (line 4)"),
        ("bad.params", "N=2\nt=0.5\nconditons=threshold\n",
         ["segment", "--index", "c.tab", "--input", "in.txt", "--params", "bad.params"],
         "bad.params: unknown parameter 'conditons' (line 3)"),
        ("big.tab", "tango-ngrams v1\ncorpus_size 4\norders 2,4000000\n2\t2\tAB\n",
         ["segment", "--index", "big.tab", "--input", "in.txt", "--orders", "2",
          "--threshold", "0.5"],
         "big.tab: orders must all be <= 64 (line 3)"),
        # a file of the six-threshold model is refused at its first old key, not converted
        ("sst.params", "theta=5\n" + "".join(f"e{i}=0\n" for i in range(1, 7)) + "estimator=mle\n",
         ["segment", "--algorithm", "sst", "--stats", "c.big", "--input", "in.txt",
          "--params", "sst.params"],
         "sst.params: unknown parameter 'e1' (line 2)"),
    ], ids=["pred", "gold", "tango-params", "sst-params", "lexicon-weight", "lexicon-fields",
            "tango-params-missing-t", "sst-params-theta", "count-file", "tango-params-unknown",
            "count-file-orders", "sst-params-six-thresholds"])
    def test_bad_line_names_file_line_and_column(self, files, capsys, name, text, argv, message):
        Path(name).write_text(text)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("name, text, argv, message", [
        ("bad.params", "N=2\nt=2\n",
         ["segment", "--index", "c.tab", "--input", "in.txt", "--params", "bad.params"],
         "bad.params: threshold must be in [0, 1], got 2.0"),
        ("bad.params", "theta=-1\n" + "".join(f"{b}=0\n" for b in PEAK_BOUNDS),
         ["segment", "--algorithm", "sst", "--stats", "c.big", "--input", "in.txt",
          "--params", "bad.params"],
         "bad.params: theta must be non-negative, got -1.0"),
        ("n7.params", "N=2,7\nt=0.5\n",
         ["segment", "--index", "c.tab", "--input", "in.txt", "--params", "n7.params"],
         "c.tab: table does not cover orders [7]"),
        ("tab.txt", "AB\tAB\n", ["build-index", "--corpus", "tab.txt", "--out", "t.tab"],
         "tab.txt: corpus sequence contains '\\t'; the table format cannot store it"),
        ("z.ann", "[ABZA]\n",
         ["train", "--algorithm", "sst", "--stats", "c.big", "--train", "z.ann",
          "--criterion", "word-f", "--out", "p.txt"],
         "z.ann: character 'Z' unseen under MLE"),
        ("shift.pred", "|ab|\n|b|\n", ["evaluate", "--pred", "shift.pred", "--gold", "gold.ann"],
         "shift.pred: segmentation covers 'b' but annotation covers 'a'"),
        ("lex.tsv", "a[\t1\tstem\n",
         ["synth", "--lexicon", "lex.tsv", "--sequences", "2", "--out-corpus", "c.txt",
          "--out-annotations", "a.txt"],
         "lex.tsv: sequence contains a bracket character"),
        ("t23.tab", "tango-ngrams v1\ncorpus_size 4\norders 2,3\n2\t2\tAB\n",
         ["train", "--index", "t23.tab", "--train", "gold.ann", "--criterion", "word-f",
          "--out", "p.txt"],
         "t23.tab: table does not cover orders [4, 5, 6]"),
        # counts no corpus gives: the stats file is named when it is loaded
        ("zero.big", "tango-bigrams v1\ntotal_chars 0\n1\t2\tA\n1\t2\tB\n2\t2\tAB\n",
         ["train", "--algorithm", "sst", "--stats", "zero.big", "--train", "gold.ann",
          "--criterion", "word-f", "--out", "p.txt"],
         "zero.big: 'A' has count 2, above total_chars 0 (line 3)"),
        ("many.big", "tango-bigrams v1\ntotal_chars 4\n1\t2\tA\n1\t1\tB\n2\t2\tAB\n",
         ["segment", "--algorithm", "sst", "--stats", "many.big", "--input", "in.txt",
          "--theta", "1"],
         "many.big: 'AB' has count 2, above its characters' least count 1 (line 5)"),
    ], ids=["tango-params-value", "sst-params-value", "table-orders", "corpus-tab",
            "train-unseen", "misaligned-pred", "lexicon-bracket", "train-table-orders",
            "stats-total", "stats-bigram"])
    def test_refused_content_names_its_file(self, files, capsys, name, text, argv, message):
        # what a file holds, refused where no line is known, still names the file
        Path(name).write_text(text)
        code, out, err = run(capsys, *argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", f"error: {message}")
        assert not any(Path(f).exists() for f in ("t.tab", "p.txt", "c.txt", "a.txt"))


class TestRefusals:
    """Each refusal exits 2 with its message and writes nothing to stdout."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt",
                   "--out", "c.tab", "--bigrams-out", "c.big")[0] == 0
        Path("in.txt").write_text("ABAB\n")
        Path("sst.params").write_text("theta=5\n" + "".join(f"{b}=0\n" for b in PEAK_BOUNDS))
        Path("blank.txt").write_text("\n\n")
        Path("empty.txt").write_text("")
        Path("abcab.txt").write_text("abcab\n")

    @pytest.mark.parametrize("argv, message", [
        (["build-index", "--corpus", "blank.txt", "--out", "t.tab"],
         "blank.txt: no sequences extracted"),
        (["segment", "--algorithm", "sst", "--input", "in.txt", "--params", "sst.params"],
         "--stats is required for the sst algorithm"),
        (["segment", "--index", "c.tab", "--input", "in.txt"],
         "need --params or both --orders and --threshold"),
        (["segment", "--algorithm", "sst", "--stats", "c.big", "--input", "in.txt"],
         "need --params or --theta"),
        (["segment", "--algorithm", "sst", "--stats", "c.big", "--input", "in.txt",
          "--theta", "1", "--extremum", "a,b"],
         "bad extremum list 'a,b'"),
        (["train", "--index", "c.tab", "--train", "empty.txt", "--criterion", "word-f",
          "--out", "p.txt"],
         "empty.txt: no annotations found"),
        (["synth", "--lexicon", "blank.txt", "--sequences", "2", "--out-corpus", "s.txt"],
         "blank.txt: lexicon is empty"),
        (["synth", "--lexicon", DATA / "toy_lexicon.tsv", "--sequences", "2",
          "--suffix-prob", "2", "--out-corpus", "s.txt"],
         "suffix_prob must be in [0, 1]"),
        # order 200 on 5 characters once overflowed the counting walk's int8 positions
        (["build-index", "--corpus", "abcab.txt", "--out", "t.tab", "--orders", "2,200"],
         "orders must all be <= 64, got [2, 200]"),
    ], ids=["no-sequences", "sst-no-stats", "tango-no-params", "sst-no-theta", "bad-extremum",
            "no-annotations", "empty-lexicon", "suffix-prob", "order-bound"])
    def test_refusal_exits_2_with_its_message(self, files, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not any(Path(name).exists() for name in ("t.tab", "p.txt", "s.txt"))

    @pytest.mark.parametrize("orders", ["1", "3,1,3"])
    def test_bad_order_set_refused_before_the_corpus_is_read(self, files, capsys, orders):
        # the order-set rule runs on the option, so no corpus_size line comes first
        got = sorted(set(map(int, orders.split(","))))
        message = f"orders must be one or more integers >= 2, got {got}"
        assert run(capsys, "build-index", "--corpus", DATA / "toy_corpus.txt", "--out", "t.tab",
                   "--orders", orders) == (2, "", f"error: {message}\n")
        assert not Path("t.tab").exists()

    def test_default_orders_are_the_training_pool(self, files, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TANGO_ORDER_POOL", (2, 3))
        assert run(capsys, "build-index", "--corpus", "in.txt", "--out", "t.tab")[0] == 0
        assert NGramTable.load("t.tab").orders == frozenset({2, 3})


class TestNonUtf8Files:
    """A file holding byte 0xff gives a message and exit status 2, not a traceback."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"N=2\n\xff\n")
        return path

    @pytest.fixture
    def seqs(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("ABCD\n")
        return path

    def check(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "bad.txt: invalid UTF-8 at byte offset 4" in err

    def test_tango_params(self, tmp_path, bad, seqs, capsys):
        index = tmp_path / "c.tab"
        NGramTable({2}, {"AB": 2}, 4).save(index)
        self.check(capsys, "segment", "--index", index, "--input", seqs, "--params", bad)

    def test_sst_params(self, tmp_path, bad, seqs, capsys):
        big = tmp_path / "c.big"
        big.write_text("tango-bigrams v1\ntotal_chars 4\n1\t2\tA\n1\t2\tB\n2\t2\tAB\n")
        self.check(capsys, "segment", "--algorithm", "sst", "--stats", big,
                   "--input", seqs, "--params", bad)

    def test_lexicon(self, tmp_path, bad, capsys):
        self.check(capsys, "synth", "--lexicon", bad, "--sequences", "5",
                   "--out-corpus", tmp_path / "c.txt")

    def test_stats(self, bad, seqs, capsys):
        self.check(capsys, "segment", "--algorithm", "sst", "--stats", bad,
                   "--input", seqs, "--theta", "5", "--extremum", "0,0,0,0")


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
