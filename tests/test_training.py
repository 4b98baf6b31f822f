import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangoseg.training as training
from tangoseg import (
    CRITERIA,
    BigramStats,
    Corpus,
    FlatSegmentation,
    FormatError,
    ParameterError,
    SstParams,
    TangoParams,
    TwoLevelAnnotation,
    UnsupportedOrderError,
    build_table,
    generate_corpus,
    grid_to_tsv,
    make_zipf_lexicon,
    read_tango_params,
    segment,
    sst_segment,
    tango_grid,
    train_sst,
    train_tango,
    write_tango_params,
)
from tangoseg.metrics import _prf
from tangoseg.ngrams import float_text
from tangoseg.training import SST_EXTREMUM_VALUES, SST_THETAS, TANGO_THRESHOLDS

from naive import naive_boundaries, naive_total_votes, pruned_lookup

FLAG_COMBINATIONS = [(True, True), (True, False), (False, True)]


@pytest.fixture(scope="module")
def toy_setup():
    lexicon = make_zipf_lexicon(20, 5, seed=3)
    raw, _ = generate_corpus(lexicon, target_chars=30_000, seed=4)
    table = build_table(Corpus(raw), range(2, 7))
    stats = BigramStats.from_corpus(raw)
    _, train_anns = generate_corpus(lexicon, sequences=6, seed=5)
    return table, stats, train_anns


def pooled_score(pairs, criterion):
    matched = proposed = gold = 0
    for pred, ann in pairs:
        golds = set(ann.words if criterion.startswith("word") else ann.morpheme_brackets)
        matched += len(set(pred.brackets) & golds)
        proposed += len(pred.brackets)
        gold += len(golds)
    p, r, f = _prf(matched, proposed, gold)
    if criterion.endswith("precision"):
        return p
    if criterion.endswith("recall"):
        return r
    return f


class TestGridEnumeration:
    def test_tango_grid_size_and_order(self):
        grid = list(tango_grid())
        assert len(grid) == 31 * 20
        subsets = []
        for subset, _ in grid:
            if not subsets or subsets[-1] != subset:
                subsets.append(subset)
        assert subsets[:7] == [(2,), (3,), (4,), (5,), (6,), (2, 3), (2, 4)]
        assert subsets[-1] == (2, 3, 4, 5, 6)
        assert len(subsets) == 31
        # thresholds descend within a subset: larger t preferred on ties
        first_block = [t for subset, t in grid if subset == (2,)]
        assert first_block == sorted(first_block, reverse=True)
        assert first_block[0] == 1.0 and first_block[-1] == 0.05

    def test_sst_grid_size_and_order(self):
        grid = list(product(SST_THETAS, *[SST_EXTREMUM_VALUES] * 4))
        assert len(grid) == 5 ** 5
        assert grid[0] == (0.0,) * 5
        assert grid[1] == (0.0, 0.0, 0.0, 0.0, 50.0)
        assert grid == sorted(grid)
        assert training._sst_vectors().tolist() == list(map(list, grid))


class TestTrainTango:
    def test_matches_exhaustive_oracle(self, toy_setup):
        table, _, train_anns = toy_setup
        result = train_tango(train_anns, table, "word-f")
        best = None
        for subset, t in tango_grid():
            params = TangoParams(frozenset(subset), t)
            pairs = [(segment(ann.sequence, params, table), ann) for ann in train_anns]
            score = pooled_score(pairs, "word-f")
            if best is None or score > best[1]:
                best = (params, score)
        assert result.params == best[0]
        assert result.score == best[1]

    def test_grid_table_is_complete_and_consistent(self, toy_setup):
        table, _, train_anns = toy_setup
        result = train_tango(train_anns, table, "word-recall")
        assert len(result.grid) == 620
        assert result.score == max(score for _, score in result.grid)
        rng = random.Random(89)
        for params, recorded in rng.sample(result.grid, 10):
            pairs = [(segment(ann.sequence, params, table), ann) for ann in train_anns]
            assert recorded == pooled_score(pairs, "word-recall")

    def test_all_tied_grid_prefers_small_n_and_large_t(self):
        # a table with no repeated grams votes 0 everywhere, so every
        # setting leaves every sequence whole and all 620 scores tie
        table = build_table(Corpus(["QRSTUVW"]), range(2, 7))
        assert table.counts == {}
        train_anns = [
            ann for _, ann in [generate_corpus(make_zipf_lexicon(5, 2, seed=1), sequences=3, seed=2)]
        ][0]
        result = train_tango(train_anns, table, "word-f")
        assert sorted(result.params.orders) == [2]
        assert result.params.threshold == 1.0
        assert len({score for _, score in result.grid}) == 1
        assert result.grid.ties() == 620

    def test_determinism(self, toy_setup):
        table, _, train_anns = toy_setup
        first = train_tango(train_anns, table, "word-f")
        second = train_tango(train_anns, table, "word-f")
        assert first.params == second.params
        assert first.score == second.score

    def test_condition_flags_are_trained_through(self, toy_setup):
        table, _, train_anns = toy_setup
        result = train_tango(train_anns, table, "word-f", use_threshold=False)
        assert result.params.use_threshold is False
        best = None
        for subset, t in tango_grid():
            params = TangoParams(frozenset(subset), t, use_threshold=False)
            pairs = [(segment(ann.sequence, params, table), ann) for ann in train_anns]
            score = pooled_score(pairs, "word-f")
            if best is None or score > best[1]:
                best = (params, score)
        assert result.params == best[0]

    def test_both_conditions_disabled_rejected_before_any_vote(self, toy_setup, monkeypatch):
        table, _, train_anns = toy_setup

        def no_votes(*args):
            raise AssertionError("votes computed")

        monkeypatch.setattr(training, "_order_votes", no_votes)
        with pytest.raises(ParameterError) as exc:
            train_tango(train_anns, table, "word-f", use_local_max=False, use_threshold=False)
        assert str(exc.value) == "at least one boundary condition must be enabled"

    def test_morpheme_criterion(self, toy_setup):
        table, _, train_anns = toy_setup
        result = train_tango(train_anns, table, "morpheme-precision")
        params = result.params
        pairs = [(segment(ann.sequence, params, table), ann) for ann in train_anns]
        assert result.score == pooled_score(pairs, "morpheme-precision")

    def test_rejects_bad_criterion(self, toy_setup):
        table, _, train_anns = toy_setup
        with pytest.raises(ParameterError, match="not\\s+admissible"):
            train_tango(train_anns, table, "compatible-rate")

    def test_rejects_empty_train_set(self, toy_setup):
        table, _, _ = toy_setup
        with pytest.raises(ParameterError):
            train_tango([], table, "word-f")

    def test_rejects_table_without_full_orders(self, toy_setup):
        _, _, train_anns = toy_setup
        small = build_table(Corpus(["ABABAB"]), {2, 3})
        with pytest.raises(UnsupportedOrderError):
            train_tango(train_anns, small, "word-f")


class TestTrainSst:
    def test_single_sequence_matches_exhaustive_oracle(self, toy_setup):
        _, stats, train_anns = toy_setup
        train = train_anns[:1]
        result = train_sst(train, stats, "word-f")
        assert len(result.grid) == 5 ** 5
        best = None
        # every setting's score, not only the best, is the direct one
        for (params, recorded), (theta, *bounds) in zip(
            result.grid, product(SST_THETAS, *[SST_EXTREMUM_VALUES] * 4)
        ):
            assert params == SstParams(theta, bounds)
            pairs = [(sst_segment(ann.sequence, params, stats), ann) for ann in train]
            score = pooled_score(pairs, "word-f")
            assert recorded == score
            if best is None or score > best[1]:
                best = (params, score)
        assert result.params == best[0]
        assert result.score == best[1]

    def test_cached_profiles_equal_direct_evaluation(self, toy_setup):
        _, stats, train_anns = toy_setup
        result = train_sst(train_anns[:3], stats, "word-f")
        rng = random.Random(97)
        sampled = rng.sample(result.grid, 25) + [(result.params, result.score)]
        for params, recorded in sampled:
            pairs = [
                (sst_segment(ann.sequence, params, stats), ann) for ann in train_anns[:3]
            ]
            assert recorded == pooled_score(pairs, "word-f")

    def test_all_tied_grid_returns_zero_vector(self):
        # four-character sequences have a single-position dts profile,
        # which is never a peak: every setting predicts no boundary
        from tangoseg import TwoLevelAnnotation

        stats = BigramStats.from_corpus(["ABCABCABC", "CABCAB", "BCABCA"])
        anns = [
            TwoLevelAnnotation.from_segments([["AB"], ["CA"]]),
            TwoLevelAnnotation.from_segments([["BC"], ["AB"]]),
            TwoLevelAnnotation.from_segments([["CA"], ["BC"]]),
        ]
        assert all(len(a.sequence) == 4 for a in anns)
        result = train_sst(anns, stats, "word-f")
        assert result.params.theta == 0.0
        assert result.params.peak_bounds == (0.0,) * 4
        assert len({score for _, score in result.grid}) == 1
        assert result.grid.ties() == 5 ** 5

    def test_determinism(self, toy_setup):
        _, stats, train_anns = toy_setup
        first = train_sst(train_anns[:2], stats, "word-f")
        second = train_sst(train_anns[:2], stats, "word-f")
        assert first.params == second.params

    def test_estimator_carried_into_params(self, toy_setup):
        _, stats, train_anns = toy_setup
        result = train_sst(train_anns[:2], stats.using("ele"), "word-f")
        assert result.params.estimator == "ele"

    def test_rejects_bad_criterion(self, toy_setup):
        _, stats, train_anns = toy_setup
        with pytest.raises(ParameterError):
            train_sst(train_anns, stats, "all-compatible")


def check_lazy_grid(grid, eager):
    """grid behaves as the eager list of its (params, score) pairs."""
    n = len(eager)
    assert len(grid) == n
    indices = [0, 1, n - 1, -1, -2, -n] + random.Random(11).sample(range(n), 20)
    for i in indices:
        assert grid[i] == eager[i]
        assert type(grid[i][1]) is float
    with pytest.raises(IndexError):
        grid[n]
    assert grid[3:9] == eager[3:9]
    assert grid[::-97] == eager[::-97]
    assert random.Random(5).sample(grid, 10) == random.Random(5).sample(eager, 10)
    assert list(grid) == eager
    assert grid == eager
    scores = [score for _, score in eager]
    assert grid.ties() == scores.count(max(scores))


class TestLazyGrid:
    def test_tango_grid_equals_eager_list(self, toy_setup):
        table, _, train_anns = toy_setup
        result = train_tango(train_anns, table, "word-f", use_local_max=False)
        eager = [
            (TangoParams(frozenset(subset), t, use_local_max=False), score)
            for (subset, t), score in zip(tango_grid(), result.grid.scores.tolist())
        ]
        check_lazy_grid(result.grid, eager)
        assert (result.params, result.score) == eager[int(result.grid.scores.argmax())]

    def test_sst_grid_equals_eager_list(self, toy_setup):
        _, stats, train_anns = toy_setup
        result = train_sst(train_anns[:2], stats.using("ele"), "word-f")
        eager = [
            (SstParams(theta, bounds, "ele"), score)
            for (theta, *bounds), score in zip(product(SST_THETAS, *[SST_EXTREMUM_VALUES] * 4),
                                           result.grid.scores.tolist())
        ]
        check_lazy_grid(result.grid, eager)
        assert (result.params, result.score) == eager[int(result.grid.scores.argmax())]

    def test_trainers_build_only_the_best_params(self, toy_setup, constructions):
        table, stats, train_anns = toy_setup
        tango_built = constructions(TangoParams)
        sst_built = constructions(SstParams)
        tango = train_tango(train_anns, table, "word-f")
        sst = train_sst(train_anns[:2], stats, "word-f")
        assert tango_built == [tango.params]
        assert sst_built == [sst.params]
        sst.grid[-1]
        assert len(sst_built) == 2
        grid_to_tsv(tango)
        grid_to_tsv(sst)
        assert (len(tango_built), len(sst_built)) == (1, 2)


class TestBlockSize:
    """The block size bounds memory only: any budget gives the same results."""

    @staticmethod
    def train_in_blocks(monkeypatch, budget, train, *args):
        """(result, row counts of the scored blocks) under a cell budget."""
        blocks = []
        scores = training._BoundaryRows.scores

        def counting(layout, rows):
            blocks.append(len(rows))
            return scores(layout, rows)

        with monkeypatch.context() as m:
            m.setattr(training._BoundaryRows, "scores", counting)
            if budget is not None:
                m.setattr(training, "_CELL_BUDGET", budget)
            return train(*args), blocks

    @staticmethod
    def assert_same(result, other):
        assert (result.params, result.score) == (other.params, other.score)
        assert np.array_equal(result.grid.scores, other.grid.scores)

    @pytest.mark.parametrize("flags", FLAG_COMBINATIONS)
    def test_tango_one_order_subset_per_block(self, toy_setup, monkeypatch, flags):
        table, _, train_anns = toy_setup
        args = (train_anns, table, "word-f", *flags)
        default, blocks = self.train_in_blocks(monkeypatch, None, train_tango, *args)
        assert blocks == [620]
        width = sum(len(ann.sequence) + 1 for ann in train_anns)
        # a budget below one subset's rows still places whole subsets
        for budget in (20 * width, 1):
            small, blocks = self.train_in_blocks(monkeypatch, budget, train_tango, *args)
            assert blocks == [20] * 31
            self.assert_same(small, default)

    def test_sst_a_few_settings_per_block(self, toy_setup, monkeypatch):
        _, stats, train_anns = toy_setup
        args = (train_anns[:2], stats, "morpheme-f")
        default, blocks = self.train_in_blocks(monkeypatch, None, train_sst, *args)
        assert len(blocks) < 10
        width = sum(len(ann.sequence) + 1 for ann in train_anns[:2])
        small, blocks = self.train_in_blocks(monkeypatch, 7 * width, train_sst, *args)
        assert blocks == [7] * (5**5 // 7) + [5**5 % 7]
        self.assert_same(small, default)


@st.composite
def annotations(draw, alphabet, min_size, max_size):
    """A random two-level annotation of a sequence over alphabet."""
    seq = draw(st.text(alphabet, min_size=min_size, max_size=max_size))
    cuts = sorted(draw(st.sets(st.integers(1, len(seq) - 1)))) if len(seq) > 1 else []
    morphemes = [seq[a:b] for a, b in zip([0, *cuts], [*cuts, len(seq)])]
    words = []
    while morphemes:
        k = draw(st.integers(1, min(2, len(morphemes))))
        words.append(morphemes[:k])
        morphemes = morphemes[k:]
    return TwoLevelAnnotation.from_segments(words)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tango_grid_matches_oracle(data):
    """Every grid score equals the pooled score of the oracle's votes and
    placement, on training sets holding 1- and 2-character sequences."""
    alphabet = "abcd"[: data.draw(st.integers(2, 4))]
    corpus = data.draw(st.lists(st.text(alphabet, min_size=1, max_size=12),
                                min_size=1, max_size=20))
    train = [data.draw(annotations(alphabet, 1, 1)), data.draw(annotations(alphabet, 2, 2))]
    train = data.draw(st.permutations(train + data.draw(st.lists(annotations(alphabet, 1, 10),
                                                                 max_size=3))))
    criterion = data.draw(st.sampled_from(CRITERIA))
    use_local_max, use_threshold = data.draw(st.sampled_from(FLAG_COMBINATIONS))

    orders = range(2, 7)
    result = train_tango(train, build_table(Corpus(corpus), orders), criterion,
                         use_local_max, use_threshold)
    look = pruned_lookup(corpus, orders)
    votes = {}
    expected = []
    for subset, t in tango_grid():
        if subset not in votes:
            votes[subset] = [naive_total_votes(ann.sequence, subset, look) for ann in train]
        pairs = [
            (FlatSegmentation(ann.sequence,
                              tuple(sorted(naive_boundaries(v, t, use_local_max, use_threshold)))),
             ann)
            for v, ann in zip(votes[subset], train)
        ]
        expected.append(pooled_score(pairs, criterion))
    assert result.grid.scores.tolist() == expected


class TestParamsFiles:
    def test_tango_roundtrip(self, tmp_path):
        params = TangoParams(frozenset({2, 4}), 0.4)
        path = tmp_path / "tango.params"
        write_tango_params(params, path)
        assert path.read_text() == "N=2,4\nt=0.4\n"
        assert read_tango_params(path) == params

    @pytest.mark.parametrize("orders", ["3_0", "+4", "\u0663", "2, 3", "2,"])
    def test_orders_take_one_to_eighteen_ascii_digits_per_field(self, tmp_path, orders):
        # int() takes the first four, 3_0 as 30
        path = tmp_path / "tango.params"
        path.write_text(f"N={orders}\nt=0.5\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_tango_params(path)
        assert (exc.value.message, exc.value.path) == ("malformed N or t value", path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "tango.params"
        path.write_text("N=2\nN=3\nt=0.5\n")
        with pytest.raises(FormatError, match=r"duplicate key 'N' \(line 2\)"):
            read_tango_params(path)

    def test_blank_lines_are_skipped_before_the_duplicate_check(self, tmp_path):
        # a blank line holds no key; an "=x" line names the key "", which no reader knows
        path = tmp_path / "tango.params"
        path.write_text("\nN=2\n   \nt=0.5\n\n")
        assert read_tango_params(path) == TangoParams(frozenset({2}), 0.5)
        path.write_text("N=2\n\n=x\nt=0.5\n")
        with pytest.raises(FormatError) as exc:
            read_tango_params(path)
        assert str(exc.value) == f"{path}: unknown parameter '' (line 3)"

    def test_unknown_key_refused_at_its_line(self, tmp_path):
        # a misspelt key must not leave both conditions on unnoticed
        path = tmp_path / "tango.params"
        path.write_text("N=2\nt=0.5\nconditons=threshold\n")
        with pytest.raises(FormatError) as exc:
            read_tango_params(path)
        assert str(exc.value) == f"{path}: unknown parameter 'conditons' (line 3)"

    def test_threshold_written_losslessly(self, tmp_path):
        # six significant digits would write t=0.123457, another float
        params = TangoParams(frozenset({2, 3}), 0.1234567)
        path = tmp_path / "tango.params"
        write_tango_params(params, path)
        assert path.read_text() == "N=2,3\nt=0.1234567\n"
        assert read_tango_params(path) == params

    def test_grid_values_keep_their_text(self):
        # trained parameter files are written as before
        for value in TANGO_THRESHOLDS + SST_THETAS + SST_EXTREMUM_VALUES:
            assert float_text(value) == f"{value:g}"

    def test_flags_applied_at_read_time(self, tmp_path):
        # a disabled condition is recorded in the file, and read back from it
        path = tmp_path / "tango.params"
        for local_max, threshold, line in ((True, False, "conditions=local-max\n"),
                                           (False, True, "conditions=threshold\n")):
            params = TangoParams(frozenset({2}), 0.5, local_max, threshold)
            write_tango_params(params, path)
            assert path.read_text() == "N=2\nt=0.5\n" + line
            loaded = read_tango_params(path)
            assert (loaded.use_local_max, loaded.use_threshold) == (local_max, threshold)
            assert loaded == params
        path.write_text("N=2\nt=0.5\nconditions=threshold,local-max\n")
        assert read_tango_params(path) == TangoParams(frozenset({2}), 0.5)

    @pytest.mark.parametrize("conditions", ["", "both", "threshold,", "local_max", "local-max;threshold"])
    def test_unknown_condition_rejected(self, tmp_path, conditions):
        path = tmp_path / "tango.params"
        path.write_text(f"N=2\nt=0.5\nconditions={conditions}\n")
        with pytest.raises(FormatError) as exc:
            read_tango_params(path)
        message = f"conditions must name local-max, threshold or both, got {conditions!r}"
        assert (exc.value.message, exc.value.path) == (message, path)

    def test_grid_tsv_headers(self, toy_setup):
        table, stats, train_anns = toy_setup
        tango_result = train_tango(train_anns[:2], table, "word-f")
        text = grid_to_tsv(tango_result)
        assert text.startswith("N\tt\tscore\n")
        assert len(text.splitlines()) == 621


class TestTinyTrainingRobustness:
    def test_five_versus_fifty_sequences(self):
        lexicon = make_zipf_lexicon(30, 6, seed=21)
        raw, _ = generate_corpus(lexicon, target_chars=60_000, seed=22)
        table = build_table(Corpus(raw), range(2, 7))
        _, pool = generate_corpus(lexicon, sequences=100, seed=23)
        train5, train50, test = pool[:5], pool[5:55], pool[55:]

        scores = {}
        for name, train in (("5", train5), ("50", train50)):
            params = train_tango(train, table, "word-f").params
            pairs = [(segment(ann.sequence, params, table), ann) for ann in test]
            scores[name] = pooled_score(pairs, "word-f")
        gap = scores["50"] - scores["5"]
        print(
            f"tiny-training harness: word-F {scores['5']:.2f} (5 seqs) vs "
            f"{scores['50']:.2f} (50 seqs), gap {gap:+.2f}"
        )
        assert scores["5"] > 0.0
        assert scores["50"] > 0.0
