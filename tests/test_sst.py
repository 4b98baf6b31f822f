import io
import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from tangoseg import (
    BigramStats,
    FormatError,
    ParameterError,
    SstParams,
    UndefinedStatisticError,
    dts_profile,
    dts_terms,
    extremum_features,
    load_stats,
    mutual_information,
    read_sst_params,
    save_stats,
    sst_segment,
    write_sst_params,
)

from tangoseg.sst import PEAK_BOUNDS, _peak_test

from naive import NaiveBigramModel


def feature_columns(values):
    """extremum_features as Python lists: primary, secondary, rise, fall."""
    return [column.tolist() for column in extremum_features(values)]


class TestMutualInformation:
    def test_exact_independence_gives_zero(self):
        # all four bigram types equally often: p(xy) = p(x) p(y) exactly
        stats = BigramStats.from_corpus(["AA", "AB", "BA", "BB"])
        for d in "AB":
            for w in "AB":
                assert mutual_information(stats, d, w) == 0.0

    def test_hand_counted_example(self):
        # one line ABABABAB: p(A)=p(B)=1/2, p(AB)=4 of 7 bigram tokens
        stats = BigramStats.from_corpus(["ABABABAB"])
        assert mutual_information(stats, "A", "B") == pytest.approx(math.log2(16 / 7))

    def test_unseen_pair_is_negative_infinity_under_mle(self):
        stats = BigramStats.from_corpus(["AB", "AB", "CD", "CD"])
        assert mutual_information(stats, "A", "D") == -math.inf

    def test_unseen_character_raises_under_mle(self):
        stats = BigramStats.from_corpus(["ABAB"])
        with pytest.raises(UndefinedStatisticError, match="'Z'"):
            mutual_information(stats, "Z", "A")

    def test_never_cooccurring_pair_finite_negative_under_ele(self):
        stats = BigramStats.from_corpus(["AB"] * 50 + ["CD"] * 50, estimator="ele")
        value = mutual_information(stats, "A", "D")
        assert value < 0.0
        assert math.isfinite(value)

    def test_using_shares_counts_under_another_estimator(self):
        stats = BigramStats.from_corpus(["ABAB", "CD"])
        ele = stats.using("ele")
        assert (stats.estimator, ele.estimator) == ("mle", "ele")
        assert ele.bigrams is stats.bigrams and ele.unigrams is stats.unigrams
        assert (ele.total_chars, ele.total_bigrams) == (6, 4)
        assert stats.using("mle") is stats
        with pytest.raises(ParameterError):
            stats.using("map")

    def test_log_decomposition_identity(self):
        rng = random.Random(61)
        lines = ["".join(rng.choice("ABCDE") for _ in range(30)) for _ in range(20)]
        for estimator in ("mle", "ele"):
            stats = BigramStats.from_corpus(lines, estimator)
            for _ in range(50):
                d, w = rng.choice("ABCDE"), rng.choice("ABCDE")
                mi = mutual_information(stats, d, w)
                direct = (
                    math.log2(stats.p_pair(d, w))
                    - math.log2(stats.p_char(d))
                    - math.log2(stats.p_char(w))
                )
                assert mi == pytest.approx(direct, abs=1e-12)


class TestDts:
    def test_symmetric_context_is_zero(self):
        # all three conditionals 0.6 with equal variances: both numerators vanish
        stats = BigramStats.from_corpus(["ABCD"] * 3 + ["BADC"] * 2)
        assert stats.p_cond("B", "A") == stats.p_cond("C", "B") == stats.p_cond("D", "C")
        result = dts_terms(stats, "A", "B", "C", "D")
        assert result.value == 0.0
        assert not result.left_degenerate and not result.right_degenerate

    def test_degenerate_variance_flagged(self):
        # deterministic transitions: conditionals 1, variances 0
        stats = BigramStats.from_corpus(["ABCD"] * 5)
        result = dts_terms(stats, "A", "B", "C", "D")
        assert result == (0.0, 0.0, 0.0, True, True)

    def test_matches_naive_oracle(self):
        rng = random.Random(67)
        lines = ["".join(rng.choice("ABCDEF") for _ in range(25)) for _ in range(30)]
        for estimator in ("mle", "ele"):
            stats = BigramStats.from_corpus(lines, estimator)
            naive = NaiveBigramModel(lines, estimator)
            for _ in range(100):
                c, d, w, x = (rng.choice("ABCDEF") for _ in range(4))
                assert dts_terms(stats, c, d, w, x).value == pytest.approx(
                    naive.dts(c, d, w, x), abs=1e-9
                )

    def test_mirror_terms_swap_and_negate(self):
        # permutation lines give every character the same count, so the
        # reversed-corpus evaluation reproduces the same conditionals with
        # the two terms exchanged and negated
        rng = random.Random(71)
        alphabet = list("ABCDEFGH")
        lines = []
        for _ in range(60):
            perm = alphabet[:]
            rng.shuffle(perm)
            lines.append("".join(perm))
        stats = BigramStats.from_corpus(lines)
        stats_rev = BigramStats.from_corpus([s[::-1] for s in lines])
        for _ in range(100):
            c, d, w, x = rng.sample(alphabet, 4)
            fwd = dts_terms(stats, c, d, w, x)
            mirrored = dts_terms(stats_rev, x, w, d, c)
            assert mirrored.left_term == -fwd.right_term
            assert mirrored.right_term == -fwd.left_term
            assert mirrored.value == fwd.value

    def test_pair_probability_without_bigrams_raises(self):
        stats = BigramStats.from_corpus(["A", "B"])
        with pytest.raises(UndefinedStatisticError) as exc:
            stats.p_pair("A", "B")
        assert str(exc.value) == "corpus contains no bigram tokens"

    def test_unseen_conditioning_character_raises_under_mle(self):
        stats = BigramStats.from_corpus(["ABAB"])
        with pytest.raises(UndefinedStatisticError):
            dts_terms(stats, "A", "Z", "B", "A")


@pytest.mark.parametrize("estimator", ["mle", "ele"])
@pytest.mark.parametrize("seed", range(5))
def test_estimates_equal_naive_oracle_exactly(estimator, seed):
    # compared with ==, so that a one-ulp change in any estimate fails
    rng = random.Random(seed)
    alphabet = "ABCDEFGHIJ"[: rng.randint(5, 10)]
    weights = [rng.random() ** 2 for _ in alphabet]
    lines = ["".join(rng.choices(alphabet, weights, k=rng.randint(1, 20)))
             for _ in range(rng.randint(5, 20))]
    stats = BigramStats.from_corpus(lines, estimator)
    naive = NaiveBigramModel(lines, estimator)
    seen = sorted(naive.uni)
    pairs = [(x, y) for x in seen for y in seen]
    # every pair of seen characters, the unseen ones included
    assert {x + y for x, y in pairs} - set(naive.bi)
    assert [stats.p_char(x) for x in seen] == [naive.p(x) for x in seen]
    assert [stats.p_pair(x, y) for x, y in pairs] == [naive.p_pair(x, y) for x, y in pairs]
    assert [stats.p_cond(y, x) for x, y in pairs] == [naive.p_cond(y, x) for x, y in pairs]
    assert [stats.var_cond(y, x) for x, y in pairs] == [naive.var_cond(y, x) for x, y in pairs]
    if estimator == "ele":
        # an unseen character still has estimates under ELE
        assert stats.p_char("Z") == naive.p("Z")
        assert stats.p_pair("Z", seen[0]) == naive.p_pair("Z", seen[0])
        assert stats.p_cond(seen[0], "Z") == naive.p_cond(seen[0], "Z")


@pytest.mark.parametrize("estimator", ["mle", "ele"])
def test_dts_terms_estimates_each_conditional_once(monkeypatch, estimator):
    lines = ["ABCABD", "BCDAB", "CABDC", "DDAB"]
    stats = BigramStats.from_corpus(lines, estimator)
    naive = NaiveBigramModel(lines, estimator)
    calls = []
    estimate = BigramStats._estimate

    def counted(self, *args):
        calls.append(args)
        return estimate(self, *args)

    monkeypatch.setattr(BigramStats, "_estimate", counted)
    for c, d, w, x in product("ABCD", repeat=4):
        calls.clear()
        value = dts_terms(stats, c, d, w, x).value
        # three transitions, each estimated once
        assert len(calls) == 3
        assert value == naive.dts(c, d, w, x)


class TestExtremumFeatures:
    def test_interior_peak(self):
        columns = feature_columns([0.0, 3.0, 1.0])
        assert [column[1] for column in columns] == [True, True, 3.0, 2.0]

    def test_plateau_is_secondary_only(self):
        primary, secondary, _, _ = feature_columns([0.0, 2.0, 2.0, 0.0])
        assert primary[1] is False
        assert secondary[1] is True
        assert secondary[2] is True

    def test_endpoint_uses_single_neighbour(self):
        primary, _, rise, fall = feature_columns([5.0, 3.0])
        assert primary[0] is True
        assert rise[0] == 0.0
        assert fall[0] == 2.0
        assert primary[1] is False

    def test_single_position_never_a_peak(self):
        assert feature_columns([9.9]) == [[False], [False], [0.0], [0.0]]

    def test_rise_measured_to_nearest_minimum(self):
        _, _, rise, fall = feature_columns([0.0, 4.0, 2.0, 5.0, 1.0])
        assert rise[3] == 3.0
        assert fall[3] == 4.0

    def test_rise_and_fall_nonnegative_at_weak_maxima(self):
        rng = random.Random(73)
        for _ in range(300):
            values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 12))]
            _, secondary, rise, fall = feature_columns(values)
            for i, weak_peak in enumerate(secondary):
                if weak_peak:
                    assert rise[i] >= 0.0
                    assert fall[i] >= 0.0


class TestSstSegment:
    def test_theta_zero_blocks_cohesive_pairs(self):
        # every adjacent pair in the corpus pattern has positive mi
        stats = BigramStats.from_corpus(["ABCD"] * 6)
        params = SstParams(0.0, (0.0,) * 4)
        assert sst_segment("ABCD", params, stats).boundaries == ()

    def test_zero_thresholds_mark_every_weak_peak(self):
        rng = random.Random(79)
        lines = ["".join(rng.choice("ABCDE") for _ in range(20)) for _ in range(40)]
        stats = BigramStats.from_corpus(lines)
        params = SstParams(5.0, (0.0,) * 4)
        for _ in range(20):
            seq = "".join(rng.choice("ABCDE") for _ in range(12))
            values = dts_profile(seq, stats)
            _, secondary, _, _ = feature_columns(values)
            expected = tuple(
                i + 2
                for i, weak_peak in enumerate(secondary)
                if weak_peak and mutual_information(stats, seq[i + 1], seq[i + 2]) < 5.0
            )
            assert sst_segment(seq, params, stats).boundaries == expected

    def test_short_sequences_come_back_whole(self):
        stats = BigramStats.from_corpus(["ABCD"] * 6)
        params = SstParams(5.0, (0.0,) * 4)
        for seq in ("A", "AB", "ABC", "ABCD"):
            assert sst_segment(seq, params, stats).segments == (seq,)

    def test_estimator_choice_in_params_is_applied(self):
        stats = BigramStats.from_corpus(["ABAB", "CDCD"])
        params = SstParams(5.0, (0.0,) * 4, estimator="ele")
        # Z is unseen: would raise under MLE, fine under the ELE view
        seg = sst_segment("ABZAB", params, stats)
        assert seg.sequence == "ABZAB"

    def test_mle_and_ele_decisions_agree_when_counts_are_robust(self):
        # every bigram over {A,B,C} occurs at least twice, no zero or one counts
        line = "AABBCCACBA"
        corpus = [line, line, "ABCABC", "ABCABC", "CBACBA", "CBACBA"]
        mle = BigramStats.from_corpus(corpus, "mle")
        ele = BigramStats.from_corpus(corpus, "ele")
        rng = random.Random(83)
        seqs = ["".join(rng.choice("ABC") for _ in range(rng.randint(5, 12))) for _ in range(30)]
        for theta in (0.0, 2.5, 5.0):
            for es in ((0.0,) * 4, (0.0, 0.0, 1.0, 1.0)):
                for seq in seqs:
                    a = sst_segment(seq, SstParams(theta, es, "mle"), mle)
                    b = sst_segment(seq, SstParams(theta, es, "ele"), ele)
                    assert a.boundaries == b.boundaries


class TestSstParams:
    def test_rejects_negative_theta(self):
        with pytest.raises(ParameterError):
            SstParams(-1.0, (0.0,) * 4)

    def test_rejects_negative_extremum(self):
        with pytest.raises(ParameterError):
            SstParams(0.0, (0.0, -1.0, 0.0, 0.0))

    def test_rejects_wrong_arity(self):
        for bounds in ((0.0,) * 3, (0.0,) * 5, (0.0,) * 6):
            with pytest.raises(ParameterError, match="exactly four peak bounds required"):
                SstParams(0.0, bounds)

    @pytest.mark.parametrize("theta, thresholds", [
        (math.nan, (0.0,) * 4),
        (0.0, (0.0, math.nan, 0.0, 0.0)),
    ])
    def test_rejects_nan(self, theta, thresholds):
        with pytest.raises(ParameterError, match="non-negative"):
            SstParams(theta, thresholds)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ParameterError):
            SstParams(0.0, (0.0,) * 4, estimator="map")

    def test_every_entry_rejects_an_unknown_estimator_alike(self):
        stats = BigramStats.from_corpus(["ABAB"])
        message = r"estimator must be one of \('mle', 'ele'\)"
        for make in (
            lambda: SstParams(0.0, (0.0,) * 4, estimator="map"),
            lambda: BigramStats(stats.unigrams, stats.bigrams, 4, estimator="map"),
            lambda: BigramStats.from_corpus(["ABAB"], estimator="map"),
            lambda: stats.using("map"),
            lambda: load_stats(io.StringIO("tango-bigrams v1\ntotal_chars 1\n1\t2\tA\n"), "map"),
        ):
            with pytest.raises(ParameterError, match=message):
                make()

    def test_params_file_roundtrip(self, tmp_path):
        params = SstParams(2.5, (50.0, 100.0, 150.0, 200.0), "ele")
        path = tmp_path / "sst.params"
        write_sst_params(params, path)
        assert read_sst_params(path) == params

    @pytest.mark.parametrize("key", ["estimater", "e7"])
    def test_params_file_unknown_key_refused_at_its_line(self, key):
        # a misspelt estimator key must not fall back to mle unnoticed
        payload = "theta=1\n" + "".join(f"{b}=0\n" for b in PEAK_BOUNDS) + f"{key}=ele\n"
        with pytest.raises(FormatError) as exc:
            read_sst_params(io.StringIO(payload))
        assert str(exc.value) == f"unknown parameter {key!r} (line 6)"

    def test_params_file_missing_threshold_refused(self):
        payload = "theta=1\nprimary_rise=0\nsecondary_rise=0\nsecondary_fall=0\n"
        with pytest.raises(FormatError) as exc:
            read_sst_params(io.StringIO(payload))
        assert str(exc.value) == "missing parameter 'primary_fall'"

    def test_params_file_written_losslessly(self, tmp_path):
        # six significant digits would write primary_rise=1.23457e+06, another float
        params = SstParams(0.1234567, (1234567.0, 0.0, 50.0, 0.0))
        path = tmp_path / "sst.params"
        write_sst_params(params, path)
        assert path.read_text() == ("theta=0.1234567\nprimary_rise=1234567\nprimary_fall=0\n"
                                    "secondary_rise=50\nsecondary_fall=0\nestimator=mle\n")
        assert read_sst_params(path) == params

    def test_params_file_repeated_key_rejected(self):
        payload = "theta=1\ntheta=2\n" + "".join(f"{b}=0\n" for b in PEAK_BOUNDS)
        with pytest.raises(FormatError, match=r"duplicate key 'theta' \(line 2\)"):
            read_sst_params(io.StringIO(payload))


class TestStatsFile:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ParameterError):
            BigramStats.from_corpus([])

    def test_roundtrip(self, tmp_path):
        stats = BigramStats.from_corpus(["ABAB", "BCBC"])
        path = tmp_path / "c.big"
        save_stats(stats, path)
        loaded = load_stats(path)
        assert loaded.unigrams == stats.unigrams
        assert loaded.bigrams == stats.bigrams
        assert loaded.total_chars == stats.total_chars

    def test_duplicate_gram_rejected(self):
        payload = "tango-bigrams v1\ntotal_chars 4\n1\t2\tA\n1\t2\tB\n1\t1\tA\n"
        with pytest.raises(FormatError, match=r"duplicate gram 'A' \(line 5\)"):
            load_stats(io.StringIO(payload))

    @pytest.mark.parametrize("entries", [
        "1\t2\tB\n1\t2\tA\n",  # grams decreasing within an order
        "2\t2\tAB\n1\t2\tA\n",  # order 2 before order 1
    ])
    def test_out_of_order_entries_rejected(self, entries):
        payload = "tango-bigrams v1\ntotal_chars 4\n" + entries
        with pytest.raises(FormatError, match=r"out of order.*\(line 4\)"):
            load_stats(io.StringIO(payload))

    def test_lone_surrogate_rejected_before_writing(self):
        stats = BigramStats.from_corpus(["\ud800ab\ud800ab"])
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match=r"'\\ud800'"):
            save_stats(stats, buf)
        assert buf.getvalue() == b""

    @pytest.mark.parametrize("separator", ["\t", "\n", "\r"])
    def test_unstorable_character_rejected_before_writing(self, separator):
        stats = BigramStats.from_corpus(["ab" + separator + "ab"])
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match="tab, newline or CR"):
            save_stats(stats, buf)
        assert buf.getvalue() == b""

    def test_negative_total_chars_rejected_before_writing(self):
        stats = BigramStats(Counter({"A": 2}), Counter(), -1)
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match="total_chars must be >= 0"):
            save_stats(stats, buf)
        assert buf.getvalue() == b""

    def test_count_that_is_not_an_int_rejected_before_writing(self):
        stats = BigramStats(Counter({"A": 2.0}), Counter(), 2)
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match=r"gram 'A' has count 2\.0, not an int"):
            save_stats(stats, buf)
        assert buf.getvalue() == b""

    @pytest.mark.parametrize("count", ["+2", "2.0", "\uff12", "1" * 19])
    def test_counts_take_one_to_eighteen_ascii_digits(self, count):
        payload = f"tango-bigrams v1\ntotal_chars 4\n1\t2\tA\n1\t{count}\tB\n"
        with pytest.raises(FormatError, match=r"^non-integer order or count \(line 4\)$"):
            load_stats(io.StringIO(payload))

    @pytest.mark.parametrize("value", ["+5", "5_0", "\u0665"])
    def test_total_chars_takes_one_to_eighteen_ascii_digits(self, value):
        payload = f"tango-bigrams v1\ntotal_chars {value}\n1\t2\tA\n"
        with pytest.raises(FormatError, match=r"^bad total_chars value \(line 2\)$"):
            load_stats(io.StringIO(payload))

    def test_negative_total_chars_rejected(self):
        with pytest.raises(FormatError, match="line 2"):
            load_stats(io.StringIO("tango-bigrams v1\ntotal_chars -1\n1\t2\tA\n"))

    def test_peak_rule_bounds(self):
        def rule(primary, secondary, bounds):
            # one position with rise 60 and fall 40
            features = ([primary], [secondary], [60.0], [40.0])
            [passed] = _peak_test(*map(np.array, features), bounds)
            return passed

        assert rule(True, True, (50.0, 40.0, 200.0, 200.0))
        assert not rule(True, True, (50.0, 45.0, 200.0, 200.0))
        assert rule(False, True, (200.0,) * 2 + (0.0,) * 2)
        assert not rule(False, True, (0.0,) * 2 + (200.0,) * 2)
