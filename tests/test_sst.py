import io
import math
import random

import pytest

from tangoseg import (
    BigramStats,
    FormatError,
    ParameterError,
    SstParams,
    UndefinedStatisticError,
    dts,
    dts_profile,
    dts_terms,
    extremum_features,
    load_stats,
    mutual_information,
    prominence_extremum_rule,
    read_sst_params,
    save_stats,
    sst_segment,
    write_sst_params,
)

from naive import NaiveBigramModel


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
                assert dts(stats, c, d, w, x) == pytest.approx(
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

    def test_unseen_conditioning_character_raises_under_mle(self):
        stats = BigramStats.from_corpus(["ABAB"])
        with pytest.raises(UndefinedStatisticError):
            dts(stats, "A", "Z", "B", "A")


class TestExtremumFeatures:
    def test_interior_peak(self):
        feats = extremum_features([0.0, 3.0, 1.0])
        assert feats[1] == (True, True, 3.0, 2.0)

    def test_plateau_is_secondary_only(self):
        feats = extremum_features([0.0, 2.0, 2.0, 0.0])
        assert feats[1].primary is False
        assert feats[1].secondary is True
        assert feats[2].secondary is True

    def test_endpoint_uses_single_neighbour(self):
        feats = extremum_features([5.0, 3.0])
        assert feats[0].primary is True
        assert feats[0].rise == 0.0
        assert feats[0].fall == 2.0
        assert feats[1].primary is False

    def test_single_position_never_a_peak(self):
        assert extremum_features([9.9]) == [(False, False, 0.0, 0.0)]

    def test_rise_measured_to_nearest_minimum(self):
        feats = extremum_features([0.0, 4.0, 2.0, 5.0, 1.0])
        assert feats[3].rise == 3.0
        assert feats[3].fall == 4.0

    def test_rise_and_fall_nonnegative_at_weak_maxima(self):
        rng = random.Random(73)
        for _ in range(300):
            values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 12))]
            for f in extremum_features(values):
                if f.secondary:
                    assert f.rise >= 0.0
                    assert f.fall >= 0.0


class TestSstSegment:
    def test_theta_zero_blocks_cohesive_pairs(self):
        # every adjacent pair in the corpus pattern has positive mi
        stats = BigramStats.from_corpus(["ABCD"] * 6)
        params = SstParams(0.0, (0.0,) * 6)
        assert sst_segment("ABCD", params, stats).boundaries == ()

    def test_zero_thresholds_mark_every_weak_peak(self):
        rng = random.Random(79)
        lines = ["".join(rng.choice("ABCDE") for _ in range(20)) for _ in range(40)]
        stats = BigramStats.from_corpus(lines)
        params = SstParams(5.0, (0.0,) * 6)
        for _ in range(20):
            seq = "".join(rng.choice("ABCDE") for _ in range(12))
            values = dts_profile(seq, stats)
            feats = extremum_features(values)
            expected = tuple(
                i + 2
                for i, f in enumerate(feats)
                if f.secondary and mutual_information(stats, seq[i + 1], seq[i + 2]) < 5.0
            )
            assert sst_segment(seq, params, stats).boundaries == expected

    def test_short_sequences_come_back_whole(self):
        stats = BigramStats.from_corpus(["ABCD"] * 6)
        params = SstParams(5.0, (0.0,) * 6)
        for seq in ("A", "AB", "ABC", "ABCD"):
            assert sst_segment(seq, params, stats).segments == (seq,)

    def test_estimator_choice_in_params_is_applied(self):
        stats = BigramStats.from_corpus(["ABAB", "CDCD"])
        params = SstParams(5.0, (0.0,) * 6, estimator="ele")
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
            for es in ((0.0,) * 6, (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)):
                for seq in seqs:
                    a = sst_segment(seq, SstParams(theta, es, "mle"), mle)
                    b = sst_segment(seq, SstParams(theta, es, "ele"), ele)
                    assert a.boundaries == b.boundaries

    def test_custom_extremum_rule_is_honoured(self):
        stats = BigramStats.from_corpus(["ABCDE"] * 4 + ["EDCBA"] * 3)
        params = SstParams(5.0, (0.0,) * 6)
        everything = lambda feature, thresholds: True
        seg = sst_segment("ABCDE", params, stats, extremum_rule=everything)
        expected = tuple(
            k for k in (2, 3) if mutual_information(stats, "ABCDE"[k - 1], "ABCDE"[k]) < 5.0
        )
        assert seg.boundaries == expected


class TestSstParams:
    def test_rejects_negative_theta(self):
        with pytest.raises(ParameterError):
            SstParams(-1.0, (0.0,) * 6)

    def test_rejects_negative_extremum(self):
        with pytest.raises(ParameterError):
            SstParams(0.0, (0.0, 0.0, -1.0, 0.0, 0.0, 0.0))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ParameterError):
            SstParams(0.0, (0.0,) * 5)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ParameterError):
            SstParams(0.0, (0.0,) * 6, estimator="map")

    def test_params_file_roundtrip(self, tmp_path):
        params = SstParams(2.5, (0.0, 50.0, 100.0, 150.0, 200.0, 0.0), "ele")
        path = tmp_path / "sst.params"
        write_sst_params(params, path)
        assert read_sst_params(path) == params


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

    def test_negative_total_chars_rejected(self):
        with pytest.raises(FormatError, match="line 2"):
            load_stats(io.StringIO("tango-bigrams v1\ntotal_chars -1\n1\t2\tA\n"))

    def test_prominence_rule_thresholds(self):
        from tangoseg import ExtremumFeatures

        peak = ExtremumFeatures(True, True, 60.0, 40.0)
        assert prominence_extremum_rule(peak, (40.0, 50.0, 30.0, 200.0, 200.0, 200.0))
        assert not prominence_extremum_rule(peak, (45.0, 50.0, 30.0, 200.0, 200.0, 200.0))
        secondary_only = ExtremumFeatures(False, True, 60.0, 40.0)
        assert prominence_extremum_rule(secondary_only, (200.0,) * 3 + (0.0,) * 3)
        assert not prominence_extremum_rule(secondary_only, (0.0,) * 3 + (200.0,) * 3)
