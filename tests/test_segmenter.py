import random

import numpy as np
import pytest

from tangoseg import (
    BigramStats,
    Corpus,
    NGramTable,
    ParameterError,
    SstParams,
    TangoParams,
    UnsupportedOrderError,
    VoteProfile,
    build_table,
    place_boundaries,
    segment,
    sst_segment,
    vote_profile,
)
import tangoseg.segmenter as segmenter
from tangoseg.segmenter import _gap_counts, _mean_votes, _plan

from naive import naive_boundaries, naive_order_vote, naive_total_votes, pruned_lookup


def both(t):
    return TangoParams(frozenset({2}), t)


class TestOrderVote:
    def test_all_equal_counts_vote_zero(self):
        # empty table: every lookup is 1, strict comparison never holds
        table = NGramTable({2, 3}, {}, 0)
        for n in (2, 3):
            assert vote_profile("ABCDEFGH", {n}, table).votes == [0.0] * 7

    def test_separator_location_unanimous(self, toy_table):
        # ABCD and WXYZ each seen 9 times, straddling 4-grams unseen
        assert vote_profile("ABCDWXYZ", {4}, toy_table).votes[3] == 1.0
        affirmative, plan = _gap_counts("ABCDWXYZ", (4,), toy_table)
        assert (affirmative[0][3], plan.comparisons[0][3]) == (6, 6)

    def test_edge_gap_uses_existing_grams_only(self):
        table = build_table(Corpus(["BCBC", "ABX"]), {2})
        # at gap 1 of ABCD only the right 2-gram exists; one comparison
        affirmative, plan = _gap_counts("ABCD", (2,), table)
        assert plan.comparisons[0][0] == 1
        assert affirmative[0][0] == int(table.count("BC") > table.count("AB"))

    def test_no_pairs_returns_zero(self):
        table = NGramTable({2}, {}, 0)
        affirmative, plan = _gap_counts("AB", (2,), table)
        assert (affirmative.tolist(), plan.comparisons.tolist()) == ([[0]], [[0]])
        assert vote_profile("AB", {2}, table).votes == [0.0]

    def test_unsupported_order(self, toy_table):
        with pytest.raises(UnsupportedOrderError):
            vote_profile("ABCDWXYZ", {7}, toy_table)

    def test_votes_bounded(self, toy_table):
        rng = random.Random(5)
        for _ in range(200):
            seq = "".join(rng.choice("ABCDWXYZ") for _ in range(rng.randint(2, 12)))
            k = rng.randint(1, len(seq) - 1)
            n = rng.choice((2, 3, 4))
            assert 0.0 <= vote_profile(seq, {n}, toy_table).votes[k - 1] <= 1.0


class TestPlanCache:
    def test_long_sequence_matches_oracle(self):
        rng = random.Random(41)
        corpus = ["".join(rng.choice("ABCDE") for _ in range(rng.randint(2, 12))) for _ in range(300)]
        table = build_table(Corpus(corpus), range(2, 7))
        look = pruned_lookup(corpus, range(2, 7))
        seq = "".join(rng.choice("ABCDE") for _ in range(3000))
        profile = vote_profile(seq, range(2, 7), table, keep_per_order=True)
        assert profile.votes == naive_total_votes(seq, range(2, 7), look)
        for n in range(2, 7):
            expected = [naive_order_vote(seq, k, n, look) for k in range(1, len(seq))]
            assert profile.per_order[n] == [0.0 if v is None else v for v in expected]

    def test_plan_arrays_refuse_writes(self):
        for array in _plan(9, (2, 3)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7

    def test_cache_is_bounded(self):
        assert _plan.cache_info().maxsize is not None

    def test_votes_are_plain_floats(self, toy_table):
        profile = vote_profile("ABCDWXYZ", {2, 4}, toy_table, keep_per_order=True)
        values = profile.votes + profile.per_order[2] + profile.per_order[4]
        assert {type(v) for v in values} == {float}

    def test_empty_sequence_refused_before_any_plan(self, toy_table, monkeypatch):
        def no_plan(*args):
            raise AssertionError("plan built")

        monkeypatch.setattr(segmenter, "_plan", no_plan)
        with pytest.raises(ValueError, match="^segmentation over an empty sequence$"):
            vote_profile("", (2, 3), toy_table)


class TestTotalVote:
    def test_singleton_order_equals_order_vote(self, toy_table):
        profile = vote_profile("ABCDWXYZ", {4}, toy_table, keep_per_order=True)
        assert profile.votes == profile.per_order[4]

    def test_mean_of_order_votes(self):
        # n=2 vote 1.0 (CD, WX both beat the unseen DW); n=4 vote 3/6:
        # ABCD=9 beats BCDW(1), CDWX(5), loses to DWXY(99); WXYZ=2 beats BCDW only
        counts = {
            "CD": 9, "WX": 9,
            "ABCD": 9, "WXYZ": 2,
            "CDWX": 5, "DWXY": 99,
        }
        table = NGramTable({2, 4}, counts, 200)
        profile = vote_profile("ABCDWXYZ", {2, 4}, table, keep_per_order=True)
        assert profile.per_order[2][3] == 1.0
        assert profile.per_order[4][3] == 0.5
        assert profile.votes[3] == 0.75

    @pytest.mark.parametrize("width", [1, 2, 3, 9, 129])
    def test_mean_votes_add_row_after_row(self, width):
        # numpy may sum 8 or more rows pairwise, which rounds otherwise
        rng = np.random.default_rng(width)
        for height in range(1, 14):
            for trial in range(40):
                comparisons = rng.integers(1, 9, (13, width))
                pool = rng.integers(0, comparisons + 1) / comparisons  # votes as the kernel makes
                if trial % 2:
                    pool = np.asfortranarray(rng.random((13, width)))
                pick = sorted(rng.choice(13, height, replace=False))  # as train_tango takes them
                rows = rng.integers(1, height + 1, width)  # orders with evidence
                for votes in (pool[:height], pool[pick]):
                    means = []
                    for column, r in zip(votes.T.tolist(), rows.tolist()):
                        total = column[0]
                        for v in column[1:]:
                            total += v
                        means.append(total / r)
                    assert _mean_votes(votes, rows).tobytes() == np.array(means).tobytes()

    def test_orders_without_evidence_excluded(self, toy_table):
        # order 6 never fits a 3-char sequence; order 2 stands alone
        short = vote_profile("ABC", {2, 6}, toy_table)
        only2 = vote_profile("ABC", {2}, toy_table)
        assert short.votes == only2.votes

    def test_no_evidence_at_all_zero(self, toy_table):
        assert vote_profile("AB", {6}, toy_table).votes == [0.0]

    def test_order_not_in_table(self, toy_table):
        with pytest.raises(UnsupportedOrderError, match=r"\[7\]"):
            segment("ABCD", TangoParams(frozenset({2, 7}), 0.5), toy_table)

    def test_matches_naive_formula_on_random_sequences(self, toy_table):
        rng = random.Random(11)
        look = pruned_lookup(["ABCD"] * 9 + ["WXYZ"] * 9, range(2, 7))
        for _ in range(100):
            seq = "".join(rng.choice("ABCDWXYZ") for _ in range(12))
            orders = frozenset(rng.sample((2, 3), rng.randint(1, 2)))
            expected = naive_total_votes(seq, orders, look)
            got = vote_profile(seq, orders, toy_table).votes
            assert got == expected


class TestPlaceBoundaries:
    def test_threshold_and_local_max_pattern(self):
        # threshold fires at gaps 2, 6, 7; local max at 2, 4, 7
        profile = VoteProfile("ABCDWXYZ", [0.2, 0.7, 0.3, 0.5, 0.4, 0.6, 0.65])
        params = TangoParams(frozenset({2}), 0.6)
        assert place_boundaries(profile, params).boundaries == (2, 4, 6, 7)

    def test_flat_profile_places_nothing(self):
        profile = VoteProfile("ABCD", [0.3, 0.3, 0.3])
        assert place_boundaries(profile, both(0.5)).boundaries == ()

    def test_threshold_allows_adjacent_boundaries(self):
        profile = VoteProfile("ABC", [0.9, 0.9])
        assert place_boundaries(profile, both(0.5)).boundaries == (1, 2)
        local_only = TangoParams(frozenset({2}), 0.5, use_threshold=False)
        assert place_boundaries(profile, local_only).boundaries == ()

    def test_single_gap_is_not_a_local_max(self):
        profile = VoteProfile("AB", [0.9])
        local_only = TangoParams(frozenset({2}), 0.5, use_threshold=False)
        assert place_boundaries(profile, local_only).boundaries == ()
        assert place_boundaries(profile, both(0.5)).boundaries == (1,)

    def test_endpoint_local_max_uses_single_neighbour(self):
        profile = VoteProfile("ABC", [0.5, 0.3])
        local_only = TangoParams(frozenset({2}), 1.0, use_threshold=False)
        assert place_boundaries(profile, local_only).boundaries == (1,)

    def test_threshold_monotone_and_union(self):
        rng = random.Random(23)
        for _ in range(300):
            length = rng.randint(2, 15)
            votes = [rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, rng.random()))
                     for _ in range(length - 1)]
            profile = VoteProfile("x" * length, votes)
            t1, t2 = sorted((rng.random(), rng.random()))
            thr_only = lambda t: set(
                place_boundaries(
                    profile, TangoParams(frozenset({2}), t, use_local_max=False)
                ).boundaries
            )
            assert thr_only(t2) <= thr_only(t1)
            t = rng.random()
            lm_only = set(
                place_boundaries(
                    profile, TangoParams(frozenset({2}), t, use_threshold=False)
                ).boundaries
            )
            union = set(place_boundaries(profile, both(t)).boundaries)
            assert union == lm_only | thr_only(t)


class TestSegment:
    def test_zero_threshold_fully_splits(self, toy_table):
        params = TangoParams(frozenset({2, 3}), 0.0)
        seg = segment("ABCDWXYZ", params, toy_table)
        assert seg.boundaries == tuple(range(1, 8))
        assert all(len(s) == 1 for s in seg.segments)

    def test_single_character_sequence(self, toy_table):
        seg = segment("A", TangoParams(frozenset({2}), 0.5), toy_table)
        assert seg.boundaries == ()
        assert seg.segments == ("A",)

    def test_no_evidence_sequence_comes_back_whole(self, toy_table):
        seg = segment("AB", TangoParams(frozenset({6}), 0.5), toy_table)
        assert seg.segments == ("AB",)

    def test_no_evidence_sequence_splits_at_zero_threshold(self, toy_table):
        # zero votes still meet t = 0, the one way such sequences split
        seg = segment("AB", TangoParams(frozenset({6}), 0.0), toy_table)
        assert seg.segments == ("A", "B")

    def test_empty_sequence_refused_like_sst(self, toy_table):
        stats = BigramStats.from_corpus(["ABCD"])
        for call in (lambda: segment("", both(0.5), toy_table),
                     lambda: vote_profile("", (2, 3), toy_table),
                     lambda: sst_segment("", SstParams(0.0, (0,) * 4), stats)):
            with pytest.raises(ValueError, match="^segmentation over an empty sequence$"):
                call()

    def test_matches_naive_transcription(self, toy_table):
        rng = random.Random(29)
        look = pruned_lookup(["ABCD"] * 9 + ["WXYZ"] * 9, range(2, 7))
        for _ in range(100):
            seq = "".join(rng.choice("ABCDWXYZ") for _ in range(rng.randint(1, 12)))
            orders = frozenset(rng.sample((2, 3, 4), rng.randint(1, 3)))
            t = rng.choice([i / 20 for i in range(1, 21)])
            votes = naive_total_votes(seq, orders, look)
            expected = naive_boundaries(votes, t)
            got = segment(seq, TangoParams(orders, t), toy_table)
            assert set(got.boundaries) == expected

    def test_locality_of_votes(self, toy_table):
        rng = random.Random(31)
        orders = (2, 3, 4)
        max_n = max(orders)
        for _ in range(100):
            seq = list("".join(rng.choice("ABCDWXYZ") for _ in range(14)))
            k = rng.randint(1, len(seq) - 1)
            before = vote_profile("".join(seq), orders, toy_table).votes[k - 1]
            # edit a character more than max(N) positions from the gap
            far = [j for j in range(1, len(seq) + 1)
                   if j <= k - max_n or j >= k + max_n + 1]
            if not far:
                continue
            j = rng.choice(far)
            seq[j - 1] = rng.choice("ABCDWXYZ")
            after = vote_profile("".join(seq), orders, toy_table).votes[k - 1]
            assert before == after


class TestTangoParams:
    def test_rejects_empty_orders(self):
        with pytest.raises(ParameterError):
            TangoParams(frozenset(), 0.5)

    def test_rejects_order_one(self):
        with pytest.raises(ParameterError):
            TangoParams(frozenset({1, 2}), 0.5)

    def test_rejects_out_of_range_threshold(self):
        with pytest.raises(ParameterError):
            TangoParams(frozenset({2}), 1.5)

    def test_rejects_both_conditions_off(self):
        with pytest.raises(ParameterError):
            TangoParams(frozenset({2}), 0.5, use_local_max=False, use_threshold=False)

    def test_profile_length_validated(self):
        with pytest.raises(ParameterError):
            VoteProfile("ABC", [0.1])
        with pytest.raises(ParameterError):
            VoteProfile("ABC", [0.1, 1.5])

    def test_profile_of_an_empty_sequence_refused(self):
        with pytest.raises(ValueError) as exc:
            VoteProfile("", [])
        assert str(exc.value) == "segmentation over an empty sequence"


class TestOrderSetRule:
    """Every entry that takes an order set refuses a bad one with one message."""

    @pytest.mark.parametrize("orders, got", [
        ([], "[]"), ([1], "[1]"), ([3, 1, 3], "[1, 3]"), ([2.0], "[2.0]"), (["2"], "['2']"),
    ])
    def test_one_message_for_each_bad_order_set(self, toy_table, orders, got):
        message = f"orders must be one or more integers >= 2, got {got}"
        for refuse in (lambda: TangoParams(orders, 0.5),
                       lambda: build_table(Corpus(["ABAB"]), orders),
                       lambda: vote_profile("ABAB", orders, toy_table)):
            with pytest.raises(ParameterError) as exc:
                refuse()
            assert str(exc.value) == message

    @pytest.mark.parametrize("orders", [[2, 65], [40000, 2]])
    def test_orders_above_the_bound_refused(self, toy_table, orders):
        message = f"orders must all be <= 64, got {sorted(orders)}"
        for prefix, refuse in (("", lambda: TangoParams(orders, 0.5)),
                               ("", lambda: build_table(Corpus(["ab" * 200]), orders)),
                               ("", lambda: vote_profile("ABAB", orders, toy_table)),
                               ("declared ", lambda: NGramTable(orders, {"ab": 2}, 4))):
            with pytest.raises(ParameterError) as exc:
                refuse()
            assert str(exc.value) == prefix + message
