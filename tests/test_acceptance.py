"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are stated inline; boundary sets and counts are exact.
"""

import random
import time

import pytest

from tangoseg import (
    BigramStats,
    Corpus,
    FlatSegmentation,
    ParameterError,
    TangoParams,
    VoteProfile,
    build_table,
    dts_terms,
    generate_corpus,
    make_zipf_lexicon,
    mutual_information,
    parse_annotation,
    parse_flat,
    place_boundaries,
    score_set,
    segment,
    sst_segment,
    tango_grid,
    train_sst,
    train_tango,
)
from tangoseg.metrics import _prf

from naive import (
    NaiveBigramModel,
    naive_boundaries,
    naive_counts,
    naive_total_votes,
    pruned_lookup,
)


def ok(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_error_figure_fixture():
    """All sixteen word/morpheme error counts plus crossing and
    morpheme-dividing counts of the four fixture predictions, exactly."""
    gold = parse_annotation("[[data][base]][system]")
    rows = [
        ("|database|system|", (0, 0), (1, 2), 0, 0),
        ("|data|base|system|", (2, 1), (0, 0), 0, 0),
        ("|data|basesystem|", (2, 2), (1, 2), 1, 0),
        ("|database|sys|tem|", (2, 1), (3, 3), 0, 2),
    ]
    for line, word_errors, morpheme_errors, crossing, dividing in rows:
        s = score_set([(parse_flat(line), gold)]).per_sequence[0]
        assert (s.word_precision_errors, s.word_recall_errors) == word_errors
        assert (s.morpheme_precision_errors, s.morpheme_recall_errors) == morpheme_errors
        assert s.crossing == crossing
        assert s.morpheme_dividing == dividing
    ok("error-figure fixture reproduced exactly")


def test_count_oracle_equivalence():
    """build_table equals naive O(m*n) counting on 200 random corpora,
    every key, exact; stored counts are never singletons."""
    rng = random.Random(2024)
    deadline = time.time() + 60
    for case in range(200):
        alphabet = [chr(ord("a") + i) for i in range(rng.randint(3, 30))]
        total = 10_000 if case < 5 else rng.randint(100, 4_000)
        sequences = []
        chars = 0
        while chars < total:
            length = rng.randint(1, 40)
            sequences.append("".join(rng.choice(alphabet) for _ in range(length)))
            chars += length
        table = build_table(Corpus(sequences), range(2, 7))
        for n in range(2, 7):
            expected = {g: c for g, c in naive_counts(sequences, n).items() if c >= 2}
            got = {g: c for g, c in table.counts.items() if len(g) == n}
            assert got == expected
        assert all(c >= 2 for c in table.counts.values())
    assert time.time() < deadline
    ok("count-oracle equivalence on 200 random corpora")


def test_vote_oracle_equivalence():
    """segment equals a direct naive transcription of the voting and
    placement rules on 500 random (corpus, sequence, N, t) instances;
    boundary sets compared exactly."""
    rng = random.Random(4096)
    deadline = time.time() + 60
    instances = 0
    while instances < 500:
        alphabet = [chr(ord("A") + i) for i in range(rng.randint(2, 8))]
        sequences = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 25)))
            for _ in range(rng.randint(5, 40))
        ]
        table = build_table(Corpus(sequences), range(2, 7))
        look = pruned_lookup(sequences, range(2, 7))
        for _ in range(5):
            seq = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 15)))
            orders = frozenset(rng.sample((2, 3, 4, 5, 6), rng.randint(1, 5)))
            t = rng.choice([i / 20 for i in range(1, 21)])
            votes = naive_total_votes(seq, orders, look)
            expected = naive_boundaries(votes, t)
            got = segment(seq, TangoParams(orders, t), table)
            assert set(got.boundaries) == expected, (seq, sorted(orders), t)
            instances += 1
    assert time.time() < deadline
    ok("vote-oracle equivalence on 500 random instances")


def test_threshold_monotonicity_and_condition_union():
    """On 1000 random vote profiles: raising t never adds boundaries, and
    both-conditions output is exactly the union of the single-condition
    outputs.  Exact."""
    rng = random.Random(512)
    deadline = time.time() + 5
    for _ in range(1000):
        length = rng.randint(2, 20)
        votes = [
            rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, rng.random()))
            for _ in range(length - 1)
        ]
        profile = VoteProfile("x" * length, votes)

        def boundaries(t, lm, th):
            params = TangoParams(frozenset({2}), t, use_local_max=lm, use_threshold=th)
            return set(place_boundaries(profile, params).boundaries)

        t1, t2 = sorted((rng.random(), rng.random()))
        assert boundaries(t2, False, True) <= boundaries(t1, False, True)
        t = rng.random()
        assert boundaries(t, True, True) == (
            boundaries(t, True, False) | boundaries(t, False, True)
        )
    assert time.time() < deadline
    ok("threshold monotonicity and condition union on 1000 profiles")


def test_trainer_argmax_property():
    """train_tango's winner re-scored over all 620 settings is a maximum,
    and the tie-break prefers smaller order sets and larger thresholds."""
    deadline = time.time() + 120
    lexicon = make_zipf_lexicon(25, 6, seed=300)
    raw, _ = generate_corpus(lexicon, target_chars=40_000, seed=301)
    table = build_table(Corpus(raw), range(2, 7))
    _, train_anns = generate_corpus(lexicon, sequences=20, seed=302)

    result = train_tango(train_anns, table, "word-f")
    best_score = None
    for subset, t in tango_grid():
        params = TangoParams(frozenset(subset), t)
        matched = proposed = gold = 0
        for ann in train_anns:
            pred = segment(ann.sequence, params, table)
            golds = set(ann.words)
            matched += len(set(pred.brackets) & golds)
            proposed += len(pred.brackets)
            gold += len(golds)
        score = _prf(matched, proposed, gold)[2]
        assert score <= result.score, (subset, t, score)
        if best_score is None or score > best_score[1]:
            best_score = (params, score)
    assert result.params == best_score[0]
    assert result.score == best_score[1]

    # tie-break: with an all-singleton table every setting ties, so the
    # smallest order set and the largest threshold must win
    tied_table = build_table(Corpus(["QRSTUVW"]), range(2, 7))
    tied = train_tango(train_anns, tied_table, "word-f")
    assert sorted(tied.params.orders) == [2]
    assert tied.params.threshold == 1.0
    assert time.time() < deadline
    ok("trainer argmax and tie-break over all 620 grid points")


def test_sst_formula_checks():
    """mi is exactly 0 under exact independence; dts is exactly 0 for
    symmetric contexts; mi and dts match a term-by-term oracle on 500
    random contexts within 1e-9."""
    deadline = time.time() + 10
    independent = BigramStats.from_corpus(["AA", "AB", "BA", "BB"])
    for d in "AB":
        for w in "AB":
            assert mutual_information(independent, d, w) == 0.0

    symmetric = BigramStats.from_corpus(["ABCD"] * 3 + ["BADC"] * 2)
    assert dts_terms(symmetric, "A", "B", "C", "D").value == 0.0

    rng = random.Random(768)
    checked = 0
    while checked < 500:
        alphabet = [chr(ord("A") + i) for i in range(rng.randint(3, 10))]
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 30)))
            for _ in range(rng.randint(5, 30))
        ]
        estimator = rng.choice(("mle", "ele"))
        stats = BigramStats.from_corpus(lines, estimator)
        oracle = NaiveBigramModel(lines, estimator)
        for _ in range(10):
            c, d, w, x = (rng.choice(alphabet) for _ in range(4))
            got_mi = mutual_information(stats, d, w)
            want_mi = oracle.mi(d, w)
            if want_mi == float("-inf"):
                assert got_mi == want_mi
            else:
                assert got_mi == pytest.approx(want_mi, abs=1e-9)
            assert dts_terms(stats, c, d, w, x).value == pytest.approx(
                oracle.dts(c, d, w, x), abs=1e-9
            )
            checked += 1
    assert time.time() < deadline
    ok("sst formula checks against the term-by-term oracle")


@pytest.fixture(scope="module")
def benchmark_setup():
    lexicon = make_zipf_lexicon(50, 10, seed=100)
    raw, _ = generate_corpus(lexicon, target_chars=1_000_000, seed=101)
    _, train_anns = generate_corpus(lexicon, sequences=5, seed=102)
    _, test_anns = generate_corpus(lexicon, sequences=200, seed=103)
    return raw, train_anns, test_anns


def test_end_to_end_synthetic_benchmark(benchmark_setup):
    """Trained voting segmenter beats a density-matched random-boundary
    baseline by at least 20 word-F points and beats the trained bigram
    baseline, on 200 held-out synthetic sequences."""
    started = time.time()
    raw, train_anns, test_anns = benchmark_setup
    table = build_table(Corpus(raw), range(2, 7))

    trained = train_tango(train_anns, table, "word-f")
    pairs = [(segment(a.sequence, trained.params, table), a) for a in test_anns]
    tango_f = score_set(pairs).word_f

    locations = sum(len(a.sequence) - 1 for a in test_anns)
    density = sum(len(a.words) - 1 for a in test_anns) / locations
    random_fs = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        random_pairs = []
        for a in test_anns:
            bounds = tuple(
                k for k in range(1, len(a.sequence)) if rng.random() < density
            )
            random_pairs.append((FlatSegmentation(a.sequence, bounds), a))
        random_fs.append(score_set(random_pairs).word_f)
    random_f = sum(random_fs) / len(random_fs)

    stats = BigramStats.from_corpus(raw)
    sst_trained = train_sst(train_anns, stats, "word-f")
    sst_pairs = [(sst_segment(a.sequence, sst_trained.params, stats), a) for a in test_anns]
    sst_f = score_set(sst_pairs).word_f

    print(
        f"\nbenchmark: tango word-F {tango_f:.2f}, random baseline {random_f:.2f}, "
        f"sst word-F {sst_f:.2f} ({time.time() - started:.0f}s)"
    )
    assert tango_f >= random_f + 20.0
    assert tango_f > sst_f
    assert time.time() - started < 600
    ok("end-to-end synthetic benchmark margins")


def test_degenerate_optimization_warning():
    """A whole-sequence single-bracket predictor scores 100 on both
    compatible-brackets rates, and the trainer refuses those criteria."""
    gold = [
        parse_annotation("[[data][base]][system]"),
        parse_annotation("[[a][b]][cd][[e][fg]]"),
    ]
    pairs = [(FlatSegmentation(g.sequence, ()), g) for g in gold]
    report = score_set(pairs)
    assert (report.compatible_rate, report.all_compatible_rate) == (100.0, 100.0)

    lexicon = make_zipf_lexicon(5, 1, seed=400)
    raw, _ = generate_corpus(lexicon, sequences=30, seed=401)
    table = build_table(Corpus(raw), range(2, 7))
    stats = BigramStats.from_corpus(raw)
    _, anns = generate_corpus(lexicon, sequences=3, seed=402)
    for criterion in ("compatible-rate", "all-compatible-rate", "compatible-brackets"):
        with pytest.raises(ParameterError, match="not admissible"):
            train_tango(anns, table, criterion)
        with pytest.raises(ParameterError, match="not admissible"):
            train_sst(anns, stats, criterion)
    ok("degenerate compatible-brackets optimization rejected")
