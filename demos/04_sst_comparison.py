"""Count-comparison voting versus bigram mutual information and t-scores.

Both segmenters learn from the same unsegmented corpus and the same five
annotated sequences.  The bigram baseline thresholds the pointwise mutual
information of each character pair and looks for peaks in the difference
of t-scores across each gap; the voting segmenter just compares n-gram
counts.  The script trains both and compares held-out scores, along with a
random-boundary baseline matched to the gold boundary density.
"""

import random

from tangoseg import (
    BigramStats,
    Corpus,
    FlatSegmentation,
    build_table,
    generate_corpus,
    make_zipf_lexicon,
    score_set,
    segment,
    sst_segment,
    train_sst,
    train_tango,
)

lexicon = make_zipf_lexicon(n_stems=40, n_suffixes=8, seed=7)
raw, _ = generate_corpus(lexicon, target_chars=200_000, seed=8)
_, train_anns = generate_corpus(lexicon, sequences=5, seed=9)
_, test_anns = generate_corpus(lexicon, sequences=150, seed=13)

table = build_table(Corpus(raw), range(2, 7))
tango = train_tango(train_anns, table, "word-f")
tango_pairs = [(segment(a.sequence, tango.params, table), a) for a in test_anns]

stats = BigramStats.from_corpus(raw)
sst = train_sst(train_anns, stats, "word-f")
sst_pairs = [(sst_segment(a.sequence, sst.params, stats), a) for a in test_anns]

density = sum(len(a.words) - 1 for a in test_anns) / sum(
    len(a.sequence) - 1 for a in test_anns
)
rng = random.Random(0)
random_pairs = [
    (
        FlatSegmentation(
            a.sequence,
            tuple(k for k in range(1, len(a.sequence)) if rng.random() < density),
        ),
        a,
    )
    for a in test_anns
]

print(f"voting segmenter: N={sorted(tango.params.orders)} t={tango.params.threshold:g}")
print(f"bigram baseline:  theta={sst.params.theta:g} "
      f"peak bounds={[f'{e:g}' for e in sst.params.peak_bounds]}")
print(f"random baseline:  boundary probability {density:.3f}\n")

print(f"{'system':<18}{'word-P':>8}{'word-R':>8}{'word-F':>8}{'compat%':>9}{'all-compat%':>12}")
for label, pairs in (("voting", tango_pairs), ("bigram mi/dts", sst_pairs),
                     ("random", random_pairs)):
    r = score_set(pairs)
    print(f"{label:<18}{r.word_precision:>8.2f}{r.word_recall:>8.2f}{r.word_f:>8.2f}"
          f"{r.compatible_rate:>9.2f}{r.all_compatible_rate:>12.2f}")
