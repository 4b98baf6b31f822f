"""Property tests: the vote kernel against the naive oracle, and table round trips."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from tangoseg import Corpus, NGramTable, build_table, order_vote_counts, vote_profile
from tangoseg.segmenter import _gap_counts

from naive import naive_order_vote, naive_total_votes, pruned_lookup


@st.composite
def vote_instances(draw):
    """(corpus, sequence, order subset of 2..6) over a 3- to 5-letter alphabet."""
    alphabet = "abcde"[: draw(st.integers(3, 5))]
    corpus = draw(st.lists(st.text(alphabet, min_size=1, max_size=14), min_size=1, max_size=25))
    seq = draw(st.text(alphabet, min_size=1, max_size=18))
    orders = draw(st.sets(st.integers(2, 6), min_size=1))
    return corpus, seq, orders


@settings(max_examples=300, deadline=None)
@given(vote_instances())
def test_vote_profile_matches_oracle(instance):
    corpus, seq, orders = instance
    table = build_table(Corpus(corpus), orders)
    look = pruned_lookup(corpus, orders)
    profile = vote_profile(seq, orders, table, keep_per_order=True)
    assert profile.votes == naive_total_votes(seq, orders, look)
    for n in orders:
        expected = [naive_order_vote(seq, k, n, look) for k in range(1, len(seq))]
        assert profile.per_order[n] == [0.0 if v is None else v for v in expected]


@settings(max_examples=200, deadline=None)
@given(vote_instances())
def test_order_vote_counts_reads_kernel_rows(instance):
    corpus, seq, orders = instance
    table = build_table(Corpus(corpus), orders)
    rows = _gap_counts(seq, sorted(orders), table)
    for n, row in zip(sorted(orders), rows):
        assert len(row) == len(seq) - 1
        assert [order_vote_counts(seq, k, n, table) for k in range(1, len(seq))] == row


# Any character the table format can hold: everything but tab, newline and
# CR, including the other code points str.splitlines() treats as breaks.
table_chars = st.characters(codec="utf-8", exclude_characters="\t\n\r")


@st.composite
def unicode_corpora(draw):
    # a small alphabet, so that grams repeat and survive pruning
    alphabet = draw(st.lists(table_chars, min_size=1, max_size=6, unique=True))
    return draw(st.lists(st.text(st.sampled_from(alphabet), min_size=1, max_size=20),
                         min_size=1, max_size=15))


@settings(max_examples=200, deadline=None)
@given(unicode_corpora(), st.sets(st.integers(2, 6), min_size=1))
def test_table_save_load_roundtrip(corpus, orders):
    table = build_table(Corpus(corpus), orders)
    first = io.BytesIO()
    table.save(first)
    loaded = NGramTable.load(io.BytesIO(first.getvalue()))
    assert loaded == table
    again = io.BytesIO()
    loaded.save(again)
    assert again.getvalue() == first.getvalue()
