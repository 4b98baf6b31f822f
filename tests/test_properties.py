"""Property tests: the counting engine, the vote kernel and its plan
cache, segment against place_boundaries of vote_profile, the sst peak
features and the synthetic corpus draws, in one chunk of the random
stream and across many, against the naive oracle, table
round trips, tables given as dicts over any Unicode, the count-file
loaders on edited files against the reference reader, the count-file
writer, from dicts and from the counting walk's blocks, against a sorted
f-string formatter, the line reader's error places, the code point range
filter against a per-character loop, the sst grid against the
four-bound rule and every setting of the six-threshold rule,
annotation parse/serialize round trips, the annotation bracket views
against a plain loop, sequence scores against the bracket oracle,
parameter file round trips, and the CLI on edited copies of valid input
files."""

import functools
import io
import math
import random
import re
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tangoseg import (
    BigramStats,
    Corpus,
    FlatSegmentation,
    FormatError,
    LexiconEntry,
    NGramTable,
    ParameterError,
    SstParams,
    TangoParams,
    TwoLevelAnnotation,
    build_table,
    codepoint_range_filter,
    extract_sequences,
    extremum_features,
    generate_corpus,
    load_stats,
    parse_annotation,
    parse_flat,
    place_boundaries,
    read_sst_params,
    read_tango_params,
    save_stats,
    score_sequence,
    segment,
    serialize_annotation,
    serialize_flat,
    vote_profile,
    write_lexicon,
    write_sst_params,
    write_tango_params,
)
from tangoseg import ngrams, segmenter, synth
from tangoseg.cli import main
from tangoseg.ngrams import (_block_dict, _code_blocks, _count_windows, _rank_sequences,
                             _split_codes, _walk, read_lines)
from tangoseg.sst import _sst_rule
from tangoseg.training import SST_EXTREMUM_VALUES, SST_THETAS, _sst_vectors

from naive import (
    naive_boundaries,
    naive_corpus,
    naive_counts,
    naive_extremum_features,
    naive_order_vote,
    naive_read_counts,
    naive_runs,
    naive_sequence_score,
    naive_stats_refusal,
    naive_total_votes,
    pruned_lookup,
)


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
@given(vote_instances(), st.data())
def test_vote_plans_are_keyed_by_length_and_order_set_only(instance, data):
    # two sequences of one length, under the orders given as a set, a list and a
    # frozenset, share one plan, and each votes as the oracle does
    corpus, first, orders = instance
    second = data.draw(st.text("abcde", min_size=len(first), max_size=len(first)))
    assume(second != first)
    table = build_table(Corpus(corpus), range(2, 7))
    look = pruned_lookup(corpus, range(2, 7))
    segmenter._plan.cache_clear()
    for seq, given_orders in [(first, set(orders)), (second, sorted(orders, reverse=True)),
                              (first, frozenset(orders)), (second, set(orders))]:
        profile = vote_profile(seq, given_orders, table, keep_per_order=True)
        assert profile.votes == naive_total_votes(seq, orders, look)
        for n in orders:
            expected = [naive_order_vote(seq, k, n, look) for k in range(1, len(seq))]
            assert profile.per_order[n] == [0.0 if v is None else v for v in expected]
    assert segmenter._plan.cache_info().misses == 1


# any character the library takes: NUL, every UTF-8 width, astral ones and lone surrogates
lookup_chars = st.one_of(
    st.just("\0"),
    st.characters(max_codepoint=0x7F, exclude_characters="\t\n\r"),
    st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, exclude_categories=["Cs"]),
    st.characters(min_codepoint=0x10000),
    st.characters(categories=["Cs"]),
)


@st.composite
def lookup_instances(draw, chars=lookup_chars, length=18, top=6):
    """(corpus, sequence of up to length characters, orders from 2..top):
    the sequence may hold characters the corpus never has, so that lookups
    miss the table's alphabet."""
    alphabet = draw(st.lists(chars, min_size=1, max_size=5, unique=True))
    corpus = draw(st.lists(st.text(st.sampled_from(alphabet), min_size=1, max_size=16),
                           min_size=1, max_size=12))
    unseen = draw(st.lists(chars.filter(lambda c: c not in alphabet), max_size=2))
    seq = draw(st.text(st.sampled_from(alphabet + unseen), min_size=1, max_size=length))
    return corpus, seq, draw(st.sets(st.integers(2, top), min_size=1))


@st.composite
def wide_key_instances(draw):
    """(corpus, sequence, orders) whose table keys take more than 63 bits:
    1,024 or more ideographs (11-bit ranks) under orders up to 6, or 96
    ASCII characters (7-bit ranks) under orders up to 12."""
    if draw(st.booleans()):
        alphabet = [chr(0x4E00 + i) for i in range(draw(st.integers(1024, 1100)))]
        orders = draw(st.sets(st.integers(2, 6))) | {6}
    else:
        alphabet = ["\0", *map(chr, range(32, 127))]
        orders = draw(st.sets(st.integers(2, 12))) | {12}
    common = alphabet[: draw(st.integers(1, 4))]  # long grams repeat over a few characters
    corpus = ["".join(alphabet)] * 2 + draw(st.lists(st.text(st.sampled_from(common),
                                                              max_size=30), max_size=10))
    corpus += draw(st.lists(st.text(st.sampled_from(alphabet), max_size=20), max_size=6))
    seq = draw(st.text(st.sampled_from(common) | st.sampled_from(alphabet) | lookup_chars,
                       min_size=1, max_size=24))
    return draw(st.permutations(corpus)), seq, orders


def assert_lookups_match_oracle(corpus, seq, orders):
    table = build_table(Corpus(corpus), orders)
    look = pruned_lookup(corpus, orders)
    assert vote_profile(seq, orders, table).votes == naive_total_votes(seq, orders, look)
    for n in orders:  # the sequence's grams, and every corpus gram, stored or pruned
        grams = {seq[i : i + n] for i in range(len(seq) - n + 1)} | set(naive_counts(corpus, n))
        assert {g: table.count(g) for g in grams} == {g: look(g) for g in grams}
    return table


def assert_blocks_are_the_walks(corpus, orders, *tables):
    """Each table's count blocks are the counting walk's pruned blocks, array
    for array: the same orders, uint32 grams and int64 counts."""
    ranks, alphabet, lengths = _rank_sequences(corpus)
    (blocks,) = _code_blocks(ranks, alphabet, _walk(ranks, alphabet, lengths, orders)[0])
    walk = {n: block for n, block in blocks.items() if len(block[1])}
    for table in tables:
        blocks = table.counts.blocks()
        assert list(blocks) == list(walk)
        for n, (grams, counts) in blocks.items():
            assert grams.dtype == np.uint32 and counts.dtype == np.int64
            assert np.array_equal(grams, walk[n][0]) and np.array_equal(counts, walk[n][1])


@settings(max_examples=300, deadline=None)
@given(lookup_instances())
def test_table_lookups_match_oracle_on_any_unicode(instance):
    assert_lookups_match_oracle(*instance)


@settings(max_examples=200, deadline=None)
@given(lookup_instances(length=40, top=12),
       st.sampled_from([(True, True), (True, False), (False, True)]), st.integers(0, 38))
@example((["abab"], "ab\U00020000" * 3, set(range(2, 13))), (True, True), 1)
def test_segment_places_what_place_boundaries_places(instance, conditions, pick):
    # segment builds no VoteProfile, so it must agree with the public two-step path
    # and the oracle under order sets of 8 or more rows, at thresholds equal to votes
    corpus, seq, orders = instance
    table = build_table(Corpus(corpus), orders)
    votes = naive_total_votes(seq, orders, pruned_lookup(corpus, orders))
    threshold = votes[pick % len(votes)] if votes else 1.0
    params = TangoParams(frozenset(orders), threshold, *conditions)
    got = segment(seq, params, table)
    assert got == place_boundaries(vote_profile(seq, params.orders, table), params)
    assert set(got.boundaries) == naive_boundaries(votes, threshold, *conditions)


@settings(max_examples=60, deadline=None)
@given(wide_key_instances())
def test_wide_key_lookups_match_oracle(instance):
    corpus, _, orders = instance
    table = assert_lookups_match_oracle(*instance)
    assert len(table.counts.steps) > 1
    assert table.counts == pruned_counts(corpus, orders)  # read back from the ranks
    buf = io.BytesIO()
    table.save(buf)
    loaded = NGramTable.load(io.BytesIO(buf.getvalue()))
    assert loaded == table
    assert_blocks_are_the_walks(corpus, orders, table, loaded)


@settings(max_examples=200, deadline=None)
@given(lookup_instances(st.characters(codec="utf-8", exclude_characters="\t\n\r")), st.data())
def test_table_of_a_dict_is_the_built_table(instance, data):
    corpus, _, orders = instance
    built = build_table(Corpus(corpus), orders)
    counts = pruned_counts(corpus, orders)
    given_dict = NGramTable(orders, counts, built.corpus_size)
    assert given_dict == built
    files = [io.BytesIO() for _ in range(2)]
    built.save(files[0])
    given_dict.save(files[1])
    assert files[0].getvalue() == files[1].getvalue()
    loaded = NGramTable.load(io.BytesIO(files[0].getvalue()))
    assert loaded == built
    assert_blocks_are_the_walks(corpus, orders, built, loaded, given_dict)
    # the view iterates in file order and compares with a dict as the dict itself does
    entries = [line.split("\t") for line in files[0].getvalue().decode("utf-8").split("\n")[3:-1]]
    assert list(built.counts) == [gram for _, _, gram in entries]
    assert list(built.counts.items()) == [(gram, int(count)) for _, count, gram in entries]
    other = dict(counts)
    if other and data.draw(st.booleans()):
        gram = data.draw(st.sampled_from(sorted(other)))
        other[gram] += data.draw(st.sampled_from([-1, 1]))
    else:
        other[data.draw(st.text(st.sampled_from("ab\0"), min_size=2, max_size=6))] = 2
    for d in (counts, other, {}):
        assert (built.counts == d) == (dict(built.counts) == d)
        assert (d == built.counts) == (d == dict(built.counts))


@st.composite
def gram_dicts(draw):
    """(orders, {gram: count}, query) over any Unicode: NUL, lone surrogates,
    astral characters, tab and the empty gram; grams of up to 24 characters
    of up to 12, so that keys may take more than one step, and a query of
    the lowest order that may hold characters no gram has."""
    alphabet = draw(st.lists(lookup_chars | st.characters(exclude_categories=()),
                             min_size=1, max_size=12, unique=True))
    grams = st.text(st.sampled_from(alphabet), max_size=draw(st.sampled_from([3, 24])))
    counts = draw(st.dictionaries(grams, st.integers(-(2**63), 2**63 - 1), max_size=30))
    orders = draw(st.sets(st.integers(2, 24), min_size=1))
    query = draw(st.text(st.sampled_from(alphabet) | lookup_chars,
                         min_size=min(orders), max_size=min(orders)))
    return orders, counts, query


@settings(max_examples=300, deadline=None)
@given(gram_dicts())
@example(({2}, {"": 2, "ab": 3}, "ab"))
def test_table_of_any_unicode_dict_reads_the_dict_back(instance):
    orders, counts, query = instance
    table = NGramTable(orders, counts, 0)
    assert table.counts == counts and counts == table.counts
    assert list(table.counts.items()) == sorted(counts.items(), key=lambda e: (len(e[0]), e[0]))
    covered = [g for g in counts if len(g) in orders]
    assert {g: table.count(g) for g in covered} == {g: counts[g] for g in covered}
    assert table.count(query) == counts.get(query, 1)


# profile values from a small set, so that plateaus and ties are common
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]), max_size=14))
def test_extremum_features_match_oracle(values):
    columns = [column.tolist() for column in extremum_features(values)]
    assert list(zip(*columns)) == naive_extremum_features(values)


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


@st.composite
def remapped_corpora(draw):
    """(sequences, orders): grams repeating over a few characters, characters
    seen once each, so that only pruned singletons hold them, and in half the
    cases 1,100 ideographs in repeated runs, so that ranks take 11 bits and
    keys of order 6 take two steps.  Sequences may be empty or one character."""
    common = draw(st.lists(st.sampled_from("ab\0é\U00020000"), min_size=1, max_size=4,
                           unique=True))
    sequences = draw(st.lists(st.text(st.sampled_from(common), max_size=20), max_size=10))
    once = draw(st.lists(st.characters(min_codepoint=0x3400, max_codepoint=0x4DBF),
                         max_size=6, unique=True))
    alone = draw(st.sets(st.sampled_from(once))) if once else set()
    sequences += sorted(alone)
    sequences.append(draw(st.text(st.sampled_from(common), max_size=3))
                     + "".join(c for c in once if c not in alone))
    if draw(st.booleans()):
        rare = [chr(0x4E00 + i) for i in range(1100)]
        run = draw(st.integers(1, 60))
        sequences += ["".join(rare[i : i + run]) for i in range(0, len(rare), run)] * 2
    orders = draw(st.sets(st.integers(2, 6), min_size=1) | st.just({2, 6}))
    return draw(st.permutations(sequences)), orders


@settings(max_examples=150, deadline=None)
@given(remapped_corpora())
@example((["", "a", "ab", "", "abab", "b", "ba"], {2, 3, 6}))
@example((["a", "a"], {2}))
@example(([""], {4}))
@example((["㐀", "ab㐁ab"], {2, 5}))
def test_built_table_keeps_the_arrays_its_loaded_copy_reads(instance):
    # __eq__ compares alphabets, keys and counts; find and blocks() read more.
    # The walk's alphabet keeps characters only pruned grams hold, which the
    # table drops, so that it keys grams as the loaded copy does.
    sequences, orders = instance
    built = build_table(Corpus(sequences), orders)
    expected = pruned_counts(sequences, orders)
    assert built.counts == expected
    buf = io.BytesIO()
    built.save(buf)
    loaded = NGramTable.load(io.BytesIO(buf.getvalue()))
    a, b = built.counts, loaded.counts
    assert "".join(map(chr, a.alphabet[1:])) == "".join(sorted(set("".join(expected))))
    for name in ("order", "ranks", "alphabet", "rank", "key", "value"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.top, a.bits, len(a.steps)) == (b.top, b.bits, len(b.steps))
    for (stop, mult, known), (stop_b, mult_b, known_b) in zip(a.steps, b.steps):
        assert stop == stop_b and np.array_equal(mult, mult_b)
        assert np.array_equal(known, known_b)


# One-line edits of a count file body: each edits body line i, or inserts
# a line before it, in place.
def _set_field(lines, i, field, value):
    parts = lines[i].split("\t")
    parts[field] = value
    lines[i] = "\t".join(parts)


def _insert(lines, i, draw, text):
    at = draw(st.integers(0, len(lines[i])))
    lines[i] = lines[i][:at] + text + lines[i][at:]


def _drop_tab(lines, i, draw):
    head, _, tail = lines[i].partition("\t") if draw(st.booleans()) else lines[i].rpartition("\t")
    lines[i] = head + tail


def _non_digit(lines, i, draw):
    field = draw(st.integers(0, 1))
    digits = lines[i].split("\t")[field]
    at = draw(st.integers(0, len(digits)))
    char = draw(st.sampled_from("aZ+- _\u0665") | st.characters(
        codec="utf-8", exclude_characters="0123456789\t\n"))
    _set_field(lines, i, field, digits[:at] + char + digits[at + draw(st.integers(0, 1)):])


def _longer_gram(lines, i, draw):
    lines[i] += draw(st.sampled_from(lines[i].split("\t")[2]) | table_chars)


def _swap(lines, i, draw):
    j = draw(st.integers(0, len(lines) - 1))
    lines[i], lines[j] = lines[j], lines[i]


BODY_EDITS = {
    "drop a tab": _drop_tab,
    "add a tab": lambda lines, i, draw: _insert(lines, i, draw, "\t"),
    "non-digit in a digit field": _non_digit,
    "count set to 1": lambda lines, i, draw: _set_field(lines, i, 1, "1"),
    "order changed": lambda lines, i, draw: _set_field(lines, i, 0, str(draw(st.integers(0, 12)))),
    "gram one character too long": _longer_gram,
    "two lines swapped": _swap,
    "line duplicated": lambda lines, i, draw: lines.insert(i, lines[i]),
    "blank line inserted": lambda lines, i, draw: lines.insert(i, ""),
    "stray CR inserted": lambda lines, i, draw: _insert(lines, i, draw, "\r"),
}

# naive_read_counts arguments of each count file: header, size key, orders, min count
COUNT_FILES = {
    "table": ("tango-ngrams v1", "corpus_size", None, 2),
    "stats": ("tango-bigrams v1", "total_chars", (1, 2), 1),
}


@st.composite
def edited_count_files(draw):
    """(kind, text): a saved table or stats file with one body line edited.

    Half the files also hold a run of 1,100 or more ideographs, and their
    tables order 6: 11-bit ranks, so that a table key takes two steps."""
    kind = draw(st.sampled_from(sorted(COUNT_FILES)))
    alphabet = draw(st.lists(table_chars, min_size=1, max_size=6, unique=True))
    sequences = draw(st.lists(st.text(st.sampled_from(alphabet), min_size=4, max_size=12),
                              min_size=1, max_size=8))
    orders = draw(st.sets(st.integers(2, 4), min_size=1))
    if draw(st.booleans()):
        sequences.append("".join(map(chr, range(0x4E00, 0x4E00 + draw(st.integers(1100, 1200))))))
        orders = draw(st.sets(st.integers(2, 6))) | {6}
    buf = io.BytesIO()
    if kind == "table":  # every gram twice, so that no order is empty
        build_table(Corpus(sequences * 2), orders).save(buf)
    else:
        save_stats(BigramStats.from_corpus(sequences), buf)
    lines = buf.getvalue().decode("utf-8").split("\n")[:-1]
    head = 2 if COUNT_FILES[kind][2] else 3
    body = lines[head:]
    BODY_EDITS[draw(st.sampled_from(sorted(BODY_EDITS)))](
        body, draw(st.integers(0, len(body) - 1)), draw)
    return kind, "\n".join(lines[:head] + body) + "\n"


def load_counts(kind, text):
    data = io.BytesIO(text.encode("utf-8"))
    if kind == "table":
        return NGramTable.load(data).counts
    stats = load_stats(data)
    return {**stats.unigrams, **stats.bigrams}


@settings(max_examples=400, deadline=None)
@given(edited_count_files())
def test_edited_count_file_loads_as_the_reference_reader_reads_it(instance):
    kind, text = instance
    expected = naive_read_counts(text, *COUNT_FILES[kind])
    if kind == "stats" and len(expected) == 3:  # read, then its counts checked
        expected = naive_stats_refusal(expected[0], expected[2]) or expected
    try:
        counts = load_counts(kind, text)
    except FormatError as exc:
        assert len(expected) == 2, f"the reference reads the file, the loader raises {exc}"
        line, message = expected
        assert (exc.line, str(exc)) == (line, f"{message} (line {line})")
    else:
        assert len(expected) == 3, f"the loader reads the file, the reference says {expected}"
        assert counts == expected[2]


# any character but the line break, other Unicode separators included, no surrogate
line_chars = st.characters(exclude_characters="\n\r", exclude_categories=["Cs"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(line_chars, max_size=6), min_size=1, max_size=8), st.data())
def test_read_lines_reports_a_parse_error_at_its_line_and_column(lines, data):
    """The parse fails on a drawn line with a drawn column, or on none; lines
    whose parse returns None are dropped but still counted."""
    bad = data.draw(st.none() | st.integers(0, len(lines) - 1))
    error = data.draw(st.sampled_from([FormatError, ParameterError, ValueError]))
    column = data.draw(st.none() | st.integers(1, 80)) if error is FormatError else None
    empty = data.draw(st.sets(st.integers(0, len(lines) - 1)))
    seen = []

    def parse(line):
        seen.append(line)
        i = len(seen) - 1
        if i == bad:
            raise FormatError("bad", column=column) if error is FormatError else error("bad")
        return None if i in empty else (i, line)

    text = "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_bytes(text.encode("utf-8"))
        for source, name in ((path, path), (io.StringIO(text), None)):
            seen.clear()
            if bad is None:
                assert read_lines(source, parse) == [
                    (i, line) for i, line in enumerate(lines) if i not in empty]
                assert seen == lines
                continue
            with pytest.raises(FormatError) as caught:
                read_lines(source, parse)
            exc = caught.value
            assert (exc.message, exc.line, exc.column, exc.path) == ("bad", bad + 1, column, name)
            where = f"line {bad + 1}" + (f", column {column}" if column is not None else "")
            assert str(exc) == (f"{name}: " if name else "") + f"bad ({where})"
            assert seen == lines[: bad + 1]


def writer_reference(header, size_line, orders_line, counts):
    """The count file as sorted + f-string formatting writes it."""
    lines = [header, size_line, *orders_line]
    lines += [f"{len(g)}\t{counts[g]}\t{g}" for g in sorted(counts, key=lambda g: (len(g), g))]
    return ("\n".join(lines) + "\n").encode("utf-8")


# characters of every UTF-8 width, astral ones included, but no surrogate
wide_chars = st.one_of(
    st.characters(max_codepoint=0x7F, exclude_characters="\t\n\r"),
    st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, exclude_categories=["Cs"]),
    st.characters(min_codepoint=0x10000),
)
wide_counts = st.integers(2, 30) | st.integers(2, 10**18 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(wide_chars, min_size=1, max_size=40, unique=True).flatmap(
    lambda alphabet: st.dictionaries(st.text(st.sampled_from(alphabet), min_size=1, max_size=7),
                                     wide_counts, max_size=60)),
       st.sets(st.integers(2, 9)), st.integers(0, 10**12))
def test_writer_matches_sorted_fstring_formatter(counts, extra_orders, size):
    # dict order is the draw's, not the writer's (order, gram) order
    table_counts = {g: c for g, c in counts.items() if len(g) >= 2}
    orders = {len(g) for g in table_counts} | extra_orders | {2}
    table = NGramTable(orders, table_counts, size)
    buf = io.BytesIO()
    table.save(buf)
    orders_line = ["orders " + ",".join(map(str, sorted(orders)))]
    assert buf.getvalue() == writer_reference(
        "tango-ngrams v1", f"corpus_size {size}", orders_line, table_counts)
    assert NGramTable.load(io.BytesIO(buf.getvalue())) == table
    stats_counts = {g: c for g, c in counts.items() if len(g) <= 2}
    unigrams = Counter({g: c for g, c in stats_counts.items() if len(g) == 1})
    bigrams = Counter({g: c for g, c in stats_counts.items() if len(g) == 2})
    buf = io.BytesIO()
    save_stats(BigramStats(unigrams, bigrams, size), buf)
    assert buf.getvalue() == writer_reference(
        "tango-bigrams v1", f"total_chars {size}", [], stats_counts)


def pruned_counts(sequences, orders):
    return {
        gram: c
        for n in orders
        for gram, c in naive_counts(sequences, n).items()
        if c >= 2
    }


def assert_stats_match(sequences):
    stats = BigramStats.from_corpus(sequences)
    assert stats.unigrams == naive_counts(sequences, 1)
    assert stats.bigrams == naive_counts(sequences, 2)
    assert stats.total_chars == sum(map(len, sequences))


def engine_corpora(separators):
    """Lists of sequences, empty and one-character ones included, over a small
    alphabet mixing ASCII, BMP, astral characters and lone surrogates."""
    chars = st.one_of(
        st.characters(max_codepoint=0x7F, exclude_characters="\t\n\r"),
        st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, exclude_categories=["Cs"]),
        st.characters(min_codepoint=0x10000),
        st.characters(categories=["Cs"]),
        st.sampled_from(separators) if separators else st.nothing(),
    )

    @st.composite
    def corpora(draw):
        alphabet = draw(st.lists(chars, min_size=1, max_size=5, unique=True))
        return draw(st.lists(st.text(st.sampled_from(alphabet), max_size=16), max_size=12))

    return corpora()


@settings(max_examples=300, deadline=None)
@given(engine_corpora(""), st.sets(st.integers(2, 8), min_size=1))
def test_build_table_counts_match_oracle(sequences, orders):
    table = build_table(Corpus(sequences), orders)
    assert table.counts == pruned_counts(sequences, orders)
    assert table.corpus_size == sum(map(len, sequences))


@settings(max_examples=300, deadline=None)
@given(engine_corpora("\n\t\r"))
def test_bigram_stats_counts_match_oracle(sequences):
    assume(any(sequences))  # BigramStats rejects a corpus without characters
    assert_stats_match(sequences)


def test_engine_on_a_large_alphabet():
    # more distinct characters than six packed 13-bit codes could hold
    rng = random.Random(11)
    ideographs = [chr(cp) for cp in range(0x4E00, 0x4E00 + 2000)]
    rng.shuffle(ideographs)
    sequences = ["".join(ideographs[i : i + 20]) for i in range(0, 2000, 20)]
    common = ideographs[:300]
    sequences += ["".join(rng.choices(common, k=rng.randint(1, 30))) for _ in range(400)]
    assert len(set("".join(sequences))) > 1448
    orders = range(2, 7)
    assert build_table(Corpus(sequences), orders).counts == pruned_counts(sequences, orders)
    assert_stats_match(sequences)


def assert_walk_matches_oracle(sequences, orders):
    """Every order's unpruned count block, read through the blocks -> dict
    helper, in string order, and the pruned table."""
    ranks, alphabet, lengths = _rank_sequences(sequences)
    kept = _count_windows(ranks, alphabet, lengths, dict.fromkeys(orders, 1))
    (blocks,) = _code_blocks(ranks, alphabet, kept)
    assert list(blocks) == sorted(orders)
    for n in orders:
        counts = _block_dict({n: blocks[n]})
        assert counts == naive_counts(sequences, n)
        assert list(counts) == sorted(counts)
    table_orders = [n for n in orders if n >= 2]
    if table_orders:
        table = build_table(Corpus(sequences), table_orders)
        assert table.counts == pruned_counts(sequences, table_orders)


@st.composite
def wide_corpora(draw):
    """(sequences, orders): at least 64 distinct ideographs, so ranks take 7 or
    more bits and positions 6 or more, one step packs at most 8 characters,
    and the top order, 10 to 12, needs a second step built on the first
    step's ids."""
    alphabet = [chr(cp) for cp in draw(
        st.lists(st.integers(0x4E00, 0x9FFF), min_size=64, max_size=300, unique=True))]
    # every character in runs, so that all of them are in the corpus alphabet
    run = draw(st.integers(1, 40))
    sequences = ["".join(alphabet[i : i + run]) for i in range(0, len(alphabet), run)]
    # long grams repeat only over a few common characters
    common = st.sampled_from(alphabet[: draw(st.integers(1, 4))])
    sequences += draw(st.lists(st.text(common, max_size=30), max_size=12))
    sequences += draw(st.lists(st.text(st.sampled_from(alphabet), max_size=20), max_size=8))
    orders = draw(st.sets(st.integers(1, 12))) | {draw(st.integers(10, 12))}
    return draw(st.permutations(sequences)), orders


@settings(max_examples=150, deadline=None)
@given(wide_corpora())
def test_multi_step_walk_matches_oracle(instance):
    assert_walk_matches_oracle(*instance)


@settings(max_examples=100, deadline=None)
@given(wide_corpora(), st.integers(0, 8))
def test_walk_with_a_narrow_key_budget_matches_oracle(instance, slack):
    # A key budget of a position's and a rank's bits plus slack: the first step
    # packs each window's position beside one or more characters, and a step
    # whose prefix ids leave no room for the position argsorts its keys instead.
    # At no slack the second step's ids, of two or more prefixes, take that path.
    sequences, orders = instance
    sequences = [*sequences, "\u4e00\u4e01\u4e00"]
    text = "".join(sequences)
    budget = (len(text) - 1).bit_length() + len(set(text)).bit_length() + slack
    with mock.patch.object(ngrams, "_KEY_BITS", budget):
        with mock.patch.object(ngrams.np, "argsort", wraps=np.argsort) as argsort:
            _count_windows(*_rank_sequences(sequences), dict.fromkeys(orders, 1))
        assert argsort.called or slack
        assert_walk_matches_oracle(sequences, orders)


def test_multi_step_walk_on_a_sixty_thousand_character_alphabet():
    # 16-bit ranks and 16-bit positions: the walk to order 10 takes a step of
    # 2 characters and then steps of 1, each keyed on the dense ids of the step before
    rng = random.Random(12)
    codes = [*range(0x4E00, 0xA000), *range(0x20000, 0x20000 + 60_000 - 0x5200)]
    alphabet = [chr(cp) for cp in codes]
    rng.shuffle(alphabet)
    sequences = ["".join(alphabet[i : i + 50]) for i in range(0, len(alphabet), 50)]
    common = alphabet[:400]
    repeated = ["".join(rng.choices(common, k=rng.randint(1, 40))) for _ in range(150)]
    sequences += repeated + rng.sample(repeated, 50)
    rng.shuffle(sequences)
    assert len(set("".join(sequences))) == 60_000
    assert_walk_matches_oracle(sequences, range(1, 11))

@st.composite
def block_corpora(draw):
    """(sequences, orders): alphabets that hold NUL and astral characters,
    and in half the cases over 1,023 more, every one in the corpus, so that
    ranks take 11 bits and the walk to order 6 or 7 takes a second step."""
    common = ["\0", *draw(st.lists(st.sampled_from("a\u00e9\u4e00\U00020000\U0010fffd"),
                                    min_size=1, max_size=4, unique=True))]
    sequences = draw(st.lists(st.text(st.sampled_from(common), min_size=1, max_size=24),
                              min_size=1, max_size=12))
    if draw(st.booleans()):
        base = draw(st.sampled_from([0x3400, 0x20000]))
        rare = [chr(base + i) for i in range(draw(st.integers(1024, 1100)))]
        run = draw(st.integers(1, 60))
        sequences += ["".join(rare[i : i + run]) for i in range(0, len(rare), run)]
        sequences += draw(st.lists(st.text(st.sampled_from(rare + common), min_size=1,
                                           max_size=20), max_size=6))
    orders = draw(st.sampled_from([{3, 5}, set(range(2, 7))]) | st.sets(st.integers(2, 7),
                                                                        min_size=1))
    return draw(st.permutations(sequences)), orders


@settings(max_examples=100, deadline=None)
@given(block_corpora())
@example((["ab\0", "ab\0", "\0\0\0"], {2, 3}))
def test_block_path_writes_the_oracle_files(instance):
    # CLI build-index writes the walk's blocks, with and without the shared
    # stats walk; NGramTable.save writes the library table through its dict
    sequences, orders = instance
    size = sum(map(len, sequences))
    table = pruned_counts(sequences, orders)
    orders_line = ["orders " + ",".join(map(str, sorted(orders)))]
    expected_table = writer_reference("tango-ngrams v1", f"corpus_size {size}", orders_line, table)
    expected_stats = writer_reference("tango-bigrams v1", f"total_chars {size}", [],
                                      {**naive_counts(sequences, 1), **naive_counts(sequences, 2)})
    library = build_table(Corpus(sequences), orders)
    assert library == NGramTable(orders, table, size)
    buf = io.BytesIO()
    library.save(buf)
    assert buf.getvalue() == expected_table
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "c.txt").write_bytes("".join(s + "\n" for s in sequences).encode("utf-8"))
        argv = ["build-index", "--corpus", str(d / "c.txt"),
                "--orders", ",".join(map(str, sorted(orders)))]
        with redirect_stderr(io.StringIO()):
            assert main(argv + ["--out", str(d / "alone.tsv")]) == 0
            assert main(argv + ["--out", str(d / "t.tsv"), "--bigrams-out", str(d / "s.tsv")]) == 0
        assert (d / "alone.tsv").read_bytes() == (d / "t.tsv").read_bytes() == expected_table
        assert (d / "s.tsv").read_bytes() == expected_stats


# line breaks of each kind, blank lines, a tab, a line separator str.splitlines
# would break at and an astral character; a text may end without a newline
line_texts = st.lists(st.sampled_from(
    ["a", "b", "\n", "\r", "\r\n", "\n\n", "\t", "\u2028", "\U00020000"]), max_size=40).map("".join)


@settings(max_examples=150, deadline=None)
@given(line_texts)
@example("a\r\r\nab\r\n\r\nab")
def test_build_index_reads_the_lines_extract_sequences_reads(text):
    # build-index splits the file's one code array; the library splits the text into
    # strings: the same sequences, the same bytes written, or a refusal on both paths
    codes, lengths = _split_codes(text)
    joined, ends = codes.tobytes().decode("utf-32-le"), np.cumsum(lengths).tolist()
    assert [joined[a:b] for a, b in zip([0, *ends], ends)] == extract_sequences(text)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "c.txt").write_bytes(text.encode("utf-8"))
        with redirect_stderr(io.StringIO()):
            code = main(["build-index", "--corpus", str(d / "c.txt"), "--out", str(d / "t.tsv"),
                         "--bigrams-out", str(d / "s.tsv")])
        table, stats = io.BytesIO(), io.BytesIO()
        try:
            corpus = Corpus.from_text(text)
            build_table(corpus, range(2, 7)).save(table)
            save_stats(BigramStats.from_corpus(corpus), stats)
        except ParameterError:
            assert code == 2 and not list(d.glob("*.tsv"))
            return
        assert code == 0
        assert (d / "t.tsv").read_bytes() == table.getvalue()
        assert (d / "s.tsv").read_bytes() == stats.getvalue()


# characters that are syntax in a regex class, line breaks, lone surrogates
# and astral characters, so that a pattern built from them must escape them
filter_chars = st.one_of(
    st.sampled_from("]\\^-\t\n\x85ab"),
    st.characters(categories=["Cs"]),
    st.characters(min_codepoint=0x10000),
)


@st.composite
def range_specs(draw):
    """(spec, ranges): up to five hex ranges or single code points, most of
    them starting at a character filter_chars draws."""
    ranges = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.one_of(filter_chars.map(ord), st.integers(0, 0x10FFFF)))
        hi = min(lo + draw(st.sampled_from([0, 1, 2, 100, 0x10FFFF])), 0x10FFFF)
        ranges.append((lo, hi))
    parts = [f"{lo:X}" if lo == hi and draw(st.booleans()) else f"{lo:x}-{hi:04X}"
             for lo, hi in ranges]
    return ",".join(parts), ranges


@settings(max_examples=300, deadline=None)
@given(st.text(filter_chars, max_size=40), range_specs())
def test_range_filter_takes_the_runs_a_per_character_loop_takes(text, spec_ranges):
    spec, ranges = spec_ranges
    assert extract_sequences(text, codepoint_range_filter(spec)) == naive_runs(text, ranges)


# Nested non-empty segments of any text the bracket and pipe formats can hold.
annotated_words = st.lists(
    st.lists(st.text(st.characters(exclude_characters="[]|"), min_size=1, max_size=6),
             min_size=1, max_size=3),
    min_size=1, max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(annotated_words)
def test_annotation_parse_serialize_roundtrip(words):
    ann = TwoLevelAnnotation.from_segments(words)
    assert parse_annotation(serialize_annotation(ann)) == ann
    for flat in (ann.word_segmentation, ann.morpheme_segmentation):
        assert parse_flat(serialize_flat(flat)) == flat


# Nested morpheme strings, astral-plane characters drawn as often as the rest.
astral_words = st.lists(
    st.lists(st.text(st.characters(exclude_characters="[]|")
                     | st.characters(min_codepoint=0x10000), min_size=1, max_size=4),
             min_size=1, max_size=4),
    min_size=1, max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(astral_words, st.data())
def test_annotation_views_match_a_plain_loop(words, data):
    ann = TwoLevelAnnotation.from_segments(words)
    pos, word_brackets, groups = 0, [], []
    for morphs in words:
        start, group = pos, []
        for m in morphs:
            group.append((pos, pos + len(m)))
            pos += len(m)
        word_brackets.append((start, pos))
        groups.append(tuple(group))
    assert ann.sequence == "".join(m for morphs in words for m in morphs)
    assert ann.words == ann.word_segmentation.brackets == tuple(word_brackets)
    assert ann.morphemes == tuple(groups)
    assert ann.morpheme_brackets == ann.morpheme_segmentation.brackets == sum(groups, ())
    assert parse_annotation(serialize_annotation(ann)) == ann
    # an empty word, or an empty morpheme, anywhere is refused
    i = data.draw(st.integers(0, len(words)))
    with pytest.raises(ValueError):
        TwoLevelAnnotation.from_segments(words[:i] + [[]] + words[i:])
    i = data.draw(st.integers(0, len(words) - 1))
    j = data.draw(st.integers(0, len(words[i])))
    with pytest.raises(ValueError):
        TwoLevelAnnotation.from_segments(
            words[:i] + [words[i][:j] + [""] + words[i][j:]] + words[i + 1:])


@st.composite
def scored_pairs(draw):
    """(length, proposed, words, morphemes): a sequence of 1 to 12
    characters, the boundary sets of a two-level annotation of it (every
    word boundary a morpheme boundary) and of a proposed segmentation, which
    is either level or any set of gaps."""
    length = draw(st.integers(1, 12))
    gaps = st.sets(st.integers(1, length - 1)) if length > 1 else st.just(set())
    morphemes = draw(gaps)
    words = draw(st.sets(st.sampled_from(sorted(morphemes)))) if morphemes else set()
    return length, draw(st.one_of(gaps, st.just(words), st.just(morphemes))), words, morphemes


@settings(max_examples=500, deadline=None)
@given(scored_pairs())
@example((1, set(), set(), set()))  # one character: one bracket of each kind
@example((6, set(), {2, 4}, {2, 4}))  # the whole sequence, against single-morpheme words
@example((6, {2, 4}, {2, 4}, {1, 2, 4}))  # the words: a two-morpheme word, two single ones
@example((6, {1, 2, 3}, {4}, {2, 4}))  # three brackets dividing morphemes, one crossing
def test_sequence_scores_match_the_bracket_oracle(instance):
    length, proposed, words, morphemes = instance
    seq = "ABCDEFGHIJKL"[:length]
    gold = TwoLevelAnnotation(FlatSegmentation(seq, tuple(sorted(words))),
                              FlatSegmentation(seq, tuple(sorted(morphemes))))
    score = score_sequence(FlatSegmentation(seq, tuple(sorted(proposed))), gold)
    expected = naive_sequence_score(length, proposed, words, morphemes)
    assert {name: getattr(score, name) for name in expected} == expected


condition_pairs = st.sampled_from([(True, True), (True, False), (False, True)])
non_negative = st.floats(min_value=0.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(2, ngrams.MAX_ORDER), min_size=1, max_size=5), st.floats(0.0, 1.0),
       condition_pairs, non_negative, st.lists(non_negative, min_size=4, max_size=4),
       st.sampled_from(["mle", "ele"]))
def test_parameter_files_read_back_what_was_written(orders, threshold, conditions, theta,
                                                    bounds, estimator):
    for params, write, read in (
        (TangoParams(orders, threshold, *conditions), write_tango_params, read_tango_params),
        (SstParams(theta, bounds, estimator), write_sst_params, read_sst_params),
    ):
        buf = io.StringIO()
        write(params, buf)
        buf.seek(0)
        assert read(buf) == params


def on_between_and_beside(values):
    """values, the midpoints of neighbouring values and the floats next to each."""
    between = [(a + b) / 2 for a, b in zip(values, values[1:])]
    beside = [float(np.nextafter(v, d)) for v in values for d in (-math.inf, math.inf)]
    return [*values, *between, *beside]


gap_mi = st.sampled_from(on_between_and_beside(SST_THETAS) + [-math.inf, 6.0])
gap_extent = st.sampled_from(on_between_and_beside(SST_EXTREMUM_VALUES) + [250.0])


@st.composite
def gap_feature_rows(draw):
    """(mi, primary, secondary, rise, fall) at 1 to 10 gaps, the values on,
    between and beside the grid's theta and extremum values."""
    m = draw(st.integers(1, 10))
    return tuple(np.array(draw(st.lists(values, min_size=m, max_size=m)))
                 for values in (gap_mi, st.booleans(), st.booleans(), gap_extent, gap_extent))


def six_threshold_rows(features, grid):
    """The sst boundary rule as stated, one row per (theta, e1 .. e6) row of
    grid: mi below theta, and a primary (secondary) peak whose prominence,
    the smaller of rise and fall, and whose rise and fall reach e1, e2 and
    e3 (e4, e5 and e6)."""
    mi, primary, secondary, rise, fall = features
    theta, e1, e2, e3, e4, e5, e6 = grid.T[:, :, None]
    prominence = np.minimum(rise, fall)
    return (mi < theta) & (
        (primary & (prominence >= e1) & (rise >= e2) & (fall >= e3))
        | (secondary & (prominence >= e4) & (rise >= e5) & (fall >= e6))
    )


def four_bound_rows(features, grid):
    """The sst boundary rule as stated, one row per (theta, primary rise,
    primary fall, secondary rise, secondary fall) row of grid: mi below
    theta, and a primary (secondary) peak whose rise and fall reach its two
    bounds."""
    mi, primary, secondary, rise, fall = features
    theta, p_rise, p_fall, s_rise, s_fall = grid.T[:, :, None]
    return (mi < theta) & (
        (primary & (rise >= p_rise) & (fall >= p_fall))
        | (secondary & (rise >= s_rise) & (fall >= s_fall))
    )


@functools.cache
def six_threshold_grid():
    """The 5^7 (theta, e1 .. e6) settings over the grid's values, each
    folded to (theta, max(e1, e2), max(e1, e3), max(e4, e5), max(e4, e6)),
    and the index of that row in the ascending 5^5 grid."""
    six = np.array(list(product(SST_THETAS, *[SST_EXTREMUM_VALUES] * 6)))
    theta, e1, e2, e3, e4, e5, e6 = six.T
    folded = np.column_stack([theta, np.maximum(e1, e2), np.maximum(e1, e3),
                              np.maximum(e4, e5), np.maximum(e4, e6)])
    at = np.zeros(len(six), np.int64)
    for column, values in zip(folded.T, (SST_THETAS, *[SST_EXTREMUM_VALUES] * 4)):
        at = at * len(values) + np.searchsorted(values, column)
    return six, folded, at


@settings(max_examples=100, deadline=None)
@given(gap_feature_rows())
# a primary peak with rise and fall 0: e1 alone decides it
@example(tuple(np.array([v]) for v in (0.5, True, False, 0.0, 0.0)))
def test_sst_grid_scores_one_setting_per_distinct_rule(features):
    grid = _sst_vectors()
    assert len(grid) == 5**5
    theta, *bounds = grid.T[:, :, None]
    rows = _sst_rule(*features, theta, bounds)
    assert np.array_equal(rows, four_bound_rows(features, grid))
    # every setting of six thresholds places the boundaries of its folded grid row
    six, folded, at = six_threshold_grid()
    assert np.array_equal(grid[at], folded)
    assert np.array_equal(six_threshold_rows(features, six), rows[at])


@st.composite
def synth_instances(draw):
    """(lexicon, generate_corpus keywords): lexicons with and without
    suffixes, roles interleaved, suffix_prob 0 and 1 among the cases, and
    word-count widths (words_max - words_min + 1) on both sides of randint's
    bit-length steps: a try of width 7 reads 3 bits, of 8 or 9 reads 4 and
    of 16 or 17 reads 5; width 1 reads 1 bit and retries half its tries."""
    entry = st.tuples(st.text("abcdef", min_size=1, max_size=3), st.floats(1e-3, 1e3))
    lexicon = [LexiconEntry(w, x, "stem") for w, x in draw(st.lists(entry, min_size=1, max_size=6))]
    lexicon += [LexiconEntry(w, x, "suffix") for w, x in draw(st.lists(entry, max_size=4))]
    lexicon = draw(st.permutations(lexicon))
    words_min = draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 7, 8, 9, 16, 17]) | st.integers(1, 6))
    kwargs = {
        "seed": draw(st.integers(0, 2**32)),
        "words_min": words_min,
        "words_max": words_min + width - 1,
        "suffix_prob": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
    }
    if draw(st.booleans()):
        kwargs["sequences"] = draw(st.integers(1, 12))
    else:
        kwargs["target_chars"] = draw(st.integers(1, 80))
    return lexicon, kwargs


@settings(max_examples=150, deadline=None)
@given(synth_instances())
def test_synth_draws_match_choices_oracle(instance):
    lexicon, kwargs = instance
    raw, annotations = generate_corpus(lexicon, **kwargs)
    nested = [
        [[a.sequence[m.start:m.end] for m in ms] for ms in a.morphemes] for a in annotations
    ]
    assert nested == naive_corpus(lexicon, **kwargs)
    assert raw == [a.sequence for a in annotations]
    # the CLI draws the same sequences, with or without annotations
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_lexicon(lexicon, d / "lex.tsv")
        argv = ["synth", "--lexicon", str(d / "lex.tsv")]
        for key, value in kwargs.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert main(argv + ["--out-corpus", str(d / "c.txt")]) == 0
        assert main(argv + ["--out-corpus", str(d / "both.txt"),
                            "--out-annotations", str(d / "both.ann")]) == 0
        corpus_only = (d / "c.txt").read_text(encoding="utf-8")
        both = (d / "both.txt").read_text(encoding="utf-8")
        gold = (d / "both.ann").read_text(encoding="utf-8")
    assert corpus_only == both == "".join(r + "\n" for r in raw)
    assert gold == "".join(serialize_annotation(a) + "\n" for a in annotations)


@settings(max_examples=150, deadline=None)
@given(synth_instances(), st.integers(3, 64))
def test_synth_draws_match_choices_oracle_across_chunks(instance, chunk_words):
    # chunks of a few sequences' worth: sequences carry over from one chunk to
    # the next at every kind of stream word (word count, stem, flag, suffix)
    with mock.patch.object(synth, "_CHUNK_WORDS", chunk_words):
        test_synth_draws_match_choices_oracle.hypothesis.inner_test(instance)


DATA = Path(__file__).parent / "data"

# each CLI run's arguments: {name} is an input file of that name, {out} and {grid} its outputs
CLI_RUNS = {
    "synth": "synth --lexicon {lexicon} --sequences 4 --out-corpus {out} --out-annotations {grid}",
    "build-index": "build-index --corpus {corpus} --out {out} --bigrams-out {grid}",
    "train tango": "train --train {gold} --index {table} --criterion word-f --out {out} "
                   "--grid-out {grid}",
    "train sst": "train --algorithm sst --train {gold} --stats {stats} --criterion word-f "
                 "--out {out} --grid-out {grid}",
    "segment tango": "segment --input {input} --index {table} --params {tango_params} --out {out}",
    "segment sst": "segment --algorithm sst --input {input} --stats {stats} "
                   "--params {sst_params} --out {out}",
    "evaluate": "evaluate --pred {pred} --gold {gold}",
}
CLI_INSERTS = [b"\t", b"\n", b"\r", b"|", b"[", b"]", b"=", b",", b" ", b"-", b"0", b"9" * 19,
               b"\xff", b"\xc3", b"nan", b"1e400", "\u3042".encode()]


@functools.cache
def cli_inputs() -> "dict[str, bytes]":
    """Valid input files of every CLI run, by name; the predictions are the gold's words."""
    files = {name: (DATA / f"toy_{name}{suffix}").read_bytes()
             for name, suffix in [("lexicon", ".tsv"), ("corpus", ".txt"), ("gold", ".txt"),
                                  ("input", ".txt")]}
    files["tango_params"] = (DATA / "toy_params.txt").read_bytes()
    gold = read_lines(io.BytesIO(files["gold"]), parse_annotation)
    files["pred"] = "".join(serialize_flat(a.word_segmentation) + "\n" for a in gold).encode()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()):
        d = Path(tmp)
        (d / "corpus").write_bytes(files["corpus"])
        (d / "gold").write_bytes(files["gold"])
        assert main(["build-index", "--corpus", str(d / "corpus"), "--out", str(d / "table"),
                     "--bigrams-out", str(d / "stats")]) == 0
        assert main(["train", "--algorithm", "sst", "--train", str(d / "gold"), "--stats",
                     str(d / "stats"), "--criterion", "word-f", "--out", str(d / "sst")]) == 0
        for name, path in (("table", "table"), ("stats", "stats"), ("sst_params", "sst")):
            files[name] = (d / path).read_bytes()
    return files


@st.composite
def edited_files(draw, data: bytes):
    """data with up to three edits: bytes deleted, a byte replaced, a separator,
    bracket, digit run, bad UTF-8 or odd number inserted, or a digit run
    replaced by another number."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "replace", "insert", "number"]))
        runs = [m.span() for m in re.finditer(rb"[0-9]+", data)]
        if kind == "delete":
            data = data[:i] + data[i + draw(st.integers(1, 8)) :]
        elif kind == "replace":
            data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
        elif kind == "insert" or not runs:
            data = data[:i] + draw(st.sampled_from(CLI_INSERTS)) + data[i:]
        else:
            a, b = draw(st.sampled_from(runs))
            data = data[:a] + str(draw(st.integers(0, 1000) | st.just(999999))).encode() + data[b:]
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CLI_RUNS)), st.data())
def test_no_edited_cli_input_ends_in_a_traceback(run, data):
    # exit 0, or exit 2 with one error line naming an input file and no output file left
    args = CLI_RUNS[run].split()
    names = [a[1:-1] for a in args if a.startswith("{") and a not in ("{out}", "{grid}")]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in (*names, "out", "grid")}
        for name in names:
            Path(paths[name]).write_bytes(data.draw(edited_files(cli_inputs()[name]), label=name))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main([a.format_map(paths) for a in args])
        assert code in (0, 2)
        if code == 2:
            [error] = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert any(paths[name] in error for name in names), error
            assert not any(Path(paths[out]).exists() for out in ("out", "grid"))
