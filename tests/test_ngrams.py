import io
import random
import re
import tracemalloc

import numpy as np
import pytest

from tangoseg import (
    BigramStats,
    Corpus,
    FormatError,
    LexiconEntry,
    NGramTable,
    ParameterError,
    SstParams,
    TangoParams,
    UnsupportedOrderError,
    build_table,
    codepoint_range_filter,
    extract_sequences,
    generate_corpus,
    make_zipf_lexicon,
    save_stats,
    write_lexicon,
    write_sst_params,
    write_tango_params,
)
from tangoseg.ngrams import (
    TABLE, _block_dict, _code_blocks, _count_windows, split_lines, write_counts)
from tangoseg.training import GridView

from naive import naive_counts

# 3,000 ideographs from U+4E00 take 12-bit ranks: a table key of orders 2 and 6
# takes two steps, the order and the first five ranks, then that step's id and the sixth
KANJI = [chr(0x4E00 + i) for i in range(3000)]


def two_step_entries(*grams: str) -> str:
    """The orders line and entries of a table file over KANJI: 1,499 order-2
    lines on the first 2,998 ideographs (lines 4-1502), then grams of order 6."""
    pairs = [f"2\t2\t{KANJI[i]}{KANJI[i + 1]}\n" for i in range(0, 2998, 2)]
    return "orders 2,6\n" + "".join(pairs) + "".join(f"6\t2\t{g}\n" for g in grams)


class TestExtractSequences:
    def test_line_split_drops_empty_lines(self):
        assert extract_sequences("abc\n\ndef") == ["abc", "def"]

    def test_digit_filter_takes_maximal_runs(self):
        assert extract_sequences("ab1cd22e", codepoint_range_filter("30-39")) == ["1", "22"]

    def test_uppercase_filter(self):
        assert extract_sequences("xxABCyyA", codepoint_range_filter("41-5A")) == ["ABC", "A"]

    def test_line_split_ignores_unicode_line_separators(self):
        assert extract_sequences("a\u2028b\r\nc\x85d\n") == ["a\u2028b", "c\x85d"]

    def test_whitespace_only_lines_are_kept(self):
        assert extract_sequences(" \nx") == [" ", "x"]

    def test_bytes_input_decoded(self):
        assert extract_sequences("abc\ndef".encode()) == ["abc", "def"]

    def test_bad_utf8_reports_byte_offset(self):
        with pytest.raises(FormatError, match="byte offset 3"):
            extract_sequences(b"abc\xff\xfe")

    def test_codepoint_range_filter(self):
        f = codepoint_range_filter("41-5A")
        assert extract_sequences("xxABCyyA", f) == ["ABC", "A"]

    def test_codepoint_filter_rejects_an_empty_range(self):
        with pytest.raises(ParameterError, match="^empty codepoint range '5A-41'$"):
            codepoint_range_filter("41-5A,5A-41")

    def test_codepoint_filter_rejects_garbage(self):
        with pytest.raises(ParameterError):
            codepoint_range_filter("ZZ-QQ")

    @pytest.mark.parametrize("spec", ["110000", "41-110000"])
    def test_codepoint_filter_rejects_code_points_past_10ffff(self, spec):
        with pytest.raises(ParameterError, match=f"^codepoint range '{spec}' goes past 10FFFF$"):
            codepoint_range_filter(spec)

    @pytest.mark.parametrize("spec", ["+4_1-0x5A", "\u0664\u0661-5A", "41 - 5A", "0x41"])
    def test_codepoint_filter_bounds_take_one_to_six_ascii_hex_digits(self, spec):
        # int(x, 16) takes each of these bounds
        with pytest.raises(ParameterError, match=f"^bad codepoint range {re.escape(repr(spec))}$"):
            codepoint_range_filter(spec)

    @pytest.mark.parametrize("spec, text, runs", [
        ("41-5A,61-6A", "AZaj-kB", ["AZaj", "B"]),
        ("4E00-9FFF,3005", "x\u4e00\u3005y\u9fff", ["\u4e00\u3005", "\u9fff"]),
    ])
    def test_codepoint_filter_takes_lists_of_ranges_and_points(self, spec, text, runs):
        assert extract_sequences(text, codepoint_range_filter(spec)) == runs

    def test_codepoint_filter_takes_the_last_code_point(self):
        assert extract_sequences("a\U0010ffff\U0010ffffb", codepoint_range_filter("10FFFF")) == [
            "\U0010ffff\U0010ffff"]


class TestSplitLines:
    def test_breaks_at_newline_only(self):
        text = "a\x0bb\x0c\x1c\x1d\x1e\x85\u2028\u2029\nc"
        assert split_lines(text) == ["a\x0bb\x0c\x1c\x1d\x1e\x85\u2028\u2029", "c"]

    def test_final_newline_ends_last_line(self):
        assert split_lines("") == []
        assert split_lines("a\n") == ["a"]
        assert split_lines("a\n\n") == ["a", ""]

    def test_crlf_tolerated(self):
        assert split_lines("a\r\nb\r\n") == ["a", "b"]
        assert split_lines("a\rb") == ["a\rb"]


class TestBuildTable:
    def test_abab_prunes_singletons(self):
        table = build_table(Corpus(["ABAB"]), {2})
        assert table.counts == {"AB": 2}
        assert table.corpus_size == 4

    def test_overlapping_occurrences_counted(self):
        table = build_table(Corpus(["AAAA"]), {2, 3})
        assert table.counts == {"AA": 3, "AAA": 2}

    def test_counts_never_span_sequences(self):
        table = build_table(Corpus(["AB", "CD", "AB", "CD"]), {2})
        assert table.counts == {"AB": 2, "CD": 2}
        assert table.count("BC") == 1

    def test_random_corpora_match_naive_oracle(self):
        rng = random.Random(17)
        alphabet = "ABCDE"
        sequences = [
            "".join(rng.choice(alphabet) for _ in range(20)) for _ in range(1000)
        ]
        orders = range(2, 7)
        table = build_table(Corpus(sequences), orders)
        for n in orders:
            expected = {g: c for g, c in naive_counts(sequences, n).items() if c >= 2}
            got = {g: c for g, c in table.counts.items() if len(g) == n}
            assert got == expected

    def test_hundred_thousand_character_corpus_exact(self):
        rng = random.Random(19)
        sequences = []
        chars = 0
        while chars < 100_000:
            length = rng.randint(5, 60)
            sequences.append("".join(rng.choice("abcdefg") for _ in range(length)))
            chars += length
        table = build_table(Corpus(sequences), range(2, 7))
        for n in range(2, 7):
            expected = {g: c for g, c in naive_counts(sequences, n).items() if c >= 2}
            got = {g: c for g, c in table.counts.items() if len(g) == n}
            assert got == expected

    def test_order_below_two_rejected(self):
        with pytest.raises(ParameterError):
            build_table(Corpus(["ABAB"]), {1, 2})

    def test_empty_orders_rejected(self):
        with pytest.raises(ParameterError):
            build_table(Corpus(["ABAB"]), set())

    def test_tab_in_sequence_rejected(self):
        with pytest.raises(ParameterError):
            build_table(Corpus(["A\tB"]), {2})

    def test_a_run_of_windows_that_end_with_a_step_and_go_on_past_it(self):
        # Every character of KANJI takes a 12-bit rank, and under 4,097 corpus
        # characters a position takes 12 bits, so the first step packs
        # (63 - 12) // 12 = 4 characters and orders 5-8 take later steps.  The runs
        # of abcd and wxyz each hold windows that end with that step (the sequences
        # of 4 characters) and windows that go on past it; the first run's head
        # ends with the step, the second's goes on.
        sequences = ["".join(KANJI[i : i + 50]) for i in range(0, 3000, 50)]
        abcd, wxyz, efgh = ("".join(KANJI[i : i + 28 : 7]) for i in (1, 2, 3))
        sequences += [abcd, abcd + efgh, abcd, abcd + efgh[:1], abcd + efgh,
                      wxyz + efgh, wxyz, wxyz + efgh[:3], wxyz, wxyz + efgh]
        text = "".join(sequences)
        assert len(set(text)) == 3000 and (len(text) - 1).bit_length() == 12
        orders = range(1, 9)
        (blocks,) = _code_blocks(*_count_windows(sequences, dict.fromkeys(orders, 1)))
        for n in orders:
            assert _block_dict({n: blocks[n]}) == naive_counts(sequences, n), n
        table = build_table(Corpus(sequences), range(2, 9))
        assert table.counts == {g: c for n in range(2, 9)
                                for g, c in naive_counts(sequences, n).items() if c >= 2}

    def test_counting_walk_memory_per_corpus_character(self):
        # Only the keys, positions, ranks and characters left are as long as the
        # corpus: 24.4 bytes a character here, against 37.8 when each step also kept
        # an int64 XOR of neighbouring keys and compared it in full once per order.
        corpus, _ = generate_corpus(make_zipf_lexicon(50, 10, seed=100),
                                    target_chars=200_000, seed=11)
        tracemalloc.start()
        try:
            _count_windows(corpus, {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / sum(map(len, corpus)) < 30

    def test_loader_memory_per_table_byte(self):
        # The codes, separators, fields and code matrix are each freed after their
        # last use, all before the grams are keyed: 11.1 bytes a table-file byte
        # here, against 17.4 when they all stayed alive while the grams were keyed.
        corpus, _ = generate_corpus(make_zipf_lexicon(50, 10, seed=100),
                                    target_chars=200_000, seed=11)
        buf = io.BytesIO()
        size = build_table(Corpus(corpus), range(2, 7)).save(buf)
        source = io.BytesIO(buf.getvalue())
        tracemalloc.start()
        try:
            NGramTable.load(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / size < 13


class TestCount:
    @pytest.fixture
    def table(self):
        return build_table(Corpus(["ABAB"]), {2})

    def test_stored_count(self, table):
        assert table.count("AB") == 2

    def test_pruned_singleton_counts_one(self, table):
        assert table.count("BA") == 1

    def test_unseen_counts_one(self, table):
        assert table.count("ZZ") == 1

    def test_unsupported_order_raises(self, table):
        with pytest.raises(UnsupportedOrderError):
            table.count("ABC")

    def test_require_orders_names_the_missing(self, table):
        table.require_orders({2})
        with pytest.raises(UnsupportedOrderError, match=r"orders \[3, 5\]"):
            table.require_orders({2, 5, 3})

    def test_count_and_require_orders_give_one_message(self, table):
        with pytest.raises(UnsupportedOrderError) as by_count:
            table.count("ABC")
        with pytest.raises(UnsupportedOrderError) as by_check:
            table.require_orders({3})
        assert str(by_count.value) == str(by_check.value) == "table does not cover orders [3]"

    def test_multi_step_key_lookups(self):
        # a key of orders 2-6 over KANJI takes two steps
        kanji = KANJI
        sequences = ["".join(kanji[i : i + 50]) for i in range(0, 3000, 50)] * 2
        sequences.append(kanji[7] * 8)
        table = build_table(Corpus(sequences), range(2, 7))
        counts = table.counts
        assert len(counts.steps) == 2
        lookups = {
            "".join(kanji[10:16]): 2,  # stored, found in both steps
            "".join(kanji[10:15]): 2,  # a stored order-5 gram, a 0 rank in the second step
            kanji[7] * 6: 3,
            kanji[7] * 2: 7,
            "".join(kanji[10:15]) + kanji[17]: None,  # a stored first step only
            "".join(kanji[48:54]): None,  # spans two sequences
            kanji[10] + "x": None,  # a character outside the alphabet
        }
        for gram, count in lookups.items():
            assert counts.get(gram) == count, gram
            assert table.count(gram) == (count or 1)
        with pytest.raises(KeyError):
            counts["".join(kanji[10:15]) + kanji[17]]
        assert dict(counts) == dict(counts.items()) == {
            g: c for n in range(2, 7) for g, c in naive_counts(sequences, n).items() if c >= 2}


class TestDictGivenTable:
    def test_empty_gram_iterates_and_is_refused_by_save(self):
        counts = {"": 2, "ab": 3}
        table = NGramTable({2}, counts, 4)
        assert list(table.counts.items()) == [("", 2), ("ab", 3)]
        assert table.counts == counts and counts == table.counts
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match=re.escape("gram of order 0 is not of the orders [2]")):
            table.save(buf)
        assert buf.getvalue() == b""

    def test_repr_and_equality_with_other_types_key_nothing(self):
        # a count that is not an int is refused when the dict is keyed, not here
        table = NGramTable({2}, {"ab": 2.0}, 4)
        assert repr(table) == "NGramTable(orders=[2], entries=1, corpus_size=4)"
        assert repr(build_table(Corpus(["ABAB"]), {2, 3})) == (
            "NGramTable(orders=[2, 3], entries=1, corpus_size=4)")
        assert table != 3 and not table == 3
        grid = GridView([(2,)], np.array([0.5]), lambda s: s)
        assert grid != 3 and not grid == 3


class TestSaveLoad:
    def roundtrip(self, table):
        buf = io.BytesIO()
        table.save(buf)
        buf.seek(0)
        return NGramTable.load(buf)

    def test_roundtrip_abab(self):
        table = build_table(Corpus(["ABAB"]), {2})
        assert self.roundtrip(table) == table

    def test_roundtrip_empty_counts(self):
        table = build_table(Corpus(["QRSTUV"]), {2, 3})
        assert table.counts == {}
        assert self.roundtrip(table) == table

    def test_roundtrip_random_corpus(self):
        rng = random.Random(3)
        sequences = ["".join(rng.choice("abc") for _ in range(30)) for _ in range(50)]
        table = build_table(Corpus(sequences), range(2, 7))
        assert self.roundtrip(table) == table

    def test_file_roundtrip(self, tmp_path):
        table = build_table(Corpus(["ABAB", "ABAB"]), {2, 3})
        path = tmp_path / "t.tab"
        written = table.save(path)
        assert written == path.stat().st_size
        assert NGramTable.load(path) == table

    def test_deterministic_bytes(self):
        corpus = Corpus(["ABAB", "XYXY", "ABXY"])
        first, second = io.BytesIO(), io.BytesIO()
        build_table(corpus, {2, 3}).save(first)
        build_table(corpus, {2, 3}).save(second)
        assert first.getvalue() == second.getvalue()

    def test_format_layout(self):
        table = build_table(Corpus(["ABAB"]), {2})
        buf = io.BytesIO()
        table.save(buf)
        assert buf.getvalue().decode() == "tango-ngrams v1\ncorpus_size 4\norders 2\n2\t2\tAB\n"

    def test_version_mismatch(self):
        with pytest.raises(FormatError, match="line 1"):
            NGramTable.load(io.BytesIO(b"tango-ngrams v99\ncorpus_size 4\norders 2\n"))

    def test_malformed_entry_reports_line(self):
        payload = b"tango-ngrams v1\ncorpus_size 4\norders 2\n2\t2\tAB\n2\tnope\tBA\n"
        with pytest.raises(FormatError, match="line 5"):
            NGramTable.load(io.BytesIO(payload))

    def test_gram_length_mismatch(self):
        payload = b"tango-ngrams v1\ncorpus_size 4\norders 2\n2\t2\tABC\n"
        with pytest.raises(FormatError, match="length"):
            NGramTable.load(io.BytesIO(payload))

    def test_duplicate_gram_rejected(self):
        # each message quotes the gram from the keyed table: a non-BMP character's too
        wide = KANJI[2998] * 5 + KANJI[2999]
        for entries, gram, line in [("orders 2\n2\t2\tAB\n2\t3\tAB\n", "AB", 5),
                                    (two_step_entries(wide, wide), wide, 1504),
                                    ("orders 2\n2\t2\t\U00020000b\n2\t3\t\U00020000b\n",
                                     "\U00020000b", 5)]:
            payload = f"tango-ngrams v1\ncorpus_size 9\n{entries}".encode()
            message = re.escape(f"duplicate gram {gram!r} (line {line})")
            with pytest.raises(FormatError, match=message):
                NGramTable.load(io.BytesIO(payload))

    @pytest.mark.parametrize("entries, line, after", [
        # grams decreasing within an order, then orders descending, each named by its entries
        pytest.param("orders 2,3\n2\t2\tBA\n2\t3\tAB\n", 5, "BA", id="2\t2\tBA\n2\t3\tAB\n"),
        pytest.param("orders 2,3\n3\t2\tABC\n2\t3\tAB\n", 5, "ABC", id="3\t2\tABC\n2\t3\tAB\n"),
        # decreasing in the first key step only, the sixth ranks ascending: step ids
        # numbered in file order, not in key order, would read these as ascending
        pytest.param(two_step_entries(KANJI[2999] * 5 + KANJI[2998], KANJI[2998] * 5 + KANJI[2999]),
                     1504, KANJI[2999] * 5 + KANJI[2998], id="two steps, first decreasing"),
        pytest.param(two_step_entries(KANJI[2998] * 5 + KANJI[2999], KANJI[2998] * 6),
                     1504, KANJI[2998] * 5 + KANJI[2999], id="two steps, second decreasing"),
        # the gram before is quoted from the keyed table, a non-BMP character too
        pytest.param("orders 2\n2\t2\t\U00020000b\n2\t3\t\U00020000a\n", 5, "\U00020000b",
                     id="non-BMP"),
    ])
    def test_out_of_order_entries_rejected(self, entries, line, after):
        payload = f"tango-ngrams v1\ncorpus_size 9\n{entries}".encode()
        message = re.escape(f"entry out of order after {after!r} (line {line})")
        with pytest.raises(FormatError, match=message):
            NGramTable.load(io.BytesIO(payload))

    def test_lone_surrogate_rejected_before_writing(self):
        table = build_table(Corpus(["\ud800ab\ud800ab"]), {2})
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match=r"gram '\\ud800a'"):
            table.save(buf)
        assert buf.getvalue() == b""

    def test_unstorable_gram_rejected_before_writing(self):
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match="tab, newline or CR"):
            NGramTable({2}, {"A\t": 2}, 4).save(buf)
        assert buf.getvalue() == b""

    def rejected_before_writing(self, table, message):
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match=message):
            table.save(buf)
        assert buf.getvalue() == b""

    def test_gram_of_undeclared_order_rejected_before_writing(self):
        # written without it, the file would load back as another table
        self.rejected_before_writing(NGramTable({2}, {"ab": 3, "abc": 5}, 10),
                                     r"order 3 is not of the orders \[2\]")

    def test_singleton_rejected_before_writing(self):
        # the loader rejects stored counts below 2 at their line
        with pytest.raises(FormatError, match=r">= 2 \(line 4\)"):
            NGramTable.load(io.BytesIO(b"tango-ngrams v1\ncorpus_size 10\norders 2\n2\t1\tab\n"))
        self.rejected_before_writing(NGramTable({2}, {"ab": 1}, 10),
                                     "gram 'ab' has count 1, below 2")

    def test_negative_corpus_size_rejected_before_writing(self):
        self.rejected_before_writing(NGramTable({2}, {"ab": 3}, -1),
                                     "corpus_size must be >= 0, got -1")

    @pytest.mark.parametrize("orders", [set(), {1, 2}])
    def test_declared_order_below_two_rejected_before_writing(self, orders):
        self.rejected_before_writing(NGramTable(orders, {}, 4), "declared orders")

    def test_non_integer_declared_order_rejected_before_writing(self):
        # written as "orders 2.0", which the loader refuses at line 3
        self.rejected_before_writing(
            NGramTable({2.0}, {"ab": 2}, 2),
            re.escape("declared orders must be one or more integers >= 2, got [2.0]"))

    @pytest.mark.parametrize("count", [3.0, "3", True])
    def test_count_that_is_not_an_int_rejected_before_writing(self, count):
        # a float was written as 3.0, which the loader refuses
        self.rejected_before_writing(NGramTable({2}, {"ab": 3, "cd": count}, 9),
                                     re.escape(f"gram 'cd' has count {count!r}, not an int"))

    @pytest.mark.parametrize("count", [10**18, 2**63, 10**30])
    def test_count_over_eighteen_digits_rejected_before_writing(self, count):
        self.rejected_before_writing(NGramTable({2}, {"ab": 5, "cd": count}, 9),
                                     f"gram 'cd' has count {count}, over 18 digits")

    def test_highest_order_round_trips(self):
        table = build_table(Corpus(["ab" * 40]), {2, 64})
        assert table.counts == {"ab" * 32: 9, "ba" * 32: 8, "ab": 40, "ba": 39}
        assert self.roundtrip(table) == table

    def test_eighteen_digit_count_round_trips(self):
        table = NGramTable({2}, {"ab": 10**18 - 1}, 9)
        assert self.roundtrip(table) == table

    @pytest.mark.parametrize("field", ["+5", " 5", "5 ", "5_0", "\u0665", "-1", "", "1" + "0" * 18])
    @pytest.mark.parametrize("entry", ["2\t{}\tAB\n", "{}\t5\tAB\n"], ids=["count", "order"])
    def test_integer_fields_take_one_to_eighteen_ascii_digits(self, field, entry):
        # int() takes every one of these but the empty field; the last has 19 digits
        payload = "tango-ngrams v1\ncorpus_size 9\norders 2\n2\t2\tAA\n" + entry.format(field)
        with pytest.raises(FormatError, match=r"^non-integer order or count \(line 5\)$"):
            NGramTable.load(io.StringIO(payload))

    def test_eighteen_digit_fields_load(self):
        payload = "tango-ngrams v1\ncorpus_size 9\norders 2\n0002\t" + "9" * 18 + "\tAB\n"
        assert NGramTable.load(io.StringIO(payload)).counts == {"AB": 10**18 - 1}

    def test_gram_holding_a_tab_rejected(self):
        # a third tab no longer falls into the gram, where it would make "A\tB" of order 3
        payload = "tango-ngrams v1\ncorpus_size 9\norders 3\n3\t2\tA\tB\n"
        with pytest.raises(FormatError, match=r"^entry needs 3 tab-separated fields \(line 4\)$"):
            NGramTable.load(io.StringIO(payload))

    def test_lowest_failing_line_reported_with_its_first_failing_check(self):
        payload = ("tango-ngrams v1\ncorpus_size 9\norders 2,3\n2\t2\tAB\n"
                   "3\t1\tABCD\n"  # line 5: length and count both fail; length is checked first
                   "2\tx\tAB\n2\t2\n")  # lines 6 and 7 fail earlier checks
        with pytest.raises(FormatError, match=r"^gram length 4 does not match order 3 \(line 5\)$"):
            NGramTable.load(io.StringIO(payload))

    def test_file_without_final_newline_loads(self):
        payload = "tango-ngrams v1\ncorpus_size 4\norders 2\n2\t2\tAB"
        assert NGramTable.load(io.StringIO(payload)) == NGramTable({2}, {"AB": 2}, 4)

    def test_negative_corpus_size_rejected(self):
        payload = b"tango-ngrams v1\ncorpus_size -5\norders 2\n"
        with pytest.raises(FormatError, match="line 2"):
            NGramTable.load(io.BytesIO(payload))

    @pytest.mark.parametrize("line, number, message", [
        ("corpus_size +5", 2, "bad corpus_size value"),
        ("corpus_size 5_0", 2, "bad corpus_size value"),
        ("corpus_size \u0665", 2, "bad corpus_size value"),
        ("orders +2, 3", 3, "bad orders list"),
    ])
    def test_header_integers_take_one_to_eighteen_ascii_digits(self, line, number, message):
        # int() takes each of these, 5_0 as 50; the entry fields' rule refuses them
        header = ["tango-ngrams v1", "corpus_size 4", "orders 2"]
        header[number - 1] = line
        payload = "\n".join(header) + "\n2\t2\tAB\n"
        with pytest.raises(FormatError, match=rf"^{message} \(line {number}\)$"):
            NGramTable.load(io.StringIO(payload))

    @pytest.mark.parametrize("line, number, message", [
        ("size 4", 2, "expected 'corpus_size <int>'"),
        ("orders 1,2", 3, "orders must all be >= 2"),
        # refused at once: each declared order up to the highest takes a key slot
        ("orders 2,65", 3, "orders must all be <= 64"),
        ("orders 2,4000000", 3, "orders must all be <= 64"),
    ])
    def test_bad_header_line_refused_at_its_line(self, line, number, message):
        header = ["tango-ngrams v1", "corpus_size 4", "orders 2"]
        header[number - 1] = line
        payload = "\n".join(header) + "\n2\t2\tAB\n"
        with pytest.raises(FormatError, match=rf"^{re.escape(message)} \(line {number}\)$"):
            NGramTable.load(io.StringIO(payload))

    def test_eighteen_digit_header_integers_load(self):
        payload = "tango-ngrams v1\ncorpus_size 0" + "9" * 17 + "\norders 002,3\n"
        table = NGramTable.load(io.StringIO(payload))
        assert (table.corpus_size, table.orders) == (10**17 - 1, {2, 3})
        with pytest.raises(FormatError, match=r"^bad corpus_size value \(line 2\)$"):
            NGramTable.load(io.StringIO(payload.replace(" 0", " 10")))

    def test_blocks_out_of_string_order_rejected_before_writing(self):
        grams = np.array([[66, 65], [65, 66]], np.uint32)  # "BA", "AB"
        for rows in ([0, 1], [1, 1]):  # descending, then a duplicate
            buf = io.BytesIO()
            with pytest.raises(ParameterError, match="order 2 are not in strictly ascending"):
                write_counts(buf, TABLE, 9, {2}, {2: (grams[rows], np.array([2, 3]))})
            assert buf.getvalue() == b""

    def test_block_count_below_two_rejected_before_writing_naming_its_gram(self):
        blocks = {2: (np.array([[65, 66], [65, 67]], np.uint32), np.array([2, 1]))}
        buf = io.BytesIO()
        with pytest.raises(ParameterError, match="^gram 'AC' has count 1, below 2$"):
            write_counts(buf, TABLE, 9, {2}, blocks)
        assert buf.getvalue() == b""

    def test_crlf_file_loads(self):
        payload = b"tango-ngrams v1\r\ncorpus_size 4\r\norders 2\r\n2\t2\tAB\r\n"
        assert NGramTable.load(io.BytesIO(payload)) == NGramTable({2}, {"AB": 2}, 4)

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            NGramTable.load(io.BytesIO(b"tango-ngrams v1\ncorpus_size 4\n"))


def _writers():
    """(name, write(destination) -> returned value) of each file writer."""
    corpus = Corpus(["ab\U00020000abé", "\U00020000abéab"])
    return [
        ("table", build_table(corpus, range(2, 5)).save),
        ("stats", lambda d: save_stats(BigramStats.from_corpus(corpus), d)),
        ("tango", lambda d: write_tango_params(TangoParams(frozenset({2, 4}), 0.4), d)),
        ("sst", lambda d: write_sst_params(SstParams(2.5, (1, 2, 4, 200), "mle"), d)),
        ("lexicon", lambda d: write_lexicon([LexiconEntry("é\U00020000", 1.5, "stem")], d)),
    ]


@pytest.mark.parametrize("stream", [io.StringIO, io.BytesIO])
@pytest.mark.parametrize("name", [name for name, _ in _writers()])
def test_writers_take_text_and_binary_streams(tmp_path, name, stream):
    write = dict(_writers())[name]
    path = tmp_path / name
    written = write(path)
    buf = stream()
    assert write(buf) == written
    expected = path.read_bytes()
    assert buf.getvalue() == (expected.decode("utf-8") if stream is io.StringIO else expected)
