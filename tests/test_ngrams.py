import io
import random

import pytest

from tangoseg import (
    Corpus,
    FormatError,
    NGramTable,
    ParameterError,
    UnsupportedOrderError,
    build_table,
    codepoint_range_filter,
    extract_sequences,
    load_table,
    save_table,
)
from tangoseg.ngrams import split_lines

from naive import naive_counts


class TestExtractSequences:
    def test_line_split_drops_empty_lines(self):
        assert extract_sequences("abc\n\ndef") == ["abc", "def"]

    def test_digit_filter_takes_maximal_runs(self):
        assert extract_sequences("ab1cd22e", str.isdigit) == ["1", "22"]

    def test_uppercase_filter(self):
        assert extract_sequences("xxABCyyA", str.isupper) == ["ABC", "A"]

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
        assert f.description == "codepoints 41-5A"

    def test_codepoint_filter_rejects_garbage(self):
        with pytest.raises(ParameterError):
            codepoint_range_filter("ZZ-QQ")


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


class TestSaveLoad:
    def roundtrip(self, table):
        buf = io.BytesIO()
        save_table(table, buf)
        buf.seek(0)
        return load_table(buf)

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
            load_table(io.BytesIO(b"tango-ngrams v99\ncorpus_size 4\norders 2\n"))

    def test_malformed_entry_reports_line(self):
        payload = b"tango-ngrams v1\ncorpus_size 4\norders 2\n2\t2\tAB\n2\tnope\tBA\n"
        with pytest.raises(FormatError, match="line 5"):
            load_table(io.BytesIO(payload))

    def test_gram_length_mismatch(self):
        payload = b"tango-ngrams v1\ncorpus_size 4\norders 2\n2\t2\tABC\n"
        with pytest.raises(FormatError, match="length"):
            load_table(io.BytesIO(payload))

    def test_duplicate_gram_rejected(self):
        payload = b"tango-ngrams v1\ncorpus_size 9\norders 2\n2\t2\tAB\n2\t3\tAB\n"
        with pytest.raises(FormatError, match=r"duplicate gram 'AB' \(line 5\)"):
            load_table(io.BytesIO(payload))

    def test_negative_corpus_size_rejected(self):
        payload = b"tango-ngrams v1\ncorpus_size -5\norders 2\n"
        with pytest.raises(FormatError, match="line 2"):
            load_table(io.BytesIO(payload))

    def test_crlf_file_loads(self):
        payload = b"tango-ngrams v1\r\ncorpus_size 4\r\norders 2\r\n2\t2\tAB\r\n"
        assert load_table(io.BytesIO(payload)) == NGramTable({2}, {"AB": 2}, 4)

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            load_table(io.BytesIO(b"tango-ngrams v1\ncorpus_size 4\n"))
