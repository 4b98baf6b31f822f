import hashlib
import math

import pytest

from tangoseg import (
    FormatError,
    LexiconEntry,
    ParameterError,
    generate_corpus,
    make_zipf_lexicon,
    read_lexicon,
    serialize_annotation,
    write_lexicon,
)
from tangoseg.synth import WORDS_MAX


class TestLexicon:
    def test_zipf_lexicon_shape(self):
        lexicon = make_zipf_lexicon(50, 10, seed=0)
        stems = [e for e in lexicon if e.role == "stem"]
        suffixes = [e for e in lexicon if e.role == "suffix"]
        assert len(stems) == 50 and len(suffixes) == 10
        assert len({e.word for e in stems}) == 50
        assert all(len(e.word) == 1 for e in suffixes)
        assert all(e.weight > 0 for e in lexicon)
        # weights decay with rank
        weights = [e.weight for e in stems]
        assert weights == sorted(weights, reverse=True)

    def test_deterministic(self):
        assert make_zipf_lexicon(10, 3, seed=5) == make_zipf_lexicon(10, 3, seed=5)
        assert make_zipf_lexicon(10, 3, seed=5) != make_zipf_lexicon(10, 3, seed=6)

    def test_file_roundtrip(self, tmp_path):
        lexicon = make_zipf_lexicon(8, 2, seed=1)
        path = tmp_path / "lex.tsv"
        write_lexicon(lexicon, path)
        assert read_lexicon(path) == lexicon

    def test_unencodable_word_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(make_zipf_lexicon(3, 1, seed=1), path)
        before = path.read_bytes()
        with pytest.raises(ParameterError, match="cannot be encoded"):
            write_lexicon([LexiconEntry("\ud800x", 1.0, "stem")], path)
        assert path.read_bytes() == before

    def test_read_rejects_bad_role(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("ab\t1.0\tprefix\n")
        with pytest.raises(FormatError, match="line 1"):
            read_lexicon(path)

    def test_read_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("ab\t1.0\n")
        with pytest.raises(FormatError):
            read_lexicon(path)

    def test_read_rejects_an_empty_lexicon_naming_it(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("\n  \n")
        with pytest.raises(FormatError) as exc:
            read_lexicon(path)
        assert str(exc.value) == f"{path}: lexicon is empty"

    @pytest.mark.parametrize("args, message", [
        ({"n_stems": 0}, "need at least one stem"),
        ({"n_suffixes": 4, "alphabet": "abc"}, "alphabet too small for the requested suffixes"),
        # 4 stems of length 2 and 8 of length 3: drawing a 13th would never end
        ({"n_stems": 13, "n_suffixes": 2, "alphabet": "ab"},
         "only 12 distinct stems exist, 13 requested"),
        # suffixes are drawn by position: "aa" would give two suffixes "a"
        ({"n_stems": 1, "n_suffixes": 2, "alphabet": "aa", "stem_lengths": (2,)},
         "alphabet repeats 'a'"),
        ({"alphabet": "ab\U00020000cb"}, "alphabet repeats 'b'"),
    ])
    def test_zipf_lexicon_refusals(self, args, message):
        with pytest.raises(ParameterError) as exc:
            make_zipf_lexicon(**args)
        assert str(exc.value) == message

    def test_zipf_lexicon_takes_every_distinct_stem(self):
        lexicon = make_zipf_lexicon(12, 2, alphabet="ab", stem_lengths=(3, 2, 3))
        stems = [e.word for e in lexicon if e.role == "stem"]
        assert sorted(stems) == sorted(a + b + c for a in "ab" for b in "ab" for c in ["", *"ab"])

    def test_entry_validation(self):
        with pytest.raises(ParameterError):
            LexiconEntry("", 1.0, "stem")
        with pytest.raises(ParameterError):
            LexiconEntry("ab", 0.0, "stem")
        with pytest.raises(ParameterError):
            LexiconEntry("ab", 1.0, "infix")

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
    def test_entry_rejects_non_finite_weight(self, weight):
        with pytest.raises(ParameterError, match="finite and positive"):
            LexiconEntry("ab", weight, "stem")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN"])
    def test_read_rejects_non_finite_weight(self, tmp_path, weight):
        path = tmp_path / "lex.tsv"
        path.write_text(f"ab\t1.0\tstem\ncd\t{weight}\tstem\n")
        with pytest.raises(FormatError, match="line 2"):
            read_lexicon(path)


class TestGenerateCorpus:
    @pytest.fixture
    def lexicon(self):
        return make_zipf_lexicon(12, 4, seed=2)

    def test_seeded_reproducibility(self, lexicon):
        first = generate_corpus(lexicon, sequences=20, seed=9)
        second = generate_corpus(lexicon, sequences=20, seed=9)
        assert first == second
        assert first != generate_corpus(lexicon, sequences=20, seed=10)

    @pytest.mark.parametrize("n_stems, digest", [
        (50, "e99606ae1a8b8d5bd356c6eafce363b4adeb42393b5e4c01201984c7e1eb14c9"),
        (2000, "09031e05da4c995bab9903efba94d311799f96e57e55484108cfdf5bdb3f1f83"),
    ])
    def test_seeded_corpus_is_pinned(self, n_stems, digest):
        # digests of corpora drawn with choices(words, weights), before the
        # weights were accumulated once: the draws must not change
        raw, annotations = generate_corpus(make_zipf_lexicon(n_stems, 10, seed=3),
                                           sequences=400, seed=7)
        payload = "".join(r + "\n" for r in raw)
        payload += "".join(serialize_annotation(a) + "\n" for a in annotations)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_raw_matches_annotations(self, lexicon):
        raw, annotations = generate_corpus(lexicon, sequences=30, seed=3)
        assert [a.sequence for a in annotations] == raw

    def test_word_counts_in_range(self, lexicon):
        _, annotations = generate_corpus(lexicon, sequences=50, seed=4,
                                         words_min=2, words_max=4)
        assert all(2 <= len(a.words) <= 4 for a in annotations)

    def test_suffixed_words_have_two_morphemes(self, lexicon):
        suffix_chars = {e.word for e in lexicon if e.role == "suffix"}
        _, annotations = generate_corpus(lexicon, sequences=80, seed=5, suffix_prob=1.0)
        for ann in annotations:
            for morphs in ann.morphemes:
                assert len(morphs) == 2
                last = morphs[-1]
                assert ann.sequence[last.start:last.end] in suffix_chars

    def test_no_suffixes_when_probability_zero(self, lexicon):
        _, annotations = generate_corpus(lexicon, sequences=40, seed=6, suffix_prob=0.0)
        assert all(len(m) == 1 for a in annotations for m in a.morphemes)

    def test_target_chars_reached(self, lexicon):
        raw, _ = generate_corpus(lexicon, target_chars=5_000, seed=7)
        total = sum(len(s) for s in raw)
        assert total >= 5_000
        # no runaway overshoot: at most one extra sequence worth
        assert total - len(raw[-1]) < 5_000

    def test_exactly_one_target_required(self, lexicon):
        with pytest.raises(ParameterError):
            generate_corpus(lexicon, sequences=5, target_chars=100)
        with pytest.raises(ParameterError):
            generate_corpus(lexicon)

    def test_stemless_lexicon_rejected(self):
        suffix_only = [LexiconEntry("x", 1.0, "suffix")]
        with pytest.raises(ParameterError):
            generate_corpus(suffix_only, sequences=1)

    @pytest.mark.parametrize("target", [{"sequences": 0}, {"sequences": -4},
                                        {"target_chars": 0}, {"target_chars": -1}])
    def test_empty_targets_rejected(self, lexicon, target):
        with pytest.raises(ParameterError, match="at least 1"):
            generate_corpus(lexicon, **target)

    @pytest.mark.parametrize("words", [{"words_max": 1025}, {"words_max": 10**10},
                                       {"words_min": 2000, "words_max": 2000}])
    def test_words_max_above_the_bound_rejected(self, lexicon, words):
        # a sequence of WORDS_MAX words fits one chunk of the random stream
        with pytest.raises(ParameterError, match=f"words_max <= {WORDS_MAX}$"):
            generate_corpus(lexicon, sequences=1, **words)

    def test_words_max_at_the_bound(self, lexicon):
        _, annotations = generate_corpus(lexicon, sequences=2, seed=8,
                                         words_min=WORDS_MAX, words_max=WORDS_MAX)
        assert [len(a.words) for a in annotations] == [WORDS_MAX] * 2

    @pytest.mark.parametrize("role", ["stem", "suffix"])
    def test_overflowing_weights_rejected(self, role):
        # each weight is finite, their float sum is not
        lexicon = [LexiconEntry("ab", 1.0, "stem"), LexiconEntry("c", 1.0, "suffix")]
        lexicon += [LexiconEntry(w, 1e308, role) for w in ("x", "y")]
        with pytest.raises(ParameterError, match=f"{role} weights sum to inf"):
            generate_corpus(lexicon, sequences=1)
