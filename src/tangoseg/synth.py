"""Synthetic corpora with known two-level structure.

Words are sampled from a weighted toy lexicon of stems and single-character
suffixes and concatenated into delimiter-free sequences.  A stem optionally
takes a suffix, which yields the two-level gold structure: the word bracket
spans stem plus suffix, the morpheme brackets split them.  All sampling is
driven by one seed, so corpora are reproducible: _draw_words reads the
seeded random.Random stream's 32-bit words in chunks and computes from them,
as arrays, the words that randint and choices would draw one at a time.
"""

import math
import random
import string
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .annotations import TwoLevelAnnotation
from .errors import FormatError, ParameterError
from .ngrams import read_lines, write_to

__all__ = [
    "LexiconEntry",
    "generate_corpus",
    "make_zipf_lexicon",
    "read_lexicon",
    "write_lexicon",
]

ROLES = ("stem", "suffix")

DEFAULT_ALPHABET = string.ascii_uppercase + string.ascii_lowercase


@dataclass(frozen=True)
class LexiconEntry:
    word: str
    weight: float
    role: str

    def __post_init__(self):
        if not self.word:
            raise ParameterError("lexicon word must be non-empty")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ParameterError(f"weight for {self.word!r} must be finite and positive")
        if self.role not in ROLES:
            raise ParameterError(f"role must be one of {ROLES}, got {self.role!r}")


def _lexicon_entry(line: str) -> "LexiconEntry | None":
    if not line.strip():
        return None
    if line.count("\t") != 2:
        raise FormatError("expected word<TAB>weight<TAB>role")
    word, weight, role = line.split("\t")
    return LexiconEntry(word, float(weight), role)


def read_lexicon(source) -> list[LexiconEntry]:
    """Read ``word<TAB>weight<TAB>role`` lines; blank lines are skipped."""
    entries = read_lines(source, _lexicon_entry)
    if not entries:
        raise FormatError("lexicon is empty", path=source)
    return entries


def write_lexicon(entries, destination) -> None:
    # str() keeps the full float so read(write(x)) round-trips exactly
    write_to(destination, "".join(f"{e.word}\t{e.weight}\t{e.role}\n" for e in entries))


def make_zipf_lexicon(
    n_stems: int = 50,
    n_suffixes: int = 10,
    seed: int = 0,
    alphabet: str = DEFAULT_ALPHABET,
    stem_lengths: tuple[int, ...] = (2, 3),
    exponent: float = 1.1,
) -> list[LexiconEntry]:
    """Random distinct stems and single-character suffixes with Zipf weights
    (weight of the rank-r item proportional to 1/r^exponent)."""
    if n_stems < 1:
        raise ParameterError("need at least one stem")
    if len(set(alphabet)) < len(alphabet):  # suffixes are drawn by position
        repeated = next(c for i, c in enumerate(alphabet) if c in alphabet[:i])
        raise ParameterError(f"alphabet repeats {repeated!r}")
    if len(alphabet) < n_suffixes:
        raise ParameterError("alphabet too small for the requested suffixes")
    possible = sum(len(alphabet) ** length for length in set(stem_lengths))
    if n_stems > possible:
        raise ParameterError(f"only {possible} distinct stems exist, {n_stems} requested")
    rng = random.Random(seed)
    stems: dict[str, None] = {}  # distinct, in draw order
    while len(stems) < n_stems:
        length = rng.choice(stem_lengths)
        stems.setdefault("".join(rng.choice(alphabet) for _ in range(length)))
    suffixes = rng.sample(alphabet, n_suffixes)
    return [LexiconEntry(word, 1.0 / (rank + 1) ** exponent, role)
            for role, words in zip(ROLES, (stems, suffixes))
            for rank, word in enumerate(words)]


WORDS_MAX = 1024  # at 6 stream words a word, one sequence fits one chunk
_CHUNK_WORDS = 1 << 13  # 32-bit stream words drawn at a time


def _draw_words(lexicon, sequences, target_chars, seed, words_min, words_max, suffix_prob):
    """Yield generate_corpus's sequences in blocks (lines, words, ends):
    object arrays of the block's word texts, "\\n" ending each sequence, and
    of its words as morpheme tuples, and the index past each sequence.

    random() at stream word i is (w[i] >> 5, w[i + 1] >> 6) as 53 bits, and
    randint takes the top bits of w[i], retrying on the next word while out
    of range.  A word reads 2 stream words for its stem, 2 for its suffix
    flag (when there are suffixes) and 2 for a flagged suffix.  One loop
    follows that order through a chunk of _CHUNK_WORDS; the draws are array
    lookups at the positions it visits.  A sequence that runs past a chunk
    is drawn again with the next.
    """
    if (sequences is None) == (target_chars is None):
        raise ParameterError("specify exactly one of sequences / target_chars")
    if (sequences if sequences is not None else target_chars) < 1:
        raise ParameterError("sequences and target_chars must be at least 1")
    if not 1 <= words_min <= words_max <= WORDS_MAX:
        raise ParameterError(f"need 1 <= words_min <= words_max <= {WORDS_MAX}")
    if not 0.0 <= suffix_prob <= 1.0:
        raise ParameterError("suffix_prob must be in [0, 1]")
    stems, stem_cum, stem_total = _role_weights(lexicon, "stem")
    if not stems:
        raise ParameterError("lexicon has no stems")
    suffixes, suffix_cum, suffix_total = _role_weights(lexicon, "suffix")
    # token t: stem t // (S + 1) with suffix t % (S + 1) - 1 of S, if any;
    # t + len(words) is the same word ending its sequence
    words = [(s, *x) for s in stems for x in [()] + [(x,) for x in suffixes]]
    texts = list(map("".join, words))
    lengths = np.array(list(map(len, texts)))
    morphemes = np.fromiter(words * 2, object, 2 * len(words))
    lines = np.array(texts + [t + "\n" for t in texts], object)
    width = words_max - words_min + 1
    rng, tail = random.Random(seed), np.empty(0, np.uint32)
    count = chars = 0
    while True:
        fresh = rng.getrandbits(32 * _CHUNK_WORDS).to_bytes(4 * _CHUNK_WORDS, "little")
        w = np.concatenate((tail, np.frombuffer(fresh, "<u4")))
        size = len(w)
        u = ((w[:-1] >> 5) * 67108864.0 + (w[1:] >> 6)) * (1.0 / 9007199254740992.0)
        # the stream words a word starting here takes; near the end, more than are left
        steps = np.full(size + 6 * words_max, 6 if suffixes else 2, np.uint8)
        if suffixes:
            steps[: size - 3] = np.where(u[2:] < suffix_prob, 6, 4)
        # each stream word's randint value, then an accepted 0 to stop at
        values = memoryview(np.append(w >> (32 - width.bit_length()), 0).astype(np.uint16))
        stride = steps.tobytes()
        at, ends = [], []  # each word's stream position; words done at each sequence end
        put, p, end = at.append, 0, 0
        while True:
            while values[p] >= width:
                p += 1
            if p == size:
                break
            n = words_min + values[p]
            p += 1
            for _ in range(n):
                put(p)
                p += stride[p]
            if p > size:
                break
            ends.append(len(at))
            end = p
        tail = w[end:]
        if not ends:
            continue
        at = np.array(at[: ends[-1]])
        tokens = np.searchsorted(stem_cum, u[at] * stem_total, "right") * (len(suffixes) + 1)
        flagged = steps[at] == 6
        tokens[flagged] += 1 + np.searchsorted(
            suffix_cum, u[at[flagged] + 4] * suffix_total, "right")
        cum = chars + np.cumsum(lengths[tokens])[np.array(ends) - 1]
        # the sequences up to the one that meets the count or the character target
        ends = ends[: sequences - count if sequences else np.searchsorted(cum, target_chars) + 1]
        tokens = tokens[: ends[-1]]
        count, chars = count + len(ends), int(cum[len(ends) - 1])
        tokens[np.array(ends) - 1] += len(words)
        yield lines[tokens], morphemes[tokens], ends
        if (count >= sequences) if sequences is not None else (chars >= target_chars):
            return


def _sequences(words, ends) -> list:
    """One block's sequences as nested morpheme strings."""
    words = words.tolist()
    return [words[a:b] for a, b in zip([0] + ends, ends)]


def _role_weights(lexicon, role: str) -> tuple[list[str], np.ndarray, float]:
    """Words of one role, their accumulated weights but the last (what
    bisect searches in choices) and the weights' float total."""
    entries = [e for e in lexicon if e.role == role]
    cum = list(accumulate(e.weight for e in entries))
    total = cum[-1] + 0.0 if cum else 0.0
    if not math.isfinite(total):
        raise ParameterError(f"{role} weights sum to {total}: too large to sample from")
    return [e.word for e in entries], np.array(cum[:-1]), total


def generate_corpus(
    lexicon,
    sequences: "int | None" = None,
    target_chars: "int | None" = None,
    seed: int = 0,
    words_min: int = 3,
    words_max: int = 8,
    suffix_prob: float = 0.35,
) -> tuple[list[str], list[TwoLevelAnnotation]]:
    """Sample annotated sequences until a count or character target is met.

    Each sequence concatenates words_min..words_max (<= WORDS_MAX) words; each
    word is a weighted-sampled stem, suffixed with probability suffix_prob when
    the lexicon has suffixes.  Returns the raw sequences and their annotations.
    """
    blocks = _draw_words(lexicon, sequences, target_chars, seed, words_min, words_max, suffix_prob)
    annotations = [TwoLevelAnnotation.from_segments(words)
                   for _, block, ends in blocks for words in _sequences(block, ends)]
    return [a.sequence for a in annotations], annotations
