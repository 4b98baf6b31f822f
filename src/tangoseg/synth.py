"""Synthetic corpora with known two-level structure.

Words are sampled from a weighted toy lexicon of stems and single-character
suffixes and concatenated into delimiter-free sequences.  A stem optionally
takes a suffix, which yields the two-level gold structure: the word bracket
spans stem plus suffix, the morpheme brackets split them.  All sampling is
driven by one seed, so corpora are reproducible.
"""

import math
import random
import string
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from .annotations import TwoLevelAnnotation
from .errors import FormatError, ParameterError
from .ngrams import read_source, split_lines, write_to

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


def read_lexicon(source) -> list[LexiconEntry]:
    """Read ``word<TAB>weight<TAB>role`` lines."""
    entries = []
    for lineno, line in enumerate(split_lines(read_source(source)), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError("expected word<TAB>weight<TAB>role", line=lineno)
        word, weight, role = parts
        try:
            entries.append(LexiconEntry(word, float(weight), role))
        except (ValueError, ParameterError) as exc:
            raise FormatError(str(exc), line=lineno) from None
    if not entries:
        raise FormatError("lexicon is empty")
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
    if len(alphabet) < n_suffixes:
        raise ParameterError("alphabet too small for the requested suffixes")
    rng = random.Random(seed)
    stems: dict[str, None] = {}  # distinct, in draw order
    while len(stems) < n_stems:
        length = rng.choice(stem_lengths)
        stems.setdefault("".join(rng.choice(alphabet) for _ in range(length)))
    suffixes = rng.sample(alphabet, n_suffixes)
    entries = [
        LexiconEntry(word, 1.0 / (rank + 1) ** exponent, "stem")
        for rank, word in enumerate(stems)
    ]
    entries += [
        LexiconEntry(ch, 1.0 / (rank + 1) ** exponent, "suffix")
        for rank, ch in enumerate(suffixes)
    ]
    return entries


def _draw_words(lexicon, sequences, target_chars, seed, words_min, words_max, suffix_prob):
    """Yield the sequences of generate_corpus as nested morpheme strings, e.g.
    [["data", "base"], ["system"]].  Each stem and suffix is drawn as
    rng.choices(words, cum_weights=cum)[0] draws it, minus its one-item list."""
    if (sequences is None) == (target_chars is None):
        raise ParameterError("specify exactly one of sequences / target_chars")
    if (sequences if sequences is not None else target_chars) < 1:
        raise ParameterError("sequences and target_chars must be at least 1")
    if words_min < 1 or words_max < words_min:
        raise ParameterError("need 1 <= words_min <= words_max")
    if not 0.0 <= suffix_prob <= 1.0:
        raise ParameterError("suffix_prob must be in [0, 1]")
    stems, stem_cum, stem_total = _role_weights(lexicon, "stem")
    if not stems:
        raise ParameterError("lexicon has no stems")
    suffixes, suffix_cum, suffix_total = _role_weights(lexicon, "suffix")
    stem_hi, suffix_hi = len(stems) - 1, len(suffixes) - 1
    rng = random.Random(seed)
    draw = rng.random
    count = chars = 0
    while (count < sequences) if sequences is not None else (chars < target_chars):
        words = []
        for _ in range(rng.randint(words_min, words_max)):
            stem = stems[bisect(stem_cum, draw() * stem_total, 0, stem_hi)]
            chars += len(stem)
            if suffixes and draw() < suffix_prob:
                suffix = suffixes[bisect(suffix_cum, draw() * suffix_total, 0, suffix_hi)]
                chars += len(suffix)
                words.append([stem, suffix])
            else:
                words.append([stem])
        count += 1
        yield words


def _role_weights(lexicon, role: str) -> tuple[list[str], list[float], float]:
    """Words of one role, their accumulated weights and their float total."""
    entries = [e for e in lexicon if e.role == role]
    cum = list(accumulate(e.weight for e in entries))
    total = cum[-1] + 0.0 if cum else 0.0
    if not math.isfinite(total):
        raise ParameterError(f"{role} weights sum to {total}: too large to sample from")
    return [e.word for e in entries], cum, total


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

    Each sequence concatenates words_min..words_max words; each word is a
    weighted-sampled stem, suffixed with probability suffix_prob when the
    lexicon has suffixes.  Returns the raw sequences and their annotations.
    """
    drawn = _draw_words(lexicon, sequences, target_chars, seed, words_min, words_max, suffix_prob)
    annotations = list(map(TwoLevelAnnotation.from_segments, drawn))
    return [a.sequence for a in annotations], annotations
