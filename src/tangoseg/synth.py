"""Synthetic corpora with known two-level structure.

Words are sampled from a weighted toy lexicon of stems and single-character
suffixes and concatenated into delimiter-free sequences.  A stem optionally
takes a suffix, which yields the two-level gold structure: the word bracket
spans stem plus suffix, the morpheme brackets split them.  All sampling is
driven by one seed, so corpora are reproducible.
"""

import random
import string
from dataclasses import dataclass
from pathlib import Path

from .annotations import TwoLevelAnnotation
from .errors import FormatError, ParameterError
from .ngrams import split_lines

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
        if self.weight <= 0:
            raise ParameterError(f"weight for {self.word!r} must be positive")
        if self.role not in ROLES:
            raise ParameterError(f"role must be one of {ROLES}, got {self.role!r}")


def read_lexicon(source) -> list[LexiconEntry]:
    """Read ``word<TAB>weight<TAB>role`` lines."""
    if hasattr(source, "read"):
        payload = source.read()
    else:
        payload = Path(source).read_text(encoding="utf-8")
    entries = []
    for lineno, line in enumerate(split_lines(payload), start=1):
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
    payload = "".join(f"{e.word}\t{e.weight}\t{e.role}\n" for e in entries)
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_text(payload, encoding="utf-8")


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
    stems: list[str] = []
    seen = set()
    while len(stems) < n_stems:
        length = rng.choice(stem_lengths)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        if word not in seen:
            seen.add(word)
            stems.append(word)
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
    if (sequences is None) == (target_chars is None):
        raise ParameterError("specify exactly one of sequences / target_chars")
    if words_min < 1 or words_max < words_min:
        raise ParameterError("need 1 <= words_min <= words_max")
    if not 0.0 <= suffix_prob <= 1.0:
        raise ParameterError("suffix_prob must be in [0, 1]")
    stems = [e for e in lexicon if e.role == "stem"]
    suffixes = [e for e in lexicon if e.role == "suffix"]
    if not stems:
        raise ParameterError("lexicon has no stems")
    stem_words = [e.word for e in stems]
    stem_weights = [e.weight for e in stems]
    suffix_words = [e.word for e in suffixes]
    suffix_weights = [e.weight for e in suffixes]
    rng = random.Random(seed)
    raw: list[str] = []
    annotations: list[TwoLevelAnnotation] = []
    chars = 0
    while (len(raw) < sequences) if sequences is not None else (chars < target_chars):
        n_words = rng.randint(words_min, words_max)
        words = []
        for _ in range(n_words):
            morphs = [rng.choices(stem_words, stem_weights)[0]]
            if suffix_words and rng.random() < suffix_prob:
                morphs.append(rng.choices(suffix_words, suffix_weights)[0])
            words.append(morphs)
        ann = TwoLevelAnnotation.from_segments(words)
        raw.append(ann.sequence)
        annotations.append(ann)
        chars += len(ann.sequence)
    return raw, annotations
