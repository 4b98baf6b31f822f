"""Character n-gram count tables built from an unsegmented corpus.

Counting is exact per order and never spans sequence boundaries.  Grams
occurring exactly once are pruned from the table, and every lookup of a
supported order returns at least 1, so unseen grams behave as if seen once.
Counting sorts the order-n windows and run-length encodes them, which keeps
the build at O(m log m) in total corpus characters and makes serialization
order deterministic.
"""

import time
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable

from .errors import FormatError, ParameterError, UnsupportedOrderError

__all__ = [
    "Corpus",
    "NGramTable",
    "build_table",
    "codepoint_range_filter",
    "extract_sequences",
    "load_table",
    "save_table",
    "split_lines",
]

FORMAT_HEADER = "tango-ngrams v1"


def split_lines(text: str) -> list[str]:
    """Lines of text broken at "\\n" only, a trailing "\\r" dropped.

    The package writes lines ending in "\\n".  str.splitlines() would also
    break inside a line at \\x0b, \\x0c, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def extract_sequences(
    text: "str | bytes", char_filter: "Callable[[str], bool] | None" = None
) -> list[str]:
    """Split raw text into the character sequences to be indexed.

    Without a filter, each non-empty line is one sequence.  With a filter,
    every maximal run of accepted characters becomes a sequence, in document
    order.  Byte input must be valid UTF-8.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"invalid UTF-8 at byte offset {exc.start}: {exc.reason}"
            ) from exc
    if char_filter is None:
        return [line for line in split_lines(text) if line]
    sequences = []
    run: list[str] = []
    for ch in text:
        if char_filter(ch):
            run.append(ch)
        elif run:
            sequences.append("".join(run))
            run = []
    if run:
        sequences.append("".join(run))
    return sequences


class codepoint_range_filter:
    """Predicate accepting characters whose codepoint lies in given ranges.

    Takes a comma-separated list of hex codepoints or ranges, e.g.
    ``"4E00-9FFF,3005"``.
    """

    def __init__(self, spec: str):
        self.spec = spec
        self.ranges = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            lo, _, hi = part.partition("-")
            try:
                lo_cp = int(lo, 16)
                hi_cp = int(hi, 16) if hi else lo_cp
            except ValueError:
                raise ParameterError(f"bad codepoint range {part!r}") from None
            if hi_cp < lo_cp:
                raise ParameterError(f"empty codepoint range {part!r}")
            self.ranges.append((lo_cp, hi_cp))
        if not self.ranges:
            raise ParameterError("codepoint filter selects nothing")

    def __call__(self, ch: str) -> bool:
        cp = ord(ch)
        return any(lo <= cp <= hi for lo, hi in self.ranges)

    @property
    def description(self) -> str:
        return "codepoints " + self.spec


@dataclass
class Corpus:
    """A list of character sequences extracted from raw training text."""

    sequences: list[str]
    filter_description: "str | None" = None

    @classmethod
    def from_text(
        cls,
        text: "str | bytes",
        char_filter: "Callable[[str], bool] | None" = None,
    ) -> "Corpus":
        description = getattr(char_filter, "description", None)
        if char_filter is not None and description is None:
            description = repr(char_filter)
        return cls(extract_sequences(text, char_filter), description)

    @property
    def total_chars(self) -> int:
        return sum(len(s) for s in self.sequences)


class NGramTable:
    """Immutable pruned count table over a fixed set of n-gram orders.

    Safe for concurrent readers once built.  Equality compares orders,
    counts, and corpus size; build metadata is ignored.
    """

    def __init__(
        self,
        orders: Iterable[int],
        counts: dict[str, int],
        corpus_size: int,
        filter_description: "str | None" = None,
        built_at: "str | None" = None,
    ):
        self.orders = frozenset(orders)
        self.counts = counts
        self.corpus_size = corpus_size
        self.filter_description = filter_description
        self.built_at = built_at

    def __eq__(self, other):
        if not isinstance(other, NGramTable):
            return NotImplemented
        return (
            self.orders == other.orders
            and self.counts == other.counts
            and self.corpus_size == other.corpus_size
        )

    def __repr__(self):
        return (
            f"NGramTable(orders={sorted(self.orders)}, "
            f"entries={len(self.counts)}, corpus_size={self.corpus_size})"
        )

    def count(self, gram: str) -> int:
        """Occurrences of gram in the training corpus; unseen and pruned
        singletons both report 1."""
        if len(gram) not in self.orders:
            raise UnsupportedOrderError(
                f"order {len(gram)} not in table orders {sorted(self.orders)}"
            )
        return self.counts.get(gram, 1)

    def distinct_per_order(self) -> dict[int, int]:
        out = {n: 0 for n in sorted(self.orders)}
        for gram in self.counts:
            out[len(gram)] += 1
        return out

    def save(self, destination) -> int:
        """Write the versioned text format; returns bytes written."""
        lines = [FORMAT_HEADER, f"corpus_size {self.corpus_size}"]
        lines.append("orders " + ",".join(str(n) for n in sorted(self.orders)))
        for n in sorted(self.orders):
            grams = sorted(g for g in self.counts if len(g) == n)
            for g in grams:
                lines.append(f"{n}\t{self.counts[g]}\t{g}")
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        if hasattr(destination, "write"):
            destination.write(payload)
        else:
            Path(destination).write_bytes(payload)
        return len(payload)

    @classmethod
    def load(cls, source) -> "NGramTable":
        if hasattr(source, "read"):
            payload = source.read()
        else:
            payload = Path(source).read_bytes()
        if isinstance(payload, bytes):
            try:
                payload = payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"table is not valid UTF-8 at byte offset {exc.start}"
                ) from exc
        lines = split_lines(payload)
        if not lines or lines[0] != FORMAT_HEADER:
            found = lines[0] if lines else "<empty file>"
            raise FormatError(f"expected header {FORMAT_HEADER!r}, found {found!r}", line=1)
        if len(lines) < 3:
            raise FormatError("truncated table: missing corpus_size/orders lines", line=len(lines))
        if not lines[1].startswith("corpus_size "):
            raise FormatError("expected 'corpus_size <int>'", line=2)
        try:
            corpus_size = int(lines[1].split(" ", 1)[1])
        except ValueError:
            raise FormatError("bad corpus_size value", line=2) from None
        if corpus_size < 0:
            raise FormatError("corpus_size must be >= 0", line=2)
        if not lines[2].startswith("orders "):
            raise FormatError("expected 'orders <comma-list>'", line=3)
        try:
            orders = frozenset(int(p) for p in lines[2].split(" ", 1)[1].split(","))
        except ValueError:
            raise FormatError("bad orders list", line=3) from None
        if not orders or any(n < 2 for n in orders):
            raise FormatError("orders must all be >= 2", line=3)
        counts: dict[str, int] = {}
        for lineno, line in enumerate(lines[3:], start=4):
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise FormatError("entry needs 3 tab-separated fields", line=lineno)
            try:
                order = int(parts[0])
                cnt = int(parts[1])
            except ValueError:
                raise FormatError("non-integer order or count", line=lineno) from None
            gram = parts[2]
            if order not in orders:
                raise FormatError(f"entry order {order} not declared", line=lineno)
            if len(gram) != order:
                raise FormatError(
                    f"gram length {len(gram)} does not match order {order}", line=lineno
                )
            if cnt < 2:
                raise FormatError("stored counts must be >= 2", line=lineno)
            if gram in counts:
                raise FormatError(f"duplicate gram {gram!r}", line=lineno)
            counts[gram] = cnt
        return cls(orders, counts, corpus_size)


def build_table(corpus: Corpus, orders: Iterable[int]) -> NGramTable:
    """Count every order-n window of every corpus sequence, pruning singletons.

    Counts are exact and never cross sequence boundaries.  Sequences must not
    contain tab or newline characters (they would corrupt the serialized
    format); such corpora are rejected.
    """
    orders = sorted(set(orders))
    if not orders:
        raise ParameterError("orders must be non-empty")
    for n in orders:
        if not isinstance(n, int) or n < 2:
            raise ParameterError(f"n-gram order must be an integer >= 2, got {n!r}")
    for seq in corpus.sequences:
        for bad in ("\t", "\n", "\r"):
            if bad in seq:
                raise ParameterError(
                    f"corpus sequence contains {bad!r}; the table format cannot store it"
                )
    counts: dict[str, int] = {}
    for n in orders:
        windows = [
            seq[i : i + n]
            for seq in corpus.sequences
            for i in range(len(seq) - n + 1)
        ]
        windows.sort()
        for gram, group in groupby(windows):
            c = sum(1 for _ in group)
            if c >= 2:
                counts[gram] = c
    return NGramTable(
        orders,
        counts,
        corpus.total_chars,
        filter_description=corpus.filter_description,
        built_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def save_table(table: NGramTable, destination) -> int:
    return table.save(destination)


def load_table(source) -> NGramTable:
    return NGramTable.load(source)
