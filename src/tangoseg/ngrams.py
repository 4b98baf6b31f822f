"""Character n-gram count tables built from an unsegmented corpus.

Counting is exact per order and never spans sequence boundaries.  Grams
occurring exactly once are pruned from the table, and every lookup of a
supported order returns at least 1, so unseen grams behave as if seen once.

One counting engine, ``_count_windows``, serves this table and the unpruned
unigram/bigram counts of the sst baseline.  It works on the code points of
the joined corpus as numpy arrays: each window gets a dense integer id built
order by order from its prefix's id and its last code point, and one sort
per order run-length encodes the ids into counts.  That keeps the build at
O(m log m) per order in total corpus characters, with no Python object per
window, and yields the grams of each order in string order.

Every file format of the package is read and written here once: lines
(``split_lines``), files (``read_source``, ``write_to``), the count files of
the table and of the bigram stats (``write_counts``, ``read_counts``) and
``key=value`` parameter files (``read_key_values``).
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FormatError, ParameterError, UnsupportedOrderError

__all__ = [
    "Corpus",
    "NGramTable",
    "build_table",
    "codepoint_range_filter",
    "extract_sequences",
    "read_counts",
    "read_key_values",
    "read_source",
    "split_lines",
    "write_counts",
    "write_to",
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


def _decode_utf8(data: bytes) -> str:
    """data decoded as UTF-8; FormatError naming the first bad byte offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"invalid UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc


def read_source(source) -> str:
    """Text of an open file (text or binary) or of a path, read as UTF-8.

    A decoding error from a path names the path.
    """
    if hasattr(source, "read"):
        payload = source.read()
        return _decode_utf8(payload) if isinstance(payload, bytes) else payload
    try:
        return _decode_utf8(Path(source).read_bytes())
    except FormatError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def write_to(destination, payload: "str | bytes") -> None:
    """Write payload to an open file, or to a path (text as UTF-8).

    Text is encoded before a path is opened, so text UTF-8 cannot encode (a
    lone surrogate) raises ParameterError and leaves the file as it was.
    """
    if hasattr(destination, "write"):
        destination.write(payload)
        return
    if isinstance(payload, str):
        try:
            payload = payload.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParameterError(
                f"{destination}: character {payload[exc.start]!r} at offset {exc.start} "
                "cannot be encoded as UTF-8"
            ) from None
    Path(destination).write_bytes(payload)


def read_key_values(source) -> dict[str, str]:
    """The ``key=value`` lines of a parameter file; blank lines are skipped
    and a key may appear once."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(read_source(source)), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError("expected key=value", line=lineno)
        key = key.strip()
        if key in values:
            raise FormatError(f"duplicate key {key!r}", line=lineno)
        values[key] = value.strip()
    return values


def write_counts(
    destination, header: str, keys: Sequence[str], orders: Iterable[int], counts: dict[str, int]
) -> int:
    """Write a count file; returns the bytes written.

    The header and key lines come first, then one
    ``<order>\\t<count>\\t<gram>`` line per entry of counts, orders
    ascending and grams sorted within one.
    A gram holding tab, newline or CR, or one UTF-8 cannot encode (a lone
    surrogate), raises ParameterError before anything is written.
    """
    lines = [header, *keys]
    for n in sorted(orders):
        lines.extend(f"{n}\t{counts[g]}\t{g}" for g in sorted(g for g in counts if len(g) == n))
    text = "\n".join(lines) + "\n"
    entries = len(lines) - 1 - len(keys)
    if "\r" in text or text.count("\t") != 2 * entries or text.count("\n") != len(lines):
        raise ParameterError("a gram holds tab, newline or CR; the count format cannot store it")
    del lines  # at most two copies of the entries stay alive while writing
    try:
        payload = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        gram = text[text.rfind("\t", 0, exc.start) + 1 : text.index("\n", exc.start)]
        raise ParameterError(f"gram {gram!r} cannot be encoded as UTF-8") from None
    del text
    write_to(destination, payload)
    return len(payload)


def read_counts(
    source,
    header: str,
    size_key: str,
    orders: "Iterable[int] | None" = None,
    min_count: int = 1,
) -> "tuple[int, frozenset[int], dict[str, int]]":
    """Read a count file written by write_counts: (size, orders, counts).

    After the header comes ``<size_key> <int>`` and, unless orders are given,
    ``orders <comma-list>`` (orders >= 2).  Every entry needs a declared
    order, a gram of that length and a count >= min_count, in the writer's
    order; each error names its line.
    """
    lines = split_lines(read_source(source))
    if not lines or lines[0] != header:
        found = lines[0] if lines else "<empty file>"
        raise FormatError(f"expected header {header!r}, found {found!r}", line=1)
    if len(lines) < 2 or not lines[1].startswith(size_key + " "):
        raise FormatError(f"expected '{size_key} <int>'", line=2)
    try:
        size = int(lines[1].split(" ", 1)[1])
    except ValueError:
        raise FormatError(f"bad {size_key} value", line=2) from None
    if size < 0:
        raise FormatError(f"{size_key} must be >= 0", line=2)
    first = 2
    if orders is None:
        first = 3
        if len(lines) < 3 or not lines[2].startswith("orders "):
            raise FormatError("expected 'orders <comma-list>'", line=3)
        try:
            orders = [int(p) for p in lines[2].split(" ", 1)[1].split(",")]
        except ValueError:
            raise FormatError("bad orders list", line=3) from None
        if any(n < 2 for n in orders):
            raise FormatError("orders must all be >= 2", line=3)
    orders = frozenset(orders)
    counts: dict[str, int] = {}
    last_order, last_gram = 0, ""
    for lineno, line in enumerate(lines[first:], start=first + 1):
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
        if cnt < min_count:
            raise FormatError(f"stored counts must be >= {min_count}", line=lineno)
        # the writer's order: orders ascending, grams increasing within one
        if order < last_order or (order == last_order and gram <= last_gram):
            if gram in counts:
                raise FormatError(f"duplicate gram {gram!r}", line=lineno)
            raise FormatError(f"entry out of order after {last_gram!r}", line=lineno)
        last_order, last_gram = order, gram
        counts[gram] = cnt
    return size, orders, counts


def extract_sequences(
    text: "str | bytes", char_filter: "Callable[[str], bool] | None" = None
) -> list[str]:
    """Split raw text into the character sequences to be indexed.

    Without a filter, each non-empty line is one sequence.  With a filter,
    every maximal run of accepted characters becomes a sequence, in document
    order.  Byte input must be valid UTF-8.
    """
    if isinstance(text, bytes):
        text = _decode_utf8(text)
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


@dataclass
class Corpus:
    """A list of character sequences extracted from raw training text."""

    sequences: list[str]

    @classmethod
    def from_text(
        cls,
        text: "str | bytes",
        char_filter: "Callable[[str], bool] | None" = None,
    ) -> "Corpus":
        return cls(extract_sequences(text, char_filter))

    @property
    def total_chars(self) -> int:
        return sum(len(s) for s in self.sequences)


class NGramTable:
    """Immutable pruned count table over a fixed set of n-gram orders.

    Safe for concurrent readers once built.  Equality compares orders,
    counts, and corpus size.
    """

    def __init__(self, orders: Iterable[int], counts: dict[str, int], corpus_size: int):
        self.orders = frozenset(orders)
        self.counts = counts
        self.corpus_size = corpus_size

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
            self.require_orders((len(gram),))
        return self.counts.get(gram, 1)

    def require_orders(self, orders: Iterable[int]) -> None:
        """UnsupportedOrderError naming the orders this table does not cover."""
        missing = sorted(set(orders) - self.orders)
        if missing:
            raise UnsupportedOrderError(f"table does not cover orders {missing}")

    def distinct_per_order(self) -> dict[int, int]:
        out = {n: 0 for n in sorted(self.orders)}
        for gram in self.counts:
            out[len(gram)] += 1
        return out

    def save(self, destination) -> int:
        """Write the versioned text format; returns bytes written."""
        keys = [
            f"corpus_size {self.corpus_size}",
            "orders " + ",".join(str(n) for n in sorted(self.orders)),
        ]
        return write_counts(destination, FORMAT_HEADER, keys, self.orders, self.counts)

    @classmethod
    def load(cls, source) -> "NGramTable":
        corpus_size, orders, counts = read_counts(source, FORMAT_HEADER, "corpus_size", min_count=2)
        return cls(orders, counts, corpus_size)


# Every code point is below this radix, lone surrogates included.
_RADIX = 0x110000


def _count_windows(
    sequences: Sequence[str], orders: Iterable[int], min_count: int
) -> dict[int, dict[str, int]]:
    """Count the order-n windows of every sequence, for each n in orders.

    Returns ``{n: {gram: count}}`` holding the grams seen at least min_count
    times, in string order.  Windows never cross sequence boundaries, and
    sequences may hold any code point, separators included.

    The window of order n at position i has the dense id of the pair (id of
    its order n-1 prefix at i, code point at i+n-1) among all order-n
    windows, so ids sort in string order and never exceed the window count.
    A pair's int64 key, id * _RADIX + code point, thus cannot overflow for
    any alphabet on corpora below 8e12 characters.
    """
    orders = set(orders)
    out: dict[int, dict[str, int]] = {n: {} for n in sorted(orders)}
    top = max(orders)
    text = "".join(sequences)
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    lengths = np.fromiter(map(len, sequences), np.int64, len(sequences))
    # characters left in its sequence from each position on, capped at top
    left = np.repeat(np.cumsum(lengths), lengths)
    left -= np.arange(len(codes))
    left = np.minimum(left, top).astype(np.min_scalar_type(top))
    # Start position, characters left and id of each window, kept in the
    # sorted order of the previous order's keys: that order sorts the next
    # keys by their prefix already, and the narrow dtypes and early deletes
    # keep the build's peak memory at about four int64 arrays of the corpus.
    pos = np.arange(len(codes), dtype=np.min_scalar_type(len(codes)))
    ids = np.zeros(len(codes), np.int64)
    for n in range(1, top + 1):
        valid = left >= n
        pos, left, ids = pos[valid], left[valid], ids[valid]
        keys = ids * _RADIX
        del ids
        keys += codes[n - 1 :][pos]
        order = np.argsort(keys)
        keys, pos, left = keys[order], pos[order], left[order]
        del order
        run_start = np.empty(len(keys), bool)
        run_start[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
        del keys
        ids = np.cumsum(run_start, dtype=np.int64)
        ids -= 1
        if n in orders:
            starts = np.flatnonzero(run_start)
            counts = np.diff(starts, append=len(run_start))
            kept = counts >= min_count
            grams = [text[i : i + n] for i in pos[starts[kept]].tolist()]
            out[n] = dict(zip(grams, counts[kept].tolist()))
    return out


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
    for grams in _count_windows(corpus.sequences, orders, 2).values():
        counts.update(grams)
    return NGramTable(orders, counts, corpus.total_chars)
