"""Character n-gram count tables built from an unsegmented corpus.

Counting is exact per order and never spans sequence boundaries.  Grams
occurring exactly once are pruned from the table, and every lookup of a
supported order returns at least 1, so unseen grams behave as if seen once.

One counting engine, ``_count_windows``, serves this table and the unpruned
unigram/bigram counts of the sst baseline; ``_walk``, its one entry for
``build_table``, ``BigramStats.from_corpus`` and ``build-index``, checks
the input, counts both in one walk and prunes the table.  The engine works
on the joined corpus as numpy arrays, each character its dense rank in the
corpus alphabet.  A walk step packs the dense id of each window's counted
prefix, the ranks of as many next characters as fit and the window's start
position into one int64 key, and one sort run-length encodes every order of
the step into counts: orders 1-6 of the 1 MB acceptance corpus in one step,
and orders 1-3, 4-5 and 6 of 1 MB over 3,000 ideographs (12-bit ranks).
That keeps the build at O(m log m) per step in total corpus characters,
with no Python object per window.

The walk keeps each order's grams as the corpus positions they start at.
A table (``_Counts``) holds its grams as one sorted int64 key array with a
count array, keyed from rank rows: the walk's in ``build_table``, which
drops the characters only pruned grams held, or those ``_rank_codes`` makes
of the count file's code points or, in ``_dict_counts``, of a given dict's.
It finds grams with one searchsorted per key step.  Counts travel as blocks:
per order n, a (k, n) uint32 matrix of the code points of k grams in string
order and an int64 array of their counts, which ``_code_blocks`` makes from
the walk and a table slices from its rows, for the count-file writer (so
``build-index`` writes no string per gram) and the dict side, whose dicts
``_block_dict`` makes of blocks.

Every file format of the package is read and written here once: lines
(``split_lines``, ``read_lines``), files (``read_source``, ``write_to``),
integer lists (``read_int_list``), ``key=value`` files (``read_key_values``,
``float_text``) and count files (``write_counts``, ``read_counts``) of two
layouts, ``TABLE`` for the pruned table, declaring its orders, and ``STATS``
for the bigrams.  ``order_set`` is the package's one order-set rule.
"""

import codecs
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .errors import FormatError, ParameterError, UnsupportedOrderError

__all__ = [
    "Corpus",
    "NGramTable",
    "build_table",
    "codepoint_range_filter",
    "extract_sequences",
]

MAX_DIGITS = 18  # the longest order or count field of a count file; an int64 holds any
MAX_ORDER = 64  # the highest n-gram order: tables, keys and walks take max(orders) slots
PAD = 0x110000  # past every code point: the code of a slot past a gram's end
LAST = np.iinfo(np.int64).max  # the last key of every step, past every gram's
_KEY_BITS = 63  # the bits of a counting walk's sort key
HEX_BOUND = re.compile("[0-9A-Fa-f]{1,6}")  # a code point range's bound


@dataclass(frozen=True)
class CountFile:
    """The layout of a count file: its header line, the key of its size
    line, its orders (declared in the file when None) and its least count."""

    header: str
    size_key: str
    orders: "tuple[int, ...] | None"
    min_count: int


TABLE = CountFile("tango-ngrams v1", "corpus_size", None, 2)
STATS = CountFile("tango-bigrams v1", "total_chars", (1, 2), 1)


def order_set(orders: Iterable[int], name: str = "orders") -> "tuple[int, ...]":
    """The distinct orders ascending; ParameterError unless one or more ints 2 to MAX_ORDER."""
    distinct = set(orders)
    if distinct and all(isinstance(n, int) and n >= 2 for n in distinct):
        if max(distinct) <= MAX_ORDER:
            return tuple(sorted(distinct))
        raise ParameterError(f"{name} must all be <= {MAX_ORDER}, got {sorted(distinct)}")
    got = sorted(distinct, key=repr)
    raise ParameterError(f"{name} must be one or more integers >= 2, got {got}")


def split_lines(text: str) -> list[str]:
    """Lines of text broken at "\\n" only, a trailing "\\r" dropped.

    The package writes lines ending in "\\n".  str.splitlines() would also
    break inside a line at \\x0b, \\x0c, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029.
    """
    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _decode_utf8(data: bytes, path=None) -> str:
    """data decoded as UTF-8; FormatError naming the path and the first bad byte offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"invalid UTF-8 at byte offset {exc.start}: {exc.reason}"
        raise FormatError(message, path=path) from exc


def read_source(source) -> str:
    """Text of an open file (text or binary) or of a path, read as UTF-8.

    A decoding error from a path names the path.
    """
    payload = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    return _decode_utf8(payload, source) if isinstance(payload, bytes) else payload


def read_lines(source, parse: Callable[[str], object]) -> list:
    """parse(line) of each line of source, in order, None results dropped; a
    ValueError from parse becomes a FormatError at its line and column."""
    parsed = []
    for lineno, line in enumerate(split_lines(read_source(source)), start=1):
        try:
            value = parse(line)
        except ValueError as exc:
            raise FormatError(getattr(exc, "message", str(exc)), lineno,
                              getattr(exc, "column", None), source) from None
        if value is not None:
            parsed.append(value)
    return parsed


def write_to(destination, payload: "str | bytes") -> None:
    """Write payload to a text stream, a binary stream or a path.

    A text stream (anything with an ``encoding``) takes text, bytes being
    decoded as UTF-8; a binary stream or a path takes bytes, text being
    encoded first, so text UTF-8 cannot encode (a lone surrogate) raises
    ParameterError and leaves the file as it was.
    """
    if hasattr(destination, "encoding"):
        destination.write(payload if isinstance(payload, str) else payload.decode("utf-8"))
        return
    if isinstance(payload, str):
        try:
            payload = payload.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParameterError(
                f"{destination}: character {payload[exc.start]!r} at offset {exc.start} "
                "cannot be encoded as UTF-8"
            ) from None
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_bytes(payload)


def read_key_values(source, keys: "dict[str, str | None]") -> dict[str, str]:
    """The values of a parameter file's ``key=value`` lines, blank lines
    skipped: keys maps each key the reader knows to its default, None for a
    key the file must give, and a key may appear once."""
    values: dict[str, str] = {}

    def parse(line: str) -> None:
        if not line.strip():
            return
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError("expected key=value")
        key = key.strip()
        if key not in keys:
            raise FormatError(f"unknown parameter {key!r}")
        if key in values:
            raise FormatError(f"duplicate key {key!r}")
        values[key] = value.strip()

    read_lines(source, parse)
    missing = [key for key, default in keys.items() if default is None and key not in values]
    if missing:
        raise FormatError(f"missing parameter {missing[0]!r}", path=source)
    return {**keys, **values}


def float_text(value: float) -> str:
    """The shortest text float() reads back as value, a trailing ".0" dropped."""
    return repr(float(value)).removesuffix(".0")


def _code_text(codes) -> str:
    """The text of a contiguous buffer of UTF-32 code points (lone surrogates kept)."""
    return codecs.decode(codes, "utf-32-le", "surrogatepass")


def _count_error(gram: str, count, low: int) -> ParameterError:
    why = ("not an int" if type(count) is not int
           else f"below {low}" if count < low else f"over {MAX_DIGITS} digits")
    return ParameterError(f"gram {gram!r} has count {count!r}, {why}")


def _block_dict(blocks: dict) -> "dict[str, int]":
    """The ``{gram: count}`` dict of count blocks, in block order."""
    counts: dict[str, int] = {}
    for n, (grams, values) in blocks.items():
        text = _code_text(np.ascontiguousarray(grams))
        counts.update(zip([text[i * n : i * n + n] for i in range(len(values))], values.tolist()))
    return counts


def write_counts(
    destination, layout: CountFile, size: int, orders: Iterable[int], blocks: dict
) -> int:
    """Write a count file of the layout that read_counts reads back; returns
    the bytes written.

    The header comes first, then ``<size_key> <size>`` and, when the layout
    declares no orders, ``orders <comma-list>``, then one
    ``<order>\\t<count>\\t<gram>`` line per gram of the count blocks
    ``{n: (grams, counts)}``, orders ascending, each block as it comes.
    Whatever read_counts would reject raises ParameterError before anything
    is written: a negative size, declared orders order_set refuses, a gram whose
    length is not one of the orders, a count below the layout's min_count or
    of over MAX_DIGITS digits, a gram holding tab, newline or CR, grams not
    strictly ascending within a block, or a gram UTF-8 cannot encode.
    """
    if size < 0:
        raise ParameterError(f"{layout.size_key} must be >= 0, got {size}")
    parts = [f"{layout.header}\n{layout.size_key} {size}\n"]
    orders = sorted(set(orders)) if layout.orders else order_set(orders, "declared orders")
    if layout.orders is None:
        parts.append("orders " + ",".join(map(str, orders)) + "\n")
    blocks = [(n, g, c) for n, (g, c) in sorted(blocks.items()) if len(c)]
    low, high = layout.min_count, 10**MAX_DIGITS
    for n, grams, count in blocks:
        if n not in orders:
            raise ParameterError(f"gram of order {n} is not of the orders {list(orders)}")
        bad = (count < low) | (count >= high)
        if bad.any():
            i = int(np.argmax(bad))
            raise _count_error(_code_text(grams[i].copy()), int(count[i]), low)
        if np.isin(grams, (9, 10, 13)).any():
            raise ParameterError(
                "a gram holds tab, newline or CR; the count format cannot store it")
        keys = np.ascontiguousarray(grams).view(f"U{n}")[:, 0]
        if not (keys[1:] > keys[:-1]).all():
            raise ParameterError(f"grams of order {n} are not in strictly ascending order")
    for n, grams, count in blocks:
        width = len(str(count.max()))
        # "<n>\t<count>\t<gram>\n" with the count in width columns, its leading
        # zeros written as CR, which no gram holds, and dropped
        prefix = np.frombuffer(f"{n}\t".encode("utf-32-le"), np.uint32)
        line = np.empty((len(count), len(prefix) + width + n + 2), np.uint32)
        line[:, : len(prefix)] = prefix
        for j, power in enumerate(10 ** np.arange(width - 1, -1, -1, dtype=np.int64)):
            line[:, len(prefix) + j] = np.where(count >= power, count // power % 10 + 48, 13)
        line[:, -n - 2], line[:, -n - 1 : -1], line[:, -1] = 9, grams, 10
        parts.append(_code_text(line).replace("\r", ""))
        del line  # one order's matrix at a time
    text = "".join(parts)
    del parts  # at most two copies of the entries stay alive while writing
    try:
        payload = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        gram = text[text.rfind("\t", 0, exc.start) + 1 : text.index("\n", exc.start)]
        raise ParameterError(f"gram {gram!r} cannot be encoded as UTF-8") from None
    del text
    write_to(destination, payload)
    return len(payload)


def _digit_fields(codes: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """The values of the fields ``codes[start:stop]``, and where one is not
    1 to MAX_DIGITS ASCII digits.  Digit j from the right is read from every
    field at j = 0, where one without it is bad already, then from the
    fields that have one."""
    width = stop - start
    value, bad = np.zeros(len(stop), np.int64), (width < 1) | (width > MAX_DIGITS)
    rows = slice(None)
    for j in range(min(int(width.max(initial=0)), MAX_DIGITS)):
        digit = codes.take(stop[rows] - 1 - j, mode="clip") - 48  # a non-digit wraps above 9
        bad[rows] |= digit > 9
        value[rows] += digit * np.int64(10**j)
        rows = np.flatnonzero(width > j + 1)
    return value, bad


def read_int_list(text: str) -> list[int]:
    """The integers of a comma list, each 1 to MAX_DIGITS ASCII digits as an
    entry field takes; ValueError for any other field, where int() would
    also take "+4", "1_0" and "\\u0663"."""
    fields = text.split(",")
    if not all(f.isascii() and f.isdigit() and len(f) <= MAX_DIGITS for f in fields):
        raise ValueError(f"bad integer list {text!r}")
    return list(map(int, fields))


def read_counts(source, layout: CountFile) -> "tuple[int, frozenset[int], _Counts]":
    """Read a count file of the layout written by write_counts: (size, orders, keyed counts).

    After the header comes ``<size_key> <int>`` and, when the layout declares
    no orders, ``orders <comma-list>`` (orders 2 to MAX_ORDER), each integer 1 to
    MAX_DIGITS ASCII digits.  Every entry needs three tab-separated fields: a
    declared order and a count >= the layout's min_count, each 1 to MAX_DIGITS
    ASCII digits, and a gram of the order's length, in the writer's order.
    Each check runs as arrays on the lines before the lowest failure so far.
    Each parse array is freed after its last reader, before _Counts keys the grams.
    """
    orders, size_key = layout.orders, layout.size_key
    first = 2 if orders is not None else 3
    text = read_source(source)
    text = text.replace("\r\n", "\n") if "\r" in text else text
    *lines, body = (text if text[-1:] in ("", "\n") else text + "\n").split("\n", first)
    del text
    if not lines or lines[0] != layout.header:
        found = lines[0] if lines else "<empty file>"
        raise FormatError(f"expected header {layout.header!r}, found {found!r}", line=1,
                          path=source)
    if len(lines) < 2 or not lines[1].startswith(size_key + " "):
        raise FormatError(f"expected '{size_key} <int>'", line=2, path=source)
    try:
        (size,) = read_int_list(lines[1].split(" ", 1)[1])
    except ValueError:
        raise FormatError(f"bad {size_key} value", line=2, path=source) from None
    if orders is None:
        if len(lines) < 3 or not lines[2].startswith("orders "):
            raise FormatError("expected 'orders <comma-list>'", line=3, path=source)
        try:
            orders = read_int_list(lines[2].split(" ", 1)[1])
        except ValueError:
            raise FormatError("bad orders list", line=3, path=source) from None
        if any(n < 2 for n in orders):
            raise FormatError("orders must all be >= 2", line=3, path=source)
        if max(orders) > MAX_ORDER:
            raise FormatError(f"orders must all be <= {MAX_ORDER}", line=3, path=source)
    orders = frozenset(orders)
    codes = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), np.uint32)
    del body
    sep = np.flatnonzero((codes == 9) | (codes == 10))  # a good line's: tab, tab, end
    at = np.flatnonzero(codes[sep] == 10)  # each line end's index among them
    k, error = len(at), None  # the lines before the lowest failure so far

    def cut(bad: np.ndarray, message: Callable[[int], str]) -> None:
        nonlocal k, error
        if bad[:k].any():
            k = int(np.argmax(bad[:k]))
            error = message(k)

    cut(at != np.arange(2, 3 * k, 3), lambda i: "entry needs 3 tab-separated fields")
    tab = sep[: 3 * k].reshape(k, 3)  # the tabs and the end of each line
    del sep, at
    order, bad_order = _digit_fields(codes, np.r_[0, tab[:-1, 2] + 1], tab[:, 0])
    count, bad_count = _digit_fields(codes, tab[:, 0] + 1, tab[:, 1])
    cut(bad_order | bad_count, lambda i: "non-integer order or count")
    cut(~np.isin(order, list(orders)), lambda i: f"entry order {order[i]} not declared")
    length = tab[:, 2] - tab[:, 1] - 1
    cut(length != order, lambda i: f"gram length {length[i]} does not match order {order[i]}")
    cut(count < layout.min_count, lambda i: f"stored counts must be >= {layout.min_count}")
    order, count, starts, top = order[:k], count[:k], tab[:k, 1] + 1, max(orders)
    del tab, length  # each freed after its last check, as are codes and grams below
    pad = int(codes.max(initial=0)) + 1  # past every code a gram holds
    grams = np.empty((k, top), np.uint32)
    for j in range(top):  # one slot at a time, pad past each gram's end
        grams[:, j] = np.where(order > j, codes.take(starts + j, mode="clip"), pad)
    del codes, starts
    ranks, alphabet = _rank_codes(grams, pad)
    del grams  # only the ranks stay while the grams are keyed
    counts = _Counts(order, ranks, alphabet, count)
    key = counts.key

    def gram(i: int) -> str:  # line i's gram, from the keyed table
        return _code_text(alphabet[ranks[i, : order[i]]])

    def disorder(i: int) -> str:
        if (key[:i] == key[i]).any():
            return f"duplicate gram {gram(i)!r}"
        return f"entry out of order after {gram(i - 1)!r}"

    # the writer's order is key order: each line's key above the one before
    cut(np.r_[False, key[1:-1] <= key[:-2]], disorder)
    if error is not None:
        raise FormatError(error, line=first + 1 + k, path=source)
    return size, orders, counts


def extract_sequences(text: "str | bytes", char_filter: "re.Pattern | None" = None) -> list[str]:
    """Split raw text into the character sequences to be indexed.

    Without a filter, each non-empty line is one sequence.  With a filter
    from codepoint_range_filter, every maximal run of accepted characters
    becomes a sequence, in document order.  Byte input must be valid UTF-8.
    """
    if isinstance(text, bytes):
        text = _decode_utf8(text)
    if char_filter is None:
        return [line for line in split_lines(text) if line]
    return char_filter.findall(text)


def codepoint_range_filter(spec: str) -> re.Pattern:
    """The pattern matching each maximal run of characters whose code point
    lies in given ranges.

    Takes a comma-separated list of hex code points or ranges, e.g.
    ``"4E00-9FFF,3005"``, each bound 1 to 6 ASCII hex digits and at most
    10FFFF; int(x, 16) would also take "+4_1", "0x5A", " 5A" and non-ASCII
    digits.
    """
    ranges = []
    for part in spec.split(","):
        bounds = part.split("-")
        if len(bounds) > 2 or not all(HEX_BOUND.fullmatch(b) for b in bounds):
            raise ParameterError(f"bad codepoint range {part!r}")
        lo_cp, hi_cp = int(bounds[0], 16), int(bounds[-1], 16)
        if hi_cp < lo_cp:
            raise ParameterError(f"empty codepoint range {part!r}")
        if hi_cp > 0x10FFFF:
            raise ParameterError(f"codepoint range {part!r} goes past 10FFFF")
        # escaped, so that no code point is read as class syntax
        ranges.append(f"\\U{lo_cp:08x}-\\U{hi_cp:08x}")
    return re.compile(f"[{''.join(ranges)}]+")


@dataclass
class Corpus:
    """A list of character sequences extracted from raw training text."""

    sequences: list[str]

    @classmethod
    def from_text(cls, text: "str | bytes", char_filter: "re.Pattern | None" = None) -> "Corpus":
        return cls(extract_sequences(text, char_filter))

    @property
    def total_chars(self) -> int:
        return sum(map(len, self.sequences))


def _rank_codes(grams: np.ndarray, pad=None) -> "tuple[np.ndarray, np.ndarray]":
    """Each code's rank from 1 in the codes' ascending alphabet, and that
    alphabet.  pad, when given, is a code above all others that ranks 0; the
    tables span the codes up to it, so callers pad with the code past their
    largest."""
    top = int(grams.max(initial=0)) if pad is None else pad
    seen = np.zeros(top + 1, bool)
    seen[grams] = True
    alphabet = np.r_[0, np.flatnonzero(seen[:pad])].astype(np.uint32)  # by rank
    rank = np.zeros(len(seen), np.min_scalar_type(len(alphabet) - 1))
    rank[alphabet[1:]] = np.arange(1, len(alphabet))
    return rank[grams], alphabet


def _dict_counts(counts: "dict[str, int]", orders: Iterable[int]) -> "_Counts":
    """The keyed counts of a ``{gram: count}`` dict, over top slots for the
    longest gram or order, its grams in file order: sorted as strings, then
    stably by length.  A count must be an int that fits an int64."""
    for gram, c in counts.items():
        if type(c) is not int or not -(2**63) <= c < 2**63:
            raise _count_error(gram, c, 1)
    grams = sorted(sorted(counts), key=len)
    order = np.fromiter(map(len, grams), np.int64, len(grams))
    text = np.frombuffer("".join(grams).encode("utf-32-le", "surrogatepass"), np.uint32)
    pad = int(text.max(initial=0)) + 1
    codes = np.full((len(grams), max([*order.tolist(), *orders], default=0)), pad, np.uint32)
    codes[np.arange(codes.shape[1]) < order[:, None]] = text  # row by row
    return _Counts(order, *_rank_codes(codes, pad),
                   np.fromiter(map(counts.__getitem__, grams), np.int64, len(grams)))


class _Counts(Mapping):
    """Grams as one sorted int64 key array with a count array, read-only as
    a mapping in file order.

    A gram's slots are its order, then its characters' ranks in the stored
    grams' alphabet, from 1, 0 past its end, over top slots.  A key step
    packs an id, first the order, and the next ranks that fit 63 bits,
    ``id << b*s | r1 << b*(s-1) | ... | rs``; the next step's id is that
    key's position among the step's distinct keys, or their number.  So
    keys sort by order, then string: the count file's order.  Each step's
    keys end in LAST, the last step's with count 1.  One step holds orders
    2-6 of 47 characters in 39 bits; 3,000 characters need 75, two steps.
    The grams' orders and rank matrix stay, in row order, for blocks().
    """

    def __init__(self, order: np.ndarray, ranks: np.ndarray, alphabet: np.ndarray,
                 value: np.ndarray):
        """Each row's gram from its order, ranks in an ascending alphabet (0 past
        its end) and count; every alphabet entry past 0 is some row's character."""
        self.top = ranks.shape[1]
        self.alphabet, self.bits = alphabet, max(len(alphabet) - 1, 1).bit_length()
        # each code point's rank, 0 when not in the alphabet, and order n at PAD + n
        self.rank = np.zeros(PAD + 1 + self.top, np.min_scalar_type(len(alphabet) + self.top))
        self.rank[alphabet[1:]] = np.arange(1, len(alphabet))
        self.rank[PAD + 1 :] = np.arange(1, self.top + 1)
        self.order, self.ranks = order.astype(np.min_scalar_type(self.top)), ranks
        self.steps = []  # (stop slot, multipliers of the id and the slots, keys) per step
        key, id_bits, done = order.astype(np.int64), self.top.bit_length(), 0
        while True:
            s = min(self.top - done, (63 - id_bits) // self.bits)
            for j in range(done, done + s):  # in place, with no int64 matrix of slots
                key <<= self.bits
                key |= self.ranks[:, j]
            mult = 1 << self.bits * np.arange(s, -1, -1)
            done += s
            if done == self.top:
                break
            # the inverse asks for a sort; numpy >= 2.3 takes a slower hash path without it
            known, key = np.unique(key, return_inverse=True)
            known = np.r_[known, LAST]
            self.steps.append((1 + done, mult, known))
            id_bits = (len(known) - 1).bit_length()
        self.key, self.value = np.r_[key, LAST], np.r_[value, 1]  # in row order
        self.steps.append((1 + done, mult, self.key))

    @staticmethod
    def tail(orders: Iterable[int]) -> np.ndarray:
        """The codes a slot matrix may index after a text's: first the
        padding past a gram's end, then each order's."""
        return np.array([PAD, *(PAD + n for n in orders)], np.uint32)

    def find(self, text: str, slots: np.ndarray, tail: bytes) -> np.ndarray:
        """Each gram's position among the keys, the last where not stored:
        row i of slots indexes gram i's order and characters in the UTF-32
        codes of text and then tail, the bytes of a tail(orders)."""
        slots = self.rank.take(np.frombuffer(
            text.encode("utf-32-le", "surrogatepass") + tail, np.uint32)).take(slots)
        key, lo = None, 0
        for stop, mult, known in self.steps:
            part = slots[:, lo:stop]  # narrower where every gram ends before stop
            if key is None:  # the order and the first ranks
                key = part.dot(mult[: part.shape[1]])
            else:  # the previous step's id and the next ranks
                key = key * mult[0] + part.dot(mult[1 : 1 + part.shape[1]])
            at = known.searchsorted(key)
            key, lo = np.where(known[at] == key, at, len(known) - 1), stop
        return key

    def blocks(self) -> dict:
        """The count blocks of the grams, sliced from the kept orders and ranks."""
        starts = np.flatnonzero(_run_starts(self.order)).tolist()
        return {int(self.order[a]): (self.alphabet[self.ranks[a:b, : self.order[a]]],
                                     self.value[a:b])
                for a, b in zip(starts, starts[1:] + [len(self)])}

    def __len__(self) -> int:
        return len(self.key) - 1

    def __getitem__(self, gram: str) -> int:
        n = len(gram) if isinstance(gram, str) else PAD
        # slot -1 indexes the tail's last code, the order's
        at = len(self) if n > self.top else self.find(
            gram, np.arange(-1, n)[None], self.tail([n]).tobytes())[0]
        if at == len(self):
            raise KeyError(gram)
        return int(self.value[at])

    def __iter__(self):
        return iter(_block_dict(self.blocks()))

    def items(self):
        return _block_dict(self.blocks()).items()

    def values(self):
        return _block_dict(self.blocks()).values()


class NGramTable:
    """Immutable pruned count table over a fixed set of n-gram orders.

    ``counts`` holds its grams as sorted int64 keys (_Counts), with no
    Python object per gram.  Safe for concurrent readers once built.
    Equality compares orders, corpus size, keys and counts.
    """

    def __init__(self, orders: Iterable[int], counts: "Mapping[str, int]", corpus_size: int):
        """counts is keyed, or a {gram: count} mapping keyed when first used,
        so that a count that is no int fitting an int64 is refused there."""
        self.orders, self.corpus_size, self._grams = frozenset(orders), corpus_size, counts
        if isinstance(counts, _Counts):
            self.counts = counts

    @cached_property
    def counts(self) -> _Counts:
        return _dict_counts(self._grams, self.orders)

    def __eq__(self, other):
        if not isinstance(other, NGramTable):
            return NotImplemented
        return (self.orders, self.corpus_size) == (other.orders, other.corpus_size) and all(
            np.array_equal(getattr(self.counts, a), getattr(other.counts, a))
            for a in ("alphabet", "key", "value"))

    def __repr__(self):
        return (
            f"NGramTable(orders={sorted(self.orders)}, "
            f"entries={len(self._grams)}, corpus_size={self.corpus_size})"
        )

    def count(self, gram: str) -> int:
        """Occurrences of gram in the training corpus; unseen and pruned
        singletons both report 1."""
        if len(gram) not in self.orders:
            self.require_orders((len(gram),))
        return self.counts.get(gram, 1)

    def require_orders(self, orders: Collection[int]) -> None:
        """UnsupportedOrderError naming the orders this table does not cover."""
        if not self.orders.issuperset(orders):
            missing = sorted(set(orders) - self.orders)
            raise UnsupportedOrderError(f"table does not cover orders {missing}")

    def save(self, destination) -> int:
        """Write the versioned text format; returns bytes written."""
        return write_counts(destination, TABLE, self.corpus_size, self.orders,
                            self.counts.blocks())

    @classmethod
    def load(cls, source) -> "NGramTable":
        corpus_size, orders, counts = read_counts(source, TABLE)
        return cls(orders, counts, corpus_size)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal sorted keys starts."""
    starts = np.empty(len(keys), bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _count_windows(sequences: Sequence[str], min_counts: "dict[int, int]") -> tuple:
    """Count the order-n windows of every sequence, for each order n of min_counts.

    Returns (ranks, alphabet, kept): each corpus character's rank from 1
    (_rank_codes), the alphabet, and per order n ascending ``(starts,
    counts)``, where the grams seen at least ``min_counts[n]`` times start in
    the joined corpus, in string order.  Windows never cross sequence
    boundaries, and sequences may hold any code point, separators included.

    A rank takes b bits, 0 for "past the sequence end".  Each step of the
    walk appends the ranks of each window's next s characters to the id of
    its prefix (none in the first step), then its start position in p bits,
    in one int64 key, ``(id << b*s | r1 << b*(s-1) | ... | rs) << p | position``,
    and sorts the keys in place, which orders the windows as strings (any
    position of a run of equal keys gives the gram).  After d characters, one
    pass finds the runs of equal keys; a shorter order n's runs start at the
    heads whose key leaves the one before above bit b*(d+s-n), and a run counts
    where its head has n characters left.  Only the keys, positions, ranks and
    characters left are as long as the corpus.  Among windows with more
    characters left, each kept key's dense rank is the next step's id.  A step
    packs s = (_KEY_BITS - id bits - p) // b characters; only where none fits
    (past about 47M characters at 12-bit ranks) does it argsort bare keys.
    """
    top = max(min_counts)
    ranks, alphabet = _rank_codes(np.frombuffer(
        "".join(sequences).encode("utf-32-le", "surrogatepass"), np.uint32))
    m, bits = len(ranks), (len(alphabet) - 1).bit_length()
    # characters left in its sequence from each position on, capped at top: the nearest end wins
    left = np.full(m, top, np.min_scalar_type(top))
    ends = np.cumsum(np.fromiter(map(len, sequences), np.int64, len(sequences)))
    for d in range(top - 1, 0, -1):
        left[ends[ends >= d] - d] = d
    # Start position and prefix id of each window, in the sorted order of the
    # previous step's keys, which sorts the next keys by their prefix already.
    pos = np.arange(m, dtype=np.min_scalar_type(-m))  # signed: it ORs into int64 keys
    out = {n: (np.empty(0, pos.dtype), np.empty(0, np.int64)) for n in sorted(min_counts)}
    done, pos_bits = 0, (m - 1).bit_length()
    while len(pos):
        id_bits = int(ids[-1]).bit_length() if done else 0
        packed = id_bits + bits + pos_bits <= _KEY_BITS  # else an index is sorted
        s = min(top - done, (_KEY_BITS - id_bits - pos_bits * packed) // bits)
        # the ranks of characters done..done+s-1 of the window at each
        # position, in corpus order, 0 past its sequence end
        keys = np.zeros(m, np.int64)
        for j in range(done, done + s):
            keys <<= bits
            end = max(m - j, 0)
            keys[:end] |= ranks[j:] * (left[:end] > j)
        if done:  # after the prefix ids, in the previous step's sorted order
            ids <<= bits * s
            ids |= keys[pos]
            keys, ids = ids, None
        if packed:
            keys <<= pos_bits
            keys |= pos
            keys.sort()
            np.bitwise_and(keys, (1 << pos_bits) - 1, out=pos, casting="unsafe")
            keys >>= pos_bits
        else:
            order = np.argsort(keys)
            keys, pos = keys[order], pos[order]
            del order
        done, windows = done + s, len(keys)
        counted = [n for n in range(done - s + 1, done + 1) if n in min_counts]
        heads = np.flatnonzero(_run_starts(keys))  # each run of windows equal to order done
        if counted and counted[0] < done:  # a shorter order's runs start at the heads
            change = keys[heads]  # whose key leaves the one before above its bits
            change[1:] ^= change[:-1]
            change[0] = LAST
        if done == top:
            del keys  # the last step counts without them
        for n in counted:
            starts = heads if n == done else heads[change >= 1 << bits * (done - n)]
            counts = np.diff(starts, append=windows)
            kept = (counts >= min_counts[n]) & (left[pos[starts]] >= n)
            out[n] = pos[starts[kept]], counts[kept]
        if done == top:
            break
        heads = change = None  # freed before the filter's corpus-long copies
        valid = left[pos] > done
        keys, pos = keys[valid], pos[valid]
        del valid
        ids = np.cumsum(_run_starts(keys), dtype=np.int64)
        del keys
        ids -= 1
    return ranks, alphabet, out


def _gram_ranks(ranks: np.ndarray, starts: np.ndarray, n: int, width: int) -> np.ndarray:
    """The rank rows of the n-grams at corpus positions starts, 0 past n up to width."""
    rows = np.zeros((len(starts), width), ranks.dtype)
    for j in range(n):
        rows[:, j] = ranks[starts + j]
    return rows


def _code_blocks(ranks: np.ndarray, alphabet: np.ndarray, *walked: "dict | None") -> tuple:
    """The count blocks, grams as code points, of each of a walk's kept windows or None."""
    return tuple(kept and {n: (alphabet[_gram_ranks(ranks, at, n, n)], c)
                           for n, (at, c) in kept.items()} for kept in walked)


def _walk(sequences: Sequence[str], table_orders: "Iterable[int] | None" = None,
          stats: bool = False) -> tuple:
    """_count_windows' ranks and alphabet, and the kept windows of the table
    of table_orders and of the bigram stats, each None when not asked for.

    The table's orders follow order_set and its corpus must hold no tab,
    newline or CR, which its file cannot store; the stats need at least one
    character.  The stats keep every count and the table counts of 2 or more,
    so an order 2 the two share is pruned after the walk."""
    walk = {1: 1, 2: 1} if stats else {}  # {order: min_count}; the stats' win on order 2
    if table_orders is not None:
        table_orders = order_set(table_orders)
        walk = {**dict.fromkeys(table_orders, 2), **walk}
    if stats and not any(sequences):
        raise ParameterError("corpus contains no characters")
    ranks, alphabet, kept = _count_windows(sequences, walk)
    table = None
    if table_orders is not None:
        for bad in "\t\n\r":
            if ord(bad) in alphabet[1:]:
                raise ParameterError(
                    f"corpus sequence contains {bad!r}; the table format cannot store it")
        table = {n: kept[n] for n in table_orders}
        if stats and 2 in table:  # the stats' order 2 kept singletons
            table[2] = tuple(column[kept[2][1] >= 2] for column in kept[2])
    return ranks, alphabet, table, {n: kept[n] for n in (1, 2)} if stats else None


def build_table(corpus: Corpus, orders: Iterable[int]) -> NGramTable:
    """Count every order-n window of every corpus sequence, pruning singletons.

    Counts are exact and never cross sequence boundaries.  Sequences must not
    contain tab or newline characters (they would corrupt the serialized
    format); such corpora are rejected.
    """
    ranks, alphabet, table, _ = _walk(corpus.sequences, orders)
    order = np.repeat(list(table), [len(c) for _, c in table.values()])
    rows = np.concatenate([_gram_ranks(ranks, at, n, max(table)) for n, (at, _) in table.items()])
    used = np.r_[True, np.bincount(rows.ravel(), minlength=len(alphabet))[1:] > 0]
    if not used.all():  # keep only the characters of kept grams, as a loaded table has
        rows, alphabet = (np.cumsum(used) - 1).astype(rows.dtype)[rows], alphabet[used]
    counts = _Counts(order, rows, alphabet, np.concatenate([c for _, c in table.values()]))
    return NGramTable(table, counts, len(ranks))
