"""Boundary voting over n-gram counts and boundary placement.

At each gap in a sequence, every n-gram order in the configured set casts a
vote: the fraction of count comparisons in which a non-straddling n-gram
beside the gap outnumbers an n-gram straddling it.  The per-order votes are
averaged, and a gap becomes a boundary when the averaged vote is a strict
local maximum, meets the threshold, or both, depending on the enabled
conditions.

One kernel serves segment, vote_profile, the per-gap functions and
train_tango: it looks each n-gram window up once per order and reads every
gap's comparisons from those counts.  One placement rule, local maximum
or threshold, serves place_boundaries and train_tango.

Edge conventions (pinned by tests):
  * only comparisons between existing n-grams are performed; the vote
    denominator is the number of comparisons actually made;
  * an order contributing no comparison at a gap is dropped from the
    average rather than counted as zero;
  * a gap where no order has evidence gets total vote 0;
  * a gap missing one neighbour is a local maximum iff strictly greater
    than its single existing neighbour; a gap with no neighbours (length-2
    sequence) is never a local maximum.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

from .annotations import FlatSegmentation
from .errors import ParameterError, UnsupportedOrderError
from .ngrams import NGramTable

__all__ = [
    "TangoParams",
    "VoteProfile",
    "order_vote",
    "order_vote_counts",
    "place_boundaries",
    "segment",
    "total_vote",
    "vote_profile",
]


@dataclass(frozen=True)
class TangoParams:
    """Order set, threshold, and boundary-condition flags."""

    orders: frozenset[int]
    threshold: float
    use_local_max: bool = True
    use_threshold: bool = True

    def __post_init__(self):
        object.__setattr__(self, "orders", frozenset(self.orders))
        if not self.orders:
            raise ParameterError("order set must be non-empty")
        if any(not isinstance(n, int) or n < 2 for n in self.orders):
            raise ParameterError("all orders must be integers >= 2")
        if not 0.0 <= self.threshold <= 1.0:
            raise ParameterError(f"threshold must be in [0, 1], got {self.threshold}")
        if not (self.use_local_max or self.use_threshold):
            raise ParameterError("at least one boundary condition must be enabled")

    @property
    def sorted_orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.orders))


@dataclass
class VoteProfile:
    """Total vote per gap of one sequence; gap k follows the k-th character."""

    sequence: str
    votes: list[float]
    per_order: "dict[int, list[float]] | None" = None

    def __post_init__(self):
        if len(self.votes) != len(self.sequence) - 1:
            raise ParameterError(
                f"profile needs {len(self.sequence) - 1} votes, got {len(self.votes)}"
            )
        if any(not 0.0 <= v <= 1.0 for v in self.votes):
            raise ParameterError("votes must lie in [0, 1]")


def _check_location(seq: str, k: int):
    if not 1 <= k <= len(seq) - 1:
        raise ParameterError(f"location {k} out of range 1..{len(seq) - 1}")


def _gap_counts(seq: str, orders, table: NGramTable) -> list[list[tuple[int, int]]]:
    """The vote kernel: per order, (affirmative, comparisons) at gaps 1..len-1.

    Each order-n window seq[i:i+n] is looked up once, into c[i].  Gap k
    compares its side windows c[k-n] and c[k] with the straddling windows
    c[max(0, k-n+1) : min(k-1, len-n)+1]; windows outside the sequence take
    no part.  A gap with a side window always has a straddling one.  With
    the straddling counts sorted, the number a side count beats is one
    bisection.
    """
    if not table.orders.issuperset(orders):
        missing = sorted(set(orders) - table.orders)
        raise UnsupportedOrderError(f"table does not cover orders {missing}")
    counts = table.counts
    length = len(seq)
    rows = []
    for n in orders:
        c = [counts.get(seq[i : i + n], 1) for i in range(length - n + 1)]
        last = length - n  # start of the last window
        row = []
        for k in range(1, length):
            lo = k - n + 1
            straddling = sorted(c[lo if lo > 0 else 0 : k if k <= last else last + 1])
            if n <= k <= last:
                both = bisect_left(straddling, c[k - n]) + bisect_left(straddling, c[k])
                row.append((both, 2 * len(straddling)))
            elif k <= last:
                row.append((bisect_left(straddling, c[k]), len(straddling)))
            elif k >= n:
                row.append((bisect_left(straddling, c[k - n]), len(straddling)))
            else:  # no side window fits the sequence
                row.append((0, 0))
        rows.append(row)
    return rows


def _order_votes(seq: str, orders, table: NGramTable) -> "list[list[float | None]]":
    """Per order, the vote at every gap; None where the order has no evidence."""
    return [[a / c if c else None for a, c in row] for row in _gap_counts(seq, orders, table)]


def _mean_votes(rows) -> list[float]:
    """Per gap, the mean of the rows' votes in row order, skipping None; 0
    where no row has evidence."""
    means = []
    for gap in zip(*rows):
        found = [v for v in gap if v is not None]
        means.append(sum(found) / len(found) if found else 0.0)
    return means


def _boundaries(votes: list[float], use_local_max: bool, threshold: float) -> list[int]:
    """The placement rule: locations (gap index + 1) whose vote is a strict
    local maximum, if use_local_max, or meets the threshold."""
    edge = -1.0 if len(votes) > 1 else 2.0  # votes lie in [0, 1]; a lone gap is no maximum
    padded = [edge, *votes, edge]
    return [
        k
        for k, (a, v, b) in enumerate(zip(padded, votes, padded[2:]), 1)
        if (use_local_max and a < v > b) or v >= threshold
    ]


def order_vote_counts(seq: str, k: int, n: int, table: NGramTable) -> tuple[int, int]:
    """(affirmative comparisons, total comparisons) for one order at gap k.

    The non-straddling n-grams are the n characters ending at k and the n
    characters starting at k+1; a straddling n-gram leaves j of its
    characters right of the gap, for each j in 1..n-1.  Only pairs whose
    both members fit the sequence are compared.
    """
    _check_location(seq, k)
    return _gap_counts(seq, (n,), table)[0][k - 1]


def order_vote(seq: str, k: int, n: int, table: NGramTable) -> float:
    """Fraction of affirmative comparisons at gap k for order n; 0 when the
    order has no evidence there."""
    affirmative, comparisons = order_vote_counts(seq, k, n, table)
    return affirmative / comparisons if comparisons else 0.0


def total_vote(seq: str, k: int, params: TangoParams, table: NGramTable) -> float:
    """Mean of the order votes over orders with evidence at gap k."""
    votes = vote_profile(seq, params.orders, table).votes
    _check_location(seq, k)
    return votes[k - 1]


def vote_profile(
    seq: str,
    orders,
    table: NGramTable,
    keep_per_order: bool = False,
) -> VoteProfile:
    """Total vote at every gap; optionally retains per-order votes."""
    orders = sorted(set(orders))
    if not orders:
        raise ParameterError("order set must be non-empty")
    rows = _order_votes(seq, orders, table)
    per_order = None
    if keep_per_order:
        per_order = {n: [0.0 if v is None else v for v in row] for n, row in zip(orders, rows)}
    return VoteProfile(seq, _mean_votes(rows), per_order)


def place_boundaries(profile: VoteProfile, params: TangoParams) -> FlatSegmentation:
    """Apply the local-maximum / threshold rule to a vote profile."""
    threshold = params.threshold if params.use_threshold else math.inf
    bounds = _boundaries(profile.votes, params.use_local_max, threshold)
    return FlatSegmentation(profile.sequence, tuple(bounds))


def segment(seq: str, params: TangoParams, table: NGramTable) -> FlatSegmentation:
    """Vote at every gap of seq and place boundaries; a single-character
    sequence comes back as one segment."""
    return place_boundaries(vote_profile(seq, params.orders, table), params)
