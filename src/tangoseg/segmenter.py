"""Boundary voting over n-gram counts and boundary placement.

At each gap in a sequence, every n-gram order in the configured set casts a
vote: the fraction of count comparisons in which a non-straddling n-gram
beside the gap outnumbers an n-gram straddling it.  The per-order votes are
averaged, and a gap becomes a boundary when the averaged vote is a strict
local maximum, meets the threshold, or both, depending on the enabled
conditions.

One kernel, _gap_counts, serves segment, vote_profile and train_tango: it
looks each n-gram window up once and counts every gap's comparisons
through a plan that depends only on the length and the sorted order set.
One placement rule, _tango_rule, local maximum or threshold, serves
_place on one sequence's floats, for segment and place_boundaries, and
train_tango on arrays of settings.  The order set follows ngrams.order_set.

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
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, repeat

import numpy as np

from .annotations import FlatSegmentation
from .errors import ParameterError
from .ngrams import NGramTable, _Counts, order_set

__all__ = [
    "TangoParams",
    "VoteProfile",
    "place_boundaries",
    "segment",
    "vote_profile",
]


def _require_condition(use_local_max: bool, use_threshold: bool) -> None:
    if not (use_local_max or use_threshold):
        raise ParameterError("at least one boundary condition must be enabled")


@dataclass(frozen=True)
class TangoParams:
    """Order set, threshold, and boundary-condition flags."""

    orders: frozenset[int]
    threshold: float
    use_local_max: bool = True
    use_threshold: bool = True

    def __post_init__(self):
        object.__setattr__(self, "orders", frozenset(order_set(self.orders)))
        if not 0.0 <= self.threshold <= 1.0:
            raise ParameterError(f"threshold must be in [0, 1], got {self.threshold}")
        _require_condition(self.use_local_max, self.use_threshold)

    @cached_property
    def sorted_orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.orders))


@dataclass
class VoteProfile:
    """Total vote per gap of one sequence; gap k follows the k-th character."""

    sequence: str
    votes: list[float]
    per_order: "dict[int, list[float]] | None" = None

    def __post_init__(self):
        # the error FlatSegmentation gives, so that both segmenters refuse "" alike
        if not self.sequence:
            raise ValueError("segmentation over an empty sequence")
        if len(self.votes) != len(self.sequence) - 1:
            raise ParameterError(
                f"profile needs {len(self.sequence) - 1} votes, got {len(self.votes)}"
            )
        if any(not 0.0 <= v <= 1.0 for v in self.votes):
            raise ParameterError("votes must lie in [0, 1]")


_Plan = namedtuple("_Plan", "pairs cell comparisons divisor evidence rows windows tail")


def _evidence_rows(evidence: np.ndarray) -> np.ndarray:
    """Per gap, the rows with evidence there, at least 1."""
    return np.maximum(evidence.sum(0), 1)


@lru_cache(maxsize=64)
def _plan(length: int, orders: "tuple[int, ...]") -> _Plan:
    """What the votes of any sequence of this length under these sorted
    orders share, as read-only arrays: comparison i sets window pairs[0, i]
    against pairs[1, i] in cell[i], row * (length - 1) + k - 1 for
    orders[row] at gap k; comparisons, divisor (at least 1) and evidence
    (comparisons > 0) have _gap_counts' shape, and rows holds the orders
    with evidence at each gap, at least 1.  Row w of windows indexes window
    w's order and characters, padding past its end, in the sequence's
    code points and then tail's, as _Counts.find reads them; windows are
    numbered order after order, by start."""
    k = np.arange(1, length)[:, None]  # one row per gap
    slot = np.arange(orders[-1])
    parts, windows = [], []
    base = 0  # the number of the order's first window
    for row, n in enumerate(orders):
        last = length - n  # start of the last window
        d = np.arange(1, n)
        # each side window, ending or starting at k, against each straddling one
        side = np.repeat(np.hstack([k - n, k]), n - 1, axis=1)
        against = np.hstack([k - n + d, k - d])
        fits = (side >= 0) & (side <= last) & (against >= 0) & (against <= last)
        cells = np.broadcast_to(row * (length - 1) + k - 1, fits.shape)
        parts.append((base + np.stack([side[fits], against[fits]]), cells[fits]))
        base += max(0, last + 1)
        start = np.arange(max(0, last + 1))[:, None]
        windows.append(np.hstack([np.full_like(start, length + 1 + row),
                                  np.where(slot < n, start + slot, length)]))
    pairs, cell = (np.concatenate(a, -1).astype(np.intp) for a in zip(*parts))
    comparisons = np.bincount(cell, minlength=len(orders) * (length - 1))
    comparisons = comparisons.reshape(len(orders), length - 1)
    plan = _Plan(pairs, cell, comparisons, np.maximum(comparisons, 1),
                 comparisons > 0, _evidence_rows(comparisons > 0),
                 np.concatenate(windows).astype(np.min_scalar_type(length + len(orders))),
                 _Counts.tail(orders))
    for a in plan:
        a.flags.writeable = False
    return plan


def _gap_counts(seq: str, orders, table: NGramTable) -> "tuple[np.ndarray, np.ndarray]":
    """The vote kernel: (affirmative, comparisons), one row per order and
    one column per gap 1..len-1.

    Row i belongs to orders[i]; its column k-1 counts, at gap k, the
    comparisons in which a side n-gram (the n characters ending at k, or the
    n starting at k+1) outnumbers a straddling one, and all comparisons
    made.  Only pairs whose both members fit the sequence are compared, so
    a gap no order-n side window fits gets (0, 0).  A table that does not
    cover every order raises UnsupportedOrderError.

    Each window is looked up once: one gather makes its slots, one dot
    product per key step its key, and one searchsorted per step finds it;
    then one gather through the plan's pairs takes both counts of every
    comparison, side over straddling.  _plan keeps the comparisons per
    (length, sorted orders), never per sequence or table, for the last 64
    keys: 24 bytes for each of about 2(n-1) per character and order n, 17
    per cell, 8 per gap and 2 per window slot (1 below 256 characters, 4
    past 65,530), so about 880 bytes per character under orders 2..6.
    """
    table.require_orders(orders)
    plan = _plan(len(seq), orders)
    found = table.counts.find(seq, plan.windows, plan.tail.tobytes())
    side, straddling = table.counts.value[found][plan.pairs]
    affirmative = np.bincount(plan.cell[side > straddling], minlength=plan.comparisons.size)
    return affirmative.reshape(plan.comparisons.shape), plan.comparisons


def _order_votes(seq: str, orders, table: NGramTable) -> "tuple[np.ndarray, ...]":
    """Per order and gap, the vote (0 without evidence) and whether there is
    evidence; and per gap, the orders with evidence, at least 1."""
    affirmative, _ = _gap_counts(seq, orders, table)
    plan = _plan(len(seq), orders)  # the cached plan _gap_counts used
    return affirmative / plan.divisor, plan.evidence, plan.rows


def _mean_votes(votes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per gap, the rows' votes summed row after row (np.add.reduce may sum
    pairwise, which rounds otherwise) over rows, the orders with evidence
    there (at least 1): the mean over those, 0 where none has."""
    return np.add.accumulate(votes, 0)[-1] / rows


def _padded(votes: list[float]) -> list[float]:
    """votes with an edge value at both ends, the neighbour of the first and
    last gaps: -1 lies below every vote, and 2 above a lone gap's, which so
    is no local maximum."""
    edge = -1.0 if len(votes) > 1 else 2.0
    return [edge, *votes, edge]


def _tango_rule(left, vote, right, use_local_max, threshold):
    """The placement rule: a gap is a boundary when its vote is a strict
    local maximum, if use_local_max, or meets the threshold.  It works on
    floats and elementwise on arrays alike, so a column of thresholds
    places a row of votes under many settings at once."""
    return (use_local_max & (left < vote) & (vote > right)) | (vote >= threshold)


def _votes(seq: str, orders: "tuple[int, ...]", table: NGramTable) -> "tuple[list, np.ndarray]":
    """The mean vote per gap, as floats, and the per-order votes, under
    orders that order_set already returned."""
    if not seq:
        raise ValueError("segmentation over an empty sequence")
    votes, _, rows = _order_votes(seq, orders, table)
    return _mean_votes(votes, rows).tolist(), votes


def vote_profile(
    seq: str,
    orders,
    table: NGramTable,
    keep_per_order: bool = False,
) -> VoteProfile:
    """Total vote at every gap: votes[k-1] is the mean vote at gap k over the
    orders with evidence there, 0 where none has.  With keep_per_order,
    per_order[n][k-1] is order n's vote at gap k, 0 without evidence."""
    orders = order_set(orders)
    means, votes = _votes(seq, orders, table)
    per_order = dict(zip(orders, votes.tolist())) if keep_per_order else None
    return VoteProfile(seq, means, per_order)


def _place(seq: str, votes: "list[float]", params: TangoParams) -> FlatSegmentation:
    """The placement rule over the mean votes at seq's gaps."""
    threshold = params.threshold if params.use_threshold else math.inf
    p = _padded(votes)
    hits = map(_tango_rule, p, votes, p[2:], repeat(params.use_local_max), repeat(threshold))
    return FlatSegmentation(seq, tuple(compress(range(1, len(p) - 1), hits)))


def place_boundaries(profile: VoteProfile, params: TangoParams) -> FlatSegmentation:
    """Apply the local-maximum / threshold rule to a vote profile."""
    return _place(profile.sequence, profile.votes, params)


def segment(seq: str, params: TangoParams, table: NGramTable) -> FlatSegmentation:
    """place_boundaries(vote_profile(seq, params.orders, table), params),
    with no VoteProfile between; one character comes back as one segment."""
    return _place(seq, _votes(seq, params.sorted_orders, table)[0], params)
