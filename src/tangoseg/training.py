"""Exhaustive grid search for segmenter parameters, and tango parameter files.

The voting segmenter is trained over every non-empty subset of orders
{2,3,4,5,6} crossed with thresholds 0.05 .. 1.00 in steps of 0.05 (620
settings); ties prefer fewer orders, then lexicographically smaller order
sets, then larger thresholds.  The bigram-statistics segmenter is trained
over five values of the mutual-information threshold crossed with five
values of each of the four peak bounds (5^5 = 3125 settings); ties prefer
the lexicographically smallest parameter vector.  Training scores are
micro-averaged over the training set.  Compatible-brackets rates are
rejected as criteria: a degenerate whole-sequence bracketing scores 100 on
them.

Both trainers run one grid search, _grid_search, over one layout,
_BoundaryRows: the training sequences end to end, one column per gap and
two per sequence end.  The search walks the settings in blocks that hold
at most _CELL_BUDGET cells.  Each trainer applies its segmenter's one
boundary rule to arrays of settings, one boolean row per setting in the
block, and one routine, _BoundaryRows.scores, matches the rows against the
gold brackets.  The best setting is the first maximum in grid order.  The
grid is kept as its settings and a scores array; only the best setting
becomes a parameter object, and the grid's other items are built when one
is read.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Any, Callable, Iterable

import numpy as np

from .annotations import TwoLevelAnnotation
from .errors import FormatError, ParameterError
from .metrics import _prf
from .ngrams import NGramTable, float_text, read_int_list, read_key_values, write_to
from .segmenter import (TangoParams, _evidence_rows, _mean_votes, _order_votes, _padded,
                        _require_condition, _tango_rule)
from .sst import PEAK_BOUNDS, BigramStats, SstParams, _gap_features, _sst_rule

__all__ = [
    "CRITERIA",
    "TrainResult",
    "grid_to_tsv",
    "read_tango_params",
    "tango_grid",
    "train_sst",
    "train_tango",
    "write_tango_params",
]

CRITERIA = (
    "word-precision",
    "word-recall",
    "word-f",
    "morpheme-precision",
    "morpheme-recall",
    "morpheme-f",
)

TANGO_ORDER_POOL = (2, 3, 4, 5, 6)
TANGO_THRESHOLDS = tuple(i / 20 for i in range(20, 0, -1))
SST_THETAS = (0.0, 1.25, 2.5, 3.75, 5.0)
SST_EXTREMUM_VALUES = (0.0, 50.0, 100.0, 150.0, 200.0)

# boundary-row cells scored at once; bounds both trainers' memory whatever
# the training set's size
_CELL_BUDGET = 1 << 20


def _criterion_value(matched: int, proposed: int, gold: int, criterion: str) -> float:
    kind = criterion.split("-")[1]  # "word-f" -> "f"
    return _prf(matched, proposed, gold)[("precision", "recall", "f").index(kind)]


class _BoundaryRows:
    """The training sequences laid end to end in one boolean row per setting.

    Sequence i owns columns offsets[i] .. offsets[i] + len, column
    offsets[i] + k being its gap k; a set column is a boundary, and both
    ends of every sequence are always set.  Building it validates the
    training set and the criterion.
    """

    def __init__(self, train_set: Sequence[TwoLevelAnnotation], criterion: str):
        if criterion not in CRITERIA:
            raise ParameterError(
                f"criterion must be one of {CRITERIA}; compatible-brackets rates are not "
                "admissible training criteria (a whole-sequence bracketing scores 100 on them)"
            )
        if not train_set:
            raise ParameterError("training set is empty")
        lengths = [len(ann.sequence) for ann in train_set]
        self.offsets = list(accumulate([0] + [n + 1 for n in lengths[:-1]]))
        self.width = sum(lengths) + len(lengths)
        self.ends = self.offsets + [o + n for o, n in zip(self.offsets, lengths)]
        by_word = criterion.startswith("word")
        gold = [
            (o + b.start, o + b.end)
            for o, ann in zip(self.offsets, train_set)
            for b in (ann.word_segmentation if by_word else ann.morpheme_segmentation).brackets
        ]
        self.gold_starts, self.gold_ends = np.array(gold, dtype=np.int64).reshape(-1, 2).T
        self.criterion = criterion

    def spread(self, per_sequence: Sequence, first: int = 0) -> np.ndarray:
        """One row holding sequence i's values at its own columns from its
        gap `first` on, and zeros in the columns no values reach."""
        row = np.zeros(self.width, np.asarray(per_sequence[0]).dtype)
        for offset, values in zip(self.offsets, per_sequence):
            row[offset + first : offset + first + len(values)] = values
        return row

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """The criterion score of each row.

        A gold bracket is matched when both its ends are set and no column
        strictly between them is.  The score is computed once per distinct
        (matched, proposed) pair.
        """
        starts, ends = self.gold_starts, self.gold_ends
        csum = np.cumsum(rows, axis=1, dtype=np.int32)
        matched = (rows[:, starts] & rows[:, ends] & (csum[:, ends - 1] == csum[:, starts])).sum(1)
        proposed = rows.sum(1) - len(self.offsets)
        keys, inverse = np.unique(matched * (self.width + 1) + proposed, return_inverse=True)
        values = [
            _criterion_value(*divmod(int(key), self.width + 1), len(starts), self.criterion)
            for key in keys
        ]
        return np.array(values)[inverse]


class GridView(Sequence):
    """A trained grid as a read-only sequence of (params, score) pairs.

    It holds the settings in grid order and their scores as one array; an
    item's parameter object is built, and validated, when the item is read.
    """

    def __init__(self, settings: Sequence, scores: np.ndarray, make: Callable[[Any], Any]):
        self.settings = settings
        self.scores = scores
        self._make = make

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._make(self.settings[index]), float(self.scores[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, (GridView, list)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def best(self) -> "tuple[Any, float]":
        """The first maximum in grid order."""
        return self[int(np.argmax(self.scores))]

    def ties(self) -> int:
        """How many settings score the grid's maximum."""
        return int(np.count_nonzero(self.scores == self.scores.max()))


@dataclass
class TrainResult:
    """Best parameters with their training score and the full grid table.

    params and score are the grid's first maximum; grid is a GridView over
    the trainer's settings and scores arrays.
    """

    params: Any
    score: float
    grid: GridView


def tango_grid() -> "Iterable[tuple[tuple[int, ...], float]]":
    """All 620 (order subset, threshold) settings in tie-break preference
    order: fewer orders first, then smaller order sets, then larger
    thresholds."""
    for size in range(1, len(TANGO_ORDER_POOL) + 1):
        for subset in combinations(TANGO_ORDER_POOL, size):
            for t in TANGO_THRESHOLDS:
                yield subset, t


def _sst_vectors() -> np.ndarray:
    """The sst grid as one (theta, *PEAK_BOUNDS) row per setting, in
    ascending lexicographic order: the transpose of one contiguous column per
    parameter, as the boundary rule compares strided ones at half the speed."""
    axes = (SST_THETAS, *[SST_EXTREMUM_VALUES] * len(PEAK_BOUNDS))
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1).T


def _grid_search(layout: _BoundaryRows, settings, make, rows, unit=1) -> TrainResult:
    """Score every setting of a grid on the layout; the best is the first maximum.

    rows(lo, hi) applies the segmenter's boundary rule to settings lo ..
    hi-1, one boolean row of layout.width columns each; the sequence ends
    are set here.  Blocks start at multiples of unit and hold at most
    _CELL_BUDGET cells, or one unit.  make builds a setting's parameter
    object.
    """
    scores = np.empty(len(settings))
    step = max(1, _CELL_BUDGET // (unit * layout.width)) * unit
    for lo in range(0, len(scores), step):
        block = rows(lo, lo + step)
        block[:, layout.ends] = True
        scores[lo : lo + step] = layout.scores(block)
    grid = GridView(settings, scores, make)
    return TrainResult(*grid.best(), grid)


def train_tango(
    train_set: Sequence[TwoLevelAnnotation],
    table: NGramTable,
    criterion: str,
    use_local_max: bool = True,
    use_threshold: bool = True,
) -> TrainResult:
    """Grid search for the voting segmenter on an annotated training set.

    Per-order votes are computed once per sequence and laid out as the
    boundary rows are, and each order subset's mean votes are taken once
    over that layout; one call of the placement rule places them under all
    of the subset's thresholds.  The returned parameters carry the
    condition flags used.  A table that does not cover orders 2..6 raises
    UnsupportedOrderError.  The result's grid keeps the tango_grid()
    settings and their scores; only the best setting is built as a
    TangoParams here.
    """
    layout = _BoundaryRows(train_set, criterion)
    _require_condition(use_local_max, use_threshold)
    order_votes = [_order_votes(ann.sequence, TANGO_ORDER_POOL, table) for ann in train_set]
    # per order, every sequence's votes (0 without evidence) and evidence at its gaps' columns
    votes = np.array([layout.spread(rows, 1) for rows in zip(*(v for v, _, _ in order_votes))])
    evidence = np.array([layout.spread(rows, 1) for rows in zip(*(e for _, e, _ in order_votes))])
    # each sequence's edge value in its end columns, the neighbours of its first and last gaps
    edges = layout.spread([_padded([0.0] * (len(ann.sequence) - 1)) for ann in train_set])
    settings = list(tango_grid())
    per_subset = len(TANGO_THRESHOLDS)
    thresholds = np.array(TANGO_THRESHOLDS if use_threshold else [math.inf] * per_subset)
    # per subset, its orders' rows in votes and evidence
    picks = [[TANGO_ORDER_POOL.index(n) for n in subset] for subset, _ in settings[::per_subset]]

    def rows(lo, hi):
        means = np.array([
            _mean_votes(votes[pick], _evidence_rows(evidence[pick])) + edges
            for pick in picks[lo // per_subset : hi // per_subset]
        ])[:, None]
        left, right = np.roll(means, 1, -1), np.roll(means, -1, -1)
        placed = _tango_rule(left, means, right, use_local_max, thresholds[:, None])
        return placed.reshape(-1, layout.width)

    def make(setting):
        return TangoParams(frozenset(setting[0]), setting[1], use_local_max, use_threshold)

    return _grid_search(layout, settings, make, rows, per_subset)


def train_sst(
    train_set: Sequence[TwoLevelAnnotation],
    stats: BigramStats,
    criterion: str,
) -> TrainResult:
    """Grid search for the bigram-statistics segmenter.

    Mutual-information values and peak features are computed once per
    sequence by the segmenter's engine, and its boundary rule tests the 3125
    settings in blocks, one boundary row each.  The result's grid keeps the
    (settings x 5) parameter array and the scores array; only the best
    setting is built as an SstParams here.
    """
    layout = _BoundaryRows(train_set, criterion)
    # the features start at gap 2; the zeros elsewhere are no peak, so no boundary
    per_gap = zip(*(_gap_features(ann.sequence, stats) for ann in train_set))
    features = [layout.spread(column, 2) for column in per_gap]
    settings = _sst_vectors()

    def rows(lo, hi):
        theta, *bounds = settings.T[:, lo:hi, None]
        return _sst_rule(*features, theta, bounds)

    def make(vector):
        return SstParams(float(vector[0]), vector[1:], stats.estimator)

    return _grid_search(layout, settings, make, rows)


def write_tango_params(params: TangoParams, destination) -> None:
    """Key=value parameter file: ``N=2,4`` and ``t=0.4``, then, when one
    boundary condition is disabled, the other: ``conditions=threshold``."""
    orders = ",".join(str(n) for n in params.sorted_orders)
    text = f"N={orders}\nt={float_text(params.threshold)}\n"
    if not (params.use_local_max and params.use_threshold):
        text += f"conditions={'local-max' if params.use_local_max else 'threshold'}\n"
    write_to(destination, text)


def read_tango_params(source) -> TangoParams:
    """The parameters write_tango_params writes; both conditions are enabled
    when the file names none."""
    values = read_key_values(source, {"N": None, "t": None, "conditions": "local-max,threshold"})
    try:
        orders = frozenset(read_int_list(values["N"]))
        threshold = float(values["t"])
    except ValueError:
        raise FormatError("malformed N or t value", path=source) from None
    conditions = values["conditions"].split(",")
    if not set(conditions) <= {"local-max", "threshold"}:
        raise FormatError("conditions must name local-max, threshold or both, "
                          f"got {values['conditions']!r}", path=source)
    return TangoParams(orders, threshold, "local-max" in conditions, "threshold" in conditions)


def _formatted(values: np.ndarray, spec: str) -> np.ndarray:
    """values as an object array of strings, each distinct value formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = np.array([format(v, spec) for v in distinct.tolist()], dtype=object)
    return text[inverse.reshape(values.shape)]


def grid_to_tsv(result: TrainResult) -> str:
    """Diagnostic dump of the full grid table, one row per setting in grid
    order, formatted from the grid's arrays."""
    grid = result.grid
    scores = _formatted(grid.scores, ".6f")
    if isinstance(result.params, TangoParams):
        header = "N\tt\tscore"
        rows = [
            f"{','.join(map(str, subset))}\t{t:g}\t{score}"
            for (subset, t), score in zip(grid.settings, scores.tolist())
        ]
    else:
        header = "\t".join(["theta", *PEAK_BOUNDS, "score"])
        rows = map("\t".join, np.column_stack([_formatted(grid.settings, "g"), scores]).tolist())
    return "\n".join([header, *rows]) + "\n"
