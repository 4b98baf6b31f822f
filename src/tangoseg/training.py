"""Exhaustive grid search for segmenter parameters, plus split utilities.

The voting segmenter is trained over every non-empty subset of orders
{2,3,4,5,6} crossed with thresholds 0.05 .. 1.00 in steps of 0.05 (620
settings); ties prefer fewer orders, then lexicographically smaller order
sets, then larger thresholds.  The bigram-statistics segmenter is trained
over five values of the mutual-information threshold crossed with five
values of each of the six extremum thresholds (5^7 = 78125 settings); ties
prefer the lexicographically smallest parameter vector.  Training scores
are micro-averaged over the training set.  Compatible-brackets rates are
rejected as criteria: a degenerate whole-sequence bracketing scores 100 on
them.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .annotations import TwoLevelAnnotation
from .errors import FormatError, ParameterError, UnsupportedOrderError
from .metrics import _prf
from .ngrams import NGramTable, split_lines
from .segmenter import TangoParams, _boundaries, _mean_votes, _order_votes
from .sst import (
    BigramStats,
    SstParams,
    dts_profile,
    extremum_features,
    mutual_information,
)

__all__ = [
    "CRITERIA",
    "TrainResult",
    "grid_to_tsv",
    "read_tango_params",
    "split_heldout",
    "sst_grid",
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


def validate_criterion(criterion: str) -> str:
    if criterion not in CRITERIA:
        raise ParameterError(
            f"criterion must be one of {CRITERIA}; compatible-brackets rates are not "
            "admissible training criteria (a whole-sequence bracketing scores 100 on them)"
        )
    return criterion


def _criterion_value(matched: int, proposed: int, gold: int, criterion: str) -> float:
    p, r, f = _prf(matched, proposed, gold)
    if criterion.endswith("precision"):
        return p
    if criterion.endswith("recall"):
        return r
    return f


def _gold_brackets(ann: TwoLevelAnnotation, criterion: str):
    return ann.words if criterion.startswith("word") else ann.morpheme_brackets


@dataclass
class TrainResult:
    """Best parameters with their training score and the full grid table."""

    params: Any
    score: float
    grid: list[tuple[Any, float]]


def tango_grid() -> "Iterable[tuple[tuple[int, ...], float]]":
    """All 620 (order subset, threshold) settings in tie-break preference
    order: fewer orders first, then smaller order sets, then larger
    thresholds."""
    for size in range(1, len(TANGO_ORDER_POOL) + 1):
        for subset in combinations(TANGO_ORDER_POOL, size):
            for t in TANGO_THRESHOLDS:
                yield subset, t


def sst_grid() -> "Iterable[tuple[float, tuple[float, ...]]]":
    """All 78125 (theta, extremum thresholds) settings in ascending
    lexicographic order of the parameter vector."""
    for theta in SST_THETAS:
        for es in product(SST_EXTREMUM_VALUES, repeat=6):
            yield theta, es


def train_tango(
    train_set: Sequence[TwoLevelAnnotation],
    table: NGramTable,
    criterion: str,
    use_local_max: bool = True,
    use_threshold: bool = True,
) -> TrainResult:
    """Grid search for the voting segmenter on an annotated training set.

    Per-order votes are computed once per sequence; every subset/threshold
    setting is a cheap re-combination, so the full 620-point grid is always
    evaluated.  The returned parameters carry the condition flags used.
    """
    validate_criterion(criterion)
    if not train_set:
        raise ParameterError("training set is empty")
    if not set(TANGO_ORDER_POOL) <= table.orders:
        missing = sorted(set(TANGO_ORDER_POOL) - table.orders)
        raise UnsupportedOrderError(f"table must cover orders 2..6; missing {missing}")
    if not (use_local_max or use_threshold):
        raise ParameterError("at least one boundary condition must be enabled")

    golds = [set(_gold_brackets(ann, criterion)) for ann in train_set]
    gold_total = sum(len(g) for g in golds)
    # per sequence, per order: the vote at each gap, None without evidence
    order_votes = [
        dict(zip(TANGO_ORDER_POOL, _order_votes(ann.sequence, TANGO_ORDER_POOL, table)))
        for ann in train_set
    ]

    best = None
    grid = []
    current_subset = None
    for subset, threshold in tango_grid():
        if subset != current_subset:
            current_subset = subset
            combined = [_mean_votes([rows[n] for n in subset]) for rows in order_votes]
        matched = proposed = 0
        for ann, votes, gold in zip(train_set, combined, golds):
            bounds = _boundaries(votes, use_local_max, threshold if use_threshold else math.inf)
            edges = [0, *bounds, len(ann.sequence)]
            proposed += len(edges) - 1
            matched += sum(1 for a, b in zip(edges, edges[1:]) if (a, b) in gold)
        score = _criterion_value(matched, proposed, gold_total, criterion)
        params = TangoParams(frozenset(subset), threshold, use_local_max, use_threshold)
        grid.append((params, score))
        if best is None or score > best[1]:
            best = (params, score)
    return TrainResult(best[0], best[1], grid)


def train_sst(
    train_set: Sequence[TwoLevelAnnotation],
    stats: BigramStats,
    criterion: str,
) -> TrainResult:
    """Grid search for the bigram-statistics segmenter.

    Mutual-information values and peak features are computed once per
    sequence; each of the 78125 settings is then a vectorized
    re-thresholding.  Uses the default peak rule.
    """
    validate_criterion(criterion)
    if not train_set:
        raise ParameterError("training set is empty")

    n_seqs = len(train_set)
    ext_len = sum(len(ann.sequence) + 1 for ann in train_set)
    base_mask = np.zeros(ext_len, dtype=bool)
    positions = []
    mi_vals = []
    primary = []
    secondary = []
    rise = []
    fall = []
    gold_starts = []
    gold_ends = []
    gold_total = 0
    offset = 0
    for ann in train_set:
        seq = ann.sequence
        length = len(seq)
        base_mask[offset] = True
        base_mask[offset + length] = True
        values = dts_profile(seq, stats)
        feats = extremum_features(values)
        for i, feature in enumerate(feats):
            k = i + 2
            positions.append(offset + k)
            mi_vals.append(mutual_information(stats, seq[k - 1], seq[k]))
            primary.append(feature.primary)
            secondary.append(feature.secondary)
            rise.append(feature.rise)
            fall.append(feature.fall)
        for b in _gold_brackets(ann, criterion):
            gold_starts.append(offset + b.start)
            gold_ends.append(offset + b.end)
            gold_total += 1
        offset += length + 1

    positions = np.asarray(positions, dtype=np.int64)
    mi_vals = np.asarray(mi_vals, dtype=np.float64)
    primary = np.asarray(primary, dtype=bool)
    secondary = np.asarray(secondary, dtype=bool)
    rise = np.asarray(rise, dtype=np.float64)
    fall = np.asarray(fall, dtype=np.float64)
    prominence = np.minimum(rise, fall)
    gold_starts = np.asarray(gold_starts, dtype=np.int64)
    gold_ends = np.asarray(gold_ends, dtype=np.int64)

    best = None
    grid = []
    for theta, es in sst_grid():
        e1, e2, e3, e4, e5, e6 = es
        ok = (mi_vals < theta) & (
            (primary & (prominence >= e1) & (rise >= e2) & (fall >= e3))
            | (secondary & (prominence >= e4) & (rise >= e5) & (fall >= e6))
        )
        mask = base_mask.copy()
        mask[positions[ok]] = True
        csum = np.cumsum(mask)
        matched_vec = (
            mask[gold_starts]
            & mask[gold_ends]
            & ((csum[gold_ends - 1] - csum[gold_starts]) == 0)
        )
        matched = int(matched_vec.sum())
        proposed = int(ok.sum()) + n_seqs
        score = _criterion_value(matched, proposed, gold_total, criterion)
        params = SstParams(theta, es, stats.estimator)
        grid.append((params, score))
        if best is None or score > best[1]:
            best = (params, score)
    return TrainResult(best[0], best[1], grid)


def split_heldout(
    items: Sequence,
    train_n: int,
    seed: int,
    key: "Callable[[Any], Any] | None" = None,
) -> tuple[list, list]:
    """Seeded shuffle into a train_n-item training side and a test side.

    Training items that duplicate a test item (under key) are discarded, so
    the sides are guaranteed disjoint; the training side may come back
    smaller than train_n.
    """
    items = list(items)
    if train_n >= len(items):
        raise ParameterError(f"train_n={train_n} must be < {len(items)} items")
    rng = random.Random(seed)
    rng.shuffle(items)
    train = items[:train_n]
    test = items[train_n:]
    keyf = key if key is not None else lambda x: x
    test_keys = {keyf(t) for t in test}
    train = [t for t in train if keyf(t) not in test_keys]
    return train, test


def write_tango_params(params: TangoParams, destination) -> None:
    """Key=value parameter file: ``N=2,4`` and ``t=0.4``."""
    payload = (
        "N=" + ",".join(str(n) for n in params.sorted_orders) + "\n"
        f"t={params.threshold:g}\n"
    )
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_text(payload, encoding="utf-8")


def read_tango_params(
    source, use_local_max: bool = True, use_threshold: bool = True
) -> TangoParams:
    if hasattr(source, "read"):
        payload = source.read()
    else:
        payload = Path(source).read_text(encoding="utf-8")
    values: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(payload), start=1):
        if not line.strip():
            continue
        kkey, sep, value = line.partition("=")
        if not sep:
            raise FormatError("expected key=value", line=lineno)
        values[kkey.strip()] = value.strip()
    try:
        orders = frozenset(int(p) for p in values["N"].split(","))
        threshold = float(values["t"])
    except KeyError as exc:
        raise FormatError(f"missing parameter {exc.args[0]!r}") from None
    except ValueError:
        raise FormatError("malformed N or t value") from None
    return TangoParams(orders, threshold, use_local_max, use_threshold)


def grid_to_tsv(result: TrainResult) -> str:
    """Diagnostic dump of the full grid table."""
    rows = []
    if result.grid and isinstance(result.grid[0][0], TangoParams):
        rows.append("N\tt\tscore")
        for params, score in result.grid:
            orders = ",".join(str(n) for n in params.sorted_orders)
            rows.append(f"{orders}\t{params.threshold:g}\t{score:.6f}")
    else:
        rows.append("theta\te1\te2\te3\te4\te5\te6\tscore")
        for params, score in result.grid:
            es = "\t".join(f"{e:g}" for e in params.extremum_thresholds)
            rows.append(f"{params.theta:g}\t{es}\t{score:.6f}")
    return "\n".join(rows) + "\n"
