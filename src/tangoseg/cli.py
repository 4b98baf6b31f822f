"""Command-line front end.

Subcommands: ``build-index`` (count tables and bigram stats from a raw
corpus), ``segment`` (batch segmentation to pipe format), ``train`` (grid
search on an annotated set), ``evaluate`` (score predictions against gold
annotations), and ``synth`` (reproducible synthetic corpora).  Diagnostics
go to stderr; data goes to files or stdout.  Exit status is 0 on success
and 2 on any error.
"""

import argparse
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .annotations import (
    TwoLevelAnnotation,
    parse_annotation,
    parse_flat,
    serialize_annotation,
    serialize_flat,
)
from .errors import Error, FormatError, ParameterError
from .metrics import format_report, machine_lines, score_set
from .ngrams import (
    STATS,
    TABLE,
    Corpus,
    NGramTable,
    _code_blocks,
    _walk,
    codepoint_range_filter,
    order_set,
    read_int_list,
    read_lines,
    read_source,
    write_counts,
    write_to,
)
from .segmenter import TangoParams, segment
from .sst import ESTIMATORS, SstParams, load_stats, read_sst_params, sst_segment, write_sst_params
from .synth import _draw_words, _sequences, read_lexicon
from .training import (
    CRITERIA,
    TANGO_ORDER_POOL,
    grid_to_tsv,
    read_tango_params,
    train_sst,
    train_tango,
    write_tango_params,
)

__all__ = ["main"]

# per algorithm: its model-file flag, then the flags its parameter file holds; a model flag
# is given when its value is not None, and no other algorithm's flag may be given
MODEL_FLAGS = {"tango": ("index", ("orders", "threshold", "no_local_max", "no_threshold")),
               "sst": ("stats", ("theta", "extremum", "estimator"))}


def _parse_orders(text: str) -> "tuple[int, ...]":
    try:
        orders = read_int_list(text)
    except ValueError:
        raise ParameterError(f"bad orders list {text!r}") from None
    return order_set(orders)


def _write_lines(path, lines: list[str]) -> None:
    # one join and no string per line: the lines stay alive while the payload is built
    write_to(path or sys.stdout, "\n".join(lines) + "\n" if lines else "")


def _write_all(outputs: list) -> list:
    """Call write(path) for each (path, write) in turn and return what each
    returned.  A failed write removes the files already written, so that a
    failure leaves no output file."""
    written = []
    try:
        for path, write in outputs:
            written.append(write(path))
    except (Error, OSError):
        for path, _ in outputs[: len(written)]:
            Path(path).unlink(missing_ok=True)
        raise
    return written


def cmd_build_index(args) -> int:
    if not args.out and not args.bigrams_out:
        raise ParameterError("nothing to do: give --out and/or --bigrams-out")
    # a bad option fails before the corpus is read
    orders = _parse_orders(args.orders) if args.out else None
    char_filter = codepoint_range_filter(args.filter_range) if args.filter_range else None
    corpus = Corpus.from_text(read_source(args.corpus), char_filter)
    if not corpus.sequences:
        raise FormatError("no sequences extracted", path=args.corpus)
    size = corpus.total_chars
    print(f"corpus_size {size}", file=sys.stderr)
    table, stats = _code_blocks(*_walk(corpus.sequences, orders, stats=bool(args.bigrams_out)))
    if table is not None:
        for n, (_, counts) in table.items():
            print(f"order {n}: {len(counts)} distinct grams", file=sys.stderr)
    if stats is not None:
        print(f"bigram stats: {len(stats[1][1])} characters, {len(stats[2][1])} bigram types",
              file=sys.stderr)
    # each file is written from its count blocks, with no string per gram
    outputs = [(path, partial(write_counts, layout=layout, size=size, orders=blocks, blocks=blocks))
               for path, layout, blocks in ((args.out, TABLE, table),
                                            (args.bigrams_out, STATS, stats))
               if blocks is not None]
    for (path, _), written in zip(outputs, _write_all(outputs)):
        print(f"wrote {written} bytes to {path}", file=sys.stderr)
    return 0


def _check_model_flags(args) -> None:
    """ParameterError for a model flag of another algorithm, a missing model
    file, or a flag given with the --params file that holds it."""
    def flag(name):
        return "--" + name.replace("_", "-")

    model, held = MODEL_FLAGS[args.algorithm]
    given = {name for name, value in vars(args).items() if value is not None}
    ignored = [name for other, (m, h) in MODEL_FLAGS.items() if other != args.algorithm
               for name in (m, *h) if name in given]
    if ignored:
        raise ParameterError(f"{flag(ignored[0])} is not read by the {args.algorithm} algorithm")
    if not getattr(args, model):
        raise ParameterError(f"{flag(model)} is required for the {args.algorithm} algorithm")
    if "params" in given and given.intersection(held):
        raise ParameterError(f"give either --params or {'/'.join(map(flag, held))}, not both")


def _tango_params_from_args(args) -> TangoParams:
    if args.orders is None or args.threshold is None:
        raise ParameterError("need --params or both --orders and --threshold")
    return TangoParams(_parse_orders(args.orders), args.threshold,
                       not args.no_local_max, not args.no_threshold)


def _sst_params_from_args(args) -> SstParams:
    if args.theta is None:
        raise ParameterError("need --params or --theta")
    extremum = "0,0,0,0" if args.extremum is None else args.extremum
    try:
        bounds = tuple(float(p) for p in extremum.split(","))
    except ValueError:
        raise ParameterError(f"bad extremum list {extremum!r}") from None
    return SstParams(args.theta, bounds, args.estimator or "mle")


def cmd_segment(args) -> int:
    _check_model_flags(args)
    if args.algorithm == "tango":
        params = read_tango_params(args.params) if args.params else _tango_params_from_args(args)
        table = NGramTable.load(args.index)
        table.require_orders(params.orders)
        segmenter = partial(segment, params=params, table=table)
    else:
        # sst_segment applies the params' estimator to the statistics
        params = read_sst_params(args.params) if args.params else _sst_params_from_args(args)
        segmenter = partial(sst_segment, params=params, stats=load_stats(args.stats))
    # each line is segmented as it is read, so a line the segmenter refuses, a blank one
    # too, is named by its file and line
    out = read_lines(args.input, lambda line: serialize_flat(segmenter(line)))
    _write_lines(args.out, out)
    print(f"segmented {len(out)} sequences", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    _check_model_flags(args)
    train_set = read_lines(args.train, parse_annotation)
    if not train_set:
        raise FormatError("no annotations found", path=args.train)
    if args.algorithm == "tango":
        result = train_tango(train_set, NGramTable.load(args.index), args.criterion,
                             not args.no_local_max, not args.no_threshold)
        write_params = write_tango_params
        orders = ",".join(map(str, result.params.sorted_orders))
        described = f"N={{{orders}}} t={result.params.threshold:g}"
    else:
        stats = load_stats(args.stats, args.estimator or "mle")
        result = train_sst(train_set, stats, args.criterion)
        write_params = write_sst_params
        bounds = ",".join(f"{e:g}" for e in result.params.peak_bounds)
        described = f"theta={result.params.theta:g} bounds={bounds} estimator={stats.estimator}"
    # the grid is formatted before the first write
    outputs = [(args.out, partial(write_params, result.params))]
    if args.grid_out:
        outputs.append((args.grid_out, partial(write_to, payload=grid_to_tsv(result))))
    _write_all(outputs)
    print(f"best {args.criterion} = {result.score:.4f} with {described}", file=sys.stderr)
    print(f"{result.grid.ties()} of {len(result.grid)} settings tie at the best score",
          file=sys.stderr)
    print(f"wrote parameters to {args.out}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    pred = read_lines(args.pred, parse_flat)
    gold = read_lines(args.gold, parse_annotation)
    if len(pred) != len(gold):
        raise ParameterError(f"{args.pred} has {len(pred)} lines but {args.gold} has {len(gold)}")
    report = score_set(zip(pred, gold))
    if args.machine:
        print("\n".join(machine_lines(report, per_sequence=args.per_sequence)))
    else:
        print(format_report(report, per_sequence=args.per_sequence))
    return 0


def cmd_synth(args) -> int:
    if not args.out_corpus and not args.out_annotations:
        raise ParameterError("nothing to do: give --out-corpus and/or --out-annotations")
    blocks = _draw_words(read_lexicon(args.lexicon), args.sequences, args.target_chars, args.seed,
                         args.words_min, args.words_max, args.suffix_prob)
    raw, gold, count = "", [], 0
    for lines, words, ends in blocks:
        # grown in place, so no block's text outlives its block
        raw += "".join(lines.tolist())
        count += len(ends)
        if args.out_annotations:
            gold += (serialize_annotation(TwoLevelAnnotation.from_segments(w))
                     for w in _sequences(words, ends))
    # all output is built before the first write
    outputs = ((args.out_corpus, partial(write_to, payload=raw)),
               (args.out_annotations, partial(_write_lines, lines=gold)))
    _write_all([(path, write) for path, write in outputs if path])
    print(f"generated {count} sequences, {len(raw) - count} characters", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangoseg",
        description="Mostly-unsupervised character n-gram word segmentation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the model flags that segment and train share
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--algorithm", choices=("tango", "sst"), default="tango")
    model.add_argument("--index", help="n-gram count table (tango)")
    model.add_argument("--stats", help="bigram statistics file (sst)")
    model.add_argument("--estimator", choices=ESTIMATORS, help="sst estimator (default: mle)")
    model.add_argument("--no-local-max", action="store_true", default=None,
                       help="disable the local-maximum boundary condition")
    model.add_argument("--no-threshold", action="store_true", default=None,
                       help="disable the threshold boundary condition")

    p = sub.add_parser("build-index", help="build n-gram count tables from a raw corpus")
    p.add_argument("--corpus", required=True, help="raw unsegmented corpus file")
    p.add_argument("--out", help="output path for the n-gram count table")
    p.add_argument("--orders", default=",".join(map(str, TANGO_ORDER_POOL)),
                   help="comma list of n-gram orders")
    p.add_argument("--filter-range",
                   help="hex codepoint ranges selecting sequence characters, e.g. 4E00-9FFF")
    p.add_argument("--bigrams-out", help="also write raw bigram statistics for sst")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("segment", parents=[model],
                       help="segment sequences, one per input line")
    p.add_argument("--input", required=True, help="file of sequences, one per line")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--params", help="trained parameter file")
    p.add_argument("--orders", help="comma list of orders (tango, with --threshold)")
    p.add_argument("--threshold", type=float, help="vote threshold in [0,1] (tango)")
    p.add_argument("--theta", type=float, help="mutual-information threshold (sst)")
    p.add_argument("--extremum",
                   help="four comma-separated peak bounds: primary rise, primary fall, "
                        "secondary rise, secondary fall (sst, default: 0,0,0,0)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", parents=[model],
                       help="grid-search parameters on an annotated set")
    p.add_argument("--train", required=True, help="annotation file, one sequence per line")
    p.add_argument("--criterion", required=True, help="|".join(CRITERIA))
    p.add_argument("--out", required=True, help="output parameter file")
    p.add_argument("--grid-out", help="optional TSV dump of the full grid")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score predictions against gold annotations")
    p.add_argument("--pred", required=True, help="pipe-format predictions, one per line")
    p.add_argument("--gold", required=True, help="gold annotation file, line-aligned")
    p.add_argument("--per-sequence", action="store_true",
                   help="also report per-sequence error counts")
    p.add_argument("--machine", action="store_true",
                   help="emit metric<TAB>value lines instead of the table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a toy lexicon")
    p.add_argument("--lexicon", required=True,
                   help="lexicon file: word<TAB>weight<TAB>role(stem|suffix)")
    p.add_argument("--out-corpus", help="output file for raw sequences")
    p.add_argument("--out-annotations", help="output file for gold annotations")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--sequences", type=int, help="number of sequences to generate")
    g.add_argument("--target-chars", type=int, help="generate until this many characters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--words-min", type=int, default=3)
    p.add_argument("--words-max", type=int, default=8)
    p.add_argument("--suffix-prob", type=float, default=0.35)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
