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
from pathlib import Path

from . import __version__
from .annotations import (
    parse_annotation,
    parse_flat,
    serialize_annotation,
    serialize_flat,
)
from .errors import Error, FormatError, ParameterError
from .metrics import format_report, machine_lines, score_set
from .ngrams import Corpus, NGramTable, build_table, codepoint_range_filter, split_lines
from .segmenter import TangoParams, segment
from .sst import (
    BigramStats,
    SstParams,
    load_stats,
    read_sst_params,
    save_stats,
    sst_segment,
    write_sst_params,
)
from .synth import generate_corpus, read_lexicon
from .training import (
    grid_to_tsv,
    read_tango_params,
    train_sst,
    train_tango,
    write_tango_params,
)

__all__ = ["main"]


def _read_text(path: str) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc


def _parse_orders(text: str) -> frozenset[int]:
    try:
        orders = frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise ParameterError(f"bad orders list {text!r}") from None
    if not orders:
        raise ParameterError("orders list is empty")
    return orders


def _input_lines(path: str) -> list[str]:
    lines = split_lines(_read_text(path))
    for lineno, line in enumerate(lines, start=1):
        if not line:
            raise FormatError("blank input line", line=lineno)
    return lines


def _read_annotations(path: str):
    annotations = []
    for lineno, line in enumerate(_input_lines(path), start=1):
        try:
            annotations.append(parse_annotation(line))
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}", line=lineno) from None
    if not annotations:
        raise ParameterError(f"{path}: no annotations found")
    return annotations


def _write_output(path, lines):
    payload = "".join(line + "\n" for line in lines)
    if path:
        Path(path).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def cmd_build_index(args) -> int:
    if not args.out and not args.bigrams_out:
        raise ParameterError("nothing to do: give --out and/or --bigrams-out")
    char_filter = codepoint_range_filter(args.filter_range) if args.filter_range else None
    corpus = Corpus.from_text(_read_text(args.corpus), char_filter)
    if not corpus.sequences:
        raise ParameterError(f"{args.corpus}: no sequences extracted")
    print(f"corpus_size {corpus.total_chars}", file=sys.stderr)
    if args.out:
        table = build_table(corpus, _parse_orders(args.orders))
        written = table.save(args.out)
        for n, distinct in table.distinct_per_order().items():
            print(f"order {n}: {distinct} distinct grams", file=sys.stderr)
        print(f"wrote {written} bytes to {args.out}", file=sys.stderr)
    if args.bigrams_out:
        stats = BigramStats.from_corpus(corpus)
        written = save_stats(stats, args.bigrams_out)
        print(
            f"bigram stats: {stats.alphabet_size} characters, "
            f"{stats.bigram_types} bigram types",
            file=sys.stderr,
        )
        print(f"wrote {written} bytes to {args.bigrams_out}", file=sys.stderr)
    return 0


def _tango_params_from_args(args) -> TangoParams:
    use_local_max = not args.no_local_max
    use_threshold = not args.no_threshold
    if args.params:
        if args.orders or args.threshold is not None:
            raise ParameterError("give either --params or --orders/--threshold, not both")
        return read_tango_params(args.params, use_local_max, use_threshold)
    if not args.orders or args.threshold is None:
        raise ParameterError("need --params or both --orders and --threshold")
    return TangoParams(_parse_orders(args.orders), args.threshold, use_local_max, use_threshold)


def _sst_params_from_args(args) -> SstParams:
    if args.params:
        if args.theta is not None:
            raise ParameterError("give either --params or --theta/--extremum, not both")
        return read_sst_params(args.params)
    if args.theta is None:
        raise ParameterError("need --params or --theta")
    try:
        thresholds = tuple(float(p) for p in args.extremum.split(","))
    except ValueError:
        raise ParameterError(f"bad extremum list {args.extremum!r}") from None
    return SstParams(args.theta, thresholds, args.estimator)


def cmd_segment(args) -> int:
    out = []
    if args.algorithm == "tango":
        if not args.index:
            raise ParameterError("--index is required for the tango algorithm")
        params = _tango_params_from_args(args)
        table = NGramTable.load(args.index)
        if not params.orders <= table.orders:
            missing = sorted(params.orders - table.orders)
            raise ParameterError(f"index does not cover orders {missing}")
        for line in _input_lines(args.input):
            out.append(serialize_flat(segment(line, params, table)))
    else:
        if not args.stats:
            raise ParameterError("--stats is required for the sst algorithm")
        params = _sst_params_from_args(args)
        stats = load_stats(args.stats, params.estimator)
        for line in _input_lines(args.input):
            out.append(serialize_flat(sst_segment(line, params, stats)))
    _write_output(args.out, out)
    print(f"segmented {len(out)} sequences", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    train_set = _read_annotations(args.train)
    if args.algorithm == "tango":
        if not args.index:
            raise ParameterError("--index is required for the tango algorithm")
        table = NGramTable.load(args.index)
        result = train_tango(
            train_set,
            table,
            args.criterion,
            use_local_max=not args.no_local_max,
            use_threshold=not args.no_threshold,
        )
        write_tango_params(result.params, args.out)
        described = (
            "N={" + ",".join(str(n) for n in result.params.sorted_orders) + "}"
            f" t={result.params.threshold:g}"
        )
    else:
        if not args.stats:
            raise ParameterError("--stats is required for the sst algorithm")
        stats = load_stats(args.stats, args.estimator)
        result = train_sst(train_set, stats, args.criterion)
        write_sst_params(result.params, args.out)
        es = ",".join(f"{e:g}" for e in result.params.extremum_thresholds)
        described = f"theta={result.params.theta:g} e={es} estimator={result.params.estimator}"
    if args.grid_out:
        Path(args.grid_out).write_text(grid_to_tsv(result), encoding="utf-8")
    print(f"best {args.criterion} = {result.score:.4f} with {described}", file=sys.stderr)
    print(f"wrote parameters to {args.out}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    pred_lines = _input_lines(args.pred)
    gold_lines = _input_lines(args.gold)
    if len(pred_lines) != len(gold_lines):
        raise ParameterError(
            f"{args.pred} has {len(pred_lines)} lines but {args.gold} has {len(gold_lines)}"
        )
    pairs = []
    for lineno, (pred_line, gold_line) in enumerate(zip(pred_lines, gold_lines), start=1):
        try:
            pairs.append((parse_flat(pred_line), parse_annotation(gold_line)))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    report = score_set(pairs)
    if args.machine:
        print("\n".join(machine_lines(report, per_sequence=args.per_sequence)))
    else:
        print(format_report(report, per_sequence=args.per_sequence))
    return 0


def cmd_synth(args) -> int:
    if not args.out_corpus and not args.out_annotations:
        raise ParameterError("nothing to do: give --out-corpus and/or --out-annotations")
    lexicon = read_lexicon(args.lexicon)
    raw, annotations = generate_corpus(
        lexicon,
        sequences=args.sequences,
        target_chars=args.target_chars,
        seed=args.seed,
        words_min=args.words_min,
        words_max=args.words_max,
        suffix_prob=args.suffix_prob,
    )
    if args.out_corpus:
        Path(args.out_corpus).write_text("".join(s + "\n" for s in raw), encoding="utf-8")
    if args.out_annotations:
        Path(args.out_annotations).write_text(
            "".join(serialize_annotation(a) + "\n" for a in annotations), encoding="utf-8"
        )
    total = sum(len(s) for s in raw)
    print(f"generated {len(raw)} sequences, {total} characters", file=sys.stderr)
    return 0


def _add_tango_flags(parser):
    parser.add_argument("--no-local-max", action="store_true",
                        help="disable the local-maximum boundary condition")
    parser.add_argument("--no-threshold", action="store_true",
                        help="disable the threshold boundary condition")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangoseg",
        description="Mostly-unsupervised character n-gram word segmentation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build n-gram count tables from a raw corpus")
    p.add_argument("--corpus", required=True, help="raw unsegmented corpus file")
    p.add_argument("--out", help="output path for the n-gram count table")
    p.add_argument("--orders", default="2,3,4,5,6", help="comma list of n-gram orders")
    p.add_argument("--filter-range",
                   help="hex codepoint ranges selecting sequence characters, e.g. 4E00-9FFF")
    p.add_argument("--bigrams-out", help="also write raw bigram statistics for sst")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("segment", help="segment sequences, one per input line")
    p.add_argument("--algorithm", choices=("tango", "sst"), default="tango")
    p.add_argument("--input", required=True, help="file of sequences, one per line")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--index", help="n-gram count table (tango)")
    p.add_argument("--stats", help="bigram statistics file (sst)")
    p.add_argument("--params", help="trained parameter file")
    p.add_argument("--orders", help="comma list of orders (tango, with --threshold)")
    p.add_argument("--threshold", type=float, help="vote threshold in [0,1] (tango)")
    _add_tango_flags(p)
    p.add_argument("--theta", type=float, help="mutual-information threshold (sst)")
    p.add_argument("--extremum", default="0,0,0,0,0,0",
                   help="six comma-separated extremum thresholds (sst)")
    p.add_argument("--estimator", choices=("mle", "ele"), default="mle")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="grid-search parameters on an annotated set")
    p.add_argument("--algorithm", choices=("tango", "sst"), default="tango")
    p.add_argument("--train", required=True, help="annotation file, one sequence per line")
    p.add_argument("--criterion", required=True,
                   help="word-precision|word-recall|word-f|morpheme-precision|"
                        "morpheme-recall|morpheme-f")
    p.add_argument("--out", required=True, help="output parameter file")
    p.add_argument("--index", help="n-gram count table (tango)")
    p.add_argument("--stats", help="bigram statistics file (sst)")
    p.add_argument("--estimator", choices=("mle", "ele"), default="mle")
    p.add_argument("--grid-out", help="optional TSV dump of the full grid")
    _add_tango_flags(p)
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
