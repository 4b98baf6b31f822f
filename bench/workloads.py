"""The two workloads: ``segment`` and ``pipeline``.

All load comes from one thread as a closed loop with one caller: each call
into ``tangoseg`` starts when the previous one returns.  Each workload
returns an :class:`Outcome`; ``run.py`` turns it into the printed metrics.

Every workload reports the same end-to-end metrics (``setup_s``,
``chars_per_ref``, ``tango_word_f``, ``peak_rss_mb``).  What the timed part
is differs; see ``README.md`` in this directory for the definitions.
"""

import importlib.util
import io
import itertools
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tangoseg import (
    BigramStats,
    Corpus,
    Error,
    NGramTable,
    build_table,
    generate_corpus,
    load_stats,
    place_boundaries,
    read_sst_params,
    read_tango_params,
    save_stats,
    score_set,
    segment,
    serialize_flat,
    serialize_annotation,
    sst_segment,
    train_tango,
    vote_profile,
    write_lexicon,
    write_tango_params,
)
from tangoseg import cli

import harness
import inputs
from yardstick import REF_KERNEL_S, Yardstick, timed

TANGO_ORDERS = range(2, 7)
CRITERION = "word-f"
BLOCK = 100  # sequences per throughput sample
# CLI chains per run, so that each subcommand has a best and a median of at
# least two.  A traced run alternates untraced and traced chains, at least two
# of each, for the tracing overhead.
MIN_CHAINS, MIN_TRACED_CHAINS = 2, 4


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    sizes: inputs.Sizes
    work_dir: Path
    tracer: harness.Tracer
    yardstick: Yardstick
    ops: harness.Ops = field(default_factory=harness.Ops)


@dataclass
class Outcome:
    e2e: dict  # end-to-end metric name -> value, measured untraced
    named: list  # (name, value, unit, note): the workload's own metric names
    layer: dict  # per-layer counts and ratios this workload measured
    checks: dict  # check name -> list of problems; empty means it passed
    record: dict  # inputs, output digests, sample counts


# ---------------------------------------------------------------- helpers


def gram_coverage(seqs, orders, table: NGramTable) -> tuple[int, float]:
    """Grams the vote looks up over ``seqs``, and the share that count 1.

    Mirrors the definition of the vote, not the package's loops: at gap k
    the order-n side grams and the straddling grams are compared when both
    groups are non-empty.
    """
    grams = fallback = 0
    for seq in seqs:
        length = len(seq)
        for k in range(1, length):
            for n in orders:
                sides = [seq[a:a + n] for a in (k - n, k) if 0 <= a and a + n <= length]
                straddling = [
                    seq[k - (n - j):k + j] for j in range(1, n) if j <= length - k and n - j <= k
                ]
                if not sides or not straddling:
                    continue
                for gram in sides + straddling:
                    grams += 1
                    fallback += table.count(gram) == 1
    return grams, (fallback / grams if grams else 0.0)


def _load_oracle():
    spec = importlib.util.spec_from_file_location("naive", harness.ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_mismatches(corpus_sequences, params, segmentations) -> list[str]:
    """Sequences whose boundaries differ from the brute-force oracle."""
    naive = _load_oracle()
    look = naive.pruned_lookup(corpus_sequences, params.orders)
    bad = []
    for seg in segmentations:
        votes = naive.naive_total_votes(seg.sequence, params.orders, look)
        expected = naive.naive_boundaries(
            votes, params.threshold, params.use_local_max, params.use_threshold
        )
        if set(seg.boundaries) != expected:
            bad.append(f"{seg.sequence}: got {sorted(seg.boundaries)}, oracle {sorted(expected)}")
    return bad


class Passes:
    """Repeated passes over a fixed list of sequences, one ``segment`` call at a time.

    With a yardstick, the yardstick runs after each block of ``BLOCK``
    sequences, and the block's time over the yardstick's is the block's
    size in yardstick runs; each block keeps the median of that over the
    passes.  Each block also keeps its best wall time, and each sequence its
    best call time, over the passes.
    """

    def __init__(self, seqs: list[str], yardstick: "Yardstick | None" = None):
        self.seqs = seqs
        self.yardstick = yardstick
        self.blocks = [range(i, min(i + BLOCK, len(seqs))) for i in range(0, len(seqs), BLOCK)]
        self.best_ns = [math.inf] * len(seqs)
        self.block_ns = [math.inf] * len(self.blocks)
        self.block_units = [[] for _ in self.blocks]
        self.results = [None] * len(seqs)
        self.passes = 0

    def run(self, ctx: Ctx, params, table, seconds: float = 0.0,
            traced: bool = False) -> "Passes":
        """Whole passes until ``seconds`` have gone; at least one."""
        span = ctx.tracer.span
        deadline = time.perf_counter() + seconds
        while self.passes == 0 or time.perf_counter() < deadline:
            for b, block in enumerate(self.blocks):
                b0 = time.perf_counter_ns()
                for j in block:
                    ctx.ops.attempted += 1
                    t0 = time.perf_counter_ns()
                    try:
                        if traced:  # the two steps of segment, each in its own span
                            with span("segment.sequence"):
                                with span("segmenter.vote_profile"):
                                    profile = vote_profile(self.seqs[j], params.orders, table)
                                with span("segmenter.place_boundaries"):
                                    seg = place_boundaries(profile, params)
                        else:
                            seg = segment(self.seqs[j], params, table)
                    except Exception as exc:  # counted, and the loop goes on
                        ctx.ops.fail("segment", f"{type(exc).__name__}: {exc}")
                        continue
                    self.best_ns[j] = min(self.best_ns[j], time.perf_counter_ns() - t0)
                    if self.results[j] is None:
                        self.results[j] = seg
                block_ns = time.perf_counter_ns() - b0
                self.block_ns[b] = min(self.block_ns[b], block_ns)
                if self.yardstick:
                    ref_ns = self.yardstick.ns()
                    self.block_units[b].append(block_ns / ref_ns)
            self.passes += 1
        return self

    @property
    def chars(self) -> int:
        return sum(map(len, self.seqs))

    @property
    def chars_per_s(self) -> float:
        """Wall-clock throughput, from each block's best time."""
        return self.chars / sum(self.block_ns) * 1e9

    @property
    def units(self) -> float:
        """Yardstick runs for one pass: the sum of the blocks' medians."""
        return sum(statistics.median(u) for u in self.block_units)

    def latency_ms(self) -> tuple[float, float, int]:
        """(p50, p99, sample count) of the per-sequence best call times."""
        done = [t for t in self.best_ns if t != math.inf] or [0]
        return harness.percentile(done, 50) / 1e6, harness.percentile(done, 99) / 1e6, len(done)


def word_f(ctx: Ctx, preds, golds) -> float:
    with ctx.tracer.span("metrics.score_set"):
        return score_set(list(zip(preds, golds))).word_f


def _params_text(write, params) -> str:
    buf = io.StringIO()
    write(params, buf)
    return buf.getvalue()


def _missing(results) -> list[str]:
    return [f"{results.count(None)} of {len(results)} sequences have no output"] if None in results else []


# ---------------------------------------------------------------- segment


def run_segment(ctx: Ctx) -> Outcome:
    """Acceptance workload: set-up counts and trains, the timed part segments."""
    s = ctx.sizes
    corpus, train, heldout = inputs.acceptance_inputs(s, ctx.seed)
    seqs = [a.sequence for a in heldout]
    record = {
        "seeds": {"lexicon": inputs.LEXICON_SEED, "corpus": inputs.CORPUS_SEED,
                  "train": inputs.TRAIN_SEED, "heldout": inputs.heldout_seed(ctx.seed)},
        "inputs": {
            "corpus": harness.describe_input("\n".join(corpus)),
            "train": harness.describe_input("\n".join(map(serialize_annotation, train))),
            "heldout": harness.describe_input("\n".join(map(serialize_annotation, heldout))),
        },
    }

    setups = []  # (seconds, kernel runs) of each set-up

    def build_and_train():
        with ctx.tracer.span("ngrams.build_table"):
            table = build_table(Corpus(corpus), TANGO_ORDERS)
        with ctx.tracer.span("training.train_tango"):
            params = train_tango(train, table, CRITERION).params
        return table, params

    def set_up():
        with ctx.tracer.span("segment.setup"):
            (table, params), seconds, units = timed(ctx.yardstick, not ctx.trace, build_and_train)
        setups.append((seconds, units))
        return table, params

    # Set-up runs again between slices of the timed part, so that its median
    # spans the whole run rather than one slow phase.
    table, params = set_up()
    checks = {"setup_repeats_agree": []}
    passes = Passes(seqs, ctx.yardstick)
    untraced_s = ctx.seconds / (2 if ctx.trace else 1)
    for repeat in range(s.setup_repeats):
        if repeat:
            table = None  # so that peak memory holds one table, not two
            table, again = set_up()
            if again != params:
                checks["setup_repeats_agree"].append(f"set-up {repeat} trained {again}, not {params}")
        passes.run(ctx, params, table, seconds=untraced_s / s.setup_repeats)
    layer = {}
    if ctx.trace:
        traced = Passes(seqs, ctx.yardstick).run(ctx, params, table, seconds=ctx.seconds / 2,
                                                 traced=True)
        layer["trace.overhead_frac"] = traced.units / passes.units - 1
    peak = harness.peak_rss_mb()
    results = passes.results

    checks["complete"] = _missing(results)
    done = [r for r in results if r is not None]
    checks["oracle"] = oracle_mismatches(corpus, params, done[: s.oracle_sample])
    tango_f = word_f(ctx, results, heldout) if not checks["complete"] else 0.0

    table_buf = io.BytesIO()
    with ctx.tracer.span("ngrams.save"):
        table.save(table_buf)
    grams, fallback = gram_coverage(seqs[: s.test_set], params.sorted_orders, table)
    layer.update({
        "segmenter.grams_compared": grams,
        "ngrams.fallback_share": fallback,
        "ngrams.table_entries": len(table.counts),
        "ngrams.table_bytes": len(table_buf.getvalue()),
    })
    record["digests"] = {
        "segmentations": harness.sha256("\n".join(serialize_flat(r) for r in done)),
        "table": harness.sha256(table_buf.getvalue()),
        "tango_params": harness.sha256(_params_text(write_tango_params, params)),
    }
    record["tango_params"] = _params_text(write_tango_params, params).split()
    p50, p99, n = passes.latency_ms()
    record["samples"] = {"latency": n, "passes": passes.passes, "blocks": len(passes.blocks),
                         "oracle": min(s.oracle_sample, len(done))}
    record["setup"] = [{"seconds": t, "units": u} for t, u in setups]
    e2e = {
        "setup_s": statistics.median(u for _, u in setups) * REF_KERNEL_S,
        "chars_per_ref": passes.chars / passes.units,
        "tango_word_f": tango_f,
        "peak_rss_mb": peak,
    }
    named = [
        ("setup_s", e2e["setup_s"], "s",
         f"build_table + train_tango in kernel runs x {REF_KERNEL_S} s, median of {len(setups)}"),
        ("setup_wall_s", min(t for t, _ in setups), "s", f"wall clock, best of {len(setups)}"),
        ("tango_chars_per_ref", e2e["chars_per_ref"], "chars/ref",
         f"median of {passes.passes} passes"),
        ("tango_chars_per_s", passes.chars_per_s, "chars/s",
         f"wall clock, best of {passes.passes} passes per {BLOCK}-sequence block"),
        ("tango_seq_p50_ms", p50, "ms", f"n={n} sequences, best of {passes.passes} passes"),
        ("tango_seq_p99_ms", p99, "ms", f"n={n} sequences, best of {passes.passes} passes"),
        ("tango_word_f", tango_f, "%", f"{len(heldout)} held-out sequences"),
    ]
    return Outcome(e2e, named, layer, checks, record)


# ---------------------------------------------------------------- pipeline


def _cli(ctx: Ctx, name: str, argv: list[str]) -> "str | None":
    """One CLI subcommand as one operation; returns its stdout on success."""
    ctx.ops.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    with ctx.tracer.span(name):
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a bad command line
            status = exc.code
        except Exception as exc:  # counted, and the chain goes on
            status = f"{type(exc).__name__}: {exc}"
    if status != 0:
        ctx.ops.fail(name, f"exit status {status}: {err.getvalue().strip()[-300:]}")
        return None
    return out.getvalue()


def _diff(files: dict, name: str, expected: list) -> list[str]:
    actual = files[name].read_text(encoding="utf-8").split("\n")[:-1]
    if actual == expected:
        return []
    first = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
                 min(len(actual), len(expected)))
    return [f"{name} line {first + 1} differs from the library "
            f"({len(actual)} lines, {len(expected)} expected)"]


def best_sum(times: list) -> float:
    """Sum over steps of each step's best value over repeats.

    ``times`` holds one list (a value per step position) per repeat.
    """
    return sum(min(step) for step in zip(*times)) if times else math.inf


def median_sum(times: list) -> float:
    """Sum over steps of each step's median over repeats."""
    return sum(statistics.median(step) for step in zip(*times)) if times else math.inf


def _cold_starts(ctx: Ctx, out: list) -> None:
    """``ctx.sizes.cold_starts`` cold starts, each as (seconds, kernel runs)."""
    for _ in range(ctx.sizes.cold_starts):
        out.append(timed(ctx.yardstick, False, harness.cold_start)[1:])


def _chains(ctx: Ctx, chain, cold_starts: list) -> list:
    """Chains for ``ctx.seconds``, at least ``MIN_CHAINS``.

    A traced run alternates untraced and traced chains, at least two of each.
    The cold starts that make ``setup_s`` run before each chain and after the
    last, so that their median spans the whole run rather than one slow phase.
    """
    out = []
    least = MIN_TRACED_CHAINS if ctx.trace else MIN_CHAINS
    deadline = time.perf_counter() + ctx.seconds
    while len(out) < least or time.perf_counter() < deadline:
        _cold_starts(ctx, cold_starts)
        out.append(chain(traced=ctx.trace and len(out) % 2 == 1))
    _cold_starts(ctx, cold_starts)
    return out


def _machine_value(text: "str | None", key: str) -> float:
    for line in (text or "").splitlines():
        name, _, value = line.partition("\t")
        if name == key:
            return float(value)
    return 0.0


def run_pipeline(ctx: Ctx) -> Outcome:
    """The paper reproduction through ``tangoseg.cli.main``, in one process."""
    s = ctx.sizes
    lexicon = ctx.work_dir / "lexicon.tsv"
    write_lexicon(inputs.acceptance_lexicon(), lexicon)
    # the library's copy of the test set the CLI draws
    _, heldout = generate_corpus(inputs.acceptance_lexicon(), sequences=s.test_set,
                                 seed=inputs.heldout_seed(ctx.seed))
    test_seqs = [a.sequence for a in heldout]
    record = {
        "seeds": {"lexicon": inputs.LEXICON_SEED, "corpus": inputs.CORPUS_SEED,
                  "train": inputs.TRAIN_SEED, "test": inputs.heldout_seed(ctx.seed)},
        "inputs": {"lexicon": harness.describe_input(lexicon.read_text(encoding="utf-8"))},
    }
    cold_starts = []

    chain_ids = itertools.count()

    def chain(traced: bool):
        d = ctx.work_dir / f"chain{next(chain_ids)}"
        d.mkdir()
        f = {k: str(d / k) for k in (
            "corpus.txt", "train.ann", "test.txt", "gold.ann", "index.tsv", "stats.tsv",
            "tango.params", "sst.params", "tango.pred", "sst.pred")}
        steps = [
            ("cli.synth", ["synth", "--lexicon", str(lexicon), "--target-chars", str(s.corpus_chars),
                           "--seed", str(inputs.CORPUS_SEED), "--out-corpus", f["corpus.txt"]]),
            ("cli.synth", ["synth", "--lexicon", str(lexicon), "--sequences", "5",
                           "--seed", str(inputs.TRAIN_SEED), "--out-annotations", f["train.ann"]]),
            ("cli.synth", ["synth", "--lexicon", str(lexicon), "--sequences", str(s.test_set),
                           "--seed", str(inputs.heldout_seed(ctx.seed)),
                           "--out-corpus", f["test.txt"], "--out-annotations", f["gold.ann"]]),
            ("cli.build_index", ["build-index", "--corpus", f["corpus.txt"], "--out", f["index.tsv"],
                                 "--bigrams-out", f["stats.tsv"]]),
            ("cli.train_tango", ["train", "--algorithm", "tango", "--train", f["train.ann"],
                                 "--criterion", CRITERION, "--index", f["index.tsv"],
                                 "--out", f["tango.params"]]),
            ("cli.train_sst", ["train", "--algorithm", "sst", "--train", f["train.ann"],
                               "--criterion", CRITERION, "--stats", f["stats.tsv"],
                               "--out", f["sst.params"]]),
            ("cli.segment_tango", ["segment", "--algorithm", "tango", "--input", f["test.txt"],
                                   "--index", f["index.tsv"], "--params", f["tango.params"],
                                   "--out", f["tango.pred"]]),
            ("cli.segment_sst", ["segment", "--algorithm", "sst", "--input", f["test.txt"],
                                 "--stats", f["stats.tsv"], "--params", f["sst.params"],
                                 "--out", f["sst.pred"]]),
            ("cli.evaluate", ["evaluate", "--pred", f["tango.pred"], "--gold", f["gold.ann"],
                              "--machine"]),
            ("cli.evaluate", ["evaluate", "--pred", f["sst.pred"], "--gold", f["gold.ann"],
                              "--machine"]),
        ]
        tracer_enabled, ctx.tracer.enabled = ctx.tracer.enabled, traced
        outputs, step_s, step_units = [], [], []
        try:
            with ctx.tracer.span("pipeline.chain"):
                for name, argv in steps:
                    output, seconds, units = timed(ctx.yardstick, not traced, _cli, ctx, name, argv)
                    outputs.append(output)
                    # a failed subcommand keeps no time
                    step_s.append(seconds if output is not None else math.inf)
                    step_units.append(units if output is not None else math.inf)
        finally:
            ctx.tracer.enabled = tracer_enabled
        files = {k: Path(p) for k, p in f.items()}
        digests = {k: harness.sha256(p.read_bytes()) for k, p in files.items() if p.exists()}
        return traced, step_s, step_units, outputs[-2], outputs[-1], files, digests

    chains = _chains(ctx, chain, cold_starts)
    peak = harness.peak_rss_mb()

    _, _, _, tango_eval, sst_eval, files, digests = chains[-1]
    checks = {"chains_agree": [
        f"chain {i} outputs differ from chain 0" for i, c in enumerate(chains) if c[6] != chains[0][6]
    ]}
    tango_f = _machine_value(tango_eval, "word_f")
    sst_f = _machine_value(sst_eval, "word_f")

    # the CLI's files, re-read through the library: its output must match
    layer = {}
    try:
        test = files["test.txt"].read_text(encoding="utf-8").split("\n")[:-1]
        if test != test_seqs:
            checks["cli_test_set"] = ["CLI test sequences differ from the library's held-out stream"]
        with ctx.tracer.span("ngrams.load"):
            table = NGramTable.load(files["index.tsv"])
        params = read_tango_params(files["tango.params"])
        sst_params = read_sst_params(files["sst.params"])
        with ctx.tracer.span("sst.load_stats"):
            stats = load_stats(files["stats.tsv"], sst_params.estimator)
        probed = Passes(test).run(ctx, params, table)
        lines = [serialize_flat(p) if p is not None else None for p in probed.results]
        sst_lines = [serialize_flat(sst_segment(q, sst_params, stats)) for q in test]
        checks["cli_matches_library"] = _diff(files, "tango.pred", lines) + _diff(
            files, "sst.pred", sst_lines
        )
        # the build-index path as library calls, for its spans and its stats bytes
        with ctx.tracer.span("ngrams.extract_sequences"):
            corpus = Corpus.from_text(files["corpus.txt"].read_bytes().decode("utf-8"))
        with ctx.tracer.span("sst.bigram_stats"):
            library_stats = BigramStats.from_corpus(corpus)
        stats_buf = io.BytesIO()
        with ctx.tracer.span("sst.save_stats"):
            save_stats(library_stats, stats_buf)
        if stats_buf.getvalue() != files["stats.tsv"].read_bytes():
            checks["cli_matches_library"].append("stats.tsv differs from the library's stats")
        grams, fallback = gram_coverage(test, params.sorted_orders, table)
        corpus_chars = sum(
            len(line) for line in files["corpus.txt"].read_text(encoding="utf-8").split("\n")
        )
        layer.update({"segmenter.grams_compared": grams, "ngrams.fallback_share": fallback,
                      "ngrams.table_entries": len(table.counts),
                      "ngrams.table_bytes": files["index.tsv"].stat().st_size,
                      "sst.stats_bytes": files["stats.tsv"].stat().st_size})
        record["tango_params"] = files["tango.params"].read_text(encoding="utf-8").split()
    except (OSError, Error) as exc:
        checks["cli_matches_library"] = [f"CLI outputs unreadable: {exc}"]
        corpus_chars = 0

    # each subcommand's best wall time, and its median in yardstick runs, over
    # the untraced chains; a chain with a failed subcommand counts for neither
    complete = [c for c in chains if math.inf not in c[1]]
    untraced = [c for c in complete if not c[0]]
    pipeline_s = best_sum([c[1] for c in untraced])
    units = median_sum([c[2] for c in untraced])
    if ctx.trace:  # wall time: traced chains are not sampled
        layer["trace.overhead_frac"] = best_sum([c[1] for c in complete if c[0]]) / pipeline_s - 1
    record["digests"] = digests
    record["samples"] = {"chains": len(chains), "untraced_chains": len(untraced)}
    record["cold_starts"] = [{"seconds": t, "units": u} for t, u in cold_starts]
    record["chain_s"] = [{"traced": c[0], "steps": c[1], "units": c[2]} for c in chains]
    e2e = {
        "setup_s": statistics.median(u for _, u in cold_starts) * REF_KERNEL_S,
        "chars_per_ref": corpus_chars / units,
        "tango_word_f": tango_f,
        "peak_rss_mb": peak,
    }
    named = [
        ("setup_s", e2e["setup_s"], "s",
         f"cold start of tangoseg.cli in kernel runs x {REF_KERNEL_S} s, "
         f"median of {len(cold_starts)}"),
        ("setup_wall_s", min(t for t, _ in cold_starts), "s",
         f"wall clock, best of {len(cold_starts)}"),
        ("pipeline_chars_per_ref", e2e["chars_per_ref"], "chars/ref",
         f"{corpus_chars} corpus chars over the whole CLI chain, median of {len(untraced)}"),
        ("pipeline_s", pipeline_s, "s",
         f"wall clock, whole CLI chain, each subcommand best of {len(untraced)}"),
        ("tango_word_f", tango_f, "%", f"CLI evaluate, {s.test_set} test sequences"),
        ("sst_word_f", sst_f, "%", f"CLI evaluate, {s.test_set} test sequences"),
    ]
    return Outcome(e2e, named, layer, checks, record)


WORKLOADS = {"segment": run_segment, "pipeline": run_pipeline}
