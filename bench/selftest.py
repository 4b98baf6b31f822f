"""Self-test of the benchmark harness on tiny inputs (under a minute).

    python3 bench/selftest.py

Checks that every workload prints every metric of ``BENCHMARK.json`` with
its unit, and its own metric names in the readable lines; that the trace
file parses and every span has a parent or is a root; that a deliberately
wrong segmentation fails the oracle check; that a ``segment`` call or
CLI subcommand which fails is counted and makes the run incorrect without
stopping it; and that the benchmark refuses to run in a directory without the
package sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import harness

# the metric names the workloads print in their readable lines
READABLE = {
    "segment": ("setup_s", "setup_wall_s", "tango_chars_per_ref", "tango_chars_per_s", "tango_seq_p50_ms",
                "tango_seq_p99_ms", "tango_word_f", "peak_rss_mb", "failed_ops_frac"),
    "pipeline": ("setup_s", "setup_wall_s", "pipeline_chars_per_ref", "pipeline_s", "tango_word_f", "sst_word_f",
                 "peak_rss_mb", "failed_ops_frac"),
}


def check_outputs(spec, out_dir) -> list[str]:
    import inputs
    import run

    problems = []
    for workload, readable in READABLE.items():
        for trace in (False, True):
            summary, record, lines = run.measure(
                workload, 1, 0.2, trace, inputs.TINY, spec, out_dir
            )
            where = f"{workload} trace={int(trace)}"
            if list(summary) != ["correct", "attempted", "failed", "metrics"]:
                problems.append(f"{where}: summary keys {list(summary)}")
            if not summary["correct"] or summary["failed"]:
                problems.append(f"{where}: checks {record['checks']} errors {record['errors']}")
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in expected}:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {got}")
            for k, v in summary["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{where}: {k} is not a number")
            json.dumps(summary)  # raises if a value cannot be written as JSON
            for name in readable:
                if not any(line.split()[:1] == [name] and len(line.split()) >= 3 for line in lines):
                    problems.append(f"{where}: readable line for {name} missing")
            if trace:
                path = out_dir / record["trace_file"]
                problems += [f"{where}: {p}" for p in harness.check_trace_file(path)]
                if not path.read_text(encoding="utf-8").strip():
                    problems.append(f"{where}: trace file is empty")
    return problems


def check_oracle_rejects_wrong_output() -> list[str]:
    from tangoseg import Corpus, FlatSegmentation, build_table, segment, train_tango

    import inputs
    import workloads

    corpus, train, heldout = inputs.acceptance_inputs(inputs.TINY, 0)
    table = build_table(Corpus(corpus), workloads.TANGO_ORDERS)
    params = train_tango(train, table, workloads.CRITERION).params
    segs = [segment(a.sequence, params, table) for a in heldout[:10]]
    problems = []
    if workloads.oracle_mismatches(corpus, params, segs):
        problems.append("oracle rejects the package's own segmentations")
    victim = next(s for s in segs if len(s.sequence) > 2)
    moved = tuple(sorted(set(victim.boundaries) ^ {1}))
    wrong = segs[:1] + [FlatSegmentation(victim.sequence, moved)]
    if not workloads.oracle_mismatches(corpus, params, wrong):
        problems.append("oracle accepts a deliberately wrong segmentation")
    return problems


def check_failed_op_fails_run(spec, out_dir) -> list[str]:
    """A ``segment`` call or CLI subcommand that fails is counted, the run
    goes on, and the run is not correct."""
    import types

    import inputs
    import run
    import workloads

    real_segment = workloads.segment

    def segment(seq, params, table):  # fails on one sequence in ten
        if zlib.crc32(seq.encode("utf-8")) % 10 == 0:
            raise ValueError("deliberate failure")
        return real_segment(seq, params, table)

    real_main = workloads.cli.main

    def cli_main(argv):  # every subcommand but evaluate runs as usual
        return 1 if argv[0] == "evaluate" else real_main(argv)

    # (workload, name replaced, replacement, failures expected at least)
    cases = (("segment", "segment", segment, 1),
             ("pipeline", "cli", types.SimpleNamespace(main=cli_main), workloads.MIN_CHAINS))
    problems = []
    for workload, name, replacement, least in cases:
        saved = getattr(workloads, name)
        setattr(workloads, name, replacement)
        try:
            summary, _, _ = run.measure(workload, 1, 0.2, False, inputs.TINY, spec, out_dir)
        finally:
            setattr(workloads, name, saved)
        if summary["correct"]:
            problems.append(f"{workload}: a run whose {name} failed reads correct")
        if summary["failed"] < least:
            problems.append(f"{workload}: {summary['failed']} failures counted, "
                            f"{least} at least")
        if summary["attempted"] <= summary["failed"]:
            problems.append(f"{workload}: the run stopped at the failure")
    return problems


def check_refuses_without_sources(out_dir) -> list[str]:
    with tempfile.TemporaryDirectory(dir=out_dir) as bare:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.ROOT / "bench", f"{bare}/bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "segment", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    harness.use_checkout_sources()
    import run

    spec = run.load_spec()
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
        out_dir = Path(tmp)
        results = {
            "outputs": check_outputs(spec, out_dir),
            "oracle": check_oracle_rejects_wrong_output(),
            "failed_op": check_failed_op_fails_run(spec, out_dir),
            "no_sources": check_refuses_without_sources(out_dir),
        }
    for name, problems in results.items():
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"  {p}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
