"""tangoseg benchmark: one workload per run, metrics as one JSON line.

Usage, from the repository root::

    python3 bench/run.py --workload segment --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around each call into the package and reports the per-layer metrics named
in ``BENCHMARK.json``.  Human-readable lines (every metric by name, with
unit and sample count) come first; the last line of standard output is the
JSON result.  A record with inputs, digests and the environment goes to
``.bench_out/``, and traced runs also write their spans there.
"""

import argparse
import json
import sys
import tempfile
import uuid
from pathlib import Path

import harness
from yardstick import Yardstick


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("segment", "pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_metrics(spec: dict, outcome, tracer: harness.Tracer) -> dict:
    """Per-layer values; a ``*_s`` metric is mean self time per call of its span.

    A layer the workload never calls reads 0.
    """
    self_times = tracer.self_times()
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in outcome.layer:
            value = outcome.layer[name]
        elif name.endswith("_s"):
            total_ns, calls = self_times.get(name[:-2], (0, 0))
            value = total_ns / calls / 1e9 if calls else 0.0
        else:
            value = 0
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes, spec: dict, out_dir):
    """Run one workload; returns (summary line object, record, printed lines)."""
    import workloads

    tracer = harness.Tracer(trace, run_id=uuid.uuid4().hex)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        ctx = workloads.Ctx(seed, seconds, trace, sizes, Path(work), tracer, Yardstick())
        outcome = workloads.WORKLOADS[workload](ctx)

    if trace:
        metrics = layer_metrics(spec, outcome, tracer)
        trace_path = out_dir / f"{workload}-seed{seed}.spans.jsonl"
        tracer.write(trace_path)
    else:
        metrics = {m["name"]: {"value": outcome.e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        trace_path = None
    correct = not any(outcome.checks.values()) and ctx.ops.failed == 0
    summary = {"correct": correct, "attempted": ctx.ops.attempted, "failed": ctx.ops.failed,
               "metrics": metrics}

    lines = [f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}"]
    for name, value, unit, note in outcome.named:
        lines.append(f"  {name:<26} {value:>14.6g} {unit:<8} {note}")
    lines.append(f"  {'peak_rss_mb':<26} {outcome.e2e['peak_rss_mb']:>14.6g} {'MB':<8} process high-water mark")
    lines.append(f"  {'failed_ops_frac':<26} {ctx.ops.failed_frac:>14.6g} {'ratio':<8} "
                 f"{ctx.ops.failed} of {ctx.ops.attempted} operations")
    for name, problems in outcome.checks.items():
        lines.append(f"  check {name}: {'ok' if not problems else 'FAILED: ' + '; '.join(problems[:3])}")
    for error in ctx.ops.errors:
        lines.append(f"  error {error}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": harness.environment(),
        **outcome.record,
        "named": [{"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in outcome.named],
        "failed_ops_frac": ctx.ops.failed_frac,
        "errors": ctx.ops.errors,
        "checks": outcome.checks,
        "summary": summary,
        "trace_file": trace_path.name if trace_path else None,
    }
    return summary, record, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.use_checkout_sources()
        spec = load_spec()
    except (harness.SourceMissing, OSError, ValueError) as exc:
        print(f"bench: cannot run here: {exc}", file=sys.stderr)
        return 2
    import inputs

    summary, record, lines = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), inputs.FULL, spec,
        harness.OUT_DIR,
    )
    record_path = harness.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
