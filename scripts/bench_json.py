"""Condense benchmark records of a parent commit and a change into one BENCH_*.json.

Each run of ``bench/run.py`` leaves one record in ``.bench_out/`` of its
checkout, ``<workload>-seed<n>-trace<t>.json``, which the next run with the
same arguments overwrites.  Copy each record aside after its run, one
directory per side, under names that sort in run order, for example
``parent/pipeline-seed0-trace0-01.json``.  Then, from the repository root::

    python3 scripts/bench_json.py --parent runs/parent --change runs/change \\
        --title "what the change does" --parent-commit <sha> --out BENCH_12.json

Records pair up by workload, seed and trace flag, the i-th parent record of
a group with the i-th change record.  Untraced records give the end-to-end
metrics of ``BENCHMARK.json``: per side the runs, their median and
quartiles (inclusive method), and the pairs the change won, ties counting
for neither side.  Traced records give the per-layer seconds.  The output
digests of every record of a workload and seed are compared across both
sides.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

METHOD = (
    "python3 bench/run.py --workload W --seed S --seconds 40 --trace T, parent commit and "
    "change each in its own copy of src/ bench/ tests/ BENCHMARK.json, runs alternating which "
    "side goes first; medians with quartiles (inclusive method). Traced runs give the "
    "per-layer seconds; a layer span is one call per run."
)


def load_records(directory: Path) -> dict:
    """{(workload, seed, trace): [record, ...]} of directory's records, in file-name order."""
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        groups[record["workload"], record["seed"], bool(record["trace"])].append(record)
    return groups


def spread(values: list) -> dict:
    values = [round(v, 4) for v in values]
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": values}


def metric(records: list, name: str) -> list:
    return [r["summary"]["metrics"][name]["value"] for r in records]


def end_to_end(spec: dict, parent: list, change: list) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        before, after = metric(parent, m["name"]), metric(change, m["name"])
        sign = 1 if m["better"] == "higher" else -1
        won = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        ties = sum(a == b for b, a in zip(before, after))
        out[m["name"]] = {"unit": m["unit"], "better": m["better"], "parent": spread(before),
                          "change": spread(after), "change_better_pairs": won, "ties": ties,
                          "pairs": len(before)}
    return out


def per_layer(spec: dict, parent: list, change: list) -> dict:
    out = {}
    for m in spec["per_layer"]:
        if not m["name"].endswith("_s"):
            continue
        before, after = metric(parent, m["name"]), metric(change, m["name"])
        out[m["name"]] = {"unit": m["unit"], "parent_runs": [round(v, 4) for v in before],
                          "change_runs": [round(v, 4) for v in after],
                          "parent_median": round(statistics.median(before), 4),
                          "change_median": round(statistics.median(after), 4)}
    return out


def condense(spec: dict, parent: dict, change: dict, title: str, parent_commit: str) -> dict:
    result = {"schema_version": 1, "change": title, "parent_commit": parent_commit,
              "environment": None, "method": METHOD, "end_to_end": {}, "per_layer": {},
              "correct": {}, "digests_equal": {}, "digests": {}}
    by_inputs = defaultdict(list)  # the seed picks the held-out inputs, so digests differ by seed
    for key in sorted(set(parent) & set(change)):
        workload, seed, traced = key
        k = min(len(parent[key]), len(change[key]))
        before, after = parent[key][:k], change[key][:k]
        result["environment"] = result["environment"] or after[0]["environment"]
        label = f"{workload}_seed{seed}" + ("_traced" if traced else "")
        if traced:
            result["per_layer"][label] = per_layer(spec, before, after)
        else:
            result["end_to_end"][label] = end_to_end(spec, before, after)
        result["correct"][label] = {
            side: {"runs": len(rs), "correct": sum(r["summary"]["correct"] for r in rs),
                   "failed_ops": sum(r["summary"]["failed"] for r in rs)}
            for side, rs in (("parent", before), ("change", after))}
        by_inputs[f"{workload}_seed{seed}"] += before + after
    for label, records in by_inputs.items():
        digests = [r.get("digests") for r in records]
        result["digests_equal"][label] = all(d == digests[0] for d in digests)
        result["digests"][label] = digests[0]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="directory of parent records")
    parser.add_argument("--change", required=True, type=Path, help="directory of change records")
    parser.add_argument("--title", required=True, help="one line naming the change")
    parser.add_argument("--parent-commit", required=True,
                        help="commit the change is measured against")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_records(args.parent), load_records(args.change)
    if not set(parent) & set(change):
        print("bench_json: no workload has records on both sides", file=sys.stderr)
        return 2
    result = condense(spec, parent, change, args.title, args.parent_commit)
    args.out.write_text(json.dumps(result, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
