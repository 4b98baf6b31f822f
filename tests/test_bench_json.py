"""scripts/bench_json.py: pairs, medians, quartiles and digests of condensed records."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def record(workload, trace, metrics, digests):
    return {"workload": workload, "seed": 0, "trace": trace,
            "environment": {"python": "3"}, "digests": digests,
            "summary": {"correct": True, "failed": 0,
                        "metrics": {k: {"value": v} for k, v in metrics.items()}}}


def write_runs(directory: Path, runs):
    directory.mkdir()
    for i, r in enumerate(runs):
        (directory / f"run-{i:02d}.json").write_text(json.dumps(r), encoding="utf-8")


def e2e(chars_per_ref, peak_rss_mb):
    return {"setup_s": 0.3, "chars_per_ref": chars_per_ref, "tango_word_f": 43.0,
            "peak_rss_mb": peak_rss_mb}


def test_condenses_pairs_in_run_order(tmp_path):
    parent = [record("pipeline", 0, e2e(c, 92.0), {"a": "1"}) for c in (100, 110, 120, 130)]
    change = [record("pipeline", 0, e2e(c, 91.0), {"a": "1"}) for c in (105, 140, 150, 125)]
    layers = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = dict.fromkeys((m["name"] for m in layers["per_layer"]), 0.1)
    parent.append(record("pipeline", 1, {**traced, "cli.build_index_s": 0.5}, {"a": "1"}))
    change.append(record("pipeline", 1, {**traced, "cli.build_index_s": 0.25}, {"a": "2"}))
    write_runs(tmp_path / "p", parent)
    write_runs(tmp_path / "c", change)
    out = tmp_path / "BENCH.json"
    assert bench_json.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                            "--title", "t", "--parent-commit", "abc", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    cpr = result["end_to_end"]["pipeline_seed0"]["chars_per_ref"]
    assert cpr["parent"] == {"median": 115, "q1": 107.5, "q3": 122.5, "runs": [100, 110, 120, 130]}
    # 130 -> 125 is the one pair lost; word-F ties in every pair
    assert (cpr["change_better_pairs"], cpr["ties"], cpr["pairs"]) == (3, 0, 4)
    assert result["end_to_end"]["pipeline_seed0"]["tango_word_f"]["ties"] == 4
    assert result["end_to_end"]["pipeline_seed0"]["peak_rss_mb"]["change_better_pairs"] == 4
    layer = result["per_layer"]["pipeline_seed0_traced"]["cli.build_index_s"]
    assert (layer["parent_median"], layer["change_median"]) == (0.5, 0.25)
    assert result["digests_equal"] == {"pipeline_seed0": False}
    assert result["environment"] == {"python": "3"}


def test_no_common_workload_exits_2(tmp_path):
    write_runs(tmp_path / "p", [record("segment", 0, {}, {})])
    write_runs(tmp_path / "c", [])
    assert bench_json.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                            "--title", "t", "--parent-commit", "abc",
                            "--out", str(tmp_path / "o.json")]) == 2
