"""Measurement plumbing shared by the workloads.

Spans, failure accounting, percentiles, memory and the environment record.
Everything here is benchmark code: it times calls into ``tangoseg`` from
outside and never changes the package.
"""

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "naive.py"
OUT_DIR = ROOT / ".bench_out"


class SourceMissing(Exception):
    """The checkout lacks the package sources or the test oracle."""


def use_checkout_sources() -> None:
    """Import ``tangoseg`` from this checkout's ``src`` and nowhere else."""
    for needed in (SRC / "tangoseg" / "__init__.py", ORACLE):
        if not needed.is_file():
            raise SourceMissing(f"{needed.relative_to(ROOT)} not found")
    sys.path.insert(0, str(SRC))
    import tangoseg

    if Path(tangoseg.__file__).resolve().parent != SRC / "tangoseg":
        raise SourceMissing(f"tangoseg imported from {tangoseg.__file__}, not {SRC}")


class Tracer:
    """In-memory spans: name, start, end, parent and run id.

    A disabled tracer hands out no-op contexts, so the untraced path pays
    one attribute test per call.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter_ns()

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (summed self time in ns, number of spans).

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap because the load is one thread.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end"] - s["start"]
        out: dict[str, tuple[int, int]] = {}
        for s in self.spans:
            total, calls = out.get(s["name"], (0, 0))
            out[s["name"]] = (total + s["end"] - s["start"] - child_ns[s["id"]], calls + 1)
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def check_trace_file(path: Path) -> list[str]:
    """Problems found in a written trace: unparsable lines, orphans, open spans."""
    problems = []
    spans = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            s = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        spans[s["id"]] = s
    runs = {s["run"] for s in spans.values()}
    if len(runs) > 1:
        problems.append(f"spans carry {len(runs)} run ids")
    for s in spans.values():
        if s["parent"] is not None and s["parent"] not in spans:
            problems.append(f"span {s['id']} ({s['name']}) has unknown parent {s['parent']}")
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} ({s['name']}) has no valid end")
    return problems


class Ops:
    """Counts attempted and failed operations without aborting the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {why}")

    def call(self, name: str, fn, *args):
        """Run one operation; an exception counts as a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation must not stop the run
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None

    def skip(self, name: str) -> None:
        """An operation that could not start because its input failed."""
        self.attempted += 1
        self.fail(name, "input missing after an earlier failure")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_start() -> None:
    """A fresh interpreter importing ``tangoseg.cli``.

    No timeout: with one, ``subprocess`` polls the child every 50 ms and
    its times come in 50 ms steps.
    """
    subprocess.run(
        [sys.executable, "-c", "import tangoseg.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )


def sha256(data: "bytes | str") -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def describe_input(text: str) -> dict:
    """Size and digest of one generated input, so a changed workload shows."""
    raw = text.encode("utf-8")
    return {"chars": len(text), "bytes": len(raw), "sha256": sha256(raw)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }
