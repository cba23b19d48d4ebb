"""Shared machinery of the benchmark: metric tables, statistics, the
sequential measurement loop, the cold-start set-up probe and the result
line.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`)
so that one run's last line always carries the full set; what a
"request" and a "work item" are differs per workload and is spelled out
in ``run.py``.  The traced run reports :data:`PER_LAYER` instead.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: name -> unit, every workload, ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "trace_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: name -> unit, every workload, ``--trace 1`` (0 where the layer is idle)
PER_LAYER = {
    "vm.run_s": "s",
    "vm.build_ms": "ms",
    "vm.builds": "count",
    "vm.cycles": "count",
    "controller.seal_ms": "ms",
    "controller.switch_words": "count",
    "controller.value_words": "count",
    "detector.overhead_s": "s",
    "detector.regions": "count",
    "detector.kept_ratio": "ratio",
    "tracelog.seal_ms": "ms",
    "tracelog.load_ms": "ms",
    "tracelog.file_bytes": "bytes",
    "tracelog.value_stream_bytes": "bytes",
    "tracelog.switch_stream_bytes": "bytes",
    "checkpoint.capture_ms": "ms",
    "checkpoint.snapshots": "count",
    "checkpoint.sidecar_bytes": "bytes",
    "checkpoint.load_s": "s",
    "checkpoint.restore_ms": "ms",
    "doctor.diagnose_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms",
    "serve.codec_ms": "ms",
    "serve.session_hit_ratio": "ratio",
    "serve.rejected": "count",
    "serve.client_retries": "count",
    "explore.baseline_ms": "ms",
    "campaign.run_s": "s",
    "campaign.item_ms": "ms",
    "campaign.merge_ms": "ms",
    "corpus.ingest_ms": "ms",
    "campaign.incidents": "count",
    "explore.behavior_ratio": "ratio",
    "tracing.overhead_ms": "ms",
    "tracing.overhead_pct": "%",
}

#: set-up repetitions; ``setup_s`` is their median
SETUP_REPS = 11


def src_on_path() -> None:
    """Make the checkout's ``src/`` importable; the benchmark runs the
    program from source, never an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> "tuple[float, str]":
    """The highest percentile with at least ten samples beyond it, by
    nearest rank, and its label; the slowest sample when there are too
    few samples for any percentile to qualify."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return ordered[min(n - 1, math.ceil(q / 100 * n) - 1)], f"p{q}"
    return (ordered[-1], "max") if ordered else (0.0, "max")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def coldstart_s(workload: str, scale: str) -> float:
    """One set-up: a fresh interpreter imports the layers *workload*
    uses and builds its guest programs — what every ``repro`` command
    pays before its first cycle."""
    t0 = time.perf_counter()
    # a plain blocking wait: a wait with a timeout polls, in steps of up
    # to 50 ms, which would quantize the figure
    code = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "coldstart.py"), workload, scale],
        env=child_env(),
    ).wait()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    return elapsed


# ---------------------------------------------------------------------------
# the result


class Op:
    """One measured request: its latency, what it produced, and whether
    its outputs passed the checks."""

    def __init__(self, index, latency_s: float, data: dict):
        self.index = index
        self.latency_s = latency_s
        self.data = data
        self.error: "str | None" = data.pop("error", None)

    @property
    def ok(self) -> bool:
        return self.error is None


def sequential(run_op, seconds: float, count: "int | None" = None) -> "list[Op]":
    """Run requests back to back for about *seconds* of measured time
    (stopping where the next request would end nearer past the mark than
    stopping now falls short of it), or exactly *count* of them.  A
    request that raises is a failed request; the loop goes on."""
    ops: list[Op] = []
    busy = 0.0

    def more() -> bool:
        if count is not None:
            return len(ops) < count
        return not ops or busy + busy / len(ops) / 2 < seconds

    while more():
        i = len(ops)
        # every request starts from a collected heap, whatever the last
        # one (or the reference work) left behind
        gc.collect()
        t0 = time.perf_counter()
        try:
            op = run_op(i)
        except Exception as exc:  # noqa: BLE001 - a failed request
            op = Op(i, time.perf_counter() - t0,
                    {"error": f"{type(exc).__name__}: {exc}"})
        ops.append(op)
        busy += op.latency_s
    return ops


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
