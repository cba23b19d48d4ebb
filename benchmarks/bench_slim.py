#!/usr/bin/env python
"""Slim-recording benchmark: race-guided switch-stream reduction.

Records each workload twice with identical non-determinism sources —
once full (every switch delta logged) and once slim (``record --slim``:
sync-inferable deltas dropped, re-derived at replay from the modelled
timer plus the sync-order sidecar) — then replays both and asserts the
executions are identical (behaviour key: event stream + heap digest +
cycles).  The figure of merit is the switch-stream reduction::

    full switch bytes / (slim switch bytes + sidecar bytes)

On the sync-heavy, race-free workloads (``synced_bank``,
``readers_writers``) every delta is inferable, so the stream collapses
to a few sidecar words; the racy workloads keep their race-adjacent
deltas explicit and are reported for contrast.

A second, bench-scale arm times what slimming costs at record time:
``sorter(4, 400)`` and ``synced_bank(4, 8000)`` on a 400 000-word heap,
recorded full on the ``full`` engine preset and slim (which runs the
race detector on the unfused engine) in the same session, best of the
repetitions.  Its figure of merit is the record speed ratio::

    full record seconds / slim record seconds

(1.0 would mean slimming is free; lower means slim recording is slower).

Usage:

    PYTHONPATH=src python benchmarks/bench_slim.py            # full
    PYTHONPATH=src python benchmarks/bench_slim.py --quick    # 1 rep
    PYTHONPATH=src python benchmarks/bench_slim.py --check    # CI smoke

The full run writes ``BENCH_slim.json`` at the repo root; ``--check``
re-measures and fails (exit 1) if the reduction on any sync-heavy
workload falls below the 5x floor, if any bench-scale record speed
ratio falls below the 0.35x floor, or if any slim replay (or
bench-scale slim recording) is not identical to its full counterpart.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import ENGINE_PRESETS, record, replay  # noqa: E402
from repro.core.tracelog import encode_words  # noqa: E402
from repro.vm.machine import Environment, VMConfig  # noqa: E402
from repro.vm.timerdev import SeededJitterClock, SeededJitterTimer  # noqa: E402
from repro.workloads import (  # noqa: E402
    racy_bank,
    readers_writers,
    server,
    sorter,
    synced_bank,
)

RESULT_PATH = REPO_ROOT / "BENCH_slim.json"
SEED = 13
HEAP = 120_000

#: sync-heavy, race-free workloads: the 5x reduction floor applies here
FLOOR_WORKLOADS = ("synced_bank", "readers_writers")
#: the CI reduction floor on FLOOR_WORKLOADS
REDUCTION_FLOOR = 5.0

WORKLOADS = {
    "synced_bank": lambda: synced_bank(4, 120),
    "readers_writers": lambda: readers_writers(3, 2, 10),
    "server": lambda: server(3, 40, 5, work_scale=40),
    "racy_bank": lambda: racy_bank(3, 40),
}

#: the bench-scale arm: benchmark-size programs on a benchmark-size heap
SCALE_HEAP = 400_000
SCALE_WORKLOADS = {
    "sorter": lambda: sorter(4, 400),
    "synced_bank": lambda: synced_bank(4, 8000),
}
#: the CI floor on full/slim record seconds for every SCALE_WORKLOADS row
RECORD_RATIO_FLOOR = 0.35


def _config() -> VMConfig:
    return VMConfig(semispace_words=HEAP)


def _knobs():
    return dict(
        timer=SeededJitterTimer(SEED, 40, 200),
        clock=SeededJitterClock(SEED),
        env=Environment(SEED),
    )


def _scale_config() -> VMConfig:
    return VMConfig(semispace_words=SCALE_HEAP, engine=ENGINE_PRESETS["full"])


def _switch_stream_bytes(trace) -> int:
    return len(encode_words(trace.switches)) + len(encode_words(trace.slim))


def _record_both(name: str, factory, config: VMConfig, reps: int):
    """Record full then slim *reps* times each; return the last two runs
    and the best full and slim record seconds."""
    best_full = best_slim = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        full = record(factory(), config=config, **_knobs())
        best_full = min(best_full, time.perf_counter() - t0)
        t0 = time.perf_counter()
        slim = record(factory(), config=config, slim=True, **_knobs())
        best_slim = min(best_slim, time.perf_counter() - t0)
    # identical guest execution regardless of recording mode
    assert slim.result.behavior_key() == full.result.behavior_key(), (
        f"{name}: slim record perturbed the execution"
    )
    return full, slim, best_full, best_slim


def measure(reps: int) -> dict:
    results: dict = {}
    for name, factory in WORKLOADS.items():
        full, slim, best_full, best_slim = _record_both(
            name, factory, _config(), reps
        )
        r_full = replay(factory(), full.trace, config=_config())
        r_slim = replay(factory(), slim.trace, config=_config())
        assert r_slim.behavior_key() == r_full.behavior_key(), (
            f"{name}: slim replay diverged from full replay"
        )

        info = slim.trace.slim_info
        full_bytes = _switch_stream_bytes(full.trace)
        slim_bytes = _switch_stream_bytes(slim.trace)
        results[name] = {
            "switches": len(full.trace.switches),
            "kept": info["kept"] if info else len(slim.trace.switches),
            "dropped": info["dropped"] if info else 0,
            "fallback": slim.trace.meta.get("slim_fallback"),
            "switch_stream_bytes_full": full_bytes,
            "switch_stream_bytes_slim": slim_bytes,
            "reduction": round(full_bytes / max(1, slim_bytes), 2),
            "trace_bytes_full": full.trace.encoded_size_bytes,
            "trace_bytes_slim": slim.trace.encoded_size_bytes,
            "record_full_s": round(best_full, 4),
            "record_slim_s": round(best_slim, 4),
        }
    return results


def measure_scale(reps: int) -> dict:
    """Best-of-*reps* full and slim record seconds at benchmark scale."""
    results: dict = {}
    for name, factory in SCALE_WORKLOADS.items():
        full, _, best_full, best_slim = _record_both(
            name, factory, _scale_config(), reps
        )
        results[name] = {
            "cycles": full.result.cycles,
            "record_full_s": round(best_full, 4),
            "record_slim_s": round(best_slim, 4),
            "record_speed_ratio": round(best_full / best_slim, 3),
        }
    return results


def _print(results: dict) -> None:
    header = (
        f"{'workload':<17}{'switches':>9}{'kept':>6}{'dropped':>8}"
        f"{'full B':>8}{'slim B':>8}{'reduction':>10}"
    )
    print(header)
    for name, row in results.items():
        print(
            f"{name:<17}{row['switches']:>9}{row['kept']:>6}{row['dropped']:>8}"
            f"{row['switch_stream_bytes_full']:>8}"
            f"{row['switch_stream_bytes_slim']:>8}{row['reduction']:>9.1f}x"
            + (f"  [{row['fallback']}]" if row["fallback"] else "")
        )


def _print_scale(results: dict) -> None:
    print(f"{'bench scale':<17}{'full s':>9}{'slim s':>9}{'full/slim':>11}")
    for name, row in results.items():
        print(
            f"{name:<17}{row['record_full_s']:>9.3f}{row['record_slim_s']:>9.3f}"
            f"{row['record_speed_ratio']:>10.2f}x"
        )


def cmd_measure(args) -> int:
    results = measure(args.reps)
    scale = measure_scale(args.reps)
    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": {
            "semispace_words": HEAP,
            "seed": SEED,
            "timer": [40, 200],
            "reps": args.reps,
            "reduction_floor": REDUCTION_FLOOR,
            "floor_workloads": list(FLOOR_WORKLOADS),
            "scale_semispace_words": SCALE_HEAP,
            "scale_engine": "full",
            "record_ratio_floor": RECORD_RATIO_FLOOR,
        },
        "results": results,
        "scale": scale,
    }
    _print(results)
    _print_scale(scale)
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


def cmd_check(args) -> int:
    """CI smoke: the switch-stream reduction on the sync-heavy workloads
    must stay at or above the 5x floor, and the bench-scale record speed
    ratio at or above the 0.35x floor (the identity asserts run inside
    measure() and measure_scale() for every workload)."""
    results = measure(args.reps)
    scale = measure_scale(args.reps)
    _print(results)
    _print_scale(scale)
    failed = False
    for name in FLOOR_WORKLOADS:
        row = results[name]
        if row["reduction"] < REDUCTION_FLOOR:
            print(
                f"FAIL {name}: reduction {row['reduction']:.1f}x < "
                f"{REDUCTION_FLOOR:.0f}x floor"
            )
            failed = True
        else:
            print(
                f"ok {name}: reduction {row['reduction']:.1f}x >= "
                f"{REDUCTION_FLOOR:.0f}x floor"
            )
    for name, row in scale.items():
        ratio = row["record_speed_ratio"]
        verdict = "ok" if ratio >= RECORD_RATIO_FLOOR else "FAIL"
        sign = ">=" if ratio >= RECORD_RATIO_FLOOR else "<"
        print(
            f"{verdict} {name}: full/slim record time {ratio:.2f}x {sign} "
            f"{RECORD_RATIO_FLOOR:.2f}x floor"
        )
        failed = failed or ratio < RECORD_RATIO_FLOOR
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and fail if the sync-heavy reduction is < 5x or "
        "a bench-scale record speed ratio is < 0.35x",
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions")
    parser.add_argument("--quick", action="store_true", help="single repetition")
    parser.add_argument(
        "--no-write", action="store_true", help="measure but do not write the JSON"
    )
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.quick else 3
    return cmd_check(args) if args.check else cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
