#!/usr/bin/env python
"""Dispatch benchmark: host ops/sec for each engine layer, each mode.

Measures the engine's two optimisation layers (superinstruction fusion,
inline caches) against ``baseline`` — the same threaded dispatch loop
with both layers off — on the steady-state ``sorter`` and ``server``
workloads, in plain-run, record, and replay modes.  Guest behavior is asserted identical across engines
(same cycles) — the layers may only change how fast the host gets there.

Usage:

    PYTHONPATH=src python benchmarks/bench_dispatch.py            # full
    PYTHONPATH=src python benchmarks/bench_dispatch.py --quick    # 1 rep
    PYTHONPATH=src python benchmarks/bench_dispatch.py --check    # CI smoke

The full run writes ``BENCH_dispatch.json`` at the repo root; ``--check``
re-measures the full engine and fails (exit 1) if run-mode throughput
regressed more than 20% against the committed file, or if record-mode
throughput falls below ``RECORD_FLOOR`` (0.8×) of the same session's
run-mode throughput — the paper's near-zero-overhead recording claim,
expressed as a ratio so host speed cancels out.
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

from repro.api import build_vm  # noqa: E402
from repro.core.controller import MODE_RECORD, MODE_REPLAY, DejaVu  # noqa: E402
from repro.vm.engineconfig import EngineConfig  # noqa: E402
from repro.vm.machine import Environment, VMConfig  # noqa: E402
from repro.vm.timerdev import SeededJitterClock, SeededJitterTimer  # noqa: E402
from repro.workloads import server, sorter  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_dispatch.json"
SEED = 7
HEAP = 400_000
#: CI gate: record-mode ops/s must stay at least this fraction of the
#: same session's run-mode ops/s, per workload
RECORD_FLOOR = 0.8

#: ablation layers, innermost first (each row adds one layer)
ENGINES = {
    "baseline": EngineConfig.baseline(),
    "fused": EngineConfig(fusion=True, inline_caches=False),
    "full": EngineConfig(),
}

#: steady-state sizings — big enough that class loading and VM
#: construction are noise, small enough for a CI smoke run
WORKLOADS = {
    "sorter": lambda: sorter(4, 400),
    "server": lambda: server(4, 400, 5, work_scale=400),
}


def _build(name: str, engine: EngineConfig):
    vm = build_vm(WORKLOADS[name](), VMConfig(semispace_words=HEAP, engine=engine))
    vm.timer = SeededJitterTimer(SEED, 40, 200)
    vm.clock = SeededJitterClock(SEED)
    vm.env = Environment(SEED)
    return vm


def _time_run(name: str, engine: EngineConfig, mode: str, trace=None):
    """One timed execution; returns (ops_per_sec, cycles)."""
    vm = _build(name, engine)
    if mode == "record":
        DejaVu(vm, MODE_RECORD)
    elif mode == "replay":
        DejaVu(vm, MODE_REPLAY, trace=trace)
    t0 = time.perf_counter()
    result = vm.run("Main.main()V")
    elapsed = time.perf_counter() - t0
    return result.cycles / elapsed, result.cycles


def _record_trace(name: str):
    vm = _build(name, EngineConfig.baseline())
    dejavu = DejaVu(vm, MODE_RECORD)
    vm.run("Main.main()V")
    return dejavu.trace()


def measure(reps: int, engines: dict, modes: tuple) -> dict:
    """Best-of-*reps*, interleaved across engines so every engine sees
    the same share of host noise."""
    results: dict = {}
    for name in WORKLOADS:
        trace = _record_trace(name) if "replay" in modes else None
        per_mode: dict = {}
        cycles_seen: dict = {}
        for mode in modes:
            best = {eng: 0.0 for eng in engines}
            for _ in range(reps):
                for eng, cfg in engines.items():
                    ops, cycles = _time_run(name, cfg, mode, trace)
                    best[eng] = max(best[eng], ops)
                    prev = cycles_seen.setdefault(mode, cycles)
                    assert prev == cycles, (
                        f"{name}/{mode}: engine {eng} changed guest cycles "
                        f"({cycles} != {prev})"
                    )
            per_mode[mode] = {eng: round(v) for eng, v in best.items()}
        results[name] = {
            "cycles": cycles_seen[modes[0]],
            "ops_per_sec": per_mode,
        }
        if "baseline" in engines and "full" in engines:
            results[name]["speedup_full_vs_baseline"] = {
                mode: round(per_mode[mode]["full"] / per_mode[mode]["baseline"], 3)
                for mode in modes
            }
    return results


def cmd_measure(args) -> int:
    modes = ("run", "record", "replay")
    results = measure(args.reps, ENGINES, modes)
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
            "workloads": {"sorter": [4, 400], "server": [4, 400, 5, 400]},
        },
        "results": results,
    }
    for name, row in results.items():
        print(f"{name} ({row['cycles']} cycles)")
        for mode, per_engine in row["ops_per_sec"].items():
            cells = "  ".join(
                f"{eng}={ops / 1e6:.3f}M" for eng, ops in per_engine.items()
            )
            print(f"  {mode:<7} {cells}")
        speed = row.get("speedup_full_vs_baseline", {})
        if speed:
            print("  speedup full/baseline: " + "  ".join(
                f"{m}={s:.2f}x" for m, s in speed.items()
            ))
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


def cmd_check(args) -> int:
    """CI smoke: the full engine's run-mode throughput must stay within
    20% of the committed numbers (and guest cycles must match exactly),
    and record mode must reach :data:`RECORD_FLOOR` of run mode."""
    committed = json.loads(RESULT_PATH.read_text())
    engines = {"full": ENGINES["full"]}
    current = measure(args.reps, engines, ("run", "record"))
    failed = False
    for name, row in current.items():
        want_row = committed["results"][name]
        if row["cycles"] != want_row["cycles"]:
            print(
                f"FAIL {name}: guest cycles changed "
                f"({row['cycles']} != {want_row['cycles']}) — "
                "determinism regression, re-baseline deliberately"
            )
            failed = True
            continue
        got = row["ops_per_sec"]["run"]["full"]
        want = want_row["ops_per_sec"]["run"]["full"]
        floor = 0.8 * want
        verdict = "ok" if got >= floor else "FAIL"
        failed |= got < floor
        print(
            f"{verdict} {name}: run/full {got / 1e6:.3f}M ops/s "
            f"(committed {want / 1e6:.3f}M, floor {floor / 1e6:.3f}M)"
        )
        # record overhead gate: a within-session ratio, so host speed
        # differences between CI machines cancel out
        rec = row["ops_per_sec"]["record"]["full"]
        ratio = rec / got
        verdict = "ok" if ratio >= RECORD_FLOOR else "FAIL"
        failed |= ratio < RECORD_FLOOR
        print(
            f"{verdict} {name}: record/full {rec / 1e6:.3f}M ops/s = "
            f"{ratio:.3f}x of run (floor {RECORD_FLOOR:.2f}x)"
        )
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare run-mode throughput against the committed JSON",
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions per cell")
    parser.add_argument("--quick", action="store_true", help="single repetition")
    parser.add_argument(
        "--no-write", action="store_true", help="measure but do not write the JSON"
    )
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.quick else 5
    return cmd_check(args) if args.check else cmd_measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
