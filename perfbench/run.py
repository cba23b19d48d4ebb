"""The repository's benchmark: record/replay end to end, split by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  Scratch files go under
``.perfbench_tmp/`` in the checkout and are removed at exit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value + unit).  The exit code is 0
only when every request passed its correctness check.

Workloads
=========

All four use engine preset ``full`` and at most two client threads,
daemon workers or campaign jobs.  Each takes ``--seed`` and derives the
seeds its requests use from it; the program sees only the built inputs.

``record_replay`` — the paper's core path at benchmark scale.
    One request is ``api.record(out=, compress=True)`` → ``TraceLog.load``
    → ``api.replay(checkpoint_every=cycles/4)`` → ``api.resume_replay``
    from that sidecar, on ``sorter(4,400)`` (allocation-heavy) and then
    ``server(4,400,5,work_scale=400)`` (value-stream-heavy), heap
    400 000, about 3 M guest cycles each.  The dispatch loop, the
    controller, the trace codec and the checkpoint layer do the work;
    the race detector is idle.
    Check: ``compare_runs(record, replay).faithful``; the sealed bytes
    equal a recording of the same seed under the ``baseline`` preset;
    the resumed replay restored a checkpoint and equals the full
    replay's ``behavior_key``.

``slim_record`` — race-guided slimming, whose recording cost is ~5x full.
    One request is ``api.record(slim=True, out=)`` → ``TraceLog.load`` →
    ``api.replay`` on ``sorter(4,400)`` and on the race-free
    ``synced_bank(4,8000)`` (about 0.45 M cycles).  The detector and the
    slim seal/reconstruct path do most of the work here and none in
    ``record_replay``.
    Check: the slim recording and its replay both equal a full recording
    of the same seed (events, heap digest, cycles); a slim fallback is a
    failure.

``serve_mixed`` — the daemon under a closed loop of two clients.
    A ``repro serve`` daemon subprocess (two workers, the daemon's
    default, started by ``serve_daemon.py``) is driven through
    ``ServeClient.submit_with_retry`` by two client connections, each
    sending its next job when the last one returns.  Jobs: records of
    ``racy_bank``, ``server``, ``producer_consumer`` and ``sorter`` at
    registry defaults with seeds from a pool of three per program
    (writes); replay / doctor / trace-stats of traces the client just
    recorded (reads, so trace sessions both hit and miss); and every
    18th job an ``explore`` of ``synced_bank`` with budget 20, whose
    ~0.5 s run shares the daemon's interpreter with the short jobs and
    shows up in the tail.  The serve codec, the admission queue and the
    session cache set the latency; the engine only runs short programs.
    Check: every job exits 0; record bytes equal ``api.record`` of the
    same (program, seed) made in set-up; a replay prints the recording's
    result plus the verified line; trace-stats reports the true file
    size; explores of one seed agree.  Before the SIGTERM drain the
    ``health`` op gives session hits/misses, rejections and worker
    restarts; the drain must exit 0 with every accepted job delivered.
    Not listed in ``BENCHMARK.json``: its check fails on the committed
    daemon, whose warm session pool hands a cached ``server`` program —
    and with it the network native's advanced random state — to the next
    ``server`` record job, so that job's trace differs from
    ``api.record``'s.  ``tests/test_checks.py`` pins the defect; list the
    workload once the daemon is fixed.

``explore_campaign`` — hundreds of short VMs.
    ``run_explore_campaign("racy_bank", bound=2, budget=480, jobs=2,
    heap 60 000, corpus_dir=<fresh>)``.  VM construction, fork-shard
    scheduling, the work-list-order merge and corpus ingest do the work;
    no other workload uses them.
    Check: the report ``digest()`` equals a ``jobs=1`` sweep of the same
    work-list, with zero errors, zero worker incidents and every finding
    ingested.  racy_bank's lost updates are expected findings, never a
    failed request.  At this budget the bound-2 work-list is exhaustive,
    so the seed (passed as the sweep's seed and env seed) does not change
    the schedules: every run does the same work, and ``trace_bytes`` is
    the same on every seed.

End-to-end metrics (``--trace 0``, every workload)
==================================================

Every run prints the same names whatever the workload, so each metric is
defined per workload:

============== =========================================================
setup_s        median of several set-ups, made after the measured
               requests so that their children stay out of
               ``peak_rss_mb``.  serve_mixed: spawn the daemon
               until it answers ``hello`` + ``health``.  Others: a fresh
               interpreter imports the layers the workload uses and
               builds its programs (``coldstart.py``).
work_per_s     record_replay: guest Mcycles recorded per host second
               (``record_mcycles_per_s``); slim_record: the same for the
               slim recording; serve_mixed: jobs per second over the
               measured window (``jobs_per_s``); explore_campaign:
               schedules per second (``schedules_per_s``).  Median over
               requests.
request_p50_ms median request latency; a serve job is client-observed,
               retries included.
request_tail_ms the highest percentile with at least ten samples beyond
               it (serve_mixed: p95 at 200+ jobs), or the slowest
               request when a run has fewer than eleven.  A failed or
               refused job counts as missing every latency limit.
trace_bytes    sealed trace bytes: per request over both programs
               (record_replay, slim_record); over the serve seed pool
               (the bytes every record job must reproduce); the failure
               corpus left by one sweep (explore_campaign).
peak_rss_mb    peak resident set of the benchmark process plus its
               largest child, read when the measured requests end —
               before the set-up probes run and before the checks
               compute their references; for serve_mixed the daemon's,
               read through ``health`` before drain.
============== =========================================================

A one-line ``detail`` before the result gives the workload-specific names:
``record_mcycles_per_s``, ``replay_mcycles_per_s``, ``resume_s`` and
``load_ms`` (record_replay, slim_record), ``jobs_per_s``, the tail's
percentile, session counters and client retries (serve_mixed),
``schedules_per_s``, behaviours and findings (explore_campaign).

Per-layer metrics (``--trace 1``)
=================================

A traced run first measures untraced for ``--seconds``, then installs
``spans.py``'s wrappers around the public layer functions and repeats
the same requests (serve_mixed: the same load for the same time on a
freshly launched traced daemon).  Every sealed trace and serve record
blob of the traced requests must be byte-identical to the untraced
ones — a difference is a failed request.  Values are per request of the
traced phase (per job for serve_mixed, per sweep for explore_campaign);
a layer that does not run reports 0.  ``tracing.overhead_ms`` /
``tracing.overhead_pct`` are the traced minus the untraced median
request latency.

Layer → the end-to-end metric it should move (and where):

=========================== ==================================================
vm.run_s (self time of      work_per_s on record_replay and slim_record
``VirtualMachine.run``,
checkpoint spans excluded)
vm.build_ms, vm.builds      work_per_s on explore_campaign, request_p50_ms on
(``api.build_vm``)          serve_mixed; negligible on record_replay
vm.cycles                   none: a deterministic count proving a speed change
                            left the guest unchanged
controller.seal_ms          work_per_s on slim_record (the slim partition runs
(``DejaVu.trace``)          there)
controller.switch_words,    trace_bytes
controller.value_words
detector.overhead_s (self   work_per_s and trace_bytes on slim_record; no change
time of ``VM.run`` under    predicted on record_replay
slim ``api.record`` minus
under full, same seed),
detector.regions
(``RaceDetector.end_region``
calls), detector.kept_ratio
tracelog.seal_ms            work_per_s on record_replay
(``TraceWriter.seal``)
tracelog.load_ms            request_p50_ms on serve_mixed (a session miss
(``TraceLog.load``)         parses the trace)
tracelog.file_bytes,        trace_bytes on record_replay
value_stream_bytes,
switch_stream_bytes
(``trace_stats``)
checkpoint.capture_ms,      request_p50_ms on record_replay only (replay and
snapshots, sidecar_bytes,   resume)
load_s, restore_ms
doctor.diagnose_ms          request_p50_ms on serve_mixed
serve.queue_wait_ms         request_tail_ms on serve_mixed
(``Supervisor.submit`` to
executor start),
serve.run_ms, serve.codec_ms request_p50_ms, request_tail_ms, work_per_s on
(``encode_serve_message``,  serve_mixed
``decode_serve_payload``,
``validate_job``, daemon and
client), session_hit_ratio,
rejected, client_retries
explore.baseline_ms,        work_per_s on explore_campaign
campaign.run_s,
campaign.item_ms (run_s ×
jobs / items),
campaign.merge_ms (sweep
minus baseline and run),
corpus.ingest_ms,
campaign.incidents,
explore.behavior_ratio
=========================== ==================================================

What this supersedes
====================

The ``benchmarks/bench_*.py`` scripts and their ``--check`` floors stay
as they are; these figures replace the following as the numbers a
performance change is judged by:

* ``BENCH_dispatch.json`` record/replay seconds → record_replay
  ``work_per_s``, ``request_p50_ms``;
* ``BENCH_checkpoint.json`` capture/restore timings → record_replay
  ``request_p50_ms`` with ``checkpoint.*``;
* ``BENCH_slim.json`` reduction and record seconds → slim_record
  ``trace_bytes``, ``work_per_s``, ``detector.*``;
* ``BENCH_serve.json`` warm p50 and jobs/s → serve_mixed
  ``request_p50_ms``, ``request_tail_ms``, ``work_per_s``;
* ``BENCH_campaign.json`` and ``BENCH_remote.json`` sweep seconds →
  explore_campaign ``work_per_s`` (remote hosts are not measured here).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    ROOT,
    SETUP_REPS,
    median,
    peak_rss_mb,
    result_line,
    src_on_path,
)

src_on_path()

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def layer_metrics(bench, tracer, ops, untraced_ops) -> dict:
    """The per-layer figures of a traced phase, per request."""
    n = max(1, len(ops))
    sp = tracer.spans
    counts = tracer.counts
    measured = lambda op: op != "ref"  # noqa: E731

    def ms(name):
        return spans.total_seconds(sp, name, measured) / n * 1000

    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({
        "vm.run_s": spans.self_seconds(sp, "vm.run", measured) / n,
        "vm.build_ms": ms("vm.build"),
        "vm.builds": counts["vm.builds"] / n,
        "vm.cycles": counts["vm.cycles"] / n,
        "controller.seal_ms": ms("controller.seal"),
        "controller.switch_words": counts["controller.switch_words"] / n,
        "controller.value_words": counts["controller.value_words"] / n,
        "detector.regions": counts["detector.regions"] / n,
        "tracelog.seal_ms": ms("tracelog.seal"),
        "tracelog.load_ms": ms("tracelog.load"),
        "checkpoint.capture_ms": ms("checkpoint.capture"),
        "checkpoint.snapshots": counts["checkpoint.snapshots"] / n,
        "checkpoint.load_s": ms("checkpoint.load") / 1000,
        "checkpoint.restore_ms": ms("checkpoint.restore"),
        "doctor.diagnose_ms": ms("doctor.diagnose"),
        "serve.queue_wait_ms": ms("serve.queue_wait"),
        "serve.run_ms": ms("serve.run"),
        "serve.codec_ms": ms("serve.codec"),
        "explore.baseline_ms": ms("explore.baseline"),
        "campaign.run_s": ms("campaign.run") / 1000,
        "corpus.ingest_ms": ms("corpus.ingest"),
    })
    kept, dropped = counts["detector.kept"], counts["detector.dropped"]
    if kept + dropped:
        out["detector.kept_ratio"] = kept / (kept + dropped)
    out.update(bench.layers(ops))
    base = median([op.latency_s for op in untraced_ops]) * 1000
    traced = median([op.latency_s for op in ops]) * 1000
    out["tracing.overhead_ms"] = traced - base
    out["tracing.overhead_pct"] = (traced - base) / base * 100 if base else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        scale: str = "full", fault=None) -> "tuple[dict, dict]":
    """One benchmark run; returns (result line, detail)."""
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    saved_tmp = tempfile.tempdir, os.environ.get("TMPDIR")
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    tracer = spans.Tracer() if trace else None
    bench = WORKLOADS[workload](seed, scale=scale, fault=fault, tmp=tmp,
                                tracer=tracer)
    try:
        bench.prepare()
        bench.warm_up()
        ops = bench.measure(seconds)
        # the peak of the measured requests, read before the set-up
        # probes (children) and the reference work (verify) add to it
        rss_mb = peak_rss_mb()
        setups = [] if trace else [bench.setup() for _ in range(SETUP_REPS)]
        traced_ops: list = []
        if trace:
            import repro.serve.client

            tracer.install(spans.engine_wraps() + spans.campaign_wraps()
                           + spans.serve_codec_wraps(repro.serve.client))
            spans.dump_from_campaign_workers(tracer, tmp)
            bench.warm_references()
            traced_ops = bench.measure(seconds, count=len(ops), traced=True)
            tracer.uninstall()
            for dump in sorted(tmp.glob("*spans*.json")) + sorted(tmp.glob("worker-*.json")):
                tracer.merge_file(dump)
        errors = list(bench.extra_failures)
        for op in ops + traced_ops:
            error = op.error or bench.verify(op)
            if error is not None:
                errors.append(f"request {op.index}: {error}")
        if trace:
            errors += bench.traced_differences(ops, traced_ops)
        attempted = len(ops) + len(traced_ops) + len(bench.extra_failures)
        failed = min(attempted, len(errors))
        end_to_end = bench.end_to_end(ops, rss_mb)  # also fills bench.detail
        if trace:
            metrics = layer_metrics(bench, tracer, traced_ops, ops)
            units = PER_LAYER
        else:
            metrics = dict(end_to_end, setup_s=median(setups))
            units = END_TO_END
        detail = dict(bench.detail, errors=errors)
        if len(ops) <= 20:
            detail["request_ms"] = [round(op.latency_s * 1000, 1) for op in ops]
        return result_line(not errors, attempted, failed, metrics, units), detail
    finally:
        bench.close()
        tempfile.tempdir = saved_tmp[0]
        if saved_tmp[1] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmp[1]
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail["errors"] = detail["errors"][:5]
    print("detail: " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
