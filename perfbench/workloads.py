"""The four benchmark workloads.

Each workload is a class with the same shape:

* ``coldstart(scale)`` — what the set-up probe does in a fresh
  interpreter: import the layers the workload uses, build its programs;
* ``setup()`` — one timed set-up (``setup_s`` is the median of several);
* ``measure(seconds, count, traced)`` — the measured requests;
* ``verify(op)`` — the correctness check of one request against a
  reference computed outside the measured time (``None`` = correct);
* ``end_to_end(ops)`` / ``layers(ops)`` — the reported figures;
* ``identity(op)`` — the bytes a request sealed, keyed so that a traced
  and an untraced run of the same seed can be compared byte for byte.

The program receives only built inputs: guest programs, seeds derived
from ``--seed``, and job dicts.  ``fault`` names a deliberately wrong
input or reference that ``tests/test_checks.py`` uses to prove each
check fires; a benchmark run never sets it.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from harness import (
    BENCH_DIR,
    Op,
    child_env,
    coldstart_s,
    median,
    sequential,
    tail,
)

perf = time.perf_counter


def _derived_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}:0").randrange(1, 1_000_000)


def _flipped(blob: bytes) -> bytes:
    data = bytearray(blob)
    data[len(data) // 2] ^= 0xFF
    return bytes(data)


def _key_digest(result) -> str:
    """A digest of a run's ``behavior_key()`` (events, heap digest,
    cycles), so that a request keeps its outcome but not the run."""
    return hashlib.sha256(repr(result.behavior_key()).encode()).hexdigest()


def _flip_byte(path: Path) -> None:
    path.write_bytes(_flipped(path.read_bytes()))


class Bench:
    name = ""

    def __init__(self, seed: int, *, scale: str = "full", fault=None,
                 tmp: Path, tracer=None):
        self.seed = seed
        self.scale = scale
        self.fault = fault
        self.tmp = tmp
        self.tracer = tracer
        self.op_seed = _derived_seed(self.name, seed)
        #: failed checks that belong to no single request (e.g. drain)
        self.extra_failures: list[str] = []
        self.detail: dict = {}

    @staticmethod
    def factories(scale: str) -> dict:
        """Guest program factories at *scale*: name -> zero-arg callable
        (a fresh program per call: some natives keep state)."""
        return {}

    @classmethod
    def coldstart(cls, scale: str) -> None:
        for factory in cls.factories(scale).values():
            factory()

    def setup(self) -> float:
        return coldstart_s(self.name, self.scale)

    def prepare(self) -> None:
        """In-process input building before the measured requests."""
        self.coldstart(self.scale)

    def warm_up(self) -> None:
        """One untimed request at the tiny size, so that lazy imports
        and first-call paths are paid before timing starts."""
        twin = type(self)(self.seed, scale="tiny", tmp=self.tmp)
        twin.prepare()
        twin.run_op("warm-up")

    def warm_references(self) -> None:
        """Compute every reference the checks will need (used before a
        traced phase, so reference work is tagged and kept apart)."""

    def measure(self, seconds: float, count=None, traced=False) -> "list[Op]":
        return sequential(self.run_op, seconds, count)

    def run_op(self, i: int) -> Op:  # pragma: no cover - per workload
        raise NotImplementedError

    def set_op(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def phase(self, name: str, fn, *args, **kwargs):
        """Call *fn* inside a span of the benchmark's own (traced runs)."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, args, kwargs)

    def identity(self, op: Op) -> dict:
        """The bytes *op* sealed, by name."""
        return {name: d["blob"] for name, d in op.data.get("programs", {}).items()}

    def traced_differences(self, untraced, traced) -> "list[str]":
        """Tracing must not perturb: request i of the traced phase seals
        exactly the bytes request i of the untraced phase sealed."""
        return [
            f"request {b.index}: traced output differs from untraced"
            for a, b in zip(untraced, traced)
            if a.ok and b.ok and self.identity(a) != self.identity(b)
        ]

    def layers(self, ops) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# record_replay


def _rr_programs(scale):
    from repro.workloads import server, sorter

    if scale == "tiny":
        return {"sorter": lambda: sorter(2, 20),
                "server": lambda: server(2, 10, 5, work_scale=10)}
    return {"sorter": lambda: sorter(4, 400),
            "server": lambda: server(4, 400, 5, work_scale=400)}


def _vm_config(scale: str, preset: str = "full", full_heap: int = 400_000):
    from repro.api import ENGINE_PRESETS
    from repro.vm.machine import VMConfig

    heap = 60_000 if scale == "tiny" else full_heap
    return VMConfig(semispace_words=heap, engine=ENGINE_PRESETS[preset])


def _trace_file_stats(blob: bytes, path: Path) -> dict:
    from repro.core.tracelog import trace_stats

    path.write_bytes(blob)
    try:
        stats = trace_stats(path)
    finally:
        path.unlink(missing_ok=True)
    return {
        "tracelog.file_bytes": stats["file_bytes"],
        "tracelog.value_stream_bytes": stats["streams"]["value"]["encoded_bytes"],
        "tracelog.switch_stream_bytes": stats["streams"]["switch"]["encoded_bytes"],
    }


class RecordReplay(Bench):
    """record → load → checkpointed replay → resume, on both programs."""

    name = "record_replay"
    factories = staticmethod(_rr_programs)

    @classmethod
    def coldstart(cls, scale):
        import repro.api  # noqa: F401
        import repro.core.checkpoint  # noqa: F401
        import repro.core.tracelog  # noqa: F401

        super().coldstart(scale)

    def prepare(self):
        super().prepare()
        self.cfg = _vm_config(self.scale)
        self.progs = self.factories(self.scale)
        self._refs: dict = {}

    def run_op(self, i):
        from repro import api
        from repro.core.tracelog import TraceLog
        from repro.core.verify import compare_runs

        self.set_op(i)
        programs, latency = {}, 0.0
        for pname, factory in self.progs.items():
            out = self.tmp / f"rr-{i}-{pname}.djv"
            ckpt = self.tmp / f"rr-{i}-{pname}.ckpt"
            program = factory()
            t0 = perf()
            rec = api.record(program, config=self.cfg, out=out, compress=True,
                             **api.standard_knobs(self.op_seed))
            t1 = perf()
            if self.fault == "flip-trace" and i == 0:
                _flip_byte(out)
            t2 = perf()
            trace = TraceLog.load(out)
            t3 = perf()
            program = factory()
            t4 = perf()
            replayed = api.replay(
                program, trace, config=self.cfg,
                checkpoint_every=max(1, rec.result.cycles // 4),
                checkpoint_out=ckpt,
            )
            t5 = perf()
            if self.fault == "corrupt-sidecar" and i == 0:
                ckpt.write_bytes(b"not a checkpoint sidecar")
            program = factory()
            t6 = perf()
            resumed = api.resume_replay(program, trace, checkpoints=ckpt,
                                        config=self.cfg)
            t7 = perf()
            if self.fault == "wrong-recording" and i == 0:
                rec.result.output.append("a line the replay never printed\n")
            report = compare_runs(rec.result, replayed)
            programs[pname] = {
                "record_s": t1 - t0, "load_s": t3 - t2,
                "replay_s": t5 - t4, "resume_s": t7 - t6,
                "cycles": rec.result.cycles,
                "blob": out.read_bytes(),
                "sidecar_bytes": ckpt.stat().st_size,
                # outcomes only: the runs themselves are dropped here
                "unfaithful": None if report.faithful else report.detail,
                "resumed_from_zero": resumed.from_zero,
                "resume_key": _key_digest(resumed.result),
                "replay_key": _key_digest(replayed),
            }
            latency += (t1 - t0) + (t3 - t2) + (t5 - t4) + (t7 - t6)
            out.unlink()
            ckpt.unlink()
        return Op(i, latency, {"programs": programs})

    def reference(self, pname: str) -> bytes:
        """The same seed recorded under the ``baseline`` engine preset:
        engine layers are guest-invisible, so the bytes must match."""
        if pname not in self._refs:
            from repro import api

            self.set_op("ref")
            out = self.tmp / f"rr-ref-{pname}.djv"
            api.record(self.progs[pname](), config=_vm_config(self.scale, "baseline"),
                       out=out, compress=True, **api.standard_knobs(self.op_seed))
            self._refs[pname] = out.read_bytes()
            out.unlink()
        if self.fault == "wrong-reference":
            return _flipped(self._refs[pname])
        return self._refs[pname]

    def warm_references(self):
        for pname in self.progs:
            self.reference(pname)

    def verify(self, op):
        for pname, d in op.data["programs"].items():
            if d["unfaithful"] is not None:
                return f"{pname}: replay is not faithful to the recording ({d['unfaithful']})"
            if d["blob"] != self.reference(pname):
                return (f"{pname}: sealed trace differs from the baseline-preset "
                        f"recording of seed {self.op_seed}")
            if d["resumed_from_zero"]:
                return f"{pname}: resume found no usable checkpoint"
            if d["resume_key"] != d["replay_key"]:
                return f"{pname}: resumed replay differs from the full replay"
        return None

    def end_to_end(self, ops, rss_mb):
        runs = [op.data["programs"] for op in ops if "programs" in op.data]

        def rate(key):
            return median([
                sum(d["cycles"] for d in p.values())
                / sum(d[key] for d in p.values()) / 1e6
                for p in runs
            ])

        def seconds(key):
            return median([sum(d[key] for d in p.values()) for p in runs])

        lat = [op.latency_s * 1000 for op in ops]
        tail_ms, label = tail(lat)
        self.detail = {
            "record_mcycles_per_s": rate("record_s"),
            "replay_mcycles_per_s": rate("replay_s"),
            "load_ms": seconds("load_s") * 1000,
            "tail": label,
            "requests": len(ops),
        }
        if runs and "resume_s" in next(iter(runs[0].values())):
            self.detail["resume_s"] = seconds("resume_s")
        return {
            "work_per_s": self.detail["record_mcycles_per_s"],
            "request_p50_ms": median(lat),
            "request_tail_ms": tail_ms,
            "trace_bytes": median([sum(len(d["blob"]) for d in p.values()) for p in runs]),
            "peak_rss_mb": rss_mb,
        }

    def layers(self, ops):
        """Trace (and checkpoint sidecar) bytes per request."""
        runs = [op.data["programs"] for op in ops if "programs" in op.data]
        out: dict = {}
        for d in (d for p in runs for d in p.values()):
            stats = _trace_file_stats(d["blob"], self.tmp / "stats.djv")
            if "sidecar_bytes" in d:
                stats["checkpoint.sidecar_bytes"] = d["sidecar_bytes"]
            for key, value in stats.items():
                out[key] = out.get(key, 0) + value / len(runs)
        return out


# ---------------------------------------------------------------------------
# slim_record


def _slim_programs(scale):
    from repro.workloads import sorter, synced_bank

    if scale == "tiny":
        return {"sorter": lambda: sorter(2, 20),
                "synced_bank": lambda: synced_bank(2, 50)}
    return {"sorter": lambda: sorter(4, 400),
            "synced_bank": lambda: synced_bank(4, 8000)}


class SlimRecord(Bench):
    """record --slim → load → replay, on an allocation-heavy program and
    a race-free sync-heavy one."""

    name = "slim_record"
    factories = staticmethod(_slim_programs)

    @classmethod
    def coldstart(cls, scale):
        import repro.api  # noqa: F401
        import repro.explore.detector  # noqa: F401

        super().coldstart(scale)

    def prepare(self):
        super().prepare()
        self.cfg = _vm_config(self.scale)
        self.progs = self.factories(self.scale)
        self._refs: dict = {}

    def run_op(self, i):
        from repro import api
        from repro.core.tracelog import TraceLog

        self.set_op(i)
        programs, latency = {}, 0.0
        for pname, factory in self.progs.items():
            out = self.tmp / f"slim-{i}-{pname}.djv"
            program = factory()
            t0 = perf()
            rec = self.phase("slim.record", api.record, program, config=self.cfg,
                             slim=True, out=out, **api.standard_knobs(self.op_seed))
            t1 = perf()
            trace = TraceLog.load(out)
            t2 = perf()
            program = factory()
            t3 = perf()
            replayed = api.replay(program, trace, config=self.cfg)
            t4 = perf()
            programs[pname] = {
                "record_s": t1 - t0, "load_s": t2 - t1, "replay_s": t4 - t3,
                "cycles": rec.result.cycles, "blob": out.read_bytes(),
                "rec_key": _key_digest(rec.result),
                "replay_key": _key_digest(replayed),
                "fallback": trace.meta.get("slim_fallback"),
            }
            latency += (t2 - t0) + (t4 - t3)
            out.unlink()
        return Op(i, latency, {"programs": programs})

    def reference(self, pname: str) -> str:
        """A full (unslimmed) recording of the same seed: the digest of
        its events, heap digest and cycle count."""
        if pname not in self._refs:
            from repro import api

            self.set_op("ref")
            rec = self.phase("full.record", api.record, self.progs[pname](),
                             config=self.cfg, **api.standard_knobs(self.op_seed))
            self._refs[pname] = _key_digest(rec.result)
        if self.fault == "wrong-reference":
            return "0" * len(self._refs[pname])
        return self._refs[pname]

    def warm_references(self):
        for pname in self.progs:
            self.reference(pname)

    def verify(self, op):
        for pname, d in op.data["programs"].items():
            if d["fallback"] is not None:
                return f"{pname}: slim recording fell back ({d['fallback']})"
            want = self.reference(pname)
            if d["rec_key"] != want:
                return f"{pname}: slim recording perturbed the execution"
            if d["replay_key"] != want:
                return f"{pname}: slim replay differs from the full recording"
        return None

    end_to_end = RecordReplay.end_to_end

    def layers(self, ops):
        """Trace bytes per request, and the detector's cost: self time of
        ``VirtualMachine.run`` under the slim recordings minus under the
        full reference recordings of the same seed."""
        out = RecordReplay.layers(self, ops)
        sp = self.tracer.spans
        slim = spans.self_seconds(sp, "vm.run", lambda op: op != "ref",
                                  parent="slim.record")
        full = spans.self_seconds(sp, "vm.run", lambda op: op == "ref",
                                  parent="full.record")
        out["detector.overhead_s"] = slim / max(1, len(ops)) - full
        return out


# ---------------------------------------------------------------------------
# explore_campaign


def _with_failing_items(fn, *args):
    """Call *fn* while every campaign item raises, as an item whose
    schedule crashes the worker's runner would."""
    from repro.campaign.jobs import _ExploreRunner

    run = _ExploreRunner.__dict__["run"]

    def failing(runner, item):
        raise RuntimeError("item failed on purpose")

    _ExploreRunner.run = failing
    try:
        return fn(*args)
    finally:
        _ExploreRunner.run = run


class ExploreCampaign(Bench):
    """A sharded CHESS sweep of racy_bank with a fresh failure corpus."""

    name = "explore_campaign"
    BUDGET = {"full": 480, "tiny": 30}
    JOBS = 2

    @classmethod
    def coldstart(cls, scale):
        from repro.workloads.registry import get_workload

        import repro.campaign  # noqa: F401

        spec = get_workload("racy_bank")
        spec.program_factory(spec.merged_kwargs(None, explore=True))()

    def prepare(self):
        super().prepare()
        from repro.vm.machine import VMConfig

        self.cfg = VMConfig(semispace_words=60_000)
        self.budget = self.BUDGET[self.scale]
        self._ref = None

    def sweep(self, jobs: int, corpus_dir):
        from repro.campaign import run_explore_campaign

        return run_explore_campaign(
            "racy_bank", bound=2, budget=self.budget, jobs=jobs,
            seed=self.op_seed, env_seed=self.op_seed, config=self.cfg,
            corpus_dir=corpus_dir,
        )

    def run_op(self, i):
        self.set_op(i)
        corpus = self.tmp / f"corpus-{i}"
        t0 = perf()
        if self.tracer is not None:
            report = self.tracer.call("campaign.total", self.sweep,
                                      (self.JOBS, corpus), {})
        elif self.fault == "failing-item" and i == 0:
            report = _with_failing_items(self.sweep, self.JOBS, corpus)
        else:
            report = self.sweep(self.JOBS, corpus)
        latency = perf() - t0
        blobs = sorted(corpus.glob("*.djv"))
        data = {
            "digest": report.digest(),
            "schedules": report.schedules_run,
            "behaviors": report.unique_behaviors,
            "failures": len(report.failures),
            "errors": list(report.errors),
            "incidents": [x.describe() for x in report.incidents],
            "ingested": report.corpus_new + report.corpus_dup,
            "corpus_bytes": sum(p.stat().st_size for p in blobs),
            "corpus": {p.name: p.read_bytes() for p in blobs},
        }
        shutil.rmtree(corpus)
        return Op(i, latency, data)

    def reference(self) -> str:
        """The same work-list swept serially (jobs=1)."""
        if self._ref is None:
            self.set_op("ref")
            self._ref = self.sweep(1, None).digest()
        if self.fault == "wrong-reference":
            return "0" * len(self._ref)
        return self._ref

    warm_references = reference

    def verify(self, op):
        d = op.data
        if d["errors"]:
            return f"{len(d['errors'])} schedule(s) errored: {d['errors'][0]}"
        if d["incidents"]:
            return f"worker incident: {d['incidents'][0]}"
        if d["digest"] != self.reference():
            return (f"report digest {d['digest']} differs from the jobs=1 "
                    f"sweep's {self.reference()}")
        if d["ingested"] != d["failures"]:
            return f"{d['failures']} finding(s) but {d['ingested']} ingested"
        return None

    def identity(self, op):
        return dict(op.data.get("corpus", {}))

    def end_to_end(self, ops, rss_mb):
        done = [op for op in ops if "schedules" in op.data]
        lat = [op.latency_s * 1000 for op in ops]
        tail_ms, label = tail(lat)
        self.detail = {
            "schedules_per_s": median([op.data["schedules"] / op.latency_s for op in done]),
            "behaviors": median([op.data["behaviors"] for op in done]),
            "findings": median([op.data["failures"] for op in done]),
            "tail": label,
            "requests": len(ops),
        }
        return {
            "work_per_s": self.detail["schedules_per_s"],
            "request_p50_ms": median(lat),
            "request_tail_ms": tail_ms,
            "trace_bytes": median([op.data["corpus_bytes"] for op in done]),
            "peak_rss_mb": rss_mb,
        }

    def layers(self, ops):
        """Per sweep: an item's share of the run, the merge (the sweep
        minus baseline and run), incidents and behaviours per schedule."""
        done = [op.data for op in ops if "schedules" in op.data]
        n = max(1, len(done))
        measured = lambda op: op != "ref"  # noqa: E731
        sp = self.tracer.spans
        total, baseline, run = (
            spans.total_seconds(sp, name, measured) / n
            for name in ("campaign.total", "explore.baseline", "campaign.run")
        )
        items = sum(d["schedules"] - 1 for d in done) / n
        return {
            "campaign.item_ms": run * self.JOBS / items * 1000 if items else 0.0,
            "campaign.merge_ms": (total - baseline - run) * 1000,
            "campaign.incidents": sum(len(d["incidents"]) for d in done) / n,
            "explore.behavior_ratio": sum(d["behaviors"] / d["schedules"] for d in done) / n,
        }


# ---------------------------------------------------------------------------
# serve_mixed


class ServeMixed(Bench):
    """Two closed-loop clients against a ``repro serve`` daemon."""

    name = "serve_mixed"
    PROGRAMS = ("racy_bank", "server", "producer_consumer", "sorter")
    POOL = 3  # seeds per program: repeats hit the session cache
    CLIENTS = 2
    EXPLORE_EVERY = 18  # every 18th job of a client is an explore
    EXPLORE_BUDGET = {"full": 20, "tiny": 5}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.pool = {w: sorted(rng.sample(range(1, 100_000), self.POOL))
                     for w in self.PROGRAMS}
        self.explore_seeds = sorted(rng.sample(range(1, 100_000), 2))
        self.daemon = None
        self.health: dict = {}
        self.window: dict = {}
        self.retries = {False: 0, True: 0}
        self._explore_out: dict = {}

    # -- daemon lifecycle ------------------------------------------------

    def spawn(self, traced: bool):
        from repro.core.framing import BackoffPolicy
        from repro.serve import ServeClient

        argv = [sys.executable, str(BENCH_DIR / "serve_daemon.py")]
        if traced:
            argv += ["--spans-out", str(self.tmp / "daemon-spans.json")]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                env=child_env())
        line = proc.stdout.readline().strip()
        if "listening on " not in line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"serve daemon failed to start: {line!r}")
        host, port = line.split("listening on ", 1)[1].rsplit(":", 1)
        address = (host, int(port))
        admin = ServeClient.connect(
            address, policy=BackoffPolicy(attempts=20, base_delay=0.02,
                                          max_delay=0.2, jitter_seed=0))
        admin.health()
        return {"proc": proc, "address": address, "admin": admin}

    def stop(self, daemon) -> dict:
        """Read the counters through ``health``, then SIGTERM-drain; a
        drain that does not exit 0 is a failed check."""
        health = daemon["admin"].health()
        daemon["admin"].close()
        proc = daemon["proc"]
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=90)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
        if code != 0:
            self.extra_failures.append(f"daemon drain exited {code}")
        return health

    def setup(self) -> float:
        t0 = perf()
        daemon = self.spawn(traced=False)
        elapsed = perf() - t0
        self.stop(daemon)
        return elapsed

    def prepare(self):
        """Reference recordings of the whole seed pool, in-process:
        the same api call a record job makes."""
        import io

        from repro import api
        from repro.cli import _print_result
        from repro.workloads.registry import get_workload

        self.refs: dict = {}
        cfg = _vm_config("full", "full")
        for w, seeds in self.pool.items():
            spec = get_workload(w)
            kwargs = dict(spec.defaults)
            for s in seeds:
                out = self.tmp / f"serve-ref-{w}-{s}.djv"
                rec = api.record(spec.program_factory(kwargs)(), config=cfg,
                                 out=out,
                                 extra_meta={"workload": w, "workload_kwargs": kwargs},
                                 **api.standard_knobs(s))
                text = io.StringIO()
                _print_result(rec.result, out=text)
                self.refs[(w, s)] = (out.read_bytes(), text.getvalue())
                out.unlink()

    def warm_up(self):
        """Start the daemon the untraced requests use; its ``hello`` +
        ``health`` handshake is the warm-up."""
        self.daemon = self.spawn(traced=False)

    # -- the load ----------------------------------------------------------

    def next_job(self, client: int, j: int, rng, recorded: dict):
        if self.fault == "bad-job" and client == 0 and j == 1:
            return {"kind": "trace-stats", "trace": b"not a trace"}, None
        if (j + 1) % self.EXPLORE_EVERY == 0:
            s = rng.choice(self.explore_seeds)
            return {"kind": "explore", "workload": "synced_bank", "seed": s,
                    "bound": 2, "budget": self.EXPLORE_BUDGET[self.scale]}, s
        if not recorded or rng.random() < 0.4:
            w = rng.choice(self.PROGRAMS)
            s = rng.choice(self.pool[w])
            return {"kind": "record", "workload": w, "seed": s}, (w, s)
        key = rng.choice(sorted(recorded))
        kind = rng.choice(("replay", "replay", "doctor", "trace-stats"))
        job = {"kind": kind, "trace": recorded[key]}
        if kind != "trace-stats":
            job["workload"] = key[0]
        if kind == "doctor":
            job["trace_name"] = "run.djv"
        return job, key

    def client_loop(self, client, address, deadline, traced, ops, lock):
        from repro.core.framing import BackoffPolicy
        from repro.serve import ServeClient

        retry = BackoffPolicy(attempts=40, base_delay=0.02, max_delay=0.5,
                              jitter_seed=client)
        retries = 0

        def sleep(seconds):
            nonlocal retries
            retries += 1
            time.sleep(seconds)

        rng = random.Random(f"{self.name}:{self.seed}:{client}")
        recorded: dict = {}
        mine = []
        with ServeClient.connect(address, policy=retry) as conn:
            j = 0
            while perf() < deadline:
                job, key = self.next_job(client, j, rng, recorded)
                t0 = perf()
                try:
                    result = conn.submit_with_retry(job, policy=retry, sleep=sleep,
                                                    timeout=120)
                    data = {"job": job, "key": key, "result": result}
                except Exception as exc:  # noqa: BLE001 - a failed job
                    data = {"job": job, "key": key,
                            "error": f"{type(exc).__name__}: {exc}"}
                latency = perf() - t0
                if "result" in data and job["kind"] == "record" \
                        and data["result"].get("exit") == 0:
                    recorded.setdefault(key, data["result"]["trace"])
                mine.append(Op((client, j), latency, data))
                j += 1
        with lock:
            ops.extend(mine)
            self.retries[traced] += retries

    def measure(self, seconds, count=None, traced=False):
        daemon = self.spawn(traced) if traced or self.daemon is None else self.daemon
        ops: list[Op] = []
        lock = threading.Lock()
        deadline = perf() + seconds
        t0 = perf()
        threads = [
            threading.Thread(target=self.client_loop,
                             args=(c, daemon["address"], deadline, traced, ops, lock))
            for c in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = perf() - t0
        health = self.stop(daemon)
        if not traced:
            self.daemon = None
        self.health[traced] = health
        self.window[traced] = window
        sup = health["supervisor"]
        delivered = sum(1 for op in ops if "result" in op.data)
        if sup["jobs_accepted"] != sup["jobs_completed"] or sup["jobs_completed"] != delivered:
            self.extra_failures.append(
                f"daemon accepted {sup['jobs_accepted']} job(s), completed "
                f"{sup['jobs_completed']}, clients received {delivered}")
        if sup["worker_restarts"]:
            self.extra_failures.append(f"{sup['worker_restarts']} worker restart(s)")
        ops.sort(key=lambda op: op.index)
        return ops

    # -- checks and figures -------------------------------------------------

    def verify(self, op):
        job, result = op.data["job"], op.data["result"]
        if result.get("exit") != 0:
            return f"{job['kind']} job exited {result.get('exit')}: {result.get('stderr', '').strip()}"
        kind, key = job["kind"], op.data["key"]
        if kind == "record":
            if result.get("trace") != self.refs[key][0]:
                return f"record {key}: trace bytes differ from api.record"
        elif kind == "replay":
            if not result["stdout"].startswith(self.refs[key][1]) or \
                    "replay verified" not in result["stdout"]:
                return f"replay {key}: output differs from the recording"
        elif kind == "trace-stats":
            want = f"file bytes:     {len(job['trace'])}\n"
            if want not in result["stdout"]:
                return f"trace-stats {key}: wrong file size reported"
        elif kind == "explore":
            first = self._explore_out.setdefault(key, result["stdout"])
            if result["stdout"] != first:
                return f"explore seed {key}: output differs between runs"
        return None

    def identity(self, op):
        if op.data.get("job", {}).get("kind") == "record" and "result" in op.data:
            return {op.data["key"]: op.data["result"].get("trace")}
        return {}

    def traced_differences(self, untraced, traced):
        """The two phases run for a time, not a count: compare every
        (program, seed) record both phases made."""
        seen: dict = {}
        for op in untraced:
            for key, blob in self.identity(op).items():
                seen.setdefault(key, blob)
        return [
            f"traced record {key} differs from untraced"
            for op in traced
            for key, blob in self.identity(op).items()
            if key in seen and seen[key] != blob
        ]

    def end_to_end(self, ops, rss_mb):
        # a failed job misses every latency limit: it counts as taking
        # the whole measured window
        window = self.window[False]
        lat = [op.latency_s * 1000 if op.ok and op.data["result"].get("exit") == 0
               else window * 1000 for op in ops]
        tail_ms, label = tail(lat)
        self.detail = {
            "jobs_per_s": len(ops) / window,
            "tail": label,
            "requests": len(ops),
            "explores": sum(1 for op in ops if op.data["job"]["kind"] == "explore"),
            "client_retries": self.retries[False],
            "sessions": self.health[False].get("sessions"),
            "rejected": self.health[False]["supervisor"]["jobs_rejected"],
        }
        return {
            "work_per_s": self.detail["jobs_per_s"],
            "request_p50_ms": median(lat),
            "request_tail_ms": tail_ms,
            "trace_bytes": sum(len(blob) for blob, _ in self.refs.values()),
            "peak_rss_mb": self.health[False]["peak_rss_kb"] / 1024.0,
        }

    def layers(self, ops):
        health = self.health[True]
        sessions = health.get("sessions") or {}
        looked = sessions.get("hits", 0) + sessions.get("misses", 0)
        out = {
            "serve.session_hit_ratio": sessions.get("hits", 0) / looked if looked else 0.0,
            "serve.rejected": health["supervisor"]["jobs_rejected"],
            "serve.client_retries": self.retries[True],
        }
        blobs = [op.data["result"]["trace"] for op in ops
                 if op.data["job"]["kind"] == "record" and op.ok]
        for blob in blobs:
            for key, value in _trace_file_stats(blob, self.tmp / "stats.djv").items():
                out[key] = out.get(key, 0) + value / max(1, len(ops))
        return out

    def close(self):
        if self.daemon is not None:
            self.stop(self.daemon)
            self.daemon = None


WORKLOADS = {
    cls.name: cls for cls in (RecordReplay, SlimRecord, ServeMixed, ExploreCampaign)
}
