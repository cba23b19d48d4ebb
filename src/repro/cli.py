"""The command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run program.jasm``            — execute a guest program
* ``record program.jasm -o t.djv``— execute under DejaVu, save the trace
  (``--slim`` drops sync-inferable switch deltas, format v3.2)
* ``replay program.jasm t.djv``   — deterministically re-execute a trace
* ``debug program.jasm t.djv``    — interactive debugger over a replay
* ``debug-serve program.jasm t.djv`` — TCP debugger server (Figure 4 tier 2)
* ``serve --workers 4``           — long-lived replay service: jobs over
  the framed transport on a supervised warm-session pool (admission
  control, per-job deadlines, SIGTERM graceful drain)
* ``profile program.jasm t.djv``  — exact profile of a recorded execution
* ``coverage program.jasm t.djv`` — bytecode/line coverage of a trace
* ``disasm program.jasm``         — verify + disassemble
* ``trace-info t.djv``            — describe a saved trace
* ``trace-stats t.djv``           — per-stream encoding statistics
* ``engine-stats program.jasm``   — run + host-side dispatch statistics
* ``explore --workload bank``     — systematic schedule exploration
  (``--jobs N`` shards the sweep across N worker processes and collects
  *every* failure; ``--corpus DIR`` streams failing traces into a
  content-addressed corpus; ``--hosts HOST:PORT`` shards across remote
  ``repro worker`` daemons instead)
* ``races program.jasm t.djv``    — happens-before race detection on a trace
* ``doctor t.djv``                — classify why a trace fails to replay
* ``faults --seed 42 -W bank``    — run a fault-injection campaign
  (``--jobs N`` / ``--corpus DIR`` / ``--hosts`` as for explore)
* ``worker --port 7000``          — remote campaign worker daemon: serves
  shards to ``explore --hosts`` / ``faults --hosts`` parents
* ``corpus list|stats|prune|replay`` — inspect, thin, or re-verify a
  campaign's failure corpus (every entry is a standard replayable trace)
* ``checkpoint list t.djv``       — inspect/verify/prune a trace's
  checkpoint sidecar (``repro replay --checkpoint-every N`` writes one;
  ``repro replay --resume`` finishes a replay from it)

``record``, ``replay``, ``explore``, ``doctor`` and ``trace-stats`` run
the :mod:`repro.commands` executors, the same ones ``repro serve`` runs.

Programs may be written in assembly (``.jasm``) or MiniJ (``.mj`` /
``.minij``); the extension picks the front end.  Everywhere a program
path is accepted, ``--workload NAME`` builds a registered workload
instead (see :mod:`repro.workloads.registry`); ``-W key=value`` overrides
its build parameters.

Exit status convention (all commands):

* **0** — success: the command did its job and found nothing wrong;
* **1** — a finding: replay diverged, races were detected, the doctor
  classified a problem, a fault campaign had contract violations;
* **2** — unusable input: bad usage, a missing/unreadable program, or a
  file that is not a readable DejaVu trace (empty, bad magic, version
  skew, corrupt framing).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from repro import commands
from repro.api import (
    ENGINE_PRESETS,
    GuestProgram,
    build_vm,
    replay as api_replay,
    standard_knobs,
)
from repro.commands import JOB_DEFAULTS, KIND_DEFAULTS, print_result as _print_result
from repro.core import TraceLog
from repro.vm.errors import UsageError, VMError
from repro.vm.machine import VMConfig


def load_program(path: str, main: str) -> GuestProgram:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"no such file: {path}")
    text = p.read_text()
    if p.suffix in (".mj", ".minij"):
        from repro.lang import compile_source

        return GuestProgram(classdefs=compile_source(text), main=main, name=p.stem)
    if p.suffix == ".jasm":
        return GuestProgram.from_source(text, main=main, name=p.stem)
    raise UsageError(f"unknown program type {p.suffix!r} (want .jasm, .mj, .minij)")


class FileInputs:
    """The inputs of a :mod:`repro.commands` executor run from the
    command line: the program and trace files it names; output traces go
    where ``-o`` says."""

    def __init__(self, args):
        self.program_path = getattr(args, "program", None)
        self.trace_file = getattr(args, "trace", None)

    def program(self, job: dict) -> "GuestProgram | None":
        if job.get("workload"):
            spec, kwargs = commands.workload_build(job)
            return spec.build(kwargs)
        if self.program_path is None:
            return None
        return load_program(self.program_path, job["main"])

    def trace(self, job: dict) -> TraceLog:
        return TraceLog.load(self.trace_file)

    @contextmanager
    def trace_path(self, job: dict):
        yield self.trace_file

    @contextmanager
    def output_trace(self, job: dict):
        # record streams segments to <out>.tmp as the run progresses; a
        # crash leaves a salvageable prefix there instead of nothing
        yield job["out_name"]

    def trace_label(self, job: dict, path: str) -> str:
        return path


def _workload_overrides(args) -> dict:
    """Parse repeated ``-W key=value`` into build kwargs (ints when they
    look like ints, strings otherwise)."""
    overrides = {}
    for item in getattr(args, "workload_arg", None) or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise UsageError(f"bad -W argument {item!r} (want key=value)")
        try:
            overrides[key] = int(value)
        except ValueError:
            overrides[key] = value
    return overrides


def _job(args, **fields) -> dict:
    """The program and engine options of the command line as a job dict
    (see :mod:`repro.commands`), plus the command's own *fields*."""
    if args.workload is not None and args.program is not None:
        raise UsageError("give a program file or --workload, not both")
    return {
        "workload": args.workload,
        "workload_args": _workload_overrides(args),
        "main": args.main,
        "heap": args.heap,
        "seed": args.seed,
        "engine": args.engine,
        **fields,
    }


def _resolve_program(args, trace: "TraceLog | None" = None) -> GuestProgram:
    """A program comes from a source path or from ``--workload``; when
    rebuilding for a trace, the trace's recorded build kwargs win (so the
    replayed program is the recorded one) unless overridden with -W."""
    job = _job(args)
    if trace is not None:
        job = commands.with_recorded_build(job, trace)
    return commands.need_program(FileInputs(args), job)


def _knobs(args) -> dict:
    return standard_knobs(args.seed)


def _config(args) -> VMConfig:
    return commands.vm_config(vars(args))


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    program = _resolve_program(args)
    vm = build_vm(program, _config(args), **_knobs(args))
    _print_result(vm.run(program.main))
    return 0


def cmd_record(args) -> int:
    job = _job(args, out_name=args.out, slim=args.slim, compress=args.compress)
    return commands.record(job, FileInputs(args), sys.stdout)


def cmd_replay(args) -> int:
    job = _job(args, resume=args.resume, checkpoint_every=args.checkpoint_every)
    return commands.replay(job, FileInputs(args), sys.stdout)


def cmd_checkpoint(args) -> int:
    """Inspect, verify, or prune a trace's ``.ckpt`` sidecar.

    ``verify`` exit status: 0 the sidecar is sealed and every snapshot
    passes its digest; 1 it is damaged/unsealed (resume still degrades
    gracefully); 2 there is no readable sidecar at all."""
    from repro.core.checkpoint import CheckpointStore, CheckpointWriter, sidecar_path
    from repro.vm.errors import CheckpointFormatError

    sidecar = sidecar_path(args.trace)
    try:
        store = CheckpointStore.load(sidecar)
    except CheckpointFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "list":
        print(f"{store.path}: {store.describe()}")
        for key, value in sorted(store.meta.items()):
            print(f"  meta {key} = {value}")
        for snap in sorted(store.snapshots, key=lambda s: s.cycles):
            print(f"  {snap.describe()}")
        return 0

    if args.action == "verify":
        print(f"{store.path}: {store.describe()}")
        for note in store.notes:
            print(f"  {note}")
        return 1 if store.damaged else 0

    # prune: rewrite the sidecar keeping only the newest --keep snapshots
    # (late seeks are what checkpoints accelerate; early ones cost little)
    kept = sorted(store.snapshots, key=lambda s: s.cycles)[-max(1, args.keep):]
    writer = CheckpointWriter(sidecar)
    for snap in kept:
        writer.add(snap)
    writer.seal(store.meta)
    print(
        f"pruned {store.path}: kept {len(kept)} of "
        f"{len(store.snapshots)} snapshot(s)"
    )
    return 0


def cmd_trace_info(args) -> int:
    trace = TraceLog.load(args.trace)
    print(f"program:        {trace.meta.get('program', '?')}")
    print(f"switch records: {trace.n_switch_records}")
    print(f"value words:    {trace.n_value_words}")
    print(f"encoded bytes:  {trace.encoded_size_bytes}")
    end = dict(trace.meta.get("end") or ())
    for key in ("cycles", "switches", "gc_count", "output_len"):
        if key in end:
            print(f"{key + ':':<16}{end[key]}")
    stats = dict(trace.meta.get("stats") or ())
    if stats:
        print("record stats:   " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    return 0


def cmd_trace_stats(args) -> int:
    """Per-stream encoding statistics of a saved trace.

    Exit status 0 on a readable trace; 2 when the file is not a readable
    DejaVu trace (the :class:`TraceFormatError` tier, like trace-info)."""
    return commands.trace_stats({}, FileInputs(args), sys.stdout)


def cmd_engine_stats(args) -> int:
    """Run a program and report how the engine dispatched it (host-side
    statistics only — they never appear in a RunResult or a trace)."""
    program = _resolve_program(args)
    vm = build_vm(program, _config(args), **_knobs(args))
    result = vm.run(program.main)
    _print_result(result)
    stats = vm.engine_stats()
    print(f"-- engine: {stats.pop('config')}")
    for key in (
        "cycles",
        "dispatches",
        "fused_sites",
        "fused_ops_executed",
        "fused_extra_cycles",
        "ic_sites",
        "ic_hits",
        "ic_misses",
        "ic_invalidations",
    ):
        print(f"   {key + ':':<20}{stats[key]}")
    return 0


def cmd_disasm(args) -> int:
    from repro.vm import VirtualMachine
    from repro.vm.bytecode import disassemble

    program = _resolve_program(args)
    vm = VirtualMachine(_config(args))
    vm.declare(program.classdefs)
    for cd in program.classdefs:
        vm.load(cd.name)
        print(f".class {cd.name}" + (f" extends {cd.super_name}" if cd.super_name else ""))
        for m in cd.methods:
            flags = " static" if m.static else ""
            if m.native:
                print(f"  .native{flags} {m.name}{m.signature.spell()}")
                continue
            rm = vm.loader.resolve_method_any(f"{cd.name}.{m.key}")
            print(f"  .method{flags} {m.name}{m.signature.spell()}  "
                  f"; {len(rm.code.ops)} machine ops, {rm.code.n_yieldpoints} yield points")
            print(disassemble(m.code, m.line_table))
        print()
    return 0


def cmd_profile(args) -> int:
    from repro.tools import ReplayProfiler

    trace = TraceLog.load(args.trace)
    program = _resolve_program(args, trace)
    report = ReplayProfiler(program, trace, _config(args)).run()
    print(report.format(args.top))
    return 0


def cmd_coverage(args) -> int:
    from repro.tools import ReplayCoverage

    trace = TraceLog.load(args.trace)
    program = _resolve_program(args, trace)
    print(ReplayCoverage(program, trace, _config(args)).run().format())
    return 0


def cmd_debug_serve(args) -> int:
    from repro.core.server import install_term_handler
    from repro.debugger import Debugger, DebuggerServer, ReplaySession

    trace = TraceLog.load(args.trace)
    program = _resolve_program(args, trace)
    session = ReplaySession(program, trace, config=_config(args))
    server = DebuggerServer(Debugger(session), port=args.port).start()
    install_term_handler(server.request_stop)
    print(f"debugger serving on {server.address[0]}:{server.address[1]}")
    print("press Ctrl-C (or SIGTERM) to stop")
    try:
        import time

        while not server.stopping:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_serve(args) -> int:
    """The long-lived replay service: record/replay/explore/doctor/
    trace-stats jobs over the framed transport, on a supervised warm
    session pool.

    Prints ``repro serve listening on HOST:PORT`` as its first line
    (the rendezvous :func:`repro.serve.spawn_serve_process` and scripts
    parse).  SIGTERM drains gracefully: accepting stops, every accepted
    job finishes and delivers, then the daemon exits 0.
    """
    from repro.core.server import install_term_handler
    from repro.serve import ServeDaemon

    log = (lambda message: print(f"-- {message}", flush=True)) if args.verbose else None
    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue,
        default_deadline=args.deadline,
        drain_grace=args.drain_grace,
        warm=not args.cold,
        log=log,
    )
    install_term_handler(daemon.request_stop)
    print(
        f"repro serve listening on {daemon.address[0]}:{daemon.address[1]}",
        flush=True,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
    return 0


def cmd_debug(args) -> int:
    """A small interactive (or scripted) debugger REPL."""
    from repro.debugger import Debugger, ReplaySession

    trace = TraceLog.load(args.trace)
    program = _resolve_program(args, trace)
    session = ReplaySession(program, trace, config=_config(args))
    dbg = Debugger(session)
    print("dejavu debugger — commands: break M [bci] | cont | step [mode] | "
          "jump CYCLES | bt | threads | static Cls field | lines M | output | "
          "info | finish | quit")
    while True:
        try:
            line = input("(djv) ") if sys.stdin.isatty() else sys.stdin.readline()
        except EOFError:
            break
        if not line:
            break
        parts = line.split()
        if not parts:
            continue
        cmd, *rest = parts
        try:
            if cmd == "quit":
                break
            elif cmd == "break":
                bci = int(rest[1]) if len(rest) > 1 else 0
                print(dbg.break_(rest[0], bci=bci))
            elif cmd == "cont":
                print(dbg.cont())
            elif cmd == "step":
                print(dbg.step(rest[0] if rest else "into"))
            elif cmd == "jump":
                print(dbg.jump(int(rest[0])))
            elif cmd == "bt":
                for frame in dbg.backtrace():
                    print(f"  {frame['method']} @bci {frame['bci']} (line {frame['line']})")
            elif cmd == "threads":
                for t in dbg.threads():
                    print(f"  tid {t['tid']}: {t['state']}")
            elif cmd == "static":
                print(dbg.print_static(rest[0], rest[1])["value"])
            elif cmd == "lines":
                listing = dbg.source(rest[0])
                for row in listing["code"]:
                    print(f"  {row['bci']:4d}: {row['instr']:<30s} ; line {row['line']}")
            elif cmd == "output":
                print(dbg.output()["output"])
            elif cmd == "info":
                print(dbg.info())
            elif cmd == "finish":
                print(dbg.finish())
            else:
                print(f"unknown command {cmd!r}")
        except Exception as exc:
            print(f"error: {exc}")
    return 0


def cmd_workloads(args) -> int:
    from repro.workloads.registry import REGISTRY

    for name, spec in sorted(REGISTRY.items()):
        alias = f" (alias: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"{name:<20}{spec.description}{alias}")
        defaults = ", ".join(f"{k}={v}" for k, v in spec.defaults.items())
        if defaults:
            print(f"{'':<20}defaults: {defaults}")
    return 0


def cmd_explore(args) -> int:
    """Systematically explore schedules of a workload; on failure, write
    the ddmin-minimized failing schedule as a standard replayable trace.

    With ``--jobs``/``--corpus`` the sweep runs as a sharded campaign
    instead: the fixed work-list is evaluated exhaustively (all failures
    collected, none minimized) and failing traces stream into the corpus.
    """
    if args.jobs is not None or args.corpus is not None or args.hosts:
        return _explore_campaign(args)
    job = _job(
        args,
        bound=args.bound,
        budget=args.budget,
        out_name=args.out,
        no_races=args.no_races,
    )
    return commands.explore(job, FileInputs(args), sys.stdout)


def _explore_campaign(args) -> int:
    """The sharded (``--jobs N``) explore path: deterministic regardless
    of worker count — jobs=1 and jobs=N produce the same behaviour set,
    the same failures, and a byte-identical corpus."""
    from repro.campaign import run_explore_campaign

    if args.workload is None:
        raise UsageError("--jobs/--corpus campaigns need --workload NAME")
    report = run_explore_campaign(
        args.workload,
        overrides=_workload_overrides(args),
        bound=args.bound,
        budget=args.budget,
        seed=args.seed if args.seed is not None else 0,
        jobs=args.jobs if args.jobs is not None else 1,
        config=_config(args),
        corpus_dir=args.corpus,
        watchdog=args.watchdog,
        hosts=_parse_hosts(args.hosts),
    )
    print(report.format())
    return 0


def _parse_hosts(hosts) -> "list[tuple[str, int]] | None":
    """``HOST:PORT`` strings (repeatable ``--hosts``) → address tuples."""
    if not hosts:
        return None
    parsed = []
    for text in hosts:
        host, sep, port = text.rpartition(":")
        if not sep or not port.isdigit():
            raise UsageError(f"--hosts wants HOST:PORT (got {text!r})")
        parsed.append((host or "127.0.0.1", int(port)))
    return parsed


def cmd_races(args) -> int:
    """Replay a trace with the happens-before detector attached.

    Exit status 1 means races were detected (0 = clean replay)."""
    from repro.explore import detect_races

    trace = TraceLog.load(args.trace)
    program = _resolve_program(args, trace)
    report = detect_races(program, trace, config=_config(args))
    print(report.format())
    stats = report.stats
    print(
        f"-- {stats['accesses']} shared-memory accesses, "
        f"{stats['sync_edges']} sync edges, "
        f"{stats['gc_invalidations']} gc invalidations"
    )
    return 1 if report.races else 0


def cmd_doctor(args) -> int:
    """Diagnose why a trace fails (or would fail) to replay.

    Exit status follows the classification: 0 clean, 1 a finding
    (truncation, corruption, mismatch, nondeterminism), 2 the file is not
    a readable trace at all."""
    return commands.doctor(_job(args), FileInputs(args), sys.stdout)


def cmd_faults(args) -> int:
    """Run a seeded fault-injection campaign against a workload.

    Exit status 1 means the recovery contract was violated (a hang, a raw
    traceback, or silent corruption); 0 means every fault ended in clean
    recovery or a typed diagnostic."""
    import tempfile

    from repro.faults import FaultPlan, run_campaign

    seed = args.seed if args.seed is not None else 42
    layers = tuple(args.layers) if args.layers else ("trace", "native", "transport")
    plan = FaultPlan.generate(seed, args.count, layers=layers)
    if args.jobs is not None or args.corpus is not None or args.hosts:
        from repro.campaign import run_faults_campaign

        sweep = run_faults_campaign(
            plan,
            workload=args.workload,
            layers=layers,
            config=VMConfig(semispace_words=args.heap),
            jobs=args.jobs if args.jobs is not None else 1,
            fault_timeout=args.watchdog,
            watchdog=args.campaign_watchdog,
            corpus_dir=args.corpus,
            hosts=_parse_hosts(args.hosts),
        )
        print(sweep.format())
        return 0 if sweep.ok else 1
    progress = None
    if args.verbose:
        progress = lambda o: print(  # noqa: E731
            f"  {o.spec.describe()}: {o.outcome}"
        )
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as workdir:
        report = run_campaign(
            plan,
            workload=args.workload,
            config=VMConfig(semispace_words=args.heap),
            workdir=workdir,
            fault_timeout=args.watchdog,
            progress=progress,
        )
    print(report.format())
    return 0 if report.ok else 1


def cmd_worker(args) -> int:
    """Serve campaign shards to remote `explore --hosts` / `faults
    --hosts` parents (the multi-host campaign daemon).

    Prints ``repro worker listening on HOST:PORT`` as its first line (the
    rendezvous :func:`spawn_worker_process` and scripts parse), then
    serves until killed or told ``shutdown``.  ``--sabotage`` arms the
    one-shot LAYER_REMOTE fault seam — testing only.
    """
    from repro.campaign.remote import WorkerServer, parse_sabotage
    from repro.core.server import install_term_handler

    sabotage = parse_sabotage(args.sabotage) if args.sabotage else None
    log = (lambda message: print(f"-- {message}", flush=True)) if args.verbose else None
    server = WorkerServer(
        host=args.host, port=args.port, log=log, sabotage=sabotage
    )
    # SIGTERM → graceful stop: drain the live connection, join the
    # heartbeat pump, close warm runners, exit 0 (no orphaned threads)
    install_term_handler(server.request_stop)
    print(
        f"repro worker listening on {server.address[0]}:{server.address[1]}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_corpus(args) -> int:
    """Inspect or maintain a campaign failure corpus.

    Exit status: ``list``/``stats``/``prune`` return 0; ``replay``
    returns 0 when every selected entry replays and verifies, 1 when any
    entry diverges from its recording, 2 when an entry name is unknown
    or the directory is not a corpus."""
    from repro.campaign import Corpus

    corpus = Corpus(args.dir)
    if args.action == "list":
        for entry in corpus.entries():
            print(entry.describe())
        print(f"-- {len(corpus)} entr{'y' if len(corpus) == 1 else 'ies'} in {args.dir}")
        return 0

    if args.action == "stats":
        stats = corpus.stats()
        print(f"entries:   {stats['entries']}")
        print(f"bytes:     {stats['bytes']}")
        print(f"behaviors: {stats['behaviors']}")
        for key, n in sorted(stats["by_workload"].items()):
            print(f"  {key:<40}{n}")
        return 0

    if args.action == "prune":
        kept, removed = corpus.prune(args.keep)
        print(
            f"pruned {args.dir}: kept {kept} entr{'y' if kept == 1 else 'ies'} "
            f"({removed} removed, <= {max(1, args.keep)} per distinct behavior)"
        )
        return 0

    # replay: every entry (or just the named one) must still reproduce
    from repro.workloads.registry import get_workload

    names = [args.entry] if args.entry else [e.name for e in corpus.entries()]
    if not names:
        print("corpus is empty — nothing to replay")
        return 0
    diverged = 0
    for name in names:
        entry = corpus.get(name)  # UsageError (exit 2) on unknown names
        workload = entry.meta.get("workload")
        if workload is None:
            print(f"{name}: SKIP — no workload recorded in entry meta")
            continue
        spec = get_workload(workload)
        kwargs = dict(entry.meta.get("workload_kwargs") or {})
        heap = entry.meta.get("heap")
        config = VMConfig(semispace_words=heap) if heap else None
        try:
            result = api_replay(spec.build(kwargs), corpus.trace(name), config=config)
        except VMError as exc:
            diverged += 1
            print(f"{name}: DIVERGED — {exc}")
            continue
        reason = entry.meta.get("reason", "")
        print(f"{name}: verified ({result.cycles} cycles) — {reason}")
    print(f"-- {len(names) - diverged}/{len(names)} verified")
    return 1 if diverged else 0


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DejaVu deterministic replay platform"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace_arg=False):
        p.add_argument(
            "program",
            nargs="?",
            default=None,
            help="guest program (.jasm / .mj / .minij); or use --workload",
        )
        if trace_arg:
            p.add_argument("trace", help="recorded trace (.djv)")
        p.add_argument(
            "--workload",
            default=None,
            metavar="NAME",
            help="build a registered workload instead of loading a file "
            "(see `repro workloads`)",
        )
        p.add_argument(
            "-W",
            "--workload-arg",
            action="append",
            default=[],
            metavar="K=V",
            help="override a workload build parameter (repeatable)",
        )
        p.add_argument("--main", default=JOB_DEFAULTS["main"])
        p.add_argument(
            "--heap", type=int, default=JOB_DEFAULTS["heap"], help="semispace words"
        )
        p.add_argument(
            "--seed",
            type=int,
            default=JOB_DEFAULTS["seed"],
            help="seeded non-determinism (default: host timer/clock)",
        )
        p.add_argument(
            "--engine",
            choices=sorted(ENGINE_PRESETS),
            default=JOB_DEFAULTS["engine"],
            help="optimisation layers on the threaded loop: baseline (none) "
            "| fused (superinstructions) | full (fusion + inline caches); "
            "guest behavior is identical under all of them",
        )

    p = sub.add_parser("run", help="execute a guest program")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("record", help="execute under DejaVu, save the trace")
    common(p)
    p.add_argument("-o", "--out", default=KIND_DEFAULTS["record"]["out_name"])
    p.add_argument(
        "--compress",
        action="store_true",
        help="zlib-compress each trace segment (smaller file, same replay)",
    )
    p.add_argument(
        "--slim",
        action="store_true",
        help="race-guided trace slimming (format v3.2): drop sync-inferable "
        "switch deltas, reconstructed at replay from the modelled timer "
        "(falls back to a full recording when the timer has no model)",
    )
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("replay", help="re-execute a recorded trace")
    common(p, trace_arg=True)
    p.add_argument(
        "--resume",
        action="store_true",
        help="finish the replay from the newest usable checkpoint in "
        "<trace>.ckpt (graceful fallback to replay-from-zero)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="capture a verified machine snapshot every N cycles into "
        "<trace>.ckpt",
    )
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "checkpoint", help="inspect/verify/prune a trace's checkpoint sidecar"
    )
    p.add_argument("action", choices=("list", "verify", "prune"))
    p.add_argument("trace", help="recorded trace (.djv); sidecar is <trace>.ckpt")
    p.add_argument(
        "--keep",
        type=int,
        default=4,
        help="snapshots to keep when pruning (newest first; default 4)",
    )
    p.set_defaults(fn=cmd_checkpoint)

    p = sub.add_parser("debug", help="interactive debugger over a replay")
    common(p, trace_arg=True)
    p.set_defaults(fn=cmd_debug)

    p = sub.add_parser("debug-serve", help="TCP debugger server over a replay")
    common(p, trace_arg=True)
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(fn=cmd_debug_serve)

    p = sub.add_parser(
        "serve",
        help="long-lived replay service (warm sessions, admission "
        "control, deadlines, graceful drain)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=2, help="supervised job workers"
    )
    p.add_argument(
        "--queue",
        type=int,
        default=8,
        metavar="N",
        help="admission limit: queued+running jobs beyond N get a typed "
        "overloaded rejection carrying retry_after",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECS",
        help="default per-job deadline (cooperative cancellation at "
        "engine safe points; jobs may set their own)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=60.0,
        metavar="SECS",
        help="max seconds a SIGTERM drain waits for accepted jobs",
    )
    p.add_argument(
        "--cold",
        action="store_true",
        help="disable the warm session pool (every job rebuilds its "
        "state; the bench's cold baseline)",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true", help="log served connections"
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("profile", help="perturbation-free profile of a trace")
    common(p, trace_arg=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("coverage", help="bytecode/line coverage of a trace")
    common(p, trace_arg=True)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("disasm", help="verify and disassemble a program")
    common(p)
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("trace-info", help="describe a saved trace")
    p.add_argument("trace")
    p.set_defaults(fn=cmd_trace_info)

    p = sub.add_parser(
        "trace-stats", help="per-stream encoding statistics of a saved trace"
    )
    p.add_argument("trace")
    p.set_defaults(fn=cmd_trace_stats)

    p = sub.add_parser(
        "engine-stats", help="run a program and report dispatch statistics"
    )
    common(p)
    p.set_defaults(fn=cmd_engine_stats)

    p = sub.add_parser(
        "explore",
        help="systematic schedule exploration (preemption-bounded)",
    )
    common(p)
    defaults = KIND_DEFAULTS["explore"]
    p.add_argument(
        "--bound", type=int, default=defaults["bound"],
        help="max preemptions per schedule",
    )
    p.add_argument(
        "--budget", type=int, default=defaults["budget"], help="max schedules to run"
    )
    p.add_argument("-o", "--out", default=defaults["out_name"])
    p.add_argument(
        "--no-races",
        action="store_true",
        help="skip race detection on the minimized failing trace",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard the sweep across N worker processes (campaign mode: "
        "all failures collected; jobs=1 and jobs=N are observably identical)",
    )
    p.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="stream failing traces into a content-addressed corpus "
        "(implies campaign mode; see `repro corpus`)",
    )
    p.add_argument(
        "--watchdog",
        type=float,
        default=300.0,
        metavar="SECS",
        help="campaign hang threshold: a worker holding unfinished items "
        "with no progress (local) or no frame (remote) for SECS seconds "
        "is reassigned (default 300)",
    )
    p.add_argument(
        "--hosts",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="shard across `repro worker` daemons instead of local forks "
        "(repeatable; implies campaign mode; degrades remote→local so "
        "coverage never depends on host health)",
    )
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "races", help="happens-before race detection over a replay"
    )
    common(p, trace_arg=True)
    p.set_defaults(fn=cmd_races)

    p = sub.add_parser(
        "doctor", help="classify why a trace fails to replay"
    )
    common(p, trace_arg=True)
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser(
        "faults", help="seeded fault-injection campaign against a workload"
    )
    p.add_argument(
        "-W",
        "--workload",
        default="bank",
        metavar="NAME",
        help="registered workload to attack (default: bank)",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=100, help="number of faults")
    p.add_argument("--heap", type=int, default=200_000, help="semispace words")
    p.add_argument(
        "--layers",
        action="append",
        default=None,
        choices=("trace", "native", "transport", "checkpoint", "remote", "serve"),
        help="fault layers to draw from (repeatable; default: trace, "
        "native, transport — checkpoint, remote and serve are opt-in)",
    )
    p.add_argument(
        "--watchdog",
        type=float,
        default=30.0,
        metavar="SECS",
        help="per-fault watchdog: a fault with no outcome within SECS "
        "seconds is reported as a hang (default 30)",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true", help="print each fault outcome"
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard the plan across N worker processes (each builds its "
        "baselines once and injects its shard against them)",
    )
    p.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="stream each contract violation's baseline trace + fault "
        "spec into a content-addressed corpus",
    )
    p.add_argument(
        "--campaign-watchdog",
        type=float,
        default=300.0,
        metavar="SECS",
        help="campaign hang threshold for --jobs/--hosts sharding (a "
        "worker silent for SECS seconds is reassigned; default 300 — "
        "distinct from --watchdog, the per-fault outcome timeout)",
    )
    p.add_argument(
        "--hosts",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="shard across `repro worker` daemons instead of local forks "
        "(repeatable; implies campaign mode)",
    )
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "corpus", help="inspect/maintain a campaign failure corpus"
    )
    p.add_argument("action", choices=("list", "stats", "prune", "replay"))
    p.add_argument(
        "entry",
        nargs="?",
        default=None,
        help="entry name (replay only; default: every entry)",
    )
    p.add_argument("--dir", default="corpus", help="corpus directory")
    p.add_argument(
        "--keep",
        type=int,
        default=1,
        help="entries to keep per distinct behavior when pruning "
        "(never below 1 — the last copy of a behavior survives)",
    )
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser(
        "worker", help="remote campaign worker daemon (multi-host sharding)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument(
        "--sabotage",
        default=None,
        metavar="KIND[:FRAC[:EXTRA]]",
        help="arm one one-shot LAYER_REMOTE fault (testing only): "
        "remote-drop-frame, remote-truncate-frame, remote-corrupt-frame, "
        "remote-kill-worker, remote-stall-heartbeat, remote-slow-connect",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true", help="log served connections"
    )
    p.set_defaults(fn=cmd_worker)

    p = sub.add_parser("workloads", help="list the registered workloads")
    p.set_defaults(fn=cmd_workloads)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VMError as exc:
        return commands.report_failure(exc, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
