"""High-level convenience API: programs, recording, and replaying.

Typical use (also ``examples/quickstart.py``)::

    from repro.api import GuestProgram, record, replay
    from repro.core import assert_faithful_replay
    from repro.vm import SeededJitterTimer

    program = GuestProgram.from_source(SOURCE)
    session = record(program, timer=SeededJitterTimer(42))
    result = replay(program, session.trace)
    assert_faithful_replay(session.result, result)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from pathlib import Path

from repro.core.controller import MODE_RECORD, MODE_REPLAY, DejaVu
from repro.core.symmetry import SymmetryConfig
from repro.core.tracelog import TraceLog, TraceWriter, config_fingerprint
from repro.core.verify import ReplayReport, compare_runs
from repro.vm.asm import assemble
from repro.vm.classfile import ClassDef
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import (
    CheckpointConfigMismatch,
    CheckpointError,
    TracePrefixEnd,
    VMError,
)
from repro.vm.machine import (
    _DEFAULT,
    Environment,
    VirtualMachine,
    VMConfig,
    with_baseline_engine,
)
from repro.vm.scheduler_types import RunResult
from repro.vm.timerdev import TimerSource, WallClock, slim_model_of


@dataclass
class GuestProgram:
    """A runnable guest program: classes + entry point + native bindings."""

    classdefs: list[ClassDef]
    main: str = "Main.main()V"
    #: extra natives: (qualname, implementation, is_nondeterministic)
    natives: list[tuple[str, Callable, bool]] = field(default_factory=list)
    name: str = "program"

    @classmethod
    def from_source(
        cls,
        source: str,
        main: str = "Main.main()V",
        natives: Iterable[tuple[str, Callable, bool]] | None = None,
        name: str = "program",
    ) -> "GuestProgram":
        return cls(
            classdefs=assemble(source, source=name),
            main=main,
            natives=list(natives or []),
            name=name,
        )


#: named engine configurations for ``--engine`` and serve jobs — the
#: ablation layers in order.  One shared table is what makes the
#: daemon's byte-identity guarantee meaningful: a serve job naming a
#: preset resolves to *exactly* the EngineConfig the CLI one-shot uses.
ENGINE_PRESETS = {
    "baseline": EngineConfig.baseline(),
    "fused": EngineConfig(fusion=True, inline_caches=False),
    "full": EngineConfig(),
}


def standard_knobs(seed: "int | None") -> dict:
    """The platform's one seed→determinism-knobs mapping.

    ``seed=None`` is a live host run (host timer + host clock);
    an integer seed selects the seeded jitter timer/clock and seeded
    environment the CLI's ``--seed`` flag uses.  The CLI and the serve
    daemon both build their VMs through this function, so a daemon job
    with a given seed is byte-identical to ``repro record --seed N``.
    """
    from repro.vm.timerdev import (
        HostClock,
        HostTimer,
        SeededJitterClock,
        SeededJitterTimer,
    )

    if seed is None:
        return dict(timer=HostTimer(), clock=HostClock())
    return dict(
        timer=SeededJitterTimer(seed, 40, 200),
        clock=SeededJitterClock(seed),
        env=Environment(seed=seed),
    )


def build_vm(
    program: GuestProgram,
    config: VMConfig | None = None,
    *,
    timer: TimerSource | None | object = _DEFAULT,
    clock: WallClock | None = None,
    env: Environment | None = None,
) -> VirtualMachine:
    """A fresh VM with *program* declared (VMs are single-run).

    Leave *timer* unset for the VM's default; pass an explicit
    :class:`TimerSource` to control preemption, or ``None`` to disable
    the preemption timer entirely.
    """
    vm = VirtualMachine(config, timer=timer, clock=clock, env=env)
    vm.declare(program.classdefs)
    for qualname, fn, nondet in program.natives:
        vm.register_native(qualname, fn, nondet=nondet)
    return vm


@dataclass
class RecordedRun:
    """Outcome of :func:`record`: the run's results plus its trace."""

    result: RunResult
    trace: TraceLog
    stats: dict


def record(
    program: GuestProgram,
    *,
    config: VMConfig | None = None,
    timer: TimerSource | None | object = _DEFAULT,
    clock: WallClock | None = None,
    env: Environment | None = None,
    symmetry: SymmetryConfig | None = None,
    out: "str | Path | None" = None,
    compress: bool = False,
    extra_meta: dict | None = None,
    vm_hook: "Callable[[VirtualMachine], None] | None" = None,
    checkpoint_every: int | None = None,
    slim: bool = False,
    **dejavu_kwargs,
) -> RecordedRun:
    """Execute *program* under DejaVu record mode; return results + trace.

    With ``out`` set, the recording streams to ``<out>.tmp`` in full
    checksummed segments as it runs and is atomically sealed onto *out* at
    a clean end — if the run dies mid-record (guest error, injected fault,
    host crash short of kernel death), the tmp file keeps every segment
    flushed so far and :meth:`TraceLog.salvage` recovers the prefix.

    ``vm_hook`` runs on the freshly built VM before the controller
    attaches — the seam the fault-injection harness uses to sabotage
    natives without its own copy of the record sequence.

    ``checkpoint_every`` captures a machine snapshot every N cycles into
    ``<out>.ckpt`` (record-mode snapshots serve digests and listings;
    only replay-side checkpoints are restorable).  The capture hook is
    host-side and guest-invisible, so the recording itself stays
    byte-identical with checkpointing on or off.

    ``slim=True`` asks for race-guided trace slimming (format v3.2): a
    FastTrack detector rides along classifying each inter-switch window,
    and at seal time every sync-inferable switch delta is dropped from
    the switch stream — replay re-derives them from the modelled timer
    device plus a compact sync-order sidecar.  Slimming needs a timer
    with a reconstruction model (the VM default fixed timer, a pristine
    seeded jitter timer, ``NeverTimer``, or ``timer=None``) and the
    default symmetry/schedule setup; anything else falls back to a full
    recording with the reason in ``trace.meta["slim_fallback"]``.  The
    recording itself is guest-bit-identical either way — classification
    is entirely host-side and happens after the run.

    Extra keyword arguments (e.g. ``switch_buffer_words``) are forwarded
    to the :class:`DejaVu` controller.
    """
    slim_fallback = None
    if slim:
        if symmetry is not None:
            slim_fallback = "non-default symmetry"
        elif dejavu_kwargs.get("schedule") is not None:
            slim_fallback = "schedule-policy recording"
        else:
            # the detector needs the unfused memory-op funnel; baseline is
            # guest-invisible, so traces stay byte-identical regardless
            config = with_baseline_engine(config)
    vm = build_vm(program, config, timer=timer, clock=clock, env=env)
    if vm_hook is not None:
        vm_hook(vm)
    slim_spec = None
    detector = None
    if slim and slim_fallback is None:
        slim_spec = slim_model_of(vm.timer)
        if slim_spec is None:
            slim_fallback = "timer has no reconstruction model"
        else:
            from repro.explore.detector import RaceDetector

            detector = RaceDetector(vm)
    writer = (
        TraceWriter(out, compress=compress, slim=slim_spec is not None)
        if out is not None
        else None
    )
    dejavu = DejaVu(vm, MODE_RECORD, symmetry=symmetry, writer=writer,
                    slim_spec=slim_spec, slim_detector=detector, **dejavu_kwargs)
    recorder = _make_recorder(vm, checkpoint_every, out)
    try:
        result = vm.run(program.main)
        trace = dejavu.trace()
        trace.meta["program"] = program.name
        # fingerprint only what the guest can feel (heap/stack/cycles):
        # engine toggles are guest-invisible and deliberately left out so
        # trace files stay byte-identical across engine combinations
        trace.meta["config"] = config_fingerprint(vm.config)
        if slim_fallback is not None:
            trace.meta["slim_fallback"] = slim_fallback
        trace.meta.update(extra_meta or {})
        if writer is not None:
            if slim_spec is not None:
                # slim recording keeps switch deltas host-side so the
                # seal-time partition can rewrite the stream; push the
                # final streams through the writer's spilling sinks now
                for w in trace.switches:
                    writer.switch_sink.append(w)
                for w in trace.slim:
                    writer.slim_sink.append(w)
            writer.seal(trace.meta)
        if recorder is not None:
            recorder.seal(program=program.name)
    except BaseException:
        # leave the tmp file exactly as the crash would: a salvageable
        # prefix of intact segments, and nothing at the final path
        if writer is not None:
            writer.abandon()
        if recorder is not None:
            recorder.abandon()
        raise
    return RecordedRun(result=result, trace=trace, stats=dict(dejavu.stats))


def _make_recorder(vm, checkpoint_every, out, checkpoint_out=None):
    if not checkpoint_every:
        return None
    from repro.core.checkpoint import (
        CheckpointRecorder,
        CheckpointWriter,
        sidecar_path,
    )

    if checkpoint_out is None and out is not None:
        checkpoint_out = sidecar_path(out)
    writer = CheckpointWriter(checkpoint_out) if checkpoint_out is not None else None
    return CheckpointRecorder(vm, checkpoint_every, writer=writer)


def replay(
    program: GuestProgram,
    trace: TraceLog,
    *,
    config: VMConfig | None = None,
    symmetry: SymmetryConfig | None = None,
    checkpoint_every: int | None = None,
    checkpoint_out: "str | Path | None" = None,
    vm_hook: "Callable[[VirtualMachine], None] | None" = None,
    **dejavu_kwargs,
) -> RunResult:
    """Re-execute *program* driven by *trace*; raises
    :class:`~repro.vm.errors.ReplayDivergenceError` if replay diverges.

    ``checkpoint_every`` captures restorable machine snapshots every N
    cycles; with ``checkpoint_out`` they stream to that sidecar file
    (sealed atomically at a clean end, salvageable from its tmp after a
    crash — the artifact :func:`resume_replay` and ``repro replay
    --resume`` pick up).

    ``vm_hook`` runs on the freshly built VM before the controller
    attaches — mirrors :func:`record`'s seam; the serve daemon uses it
    to install its cooperative-cancellation safe-point hook.
    """
    vm = build_vm(program, config)
    if vm_hook is not None:
        vm_hook(vm)
    DejaVu(vm, MODE_REPLAY, trace=trace, symmetry=symmetry, **dejavu_kwargs)
    recorder = _make_recorder(vm, checkpoint_every, None, checkpoint_out)
    try:
        result = vm.run(program.main)
        if recorder is not None:
            recorder.seal(program=program.name)
    except BaseException:
        if recorder is not None:
            recorder.abandon()
        raise
    return result


@dataclass
class ResumedReplay:
    """Outcome of :func:`resume_replay`: the result plus where the
    fallback ladder actually landed."""

    result: RunResult
    #: cycle count of the checkpoint the run resumed from (None: zero)
    resumed_from: int | None
    #: human-readable ladder steps, in the order they were taken
    attempts: list[str] = field(default_factory=list)

    @property
    def from_zero(self) -> bool:
        return self.resumed_from is None


def resume_replay(
    program: GuestProgram,
    trace: TraceLog,
    *,
    checkpoints: "str | Path | None" = None,
    config: VMConfig | None = None,
    symmetry: SymmetryConfig | None = None,
) -> ResumedReplay:
    """Finish a replay from the newest usable checkpoint in *checkpoints*
    (a ``<trace>.ckpt`` sidecar path; a crashed writer's ``.tmp`` is
    picked up automatically).

    Degrades gracefully: CRC-damaged sidecar tails and digest-failing
    snapshots are skipped at load, a snapshot whose restore or resumed
    replay fails falls back to the next earlier one, and when nothing
    survives the replay runs from cycle zero.  The only non-recoverable
    case is :class:`CheckpointConfigMismatch` — every checkpoint shares
    the config, so it propagates as a typed diagnostic instead.
    """
    from repro.core.checkpoint import CheckpointStore, restore_vm

    attempts: list[str] = []
    store = None
    if checkpoints is not None:
        try:
            store = CheckpointStore.load(checkpoints)
        except CheckpointError as exc:
            attempts.append(f"sidecar unusable: {exc}")
    if store is not None:
        if store.error:
            attempts.append(f"sidecar scan stopped early: {store.error}")
        if store.skipped:
            attempts.append(
                f"skipped {store.skipped} snapshot(s) failing digest verification"
            )
        for snap in store.newest_first():
            try:
                vm = restore_vm(
                    snap, program, trace, config=config, symmetry=symmetry
                )
            except CheckpointConfigMismatch:
                raise
            except VMError as exc:
                attempts.append(f"checkpoint @{snap.cycles} unusable: {exc}")
                continue
            try:
                vm.engine.run()
                result = vm.finish()
            except VMError as exc:
                attempts.append(
                    f"resumed @{snap.cycles} but replay failed: {exc}"
                )
                continue
            attempts.append(f"resumed from checkpoint @{snap.cycles}")
            return ResumedReplay(result, snap.cycles, attempts)
    attempts.append("replayed from cycle zero")
    result = replay(program, trace, config=config, symmetry=symmetry)
    return ResumedReplay(result, None, attempts)


@dataclass
class PrefixReplay:
    """Outcome of :func:`replay_prefix` over a salvaged trace."""

    result: RunResult
    complete: bool  # True: the whole (truncated) trace drove a full run
    words_consumed: int
    detail: str = ""


def replay_prefix(
    program: GuestProgram,
    trace: TraceLog,
    *,
    config: VMConfig | None = None,
    symmetry: SymmetryConfig | None = None,
    **dejavu_kwargs,
) -> PrefixReplay:
    """Replay a salvaged (truncated) trace to the end of its prefix.

    A salvaged trace stops where the recorder died, so exhausting it is
    the *expected* end state, not a divergence: the controller raises
    :class:`TracePrefixEnd` there, and this harness converts it into a
    partial :class:`RunResult` snapshot.  A trace that is not marked
    truncated goes through the strict :func:`replay` path instead.
    """
    if not trace.truncated:
        return PrefixReplay(
            result=replay(program, trace, config=config, symmetry=symmetry,
                          **dejavu_kwargs),
            complete=True,
            words_consumed=len(trace.values),
            detail="trace is sealed; full strict replay",
        )
    vm = build_vm(program, config)
    DejaVu(vm, MODE_REPLAY, trace=trace, symmetry=symmetry, **dejavu_kwargs)
    try:
        result = vm.run(program.main)
        return PrefixReplay(
            result=result,
            complete=True,
            words_consumed=len(trace.values),
            detail="the surviving prefix drove the program to completion",
        )
    except TracePrefixEnd as end:
        result = vm.finish()
        return PrefixReplay(
            result=result,
            complete=False,
            words_consumed=end.words_consumed,
            detail=str(end),
        )


def trace_to_bytes(trace: TraceLog) -> bytes:
    """Serialize *trace* to the sealed on-disk byte format (v3.1, or
    v3.2 when the trace carries a slim sidecar).

    The encoding is deterministic in the trace's streams and meta (no
    timestamps, fixed codec choice), so equal traces serialize to equal
    bytes — the property the content-addressed corpus and the
    jobs=1 ≡ jobs=N differential tests rely on.
    """
    import os
    import tempfile

    fd, name = tempfile.mkstemp(suffix=".djv")
    os.close(fd)
    try:
        trace.save(name)
        return Path(name).read_bytes()
    finally:
        Path(name).unlink(missing_ok=True)


def trace_from_bytes(data: bytes) -> TraceLog:
    """Load a trace from sealed bytes (inverse of :func:`trace_to_bytes`)."""
    import os
    import tempfile

    fd, name = tempfile.mkstemp(suffix=".djv")
    os.close(fd)
    try:
        Path(name).write_bytes(data)
        return TraceLog.load(name)
    finally:
        Path(name).unlink(missing_ok=True)


def record_and_replay(
    program: GuestProgram,
    *,
    config: VMConfig | None = None,
    timer: TimerSource | None | object = _DEFAULT,
    clock: WallClock | None = None,
    env: Environment | None = None,
    symmetry: SymmetryConfig | None = None,
) -> tuple[RecordedRun, RunResult, ReplayReport]:
    """Record once, replay once, and compare — the end-to-end check."""
    session = record(
        program, config=config, timer=timer, clock=clock, env=env, symmetry=symmetry
    )
    replayed = replay(program, session.trace, config=config, symmetry=symmetry)
    return session, replayed, compare_runs(session.result, replayed)


def worker_serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    background: bool = False,
    log=None,
):
    """Start a remote campaign worker daemon (the `repro worker` API).

    With ``background=True`` the daemon serves on a daemon thread and
    the started :class:`~repro.campaign.remote.WorkerServer` is returned
    immediately (``server.address`` is the bound ``(host, port)``; call
    ``server.stop()`` when done).  Otherwise this blocks, serving until
    interrupted.  Campaign parents reach it via ``hosts=[(host, port)]``
    on :func:`repro.campaign.run_explore_campaign` /
    :func:`repro.campaign.run_faults_campaign`, or ``--hosts`` on the
    CLI.
    """
    from repro.campaign.remote import WorkerServer

    server = WorkerServer(host=host, port=port, log=log)
    if background:
        return server.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return server
