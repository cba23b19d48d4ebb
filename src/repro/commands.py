"""The command core: one executor per command, run by both the CLI and
the `repro serve` daemon, so a served job's stdout, exit status and
trace bytes equal the CLI one-shot's by construction.

An executor ``(job, inputs, out, token) -> exit status`` takes the
command's fields as a dict (defaults: :func:`job_defaults`, read by both
argparse and the daemon's ``validate_job``); an *inputs* object that
supplies ``program(job)`` (None when the job names none), ``trace(job)``
and the path context managers ``trace_path(job)`` / ``output_trace(job)``
plus ``trace_label(job, path)`` — file-backed in ``repro.cli.FileInputs``,
session-pool-backed in ``repro.serve.jobs.PoolInputs``; the text stream
*out* the report is printed to; and a cancel token (``install`` is the
engine safe-point hook, ``check`` runs at sweep boundaries) or None.
Failures raise; :func:`report_failure` maps them to the exit tiers.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.vm.errors import TraceFormatError, UsageError, VMError

#: the defaults of the fields every command's job has
JOB_DEFAULTS = {
    "main": "Main.main()V",
    "heap": 400_000,
    "engine": "full",
    "seed": None,
}
#: the defaults of the fields one command adds
KIND_DEFAULTS = {
    "record": {"out_name": "run.djv", "slim": False, "compress": False},
    "explore": {"out_name": "failure.djv", "bound": 2, "budget": 250},
}


def job_defaults(kind: str) -> dict:
    """Every defaulted field of a *kind* job, as a fresh dict."""
    return {**JOB_DEFAULTS, "workload_args": {}, **KIND_DEFAULTS.get(kind, {})}


def report_failure(exc: VMError, err) -> int:
    """Print the ``error: …`` line for a failed command to *err* and
    return its exit status: 2 for unusable input (bad usage, a file that
    is not a readable trace), 1 for a finding."""
    print(f"error: {exc}", file=err)
    return 2 if isinstance(exc, (UsageError, TraceFormatError)) else 1


def vm_config(job: dict):
    """The job's VM configuration: ``engine`` is an
    :data:`repro.api.ENGINE_PRESETS` name or a dict of engine flags."""
    from repro.vm.machine import VMConfig

    engine = job["engine"]
    if isinstance(engine, dict):
        from repro.vm.engineconfig import EngineConfig

        engine = EngineConfig(**engine)
    else:
        from repro.api import ENGINE_PRESETS

        engine = ENGINE_PRESETS[engine]
    return VMConfig(semispace_words=job["heap"], engine=engine)


def workload_build(job: dict):
    """The registered workload a job names and its build kwargs: the
    workload's defaults, then the job's ``workload_args``."""
    from repro.workloads.registry import get_workload

    spec = get_workload(job["workload"])
    kwargs = dict(spec.defaults)
    kwargs.update(job["workload_args"])
    return spec, kwargs


def with_recorded_build(job: dict, trace) -> dict:
    """The job that rebuilds the recorded program: the trace's build
    kwargs win over the workload defaults, explicit overrides over both."""
    if not job.get("workload"):
        return job
    from repro.workloads.registry import get_workload

    if trace.meta.get("workload") != get_workload(job["workload"]).name:
        return job
    kwargs = dict(trace.meta.get("workload_kwargs") or {})
    kwargs.update(job["workload_args"])
    return dict(job, workload_args=kwargs)


def need_program(inputs, job: dict):
    program = inputs.program(job)
    if program is None:
        raise UsageError("need a program file or --workload NAME")
    return program


def print_result(result, out=None) -> None:
    out = out if out is not None else sys.stdout
    print(result.output_text, file=out)
    print(
        f"-- cycles={result.cycles} switches={result.switches} "
        f"gc={result.gc_count} threads={len(result.yieldpoints)}",
        file=out,
    )
    if result.deadlocked:
        print(f"-- DEADLOCK: threads {list(result.deadlocked)}", file=out)
    for tid, kind, detail in result.traps:
        print(f"-- trap in thread {tid}: {detail}", file=out)


def _vm_hook(token):
    return token.install if token is not None else None


# ---------------------------------------------------------------------------
# the executors


def record(job: dict, inputs, out, token=None) -> int:
    from repro import api

    program = need_program(inputs, job)
    meta = {}
    if job.get("workload"):
        spec, kwargs = workload_build(job)
        meta = {"workload": spec.name, "workload_kwargs": kwargs}
    with inputs.output_trace(job) as path:
        session = api.record(
            program,
            config=vm_config(job),
            out=path,
            compress=job["compress"],
            extra_meta=meta,
            slim=job["slim"],
            vm_hook=_vm_hook(token),
            **api.standard_knobs(job["seed"]),
        )
        size = Path(path).stat().st_size
    print_result(session.result, out)
    trace = session.trace
    print(
        f"-- trace: {trace.n_switch_records} switch records, "
        f"{trace.n_value_words} value words "
        f"({trace.encoded_size_bytes} bytes as raw varints); "
        f"{size} bytes -> {job['out_name']}",
        file=out,
    )
    slim_info = trace.slim_info
    if slim_info is not None:
        print(
            f"-- slim: kept {slim_info['kept']} switch delta(s), "
            f"dropped {slim_info['dropped']} (model "
            f"{slim_info['model'][0]}, {slim_info['sync_total']} sync events)",
            file=out,
        )
    elif job["slim"]:
        reason = trace.meta.get("slim_fallback", "?")
        print(f"-- slim: fell back to full recording ({reason})", file=out)
    return 0


def replay(job: dict, inputs, out, token=None) -> int:
    """Replay a trace; ``resume`` finishes it from the trace's checkpoint
    sidecar and ``checkpoint_every`` writes one (command line only: the
    sidecar lives next to the trace file)."""
    from repro import api
    from repro.core.checkpoint import sidecar_path

    trace = inputs.trace(job)
    program = need_program(inputs, with_recorded_build(job, trace))
    sidecar = None
    if job.get("resume") or job.get("checkpoint_every"):
        with inputs.trace_path(job) as path:
            sidecar = sidecar_path(path)
    if job.get("resume"):
        resumed = api.resume_replay(
            program, trace, checkpoints=sidecar, config=vm_config(job)
        )
        for step in resumed.attempts:
            print(f"-- {step}", file=out)
        result = resumed.result
    else:
        result = api.replay(
            program,
            trace,
            config=vm_config(job),
            vm_hook=_vm_hook(token),
            checkpoint_every=job.get("checkpoint_every") or None,
            checkpoint_out=sidecar,
        )
    print_result(result, out)
    print("-- replay verified against the recorded END witnesses", file=out)
    if sidecar is not None and not job.get("resume"):
        print(f"-- checkpoints -> {sidecar}", file=out)
    return 0


def explore(job: dict, inputs, out, token=None) -> int:
    """Systematically explore schedules; on failure, save the
    ddmin-minimized failing schedule as a standard replayable trace and
    run race detection on it (unless ``no_races``)."""
    from repro.explore import Explorer, detect_races

    if job.get("workload"):
        from repro.workloads.registry import get_workload

        spec = get_workload(job["workload"])
        kwargs = spec.merged_kwargs(job["workload_args"], explore=True)
        factory = spec.program_factory(kwargs)
        oracle = spec.oracle(kwargs)
        meta = {"workload": spec.name, "workload_kwargs": kwargs}
    else:
        program = need_program(inputs, job)
        factory = lambda: program  # noqa: E731 - programs are reusable
        oracle = None
        meta = {}

    config = vm_config(job)
    report = Explorer(
        factory,
        oracle=oracle,
        bound=job["bound"],
        budget=job["budget"],
        seed=job["seed"] if job["seed"] is not None else 0,
        config=config,
        check=token.check if token is not None else None,
    ).run()
    print(report.format(), file=out)
    if report.minimized is None:
        return 0

    trace = report.minimized.trace
    trace.meta.update(meta)
    with inputs.output_trace(job) as path:
        trace.save(path)
    print(f"-- minimized failing trace -> {job['out_name']}", file=out)
    if not job.get("no_races"):
        races = detect_races(factory(), trace, config=config)
        print(races.format(), file=out)
    return 0


def doctor(job: dict, inputs, out, token=None) -> int:
    """Diagnose why a trace fails (or would fail) to replay; the exit
    status follows the classification."""
    from repro.core.doctor import diagnose

    workload_kwargs = None
    if job.get("workload"):
        # intended build parameters: the defaults plus explicit overrides,
        # NOT merged with the trace meta — diffing them against the
        # recording is the doctor's job
        _, workload_kwargs = workload_build(job)
    program = inputs.program(job)
    with inputs.trace_path(job) as path:
        report = diagnose(
            path,
            program=program,
            config=vm_config(job),
            workload_kwargs=workload_kwargs,
        )
        text = report.format().replace(path, inputs.trace_label(job, path))
    print(text, file=out)
    return report.exit_code


def trace_stats(job: dict, inputs, out, token=None) -> int:
    """Per-stream encoding statistics of a saved trace."""
    from repro.core import tracelog

    with inputs.trace_path(job) as path:
        stats = tracelog.trace_stats(path)
    raw = stats["format_version"]
    version = f"{raw >> 8}.{raw & 0xFF}" if raw >= 256 else str(raw)
    print(f"format version: {version}", file=out)
    print(f"file bytes:     {stats['file_bytes']}", file=out)
    for name in ("switch", "value", "slim"):
        st = stats["streams"].get(name)
        if st is None:
            continue
        codecs = ",".join(f"0x{c:02x}" for c in st["codecs"]) or "-"
        print(f"{name} stream:", file=out)
        print(f"  entries:       {st['entries']}", file=out)
        print(f"  segments:      {st['segments']}", file=out)
        print(f"  encoded bytes: {st['encoded_bytes']}", file=out)
        print(f"  varint bytes:  {st['raw_bytes']}", file=out)
        print(f"  ratio:         {st['ratio']:.3f}x (codecs {codecs})", file=out)
    slim = stats.get("slim")
    if slim is not None:
        print(
            f"slim recording: kept {slim['kept']} switch delta(s), "
            f"dropped {slim['dropped']}",
            file=out,
        )
    return 0


#: job kind -> executor
EXECUTORS = {
    "record": record,
    "replay": replay,
    "explore": explore,
    "doctor": doctor,
    "trace-stats": trace_stats,
}
