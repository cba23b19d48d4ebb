"""Job executors: each serve job kind, byte-identical to its CLI twin.

Every executor here mirrors its ``repro.cli`` command function — same
api calls, same knobs (:func:`repro.api.standard_knobs`), same engine
presets, same output formatting (the CLI's own ``_print_result``) — so
the daemon's differential guarantee holds by construction: a job's
``stdout`` is byte-identical to the CLI one-shot's stdout and a record
job's ``trace`` bytes are byte-identical to the CLI-written file.  The
only things a daemon job adds are *warm inputs* (cached programs and
parsed traces from the :class:`~repro.serve.sessions.SessionPool`,
which cannot change results, only latency) and the *cancellation seam*
(the :class:`~repro.serve.supervisor.CancelToken` installed at engine
safe points and sweep boundaries).

The wrapper :func:`run_job` reproduces the CLI's exit-status tiering:
0 success, 1 a finding (``VMError``), 2 unusable input (``UsageError``
/ ``TraceFormatError``) — with the error line on the result's
``stderr`` exactly as ``repro.cli.main`` would print it.  Serve-level
typed errors (deadline, cancel, validation) propagate to the
supervisor instead; they have no CLI twin to mirror.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path

from repro.serve.protocol import ServeError
from repro.serve.sessions import SessionPool
from repro.vm.errors import TraceFormatError, UsageError, VMError


def _engine_config(spec):
    from repro.api import ENGINE_PRESETS

    if isinstance(spec, str):
        return ENGINE_PRESETS[spec]
    from repro.vm.engineconfig import EngineConfig

    return EngineConfig(**spec)


def _vm_config(job: dict):
    from repro.vm.machine import VMConfig

    return VMConfig(semispace_words=job["heap"], engine=_engine_config(job["engine"]))


def _workload_meta(job: dict) -> dict:
    """The trace meta the CLI's ``_resolve_program`` stamps for a
    ``--workload`` run (defaults + overrides); empty for source jobs."""
    if not job.get("workload"):
        return {}
    from repro.workloads.registry import get_workload

    spec = get_workload(job["workload"])
    kwargs = dict(spec.defaults)
    kwargs.update(job["workload_args"])
    return {"workload": spec.name, "workload_kwargs": kwargs}


def _program_for_replay(job: dict, pool: SessionPool, trace):
    """Mirror the CLI's trace-aware workload rebuild: the recorded build
    kwargs win over the workload defaults, then explicit overrides."""
    if not job.get("workload"):
        return pool.program(job)
    from repro.workloads.registry import get_workload

    spec = get_workload(job["workload"])
    if trace.meta.get("workload") == spec.name:
        effective = dict(trace.meta.get("workload_kwargs") or {})
        effective.update(job["workload_args"])
        job = dict(job, workload_args=effective)
    return pool.program(job)


def _temp_trace(blob: bytes):
    fd, name = tempfile.mkstemp(suffix=".djv")
    os.close(fd)
    Path(name).write_bytes(blob)
    return name


# ---------------------------------------------------------------------------
# the executors (one per job kind)


def _exec_record(job: dict, pool: SessionPool, token, out: io.StringIO) -> dict:
    from repro.api import record, standard_knobs
    from repro.cli import _print_result

    program = pool.program(job)
    fd, path = tempfile.mkstemp(suffix=".djv")
    os.close(fd)
    try:
        session = record(
            program,
            config=_vm_config(job),
            out=path,
            extra_meta=_workload_meta(job),
            slim=job.get("slim", False),
            vm_hook=token.install,
            **standard_knobs(job["seed"]),
        )
        trace_bytes = Path(path).read_bytes()
    finally:
        Path(path).unlink(missing_ok=True)
        Path(path + ".tmp").unlink(missing_ok=True)
    _print_result(session.result, out=out)
    print(
        f"-- trace: {session.trace.n_switch_records} switch records, "
        f"{session.trace.n_value_words} value words "
        f"({session.trace.encoded_size_bytes} bytes as raw varints); "
        f"{len(trace_bytes)} bytes -> {job['out_name']}",
        file=out,
    )
    slim_info = session.trace.slim_info
    if slim_info is not None:
        print(
            f"-- slim: kept {slim_info['kept']} switch delta(s), "
            f"dropped {slim_info['dropped']} (model "
            f"{slim_info['model'][0]}, {slim_info['sync_total']} sync events)",
            file=out,
        )
    elif job.get("slim", False):
        reason = session.trace.meta.get("slim_fallback", "?")
        print(f"-- slim: fell back to full recording ({reason})", file=out)
    return {"trace": trace_bytes}


def _exec_replay(job: dict, pool: SessionPool, token, out: io.StringIO) -> dict:
    from repro.api import replay
    from repro.cli import _print_result

    trace = pool.trace(job["trace"])
    program = _program_for_replay(job, pool, trace)
    result = replay(
        program, trace, config=_vm_config(job), vm_hook=token.install
    )
    _print_result(result, out=out)
    print("-- replay verified against the recorded END witnesses", file=out)
    return {}


def _exec_explore(job: dict, pool: SessionPool, token, out: io.StringIO) -> dict:
    from repro.explore import Explorer, detect_races
    from repro.serve.protocol import ServeError

    extra: dict = {}
    if job.get("workload"):
        from repro.workloads.registry import get_workload

        spec = get_workload(job["workload"])
        kwargs = spec.merged_kwargs(job["workload_args"], explore=True)
        factory = spec.program_factory(kwargs)
        oracle = spec.oracle(kwargs)
        meta = {"workload": spec.name, "workload_kwargs": kwargs}
    elif job.get("source"):
        program = pool.program(job)
        factory = lambda: program  # noqa: E731 - programs are reusable
        oracle = None
        meta = {}
    else:  # pragma: no cover - validate_job guarantees a program
        raise ServeError("explore job lost its program")

    config = _vm_config(job)
    report = Explorer(
        factory,
        oracle=oracle,
        bound=job["bound"],
        budget=job["budget"],
        seed=job["seed"] if job["seed"] is not None else 0,
        config=config,
        check=token.check,
    ).run()
    print(report.format(), file=out)
    if report.minimized is None:
        return extra

    out_name = job.get("out_name", "failure.djv")
    trace = report.minimized.trace
    trace.meta.update(meta)
    fd, path = tempfile.mkstemp(suffix=".djv")
    os.close(fd)
    try:
        trace.save(path)
        extra["trace"] = Path(path).read_bytes()
    finally:
        Path(path).unlink(missing_ok=True)
    print(f"-- minimized failing trace -> {out_name}", file=out)
    races = detect_races(factory(), trace, config=config)
    print(races.format(), file=out)
    return extra


def _exec_doctor(job: dict, pool: SessionPool, token, out: io.StringIO) -> dict:
    from repro.core.doctor import diagnose

    program = None
    workload_kwargs = None
    if job.get("workload"):
        from repro.workloads.registry import get_workload

        spec = get_workload(job["workload"])
        workload_kwargs = dict(spec.defaults)
        workload_kwargs.update(job["workload_args"])
        program = pool.program(job)
    elif job.get("source"):
        program = pool.program(job)
    path = _temp_trace(job["trace"])
    try:
        report = diagnose(
            path,
            program=program,
            config=_vm_config(job),
            workload_kwargs=workload_kwargs,
        )
    finally:
        Path(path).unlink(missing_ok=True)
    text = report.format()
    label = job.get("trace_name")
    if label:
        # the report names the trace by path; the daemon ran it from a
        # temp file, so substitute the client's label for byte-identity
        # with the CLI one-shot
        text = text.replace(path, str(label))
    print(text, file=out)
    return {"exit": report.exit_code}


def _exec_trace_stats(job: dict, pool: SessionPool, token, out: io.StringIO) -> dict:
    from repro.core.tracelog import trace_stats

    path = _temp_trace(job["trace"])
    try:
        stats = trace_stats(path)
    finally:
        Path(path).unlink(missing_ok=True)
    major, minor = divmod(stats["format_version"], 256) if stats[
        "format_version"
    ] >= 256 else (stats["format_version"], None)
    version = f"{major}.{minor}" if minor is not None else str(major)
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
    return {}


_EXECUTORS = {
    "record": _exec_record,
    "replay": _exec_replay,
    "explore": _exec_explore,
    "doctor": _exec_doctor,
    "trace-stats": _exec_trace_stats,
}


def run_job(job: dict, pool: "SessionPool | None", token) -> dict:
    """Execute one validated job; return its result dict.

    The result always carries ``stdout`` (byte-identical to the CLI
    one-shot), ``stderr`` (the CLI's error line, empty on success) and
    ``exit`` (the CLI status tier); record/explore jobs add ``trace``
    bytes.  Serve-typed errors (deadline, cancel) propagate — they are
    the supervisor's to report."""
    if pool is None:
        pool = SessionPool(max_entries=2)
    buf = io.StringIO()
    executor = _EXECUTORS[job["kind"]]
    try:
        extra = executor(job, pool, token, buf)
    except ServeError:
        raise
    except (UsageError, TraceFormatError) as exc:
        return {
            "stdout": buf.getvalue(),
            "stderr": f"error: {exc}\n",
            "exit": 2,
        }
    except VMError as exc:
        return {
            "stdout": buf.getvalue(),
            "stderr": f"error: {exc}\n",
            "exit": 1,
        }
    result = {"stdout": buf.getvalue(), "stderr": "", "exit": 0}
    result.update(extra)
    return result
