"""Job execution: each serve job kind runs its :mod:`repro.commands`
executor — the function its CLI twin runs — on :class:`PoolInputs`:
warm programs and parsed traces from the
:class:`~repro.serve.sessions.SessionPool` (which change latency, never
results) and temp files in place of the client's paths.  :func:`run_job`
maps failures to the CLI's exit tiers; serve-level typed errors
(deadline, cancel) propagate to the supervisor instead.
"""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro import commands
from repro.serve.protocol import ServeError
from repro.serve.sessions import SessionPool
from repro.vm.errors import VMError

_EXECUTORS = commands.EXECUTORS


def _temp_file(blob: bytes) -> str:
    fd, name = tempfile.mkstemp(suffix=".djv")
    os.close(fd)
    Path(name).write_bytes(blob)
    return name


class PoolInputs:
    """A job's inputs from the session pool.  Trace paths and output
    traces are temp files, deleted before the job returns; an output
    trace's bytes are kept in :attr:`trace_bytes`."""

    def __init__(self, pool: SessionPool):
        self.pool = pool
        self.trace_bytes: "bytes | None" = None

    def program(self, job: dict):
        if job.get("workload") or job.get("source"):
            return self.pool.program(job)
        return None

    def trace(self, job: dict):
        return self.pool.trace(job["trace"])

    @contextmanager
    def trace_path(self, job: dict):
        path = _temp_file(job["trace"])
        try:
            yield path
        finally:
            Path(path).unlink(missing_ok=True)

    @contextmanager
    def output_trace(self, job: dict):
        path = _temp_file(b"")
        try:
            yield path
            self.trace_bytes = Path(path).read_bytes()
        finally:
            Path(path).unlink(missing_ok=True)
            Path(path + ".tmp").unlink(missing_ok=True)

    def trace_label(self, job: dict, path: str) -> str:
        # reports name the trace by path; the daemon ran it from a temp
        # file, so print the client's label for byte-identity with the CLI
        return job.get("trace_name") or path


def run_job(job: dict, pool: "SessionPool | None", token) -> dict:
    """Execute one validated job; return its result dict.

    The result always carries ``stdout`` (byte-identical to the CLI
    one-shot), ``stderr`` (the CLI's error line, empty on success) and
    ``exit`` (the CLI status tier); record/explore jobs that write a
    trace add its ``trace`` bytes.  Serve-typed errors (deadline,
    cancel) propagate — they are the supervisor's to report."""
    inputs = PoolInputs(pool if pool is not None else SessionPool(max_entries=2))
    out = io.StringIO()
    try:
        code = _EXECUTORS[job["kind"]](job, inputs, out, token)
    except ServeError:
        raise
    except VMError as exc:
        err = io.StringIO()
        code = commands.report_failure(exc, err)
        return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}
    result = {"stdout": out.getvalue(), "stderr": "", "exit": code}
    if inputs.trace_bytes is not None:
        result["trace"] = inputs.trace_bytes
    return result
