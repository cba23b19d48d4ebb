"""The `repro serve` wire protocol: job schema, typed errors, codec.

The serve daemon rides the platform's one framing discipline — the
u32-big-endian length-prefixed frames of :mod:`repro.core.framing` —
with the same checksummed-pickle payloads the remote campaign protocol
uses (:func:`~repro.core.framing.encode_pickle_message`).  Like that
protocol it is for hosts you already trust to run your code; it is not
an internet-facing protocol.

Message ops (every message is ``{"op": ..., ...}``):

====================  =========  =============================================
op                    direction  meaning
====================  =========  =============================================
``hello``             → daemon   handshake; carries the protocol version
``hello-ok``          ← daemon   handshake accepted; carries version + pid
``submit``            → daemon   one job dict (see :func:`validate_job`)
``result``            ← daemon   the job's outcome: ``ok`` + result or a
                                 typed error dict (``type``/``detail`` and,
                                 for rejections, ``retry_after``)
``health``            → daemon   readiness probe
``health-ok``         ← daemon   state (``ready``/``draining``) + counters
``drain``             → daemon   begin graceful drain (the signal-free
                                 equivalent of SIGTERM, for tests/CI)
``ping`` / ``pong``   both       transport keepalive
``shutdown``/``bye``  both       drain + terminate, like ``drain``
``error``             ← daemon   typed in-band protocol failure
====================  =========  =============================================

**Job schema.**  A job is a plain dict.  Common fields:

* ``kind`` — ``record`` | ``replay`` | ``explore`` | ``doctor`` |
  ``trace-stats``
* ``workload`` + ``workload_args`` — a registered workload build, or
* ``source`` (+ ``main``, ``name``) — inline ``.jasm`` text
* ``seed`` — the CLI ``--seed`` knob (None: host timer/clock)
* ``engine`` — an :data:`repro.api.ENGINE_PRESETS` name (default
  ``full``) or a dict of engine flags (the 4-combo ablation space)
* ``heap`` — semispace words (default 400 000)
* ``deadline`` — per-job wall-clock budget in seconds; exceeding it
  lands a typed ``JobDeadlineExceeded``, enforced cooperatively at
  engine safe points
* ``trace`` — sealed trace bytes (replay / doctor / trace-stats)
* ``bound`` / ``budget`` — explore parameters (defaults 2 / 250)
* ``slim`` / ``compress`` — record options, the CLI's ``--slim`` /
  ``--compress`` (default off)
* ``out_name`` — the label printed in record/explore output (default
  ``run.djv`` / ``failure.djv``), so daemon stdout is byte-identical to
  the CLI's
* ``trace_name`` — the path label doctor output prints (the daemon
  diagnoses from a temp file; this substitutes the client's path so
  stdout matches the CLI one-shot)

Every default is the CLI's, from one table
(:func:`repro.commands.job_defaults`).  ``resume``,
``checkpoint_every`` and ``no_races`` are command-line only and are
rejected.

Results carry ``stdout`` (byte-identical to the CLI one-shot's stdout),
``exit`` (the CLI exit status), and for record jobs and explore jobs
that minimized a failure ``trace`` (sealed trace bytes, byte-identical
to the CLI-written file).
"""

from __future__ import annotations

from repro.core.framing import (
    FrameDecoder,
    FrameError,
    TransportError,
    decode_pickle_payload,
    encode_pickle_message,
)
from repro.commands import EXECUTORS, job_defaults
from repro.vm.errors import VMError

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "MAX_SERVE_FRAME_BYTES",
    "JOB_KINDS",
    "ServeError",
    "JobRejected",
    "JobDeadlineExceeded",
    "JobCancelled",
    "encode_serve_message",
    "decode_serve_payload",
    "validate_job",
    "error_reply",
    "FrameDecoder",
    "FrameError",
    "TransportError",
]

#: serve protocol revision; bumped on any wire-incompatible change
SERVE_PROTOCOL_VERSION = 1
#: jobs and results carry sealed trace blobs, so the cap matches the
#: remote campaign protocol, not the debugger's small packets
MAX_SERVE_FRAME_BYTES = 64 << 20

#: the job kinds the daemon executes: every command with an executor
JOB_KINDS = tuple(EXECUTORS)


class ServeError(VMError):
    """A serve-layer failure with a stable type name — the daemon's
    typed-diagnostic currency: every failure a client can cause maps to
    a subclass, never a raw traceback."""


class JobRejected(ServeError):
    """The daemon declined the job *before* running it: admission queue
    full (``reason='overloaded'``) or drain in progress
    (``reason='draining'``).  ``retry_after`` tells a client when a
    retry is worth attempting."""

    def __init__(self, detail: str, *, reason: str, retry_after: float):
        super().__init__(detail)
        self.reason = reason
        self.retry_after = retry_after


class JobDeadlineExceeded(ServeError):
    """The job ran past its deadline and was cancelled cooperatively at
    an engine safe point (or a sweep/stage boundary)."""


class JobCancelled(ServeError):
    """The job was cancelled by the daemon (drain hit its grace period
    or the client asked) before it could finish."""


def encode_serve_message(message: dict) -> bytes:
    """One wire frame: length prefix + CRC32 + pickled message."""
    return encode_pickle_message(message, MAX_SERVE_FRAME_BYTES)


def decode_serve_payload(payload: bytes) -> dict:
    """Check the CRC and unpickle one frame payload (typed
    :class:`FrameError` on anything untrustworthy)."""
    return decode_pickle_payload(payload)


#: command fields a job may not set: ``resume``/``checkpoint_every``
#: name a checkpoint sidecar next to the client's trace file, which the
#: daemon never sees; ``no_races`` is a CLI explore flag outside the schema
CLI_ONLY_FIELDS = ("resume", "checkpoint_every", "no_races")
_STR_FIELDS = ("source", "main", "name", "workload", "out_name", "trace_name")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_job(job) -> dict:
    """Normalize and validate one job dict; typed :class:`ServeError` on
    anything malformed (a poison payload must land in a diagnostic the
    client can read, never a worker traceback)."""
    if not isinstance(job, dict):
        raise ServeError(f"job must be a dict, got {type(job).__name__}")
    kind = job.get("kind")
    if kind not in JOB_KINDS:
        raise ServeError(
            f"unknown job kind {kind!r} (known: {', '.join(JOB_KINDS)})"
        )
    for field in CLI_ONLY_FIELDS:
        if field in job:
            raise ServeError(f"job field {field!r} is command-line only")
    out = {**job_defaults(kind), "deadline": None, **job}
    for field in _STR_FIELDS:
        if field in out and not isinstance(out[field], str):
            raise ServeError(f"job {field} must be a string, got {out[field]!r}")
    for field in ("slim", "compress"):
        if field in out and not isinstance(out[field], bool):
            raise ServeError(f"job {field} must be a bool, got {out[field]!r}")
    if out["seed"] is not None and not _is_int(out["seed"]):
        raise ServeError(f"job seed must be an int or None, got {out['seed']!r}")
    if not _is_int(out["heap"]) or out["heap"] <= 0:
        raise ServeError(f"job heap must be a positive int, got {out['heap']!r}")
    if out["deadline"] is not None:
        try:
            out["deadline"] = float(out["deadline"])
        except (TypeError, ValueError):
            raise ServeError(f"job deadline must be seconds, got {out['deadline']!r}")
        if out["deadline"] <= 0:
            raise ServeError("job deadline must be positive")
    if not isinstance(out["workload_args"], dict):
        raise ServeError("job workload_args must be a dict")
    has_program = out.get("workload") or out.get("source")
    if kind in ("record", "explore") and not has_program:
        raise ServeError(f"{kind} job needs a 'workload' name or 'source' text")
    if kind in ("replay", "doctor", "trace-stats"):
        blob = out.get("trace")
        if not isinstance(blob, (bytes, bytearray)) or not blob:
            raise ServeError(f"{kind} job needs sealed trace bytes in 'trace'")
        out["trace"] = bytes(blob)
    if kind == "replay" and not has_program:
        raise ServeError("replay job needs a 'workload' name or 'source' text")
    if kind == "explore":
        if not _is_int(out["bound"]) or out["bound"] < 1:
            raise ServeError(f"explore bound must be >= 1, got {out['bound']!r}")
        if not _is_int(out["budget"]) or out["budget"] < 1:
            raise ServeError(f"explore budget must be >= 1, got {out['budget']!r}")
    engine = out["engine"]
    if isinstance(engine, str):
        from repro.api import ENGINE_PRESETS

        if engine not in ENGINE_PRESETS:
            raise ServeError(
                f"unknown engine preset {engine!r} "
                f"(known: {', '.join(sorted(ENGINE_PRESETS))})"
            )
    elif isinstance(engine, dict):
        allowed = {"fusion", "inline_caches"}
        bad = set(engine) - allowed
        if bad:
            raise ServeError(
                f"unknown engine flag(s) {sorted(bad)} "
                f"(known: {sorted(allowed)})"
            )
    else:
        raise ServeError(
            f"job engine must be a preset name or a flag dict, got {engine!r}"
        )
    return out


def error_reply(exc: Exception) -> dict:
    """The in-band ``result`` error dict for a typed failure."""
    error: dict = {"type": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, JobRejected):
        error["reason"] = exc.reason
        error["retry_after"] = exc.retry_after
    return {"op": "result", "ok": False, "error": error}
