"""In-memory span tracer that wraps the public functions of each layer.

The traced run of the benchmark installs wrappers around the layer entry
points listed by :func:`engine_wraps`, :func:`campaign_wraps` and
:func:`serve_codec_wraps` (module functions, methods and classmethods of
``repro``).  Nothing under ``src/`` changes: the wrappers
are set as attributes from here, and :meth:`Tracer.uninstall` puts the
originals back.  Each wrapper records one span — name, start, end, parent
span, operation id, thread — and, for some layers, a count derived from
the call's result.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's *self time* is its span's duration minus the time its direct
child spans cover; children never overlap their siblings on one thread,
so that is a subtraction of sums.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans and counts for one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op, tid)
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self.op = None
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        self._written = 0
        self.name = f"{os.getpid()}"
        # a forked campaign worker starts empty and dumps only its own
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._written = 0
        self.name = f"{os.getpid()}-{time.monotonic_ns()}"

    # ------------------------------------------------------------------
    # recording

    def call(self, name, fn, args, kwargs, on_result=None):
        if not self.active:
            return fn(*args, **kwargs)
        if name is None:  # a count-only boundary: no span
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (
                name, start, end, parent, self.op, threading.get_ident()
            )
        if on_result is not None:
            on_result(self, result)
        return result

    def count(self, name: str, amount: float = 1) -> None:
        if self.active and self.op != "ref":  # reference work is not counted
            with self._lock:
                self.counts[name] += amount

    def add_span(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (e.g. a queue wait across threads)."""
        if self.active:
            with self._lock:
                self.spans.append(
                    (name, start, end, None, self.op, threading.get_ident())
                )

    # ------------------------------------------------------------------
    # wrapping

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a module function, method or
        classmethod) with a recording wrapper; ``name=None`` only
        counts, for boundaries too hot or too fine for a span each."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        if isinstance(raw, classmethod):
            fn = raw.__func__

            def wrapper(cls, *args, **kwargs):
                return tracer.call(name, fn, (cls,) + args, kwargs, on_result)

            new = classmethod(wrapper)
        else:
            fn = raw

            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, on_result)

            new = wrapper
        wrapper.__wrapped__ = fn
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self, wraps) -> None:
        for owner, attr, name, on_result in wraps:
            self.wrap(owner, attr, name, on_result)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # ------------------------------------------------------------------
    # output

    def dump(self, path) -> None:
        """Append the finished spans not written yet, plus the counts so
        far, to *path* as one JSON line."""
        with self._lock:
            upto = self._written
            while upto < len(self.spans) and self.spans[upto] is not None:
                upto += 1
            line = json.dumps({
                "name": self.name,
                "spans": [list(s) for s in self.spans[self._written:upto]],
                "counts": dict(self.counts),
            })
            self._written = upto
        with open(path, "a") as out:
            out.write(line + "\n")

    def merge_file(self, path) -> None:
        """Fold another process's dump into this tracer: its spans keep
        their parent links, re-based onto ours; its last counts win."""
        lines = Path(path).read_text().splitlines()
        with self._lock:
            base = len(self.spans)
            for line in lines:
                data = json.loads(line)
                for name, start, end, parent, op, tid in data["spans"]:
                    self.spans.append((
                        name, start, end,
                        None if parent is None else parent + base, op,
                        f"{data['name']}:{tid}",
                    ))
            if lines:
                for name, amount in json.loads(lines[-1])["counts"].items():
                    self.counts[name] += amount


def self_seconds(spans, name: str, keep=lambda op: True, parent=None) -> float:
    """Total self time of the spans called *name* whose operation id
    passes *keep* (and, given *parent*, whose parent span has that name)."""
    spans = [s or ("", 0.0, 0.0, None, None, None) for s in spans]  # unfinished
    child_time = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    return sum(
        (s[2] - s[1]) - child_time[i]
        for i, s in enumerate(spans)
        if s[0] == name and keep(s[4])
        and (parent is None or (s[3] is not None and spans[s[3]][0] == parent))
    )


def total_seconds(spans, name: str, keep=lambda op: True) -> float:
    return sum(s[2] - s[1] for s in spans if s and s[0] == name and keep(s[4]))


# ---------------------------------------------------------------------------
# the layer boundaries


def _count_cycles(tracer, result):
    tracer.count("vm.cycles", result.cycles)


def _count_trace_words(tracer, trace):
    tracer.count("controller.switch_words", len(trace.switches))
    tracer.count("controller.value_words", len(trace.values))
    info = trace.slim_info
    if info is not None:
        tracer.count("detector.kept", info["kept"])
        tracer.count("detector.dropped", info["dropped"])


def _count_snapshot(tracer, _snapshot):
    tracer.count("checkpoint.snapshots")


def _count_build(tracer, _vm):
    tracer.count("vm.builds")


def _count_region(tracer, _summary):
    tracer.count("detector.regions")


def engine_wraps():
    """Layers inside one VM-running process: the VM, the controller,
    the trace codec, checkpoints, the race detector and the doctor."""
    import repro.api as api
    import repro.core.checkpoint as checkpoint
    import repro.core.doctor as doctor
    from repro.core.controller import DejaVu
    from repro.core.tracelog import TraceLog, TraceWriter
    from repro.explore.detector import RaceDetector
    from repro.vm.machine import VirtualMachine

    return [
        (api, "build_vm", "vm.build", _count_build),
        (VirtualMachine, "run", "vm.run", _count_cycles),
        (DejaVu, "trace", "controller.seal", _count_trace_words),
        (TraceWriter, "seal", "tracelog.seal", None),
        (TraceLog, "load", "tracelog.load", None),
        (checkpoint, "capture_snapshot", "checkpoint.capture", _count_snapshot),
        (checkpoint.CheckpointStore, "load", "checkpoint.load", None),
        (checkpoint, "restore_vm", "checkpoint.restore", None),
        (RaceDetector, "end_region", None, _count_region),
        (doctor, "diagnose", "doctor.diagnose", None),
    ]


def campaign_wraps():
    """The campaign layers (parent side; fork workers inherit them)."""
    from repro.campaign.corpus import Corpus
    from repro.campaign.runner import Campaign
    from repro.explore.explorer import Explorer

    return [
        (Explorer, "baseline", "explore.baseline", None),
        (Campaign, "run", "campaign.run", None),
        (Corpus, "ingest", "corpus.ingest", None),
    ]


def serve_codec_wraps(module):
    """The serve codec as *module* (daemon or client) sees it."""
    wraps = [
        (module, "encode_serve_message", "serve.codec", None),
        (module, "decode_serve_payload", "serve.codec", None),
    ]
    if hasattr(module, "validate_job"):
        wraps.append((module, "validate_job", "serve.codec", None))
    return wraps


def dump_from_campaign_workers(tracer: Tracer, directory) -> None:
    """Make each forked campaign worker append its new spans to a file
    in *directory* after every item.  A worker is terminated as soon as
    the parent has all its results, so the spans must be on disk before
    each result is sent."""
    from repro.campaign.jobs import _ExploreRunner

    parent = os.getpid()
    run = _ExploreRunner.__dict__["run"]

    def dumping_run(runner, item):
        result = run(runner, item)
        if os.getpid() != parent and tracer.active:
            tracer.dump(Path(directory) / f"worker-{tracer.name}.json")
        return result

    tracer._undo.append((_ExploreRunner, "run", run))
    _ExploreRunner.run = dumping_run
