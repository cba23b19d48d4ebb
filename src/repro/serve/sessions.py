"""The warm-session pool: cached, generation-counted replay state.

The whole point of a long-lived daemon (iReplayer's lesson) is that the
expensive, *deterministic* setup work — assembling a guest program,
parsing a sealed trace, loading a checkpoint sidecar — happens once and
amortizes across every job that names the same content.  The pool
caches exactly that: pure functions of content, keyed by content
digest, so a warm hit cannot change a job's result, only its latency.
(VMs themselves are single-run and are never cached.)

Crash safety is generational: every cache entry carries the pool
generation it was built under.  When a job dies in a way that casts
doubt on shared state (a worker crash, an infrastructure error), the
supervisor calls :meth:`SessionPool.invalidate`, which bumps the
generation — every existing entry becomes stale and is *rebuilt on next
use*, never reused.  A crashed session is thus replaced by
construction, not trusted by optimism.

Entries are evicted LRU beyond ``max_entries`` so a long-lived daemon
serving many distinct programs/traces stays bounded.
"""

from __future__ import annotations

import hashlib
import pickle
import threading

from repro.serve.protocol import ServeError


def _digest(obj) -> str:
    return hashlib.sha256(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()[:24]


class SessionPool:
    """Content-addressed caches for programs and parsed traces, with a
    generation counter for crash-driven invalidation."""

    def __init__(self, max_entries: int = 64):
        self.max_entries = max(1, max_entries)
        self._lock = threading.Lock()
        self.generation = 0
        #: key -> (generation, value); insertion order is LRU order
        self._programs: dict[str, tuple[int, object]] = {}
        self._traces: dict[str, tuple[int, object]] = {}
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # cache plumbing

    def _get(self, cache: dict, key: str, build):
        with self._lock:
            generation = self.generation
            entry = cache.get(key)
            if entry is not None and entry[0] == generation:
                self.hits += 1
                # refresh LRU position
                cache[key] = cache.pop(key)
                return entry[1]
            stale = entry is not None
        value = build()
        with self._lock:
            if stale:
                self.rebuilds += 1
            else:
                self.misses += 1
            cache[key] = (generation, value)
            while len(cache) > self.max_entries:
                cache.pop(next(iter(cache)))
        return value

    def invalidate(self) -> None:
        """Bump the generation: every cached entry is now stale and will
        be rebuilt (not reused) on its next lookup."""
        with self._lock:
            self.generation += 1
            self.invalidations += 1

    # ------------------------------------------------------------------
    # the cached artifacts

    def program(self, job: dict):
        """The job's :class:`~repro.api.GuestProgram` — assembled once
        per distinct (workload, build-args) or source text."""
        if job.get("workload"):
            from repro.commands import workload_build

            spec, kwargs = workload_build(job)
            # key on the *resolved* build kwargs, so explicit defaults
            # and implicit defaults share one warm entry
            key = "w:" + _digest((spec.name, sorted(kwargs.items())))
            return self._get(
                self._programs, key, lambda: spec.build(kwargs)
            )
        source = job.get("source")
        if not source:
            raise ServeError("job names neither a workload nor source text")
        key = "s:" + _digest((source, job.get("main"), job.get("name")))
        return self._get(self._programs, key, lambda: _build_source_program(job))

    def trace(self, blob: bytes):
        """The parsed :class:`~repro.core.TraceLog` for sealed bytes.
        Replay cursors live in the controller, so one parsed trace is
        safe to share across concurrent jobs."""
        key = "t:" + hashlib.sha256(blob).hexdigest()[:24]
        return self._get(self._traces, key, lambda: _parse_trace(blob))

    def stats(self) -> dict:
        with self._lock:
            return {
                "generation": self.generation,
                "programs": len(self._programs),
                "traces": len(self._traces),
                "hits": self.hits,
                "misses": self.misses,
                "rebuilds": self.rebuilds,
                "invalidations": self.invalidations,
            }


def _build_source_program(job: dict):
    from repro.api import GuestProgram
    from repro.commands import JOB_DEFAULTS

    return GuestProgram.from_source(
        job["source"], main=job.get("main", JOB_DEFAULTS["main"]),
        name=job.get("name", "program"),
    )


def _parse_trace(blob: bytes):
    from repro.api import trace_from_bytes

    return trace_from_bytes(blob)
