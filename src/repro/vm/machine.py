"""The ``VirtualMachine`` facade: one uniprocessor guest world.

A VM owns memory, loader, object model, monitors, scheduler, engine,
collector, natives, and the (optional) attached DejaVu controller.  Two
VMs share nothing — which is what lets the tool VM of the remote-
reflection debugger observe an application VM without perturbing it.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable

from repro.vm.classfile import ClassDef
from repro.vm.compiler import compile_method
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import VMError
from repro.vm.gc import Collector
from repro.vm.interp import Engine
from repro.vm.layout import ObjectModel
from repro.vm.loader import Loader, RuntimeMethod
from repro.vm.memory import (
    BOOT_DEJAVU,
    BOOT_DICTIONARY,
    BOOT_THREADS,
    Memory,
)
from repro.vm.monitors import MonitorTable
from repro.vm.native import NativeRegistry, install_core_natives
from repro.vm.observer import ExecutionObserver
from repro.vm.scheduler_types import RunResult  # re-exported convenience
from repro.vm.threads import Scheduler
from repro.vm.timerdev import FixedClock, FixedTimer, TimerSource, WallClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import DejaVu


@dataclass
class VMConfig:
    """Sizing and limits.  Defaults suit tests; benchmarks scale them up."""

    semispace_words: int = 400_000
    initial_stack_words: int = 512
    #: hard cap on one thread's activation stack; exceeding it is a
    #: deterministic StackOverflow trap (Java's StackOverflowError)
    max_stack_words: int = 65_536
    max_cycles: int = 200_000_000
    observe: bool = True
    #: which dispatch/fusion/inline-cache layers the engine enables; any
    #: combination produces bit-identical guest behavior (traces, clocks,
    #: heap digests) — only host-side speed differs
    engine: EngineConfig = field(default_factory=EngineConfig)


def with_baseline_engine(config: VMConfig | None) -> VMConfig:
    """A copy of *config* running the unfused engine (no fusion, no caches).

    Debug-hook clients (profiler, coverage, breakpoints, time travel) and
    the race detector's memory hook observe every *canonical* micro-op;
    the hooks run on the same threaded loop as any other run, but a fused
    superinstruction would hide the ops inside it.  Forcing the baseline
    here changes nothing the guest can observe — that is the EngineConfig
    determinism contract."""
    base = config or VMConfig()
    return replace(base, engine=EngineConfig.baseline())


class Environment:
    """Host environment behind the non-deterministic natives.

    ``seed=None`` draws from host entropy (true non-determinism);
    a fixed seed gives reproducible pseudo-non-determinism for tests.
    """

    def __init__(
        self,
        seed: int | None = 0,
        inputs: Iterable[int] | None = None,
        lines: Iterable[str] | None = None,
    ):
        self._rng = random.Random(seed)
        self.inputs: deque[int] = deque(inputs or [])
        self.lines: deque[str] = deque(lines or [])

    def random_int(self, bound: int) -> int:
        return self._rng.randrange(bound)

    def read_int(self) -> int:
        return self.inputs.popleft() if self.inputs else -1

    def read_line(self) -> str:
        return self.lines.popleft() if self.lines else ""


_DEFAULT = object()


class VirtualMachine:
    def __init__(
        self,
        config: VMConfig | None = None,
        *,
        timer: TimerSource | None | object = _DEFAULT,
        clock: WallClock | None = None,
        env: Environment | None = None,
    ):
        self.config = config or VMConfig()
        self.timer: TimerSource | None
        if timer is _DEFAULT:
            self.timer = FixedTimer(1000)
        else:
            self.timer = timer  # type: ignore[assignment]
        self.clock: WallClock = clock or FixedClock()
        self.env = env or Environment(seed=0)
        self.observer = ExecutionObserver(self.config.observe)

        self.memory = Memory(self.config.semispace_words)
        engine_config = self.config.engine
        self.loader = Loader(
            compile_fn=lambda loader, rc, rm: compile_method(
                loader, rc, rm, engine_config
            )
        )
        self.om = ObjectModel(self.memory, self.loader)
        self.loader.om = self.om
        self.monitors = MonitorTable(self.om)
        self.scheduler = Scheduler(self)
        self.engine = Engine(self)
        self.collector = Collector(self)
        self.om.gc_hook = self.collector.collect
        self.natives = NativeRegistry()
        install_core_natives(self)

        self.output: list[str] = []
        self.trap_reports: list[tuple[int, str, str]] = []
        self.deadlocked: tuple[int, ...] = ()
        self.dejavu: "DejaVu | None" = None
        #: extra GC root visitors (e.g. a ToolInterpreter's frames)
        self.extra_root_visitors: list[Callable[[Callable[[int], int]], None]] = []
        self._ran = False

        self.loader.bootstrap()

    # ------------------------------------------------------------------
    # program setup

    def declare(self, classdefs: Iterable[ClassDef]) -> None:
        self.loader.declare_all(list(classdefs))

    def load(self, name: str) -> None:
        self.loader.load(name)

    def register_native(self, qualname: str, fn: Callable, *, nondet: bool = False) -> None:
        self.natives.register(qualname, fn, nondet=nondet)

    # ------------------------------------------------------------------
    # execution

    def start(self, main: str = "Main.main()V") -> None:
        """Prepare execution: load the main class, spawn the main thread.

        Debugger sessions call :meth:`start`, drive ``engine.run()`` in
        pieces, then :meth:`finish`; plain runs use :meth:`run`.
        """
        if self._ran:
            raise VMError("a VirtualMachine instance runs at most once")
        self._ran = True
        from repro.vm.refmaps import split_method_ref

        cls, _ = split_method_ref(main)
        self.load(cls)
        entry = self.loader.resolve_static_method(main)
        if entry.mdef.signature.spell() != "()V":
            raise VMError(f"main must be ()V, got {entry.qualname}")
        if self.dejavu is not None:
            self.dejavu.on_run_start()
        guest = self.om.new_object(self.loader.classes["Thread"].layout)
        self.scheduler.spawn(guest, entry, name="main")

    def finish(self) -> RunResult:
        """End-of-run bookkeeping (DejaVu END record / verification)."""
        if self.dejavu is not None:
            self.dejavu.on_run_end()
        return self.result()

    @property
    def completed(self) -> bool:
        """True once every guest thread has terminated (or deadlocked)."""
        threads = self.scheduler.threads
        if not threads:
            return False
        return bool(self.deadlocked) or all(not t.alive for t in threads)

    def run(self, main: str = "Main.main()V") -> RunResult:
        """Load the main class, spawn the main thread, run to completion."""
        self.start(main)
        self.engine.run()
        return self.finish()

    def result(self) -> RunResult:
        return RunResult(
            output=list(self.output),
            cycles=self.engine.cycles,
            switches=self.scheduler.switch_count,
            gc_count=self.collector.collections,
            traps=list(self.trap_reports),
            yieldpoints={t.tid: t.yieldpoints for t in self.scheduler.threads},
            heap_digest=self.heap_digest(),
            events=list(self.observer.events),
            deadlocked=self.deadlocked,
        )

    def engine_stats(self) -> dict:
        """Host-side dispatch statistics (never part of RunResult: they
        describe how fast the host executed, not what the guest did)."""
        stats = self.engine.stats()
        stats["fused_sites"] = sum(
            rm.code.fused_groups
            for rm in self.loader.method_by_id
            if rm.code is not None
        )
        stats["ic_sites"] = len(self.loader.ic_sites)
        stats["ic_invalidations"] = self.loader.ic_invalidations
        return stats

    # ------------------------------------------------------------------
    # non-determinism funnels

    def read_clock(self) -> int:
        """Every wall-clock read in the VM goes through here (the paper's
        'reproducing wall-clock values' funnel)."""
        if self.dejavu is not None:
            return self.dejavu.clock_read()
        value = self.clock.read()
        self.observer.emit("clock", value)
        return value

    def clock_advance_hint(self, millis: int) -> None:
        """The scheduler is idle until *millis*; let the clock skip ahead.
        During replay this is a no-op — replayed clock values already
        embody the skip."""
        if self.dejavu is not None and self.dejavu.replaying:
            return
        self.clock.advance_to(millis)

    def call_native(self, thread, rm: RuntimeMethod, args: list[int]):
        from repro.vm.native import NativeCall

        nd = self.natives.lookup(rm.qualname)
        if self.dejavu is not None and nd.nondet:
            return self.dejavu.native_call(thread, rm, nd, args)
        ctx = NativeCall(self, thread, rm, args)
        try:
            return nd.fn(ctx)
        finally:
            ctx.release()

    # ------------------------------------------------------------------
    # services

    def write_output(self, text: str) -> None:
        self.output.append(text)
        self.observer.emit("output", text)

    def collect(self) -> None:
        self.collector.collect()

    def is_instance(self, addr: int, rc) -> bool:
        layout = self.om.layout_of(addr)
        if layout.is_array:
            return rc.name == "Object"
        walk = self.loader.rc_by_id.get(layout.class_id)
        while walk is not None:
            if walk is rc:
                return True
            walk = walk.super_rc
        return False

    def visit_all_roots(self, fwd: Callable[[int], int]) -> None:
        """Enumerate every root, in a fixed (deterministic) order."""
        mem = self.memory
        for slot in (BOOT_DICTIONARY, BOOT_THREADS, BOOT_DEJAVU):
            v = mem.boot_read(slot)
            if v:
                mem.boot_write(slot, fwd(v))
        self.loader.visit_roots(fwd)
        self.scheduler.visit_roots(fwd)
        self.monitors.visit_roots(fwd)
        if self.dejavu is not None:
            self.dejavu.visit_roots(fwd)
        for visitor in self.extra_root_visitors:
            visitor(fwd)

    def heap_digest(self) -> str:
        """Digest of the active semispace — a strong equality witness for
        'identical program state' between record and replay."""
        mem = self.memory
        lo = mem.base[mem.active]
        h = hashlib.blake2b(digest_size=16)
        h.update(mem.bump.to_bytes(8, "little", signed=False))
        for w in mem.words[lo : mem.bump]:
            h.update(w.to_bytes(9, "little", signed=True))
        return h.hexdigest()

    @property
    def output_text(self) -> str:
        return "".join(self.output)
