"""The engine's optimization layers are invisible to the guest.

Superinstruction fusion and inline caches are pure host-side speed on
the one threaded dispatch loop, and so are the debug and memory hooks
that ride on it: every :class:`EngineConfig` combination must produce the
same cycles, events, heap digests, and trace bytes — and a trace recorded
under one engine must replay under any other.  These tests pin that
contract, plus the batched cycle-accounting semantics (budget before
deadline, exact trap cycle), the fusion legality invariants, and hook
attachment on already-bound handler tables.
"""

from __future__ import annotations

import pytest

from repro.api import GuestProgram, build_vm, record, replay
from repro.core import compare_runs
from repro.tools import ReplayProfiler
from repro.vm.compiler import (
    F_YP_GROUP,
    M_YIELDPOINT,
    YP_BACKEDGE,
    YP_PROLOGUE,
)
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import VMError
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank, server, synced_bank
from tests.conftest import jitter_knobs

CFG = VMConfig(semispace_words=70_000)
ALL_ENGINES = EngineConfig.all_combinations()


def _cfg(engine: EngineConfig, **kwargs) -> VMConfig:
    base = dict(semispace_words=70_000)
    base.update(kwargs)
    return VMConfig(engine=engine, **base)


def _run_bank(engine: EngineConfig, factory=racy_bank, seed: int = 11):
    vm = build_vm(factory(), _cfg(engine), **jitter_knobs(seed))
    return vm, vm.run("Main.main()V")


class TestToggleMatrix:
    """Every toggle combination, same guest behavior (the bank workloads)."""

    @pytest.fixture(scope="class")
    def baseline_runs(self):
        return {
            factory.__name__: _run_bank(EngineConfig.baseline(), factory)[1]
            for factory in (racy_bank, synced_bank)
        }

    @pytest.mark.parametrize(
        "engine", ALL_ENGINES, ids=[e.describe() for e in ALL_ENGINES]
    )
    @pytest.mark.parametrize("factory", [racy_bank, synced_bank])
    def test_behavior_identical(self, engine, factory, baseline_runs):
        _, result = _run_bank(engine, factory)
        want = baseline_runs[factory.__name__]
        assert result.cycles == want.cycles
        assert result.events == want.events
        assert result.heap_digest == want.heap_digest
        assert result.yieldpoints == want.yieldpoints
        assert result.behavior_key() == want.behavior_key()

    def test_layers_actually_engage(self):
        # server exercises invokevirtual (Queue.push/pop); bank does not
        vm, _ = _run_bank(EngineConfig(), factory=lambda: server(seed=11))
        stats = vm.engine_stats()
        assert stats["fused_ops_executed"] > 0
        assert stats["fused_sites"] > 0
        assert stats["ic_hits"] > 0
        # cycle bookkeeping: every cycle is a dispatch or a fused carry
        assert stats["dispatches"] + stats["fused_extra_cycles"] == stats["cycles"]

    def test_disabled_layers_stay_cold(self):
        vm, _ = _run_bank(EngineConfig.baseline())
        stats = vm.engine_stats()
        assert stats["fused_ops_executed"] == 0
        assert stats["fused_sites"] == 0
        assert stats["ic_hits"] == 0 and stats["ic_misses"] == 0
        assert stats["dispatches"] == stats["cycles"]


# ---------------------------------------------------------------------------
# batched cycle accounting


_SPIN = """
.class Main
.method static main ()V
loop:
    goto loop
.end
"""


class _CountingTimer:
    """FixedTimer that counts how many intervals the engine draws."""

    def __init__(self, interval: int):
        self.interval = interval
        self.draws = 0

    def next_interval(self) -> int:
        self.draws += 1
        return self.interval


class TestCycleBudget:
    """The budget trap fires at exactly ``max_cycles + 1`` — on every
    engine, and without consuming a timer interval for the final crossing
    (the budget is tested before the deadline in the shared check)."""

    @pytest.mark.parametrize(
        "engine", ALL_ENGINES, ids=[e.describe() for e in ALL_ENGINES]
    )
    def test_trap_cycle_pinned(self, engine):
        program = GuestProgram.from_source(_SPIN)
        timer = _CountingTimer(1000)
        vm = build_vm(program, _cfg(engine, max_cycles=4_999), timer=timer)
        with pytest.raises(VMError, match="cycle budget exceeded"):
            vm.run(program.main)
        assert vm.engine.cycles == 5_000
        # initial arm + one rearm per deadline actually crossed (1000..4000);
        # the crossing at 5000 trapped on the budget first: no draw for it.
        assert timer.draws == 5

    def test_deadline_on_budget_boundary(self):
        """A deadline landing exactly on the trap cycle: the budget is
        tested first, so the timer never rearms — identically on every
        engine (the off-by-one this check pins down)."""
        program = GuestProgram.from_source(_SPIN)
        observed = set()
        for engine in ALL_ENGINES:
            timer = _CountingTimer(501)
            vm = build_vm(program, _cfg(engine, max_cycles=500), timer=timer)
            with pytest.raises(VMError, match="cycle budget exceeded"):
                vm.run(program.main)
            observed.add((vm.engine.cycles, timer.draws))
        # one draw: the initial arm; the deadline at 501 lost to the budget
        assert observed == {(501, 1)}


# ---------------------------------------------------------------------------
# cross-engine record/replay (the determinism golden tests)


class TestCrossEngineReplay:
    @pytest.fixture(scope="class")
    def golden(self):
        """One recording per engine extreme, same knobs."""
        runs = {}
        for name, engine in (
            ("plain", EngineConfig.baseline()),
            ("optimized", EngineConfig()),
        ):
            runs[name] = record(
                racy_bank(), config=_cfg(engine), **jitter_knobs(23)
            )
        return runs

    def test_trace_bytes_identical(self, golden, tmp_path):
        paths = {}
        for name, session in golden.items():
            paths[name] = tmp_path / f"{name}.djv"
            session.trace.save(paths[name])
        assert paths["plain"].read_bytes() == paths["optimized"].read_bytes()

    def test_record_plain_replay_optimized(self, golden):
        replayed = replay(
            racy_bank(), golden["plain"].trace, config=_cfg(EngineConfig())
        )
        report = compare_runs(golden["plain"].result, replayed)
        assert report.faithful, report.detail
        assert replayed.heap_digest == golden["plain"].result.heap_digest

    def test_record_optimized_replay_plain(self, golden):
        replayed = replay(
            racy_bank(),
            golden["optimized"].trace,
            config=_cfg(EngineConfig.baseline()),
        )
        report = compare_runs(golden["optimized"].result, replayed)
        assert report.faithful, report.detail
        assert replayed.heap_digest == golden["optimized"].result.heap_digest

    def test_profile_attribution_unchanged_by_fusion(self, golden):
        """Per-method cycle attribution of a replayed profile is a guest
        property — the engine that recorded the trace must not leak in."""
        profiles = {
            name: ReplayProfiler(racy_bank(), session.trace, CFG).run()
            for name, session in golden.items()
        }
        by_method = {
            name: {q: m.cycles for q, m in p.methods.items()}
            for name, p in profiles.items()
        }
        assert by_method["plain"] == by_method["optimized"]
        assert by_method["plain"]  # non-trivial profile
        assert (
            profiles["plain"].total_cycles == profiles["optimized"].total_cycles
        )


# ---------------------------------------------------------------------------
# fusion legality invariants (structural, per compiled method)


class TestFusionInvariants:
    @pytest.fixture(scope="class")
    def loader(self):
        vm, _ = _run_bank(EngineConfig())
        return vm.loader

    def test_weights_cover_canonical_program(self, loader):
        for rm in loader.method_by_id:
            if rm.code is None:
                continue
            mc = rm.code
            assert sum(mc.xweights) == len(mc.ops), rm.qualname
            assert len(mc.xops) == len(mc.xbci_of) == len(mc.xweights)

    def test_every_yieldpoint_survives_fusion(self, loader):
        # A canonical yield point appears in the executable program either
        # as a plain M_YIELDPOINT or as the *terminal* of a record-aware
        # F_YP_GROUP — never absorbed into the interior of a group.
        for rm in loader.method_by_id:
            if rm.code is None:
                continue
            canonical = sum(1 for op in rm.code.ops if op[0] == M_YIELDPOINT)
            executable = sum(
                1
                for op in rm.code.xops
                if op[0] == M_YIELDPOINT or op[0] == F_YP_GROUP
            )
            assert canonical == executable, rm.qualname

    def test_fusion_occurred_somewhere(self, loader):
        assert any(
            rm.code is not None and rm.code.fused_groups > 0
            for rm in loader.method_by_id
        )

    def test_baseline_compiles_aliased(self):
        vm, _ = _run_bank(EngineConfig.baseline())
        for rm in vm.loader.method_by_id:
            if rm.code is None:
                continue
            assert rm.code.xops is rm.code.ops


# ---------------------------------------------------------------------------
# record-aware yield-point fusion (F_YP_GROUP)


class TestYieldPointFusion:
    @pytest.fixture(scope="class")
    def fused_vm(self):
        vm, _ = _run_bank(EngineConfig())
        return vm

    def test_groups_are_emitted_and_well_formed(self, fused_vm):
        seen = 0
        for rm in fused_vm.loader.method_by_id:
            if rm.code is None:
                continue
            for pc, (mop, a, b) in enumerate(rm.code.xops):
                if mop != F_YP_GROUP:
                    continue
                seen += 1
                assert a in (YP_PROLOGUE, YP_BACKEDGE)
                pre_fn, n_pre = b
                assert callable(pre_fn)
                assert 1 <= n_pre <= 3
                # the group charges exactly the micro-ops it replaced
                assert rm.code.xweights[pc] == n_pre + 1
        assert seen > 0  # backedge yield points do fuse somewhere

    def test_group_prefix_semantics_match_canonical(self, fused_vm):
        """Executing a group's pre_fn mutates stack/locals exactly as the
        canonical micro-ops it absorbed (checked against ops/xops)."""
        from repro.vm.compiler import M_ALOAD, M_ICONST, M_IINC, M_ILOAD
        from repro.vm import words as W

        checked = 0
        for rm in fused_vm.loader.method_by_id:
            if rm.code is None:
                continue
            mc = rm.code
            # reconstruct each group's canonical slice via the weights
            ci = 0
            for pc, (mop, a, b) in enumerate(mc.xops):
                width = mc.xweights[pc]
                if mop == F_YP_GROUP:
                    pre = mc.ops[ci:ci + width - 1]
                    pre_fn, n_pre = b
                    assert len(pre) == n_pre
                    stack, locals_ = [], list(range(mc.nlocals))
                    want_stack, want_locals = [], list(range(mc.nlocals))
                    pre_fn(stack, locals_)
                    for m, pa, pb in pre:
                        if m == M_ICONST:
                            want_stack.append(pa)
                        elif m == M_IINC:
                            want_locals[pa] = W.to_i32(want_locals[pa] + pb)
                        else:
                            assert m in (M_ILOAD, M_ALOAD)
                            want_stack.append(want_locals[pa])
                    assert stack == want_stack and locals_ == want_locals
                    checked += 1
                ci += width
        assert checked > 0

    def test_yp_groups_execute_with_exact_accounting(self):
        vm, _ = _run_bank(EngineConfig())
        engine = vm.engine
        assert engine._ypstat[0] > 0  # groups actually ran
        stats = engine.stats()
        assert stats["fused_ops_executed"] >= engine._ypstat[0]
        assert stats["dispatches"] == stats["cycles"] - stats["fused_extra_cycles"]
        # guest cycles are engine-invariant: the baseline sees the same
        vm_base, _ = _run_bank(EngineConfig.baseline())
        assert vm_base.engine.cycles == engine.cycles


# ---------------------------------------------------------------------------
# inline caches


class TestInlineCaches:
    def test_monomorphic_sites_hit(self):
        vm, _ = _run_bank(EngineConfig(), factory=lambda: server(seed=11))
        stats = vm.engine_stats()
        assert stats["ic_sites"] > 0
        assert stats["ic_misses"] >= 1  # first dispatch per site misses
        assert stats["ic_hits"] > stats["ic_misses"]
        assert stats["ic_invalidations"] > 0  # class loads flushed caches

    def test_disabled_caches_never_consulted(self):
        engine = EngineConfig(fusion=True, inline_caches=False)
        vm, _ = _run_bank(engine, factory=lambda: server(seed=11))
        stats = vm.engine_stats()
        assert stats["ic_hits"] == 0 and stats["ic_misses"] == 0
        # sites still exist (compiled in), they are just not used
        assert stats["ic_sites"] > 0


# ---------------------------------------------------------------------------
# hooks on the threaded loop


class _CountingCheck:
    """A debug controller that never pauses; counts its checks."""

    paused = False

    def __init__(self):
        self.calls = 0

    def check(self, thread, frame, pc) -> bool:
        self.calls += 1
        return False


class TestHookedTables:
    @pytest.mark.parametrize("hook", ["debug", "mem_hook"])
    @pytest.mark.parametrize("engine", [EngineConfig.baseline(), EngineConfig()],
                             ids=lambda e: e.describe())
    def test_hook_attached_mid_run_fires_then_stops(self, hook, engine):
        """Tables bound unhooked pick up a hook attached between two
        scheduling quanta, and drop it again once it is detached."""
        plain_vm, plain = _run_bank(engine)
        vm = build_vm(racy_bank(), _cfg(engine), **jitter_knobs(11))
        counter = _CountingCheck()
        if hook == "debug":
            observer = counter
        else:

            def observer(thread, frame, pc, mop, a, b, stack):
                counter.calls += 1

        safepoints = []

        def at_safepoint(engine_):
            safepoints.append(counter.calls)
            if len(safepoints) == 3:
                assert engine_._bound  # tables already bound, unhooked
                setattr(engine_, hook, observer)
            elif len(safepoints) == 6:
                setattr(engine_, hook, None)

        vm.engine.safepoint_hook = at_safepoint
        result = vm.run("Main.main()V")
        assert len(safepoints) > 6
        assert safepoints[2] == 0  # nothing fired before the attach
        assert safepoints[5] > 0  # fired while attached
        assert safepoints[-1] == safepoints[5]  # silent after the detach
        assert result.cycles == plain.cycles
        assert result.events == plain.events
        assert result.heap_digest == plain.heap_digest

    def test_paused_op_is_charged_once(self):
        """Pausing at every hit of a breakpoint and resuming ends exactly
        where an unhooked replay does: the op a pause stops before is
        charged when it runs, not also when it pauses."""
        from repro.debugger import ReplaySession

        recorded = record(racy_bank(), config=CFG, **jitter_knobs(5))
        plain = replay(racy_bank(), recorded.trace, config=CFG)
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        session.add_breakpoint("Teller.run()V", bci=4)
        stops = 0
        while session.resume() == "breakpoint":
            stops += 1
            if stops % 3 == 0:
                session.step()
        debugged = session.run_to_completion()
        assert stops > 3
        assert debugged.cycles == plain.cycles
        assert debugged.events == plain.events
        assert debugged.heap_digest == plain.heap_digest


# ---------------------------------------------------------------------------
# the CLI surface


class TestEngineStatsCLI:
    def test_engine_stats_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.jasm"
        path.write_text(
            """
.class Main
.method static main ()V
    iconst 0
    istore 0
loop:
    iload 0
    iconst 40
    if_icmpge done
    iinc 0 1
    goto loop
done:
    return
.end
"""
        )
        assert main(["engine-stats", str(path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "engine: threaded+fusion+ic" in out
        assert "dispatches:" in out and "ic_hits:" in out

    def test_engine_preset_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.jasm"
        path.write_text(".class Main\n.method static main ()V\n    return\n.end\n")
        assert main(["engine-stats", str(path), "--seed", "3", "--engine", "baseline"]) == 0
        assert "engine: threaded" in capsys.readouterr().out
