"""The execution engine: micro-op dispatch with safe-point discipline.

One engine drives all green threads of a VM.  The inner loop executes the
current thread's compiled code until something requests a switch (yield
point preemption, blocking, termination), then returns to the scheduler.

There is one dispatch loop, ``Engine._execute`` — threaded code: each
compiled method gets a handler table (one pre-bound closure per
executable op, operands baked in), so the per-op work is one indexed load
and one call.  The loop executes the *executable* program
``MachineCode.xops``, which with ``fusion`` enabled contains
superinstructions; each charges exactly as many cycles as the micro-ops it
replaces (see DESIGN.md, "Dispatch architecture").

Host-side observers ride on the same loop.  With a debug controller or a
memory hook attached, ``Engine._bind`` builds *hooked* tables whose
entries call the hook before the handler they wrap; an unhooked run's
tables hold the bare handlers and pay nothing for the hooks.

Cycle accounting is batched: instead of comparing against the timer
deadline and the cycle budget on every op, the loop keeps a single
``limit`` (min of both) and takes a slow path only when the local cycle
counter reaches it.  The slow path replays every deadline crossing the
per-op scheme would have seen — rearming from the *old* deadline — so the
``preemptive_hardware_bit`` is raised at the exact same cycles, and the
budget is tested first, so the budget trap consumes no timer interval and
leaves ``cycles == max_cycles + 1`` (the seed engine could run one op past
an armed deadline reset before noticing the budget).

Safe-point discipline (what makes the type-accurate GC sound):

* a collection can only start inside an allocating micro-op or native;
* every allocating handler stores the live ``pc`` into the frame *before*
  allocating, so the reference maps consulted by the GC describe exactly
  the operand stack the frame holds at that moment;
* handlers never keep a popped reference in a Python temporary across an
  allocation (natives get their reference arguments pinned as temp roots);
* fused handlers never allocate, so a superinstruction is atomic with
  respect to GC and scheduling.

The timer device is folded into the loop: each micro-op is one cycle, and
when the cycle counter passes the armed deadline the
``preemptive_hardware_bit`` is set — observed at the next yield point,
exactly Jalapeño's quasi-preemption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.vm import words
from repro.vm.compiler import (
    F_AL_GETFIELD,
    F_ALC_PUTFIELD,
    F_ALL_ALOAD,
    F_IINC_BR,
    F_ALL_PUTFIELD,
    F_BIN_STORE,
    F_C_BIN,
    F_CONST_STORE,
    F_DUP_PUTFIELD,
    F_L_BR,
    F_LC_BIN,
    F_LC_CMPBR,
    F_LL_BIN,
    F_LL_CMPBR,
    F_MOVE,
    F_PUSH2,
    F_PUSH_LC,
    F_SC_CMPBR,
    F_SL_CMPBR,
    F_YP_GROUP,
    M_AALOAD,
    M_AASTORE,
    M_ACONST_NULL,
    M_ALOAD,
    M_ANEWARRAY,
    M_ARETURN,
    M_ARRAYLENGTH,
    M_ASTORE,
    M_CHECKCAST,
    M_DUP,
    M_GETFIELD,
    M_GETSTATIC,
    M_GOTO,
    M_IADD,
    M_IALOAD,
    M_IAND,
    M_IASTORE,
    M_ICONST,
    M_IDIV,
    M_IFEQ,
    M_IFGE,
    M_IFGT,
    M_IFLE,
    M_IFLT,
    M_IFNE,
    M_IFNONNULL,
    M_IFNULL,
    M_IF_ACMPEQ,
    M_IF_ACMPNE,
    M_IF_ICMPEQ,
    M_IF_ICMPGE,
    M_IF_ICMPGT,
    M_IF_ICMPLE,
    M_IF_ICMPLT,
    M_IF_ICMPNE,
    M_IINC,
    M_ILOAD,
    M_IMUL,
    M_INEG,
    M_INSTANCEOF,
    M_INVOKESTATIC,
    M_INVOKEVIRTUAL,
    M_IOR,
    M_IREM,
    M_IRETURN,
    M_ISHL,
    M_ISHR,
    M_ISTORE,
    M_ISUB,
    M_IUSHR,
    M_IXOR,
    M_LDC,
    M_MONITORENTER,
    M_MONITOREXIT,
    M_NEW,
    M_NEWARRAY,
    M_NOP,
    M_POP,
    M_PUTFIELD,
    M_PUTSTATIC,
    M_RETURN,
    M_SWAP,
    M_YIELDPOINT,
    idiv_trapping,
    irem_trapping,
)
from repro.vm import corelib
from repro.vm.errors import VMError, VMTrap
from repro.vm.native import BLOCK, NativeResult
from repro.vm.threads import EAGER_STACK_HEADROOM, Frame, GreenThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import VirtualMachine

_NEVER = 1 << 62

#: canonical micro-ops that touch guest shared memory — the set the
#: engine's ``mem_hook`` observes (repro.explore race detection)
_MEM_OPS = frozenset(
    (
        M_GETFIELD,
        M_PUTFIELD,
        M_GETSTATIC,
        M_PUTSTATIC,
        M_IALOAD,
        M_IASTORE,
        M_AALOAD,
        M_AASTORE,
    )
)

# Sentinel returns from threaded handlers (real pcs are >= 0).  A handler
# that returns one of these has left the fast path: the loop folds pending
# fused-cycle carries, commits the cycle counter, and acts.
_PARK = -1  # the current thread must stop running (handler stored frame.pc)
_RELOAD = -2  # the frame stack changed; rebind loop state from the top frame
_CALL = -3  # an invoke resolved its target into engine._call
_PAUSE = -4  # a debug hook stopped the thread before this op
_YIELD = -5  # a debug-hooked yield point: run the inline yield point


# -- threaded-code handler factories -----------------------------------------
#
# One factory per micro-op.  ``Engine._bind`` calls ``factory(eng, a, b,
# pc, pc + 1)`` for every executable op of a method and stores the
# resulting closure in ``MachineCode.entries``; operands, resolved
# call targets, and hot bound methods are baked into the closure's cells,
# so executing an op is ``entries[pc](stack, locals_)`` and nothing else.
# Handlers return the next pc (or a negative sentinel).
#
# Baking rules: anything the GC can move (statics/constants arrays) or
# the loader can rewrite is read through its holder at call time, never
# captured by address.  Allocating handlers store ``pc`` into the frame
# before allocating (safe-point discipline).


def _f_nop(eng, a, b, pc, np):
    def h(stack, locals_):
        return np

    return h


def _f_iconst(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(a)
        return np

    return h


def _f_iload(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(locals_[a])
        return np

    return h


def _f_istore(eng, a, b, pc, np):
    def h(stack, locals_):
        locals_[a] = stack.pop()
        return np

    return h


def _f_iinc(eng, a, b, pc, np):
    to_i32 = words.to_i32

    def h(stack, locals_):
        locals_[a] = to_i32(locals_[a] + b)
        return np

    return h


def _f_ldc(eng, a, b, pc, np):
    array_get = eng.vm.om.array_get

    def h(stack, locals_):
        stack.append(array_get(a.constants_addr, b))
        return np

    return h


def _f_aconst_null(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(0)
        return np

    return h


def _f_dup(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(stack[-1])
        return np

    return h


def _f_pop(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.pop()
        return np

    return h


def _f_swap(eng, a, b, pc, np):
    def h(stack, locals_):
        stack[-1], stack[-2] = stack[-2], stack[-1]
        return np

    return h


def _f_goto(eng, a, b, pc, np):
    def h(stack, locals_):
        return a

    return h


def _f_ifeq(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() == 0 else np

    return h


def _f_ifne(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() != 0 else np

    return h


def _f_iflt(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() < 0 else np

    return h


def _f_ifle(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() <= 0 else np

    return h


def _f_ifgt(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() > 0 else np

    return h


def _f_ifge(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() >= 0 else np

    return h


def _f_if_icmpeq(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() == y else np

    return h


def _f_if_icmpne(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() != y else np

    return h


def _f_if_icmplt(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() < y else np

    return h


def _f_if_icmple(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() <= y else np

    return h


def _f_if_icmpgt(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() > y else np

    return h


def _f_if_icmpge(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() >= y else np

    return h


def _mk_bin(fn):
    def factory(eng, a, b, pc, np):
        def h(stack, locals_):
            y = stack.pop()
            stack[-1] = fn(stack[-1], y)
            return np

        return h

    return factory


def _f_ineg(eng, a, b, pc, np):
    ineg = words.ineg

    def h(stack, locals_):
        stack[-1] = ineg(stack[-1])
        return np

    return h


def _f_getfield(eng, a, b, pc, np):
    get_field = eng.vm.om.get_field

    def h(stack, locals_):
        stack[-1] = get_field(stack[-1], a)
        return np

    return h


def _f_putfield(eng, a, b, pc, np):
    put_field = eng.vm.om.put_field

    def h(stack, locals_):
        value = stack.pop()
        put_field(stack.pop(), a, value)
        return np

    return h


def _f_getstatic(eng, a, b, pc, np):
    get_field = eng.vm.om.get_field

    def h(stack, locals_):
        stack.append(get_field(a.statics_addr, b))
        return np

    return h


def _f_putstatic(eng, a, b, pc, np):
    put_field = eng.vm.om.put_field

    def h(stack, locals_):
        put_field(a.statics_addr, b, stack.pop())
        return np

    return h


def _f_iaload(eng, a, b, pc, np):
    array_get = eng.vm.om.array_get

    def h(stack, locals_):
        idx = stack.pop()
        stack[-1] = array_get(stack[-1], idx)
        return np

    return h


def _f_iastore(eng, a, b, pc, np):
    array_put = eng.vm.om.array_put

    def h(stack, locals_):
        value = stack.pop()
        idx = stack.pop()
        array_put(stack.pop(), idx, value)
        return np

    return h


def _f_arraylength(eng, a, b, pc, np):
    array_length = eng.vm.om.array_length

    def h(stack, locals_):
        stack[-1] = array_length(stack[-1])
        return np

    return h


def _f_new(eng, a, b, pc, np):
    om = eng.vm.om
    layout = a.layout

    def h(stack, locals_):
        eng._frame.pc = pc  # safe point: allocation may collect
        stack.append(om.new_object(layout))
        return np

    return h


def _f_newarray(eng, a, b, pc, np):
    om = eng.vm.om

    def h(stack, locals_):
        length = stack.pop()
        eng._frame.pc = pc
        stack.append(om.new_array("[I", length))
        return np

    return h


def _f_anewarray(eng, a, b, pc, np):
    om = eng.vm.om

    def h(stack, locals_):
        length = stack.pop()
        eng._frame.pc = pc
        stack.append(om.new_array(a, length))
        return np

    return h


def _f_instanceof(eng, a, b, pc, np):
    is_instance = eng.vm.is_instance

    def h(stack, locals_):
        ref = stack.pop()
        stack.append(1 if ref and is_instance(ref, a) else 0)
        return np

    return h


def _f_checkcast(eng, a, b, pc, np):
    vm = eng.vm

    def h(stack, locals_):
        ref = stack[-1]
        if ref and not vm.is_instance(ref, a):
            raise VMTrap(
                "ClassCast",
                f"{vm.om.layout_of(ref).name} is not a {a.name}",
            )
        return np

    return h


def _f_invokestatic(eng, a, b, pc, np):
    rm = a
    nargs = b
    if nargs:

        def h(stack, locals_):
            args = stack[-nargs:]
            del stack[-nargs:]
            eng._call = (rm, args)
            return _CALL

    else:

        def h(stack, locals_):
            eng._call = (rm, [])
            return _CALL

    return h


def _f_invokevirtual(eng, a, b, pc, np):
    key = a
    site = b
    nargs = site.nargs
    ridx = site.recv_index
    loader = eng.vm.loader
    mem_read = eng.vm.om.memory.read
    if eng.cfg.inline_caches:

        def h(stack, locals_):
            receiver = stack[ridx]
            if receiver == 0:
                raise VMTrap("NullPointer", f"invokevirtual {key} on null")
            cid = mem_read(receiver)  # header word 0 = class id
            if cid == site.cid:
                rm = site.target
                eng.ic_hits += 1
            else:
                rm = loader.vtable_lookup(cid, key)
                site.cid = cid
                site.target = rm
                eng.ic_misses += 1
            args = stack[-nargs:]
            del stack[-nargs:]
            eng._call = (rm, args)
            return _CALL

    else:

        def h(stack, locals_):
            receiver = stack[ridx]
            if receiver == 0:
                raise VMTrap("NullPointer", f"invokevirtual {key} on null")
            args = stack[-nargs:]
            del stack[-nargs:]
            eng._call = (loader.vtable_lookup(mem_read(receiver), key), args)
            return _CALL

    return h


def _f_return(eng, a, b, pc, np):
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        thread = eng._thread
        scheduler.pop_frame(thread)
        if not thread.frames:
            scheduler.on_terminate(thread)
            return _PARK
        return _RELOAD

    return h


def _f_ireturn(eng, a, b, pc, np):
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        thread = eng._thread
        value = stack.pop()
        scheduler.pop_frame(thread)
        if not thread.frames:
            scheduler.on_terminate(thread)
            return _PARK
        thread.frames[-1].stack.append(value)
        return _RELOAD

    return h


def _f_monitorenter(eng, a, b, pc, np):
    monitors = eng.vm.monitors
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        ref = stack.pop()
        if ref == 0:
            raise VMTrap("NullPointer", "monitorenter on null")
        thread = eng._thread
        if not monitors.try_enter(ref, thread):
            # contended: park on the entry queue; the lock is handed to us
            # by a future monitorexit, and we resume *after* this
            # instruction already owning the lock.
            eng._frame.pc = np
            monitors.enqueue_contender(ref, thread)
            scheduler.block_current(corelib.THREAD_BLOCKED)
            return _PARK
        return np

    return h


def _f_monitorexit(eng, a, b, pc, np):
    monitors = eng.vm.monitors
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        ref = stack.pop()
        if ref == 0:
            raise VMTrap("NullPointer", "monitorexit on null")
        heir = monitors.exit(ref, eng._thread)
        if heir is not None:
            scheduler.make_ready(heir)
        return np

    return h


# -- fused (superinstruction) handlers.  Each bumps the engine's fused
# execution counter — pairs in _fstat[0], triples in _fstat[1] — which the
# loop folds into the cycle counter at the next accounting point, charging
# exactly the cycles of the micro-ops the group replaced.


def _f_push2(eng, a, b, pc, np):
    s1, s2 = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        stack.append(locals_[s1])
        stack.append(locals_[s2])
        return np

    return h


def _f_push_lc(eng, a, b, pc, np):
    slot, const = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        stack.append(locals_[slot])
        stack.append(const)
        return np

    return h


def _f_const_store(eng, a, b, pc, np):
    const, slot = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        locals_[slot] = const
        return np

    return h


def _f_move(eng, a, b, pc, np):
    src, dst = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        locals_[dst] = locals_[src]
        return np

    return h


def _f_ll_bin(eng, a, b, pc, np):
    s1, s2 = a
    fn = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        stack.append(fn(locals_[s1], locals_[s2]))
        return np

    return h


def _f_lc_bin(eng, a, b, pc, np):
    slot, const = a
    fn = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        stack.append(fn(locals_[slot], const))
        return np

    return h


def _f_c_bin(eng, a, b, pc, np):
    fn = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        stack[-1] = fn(stack[-1], a)
        return np

    return h


def _f_bin_store(eng, a, b, pc, np):
    fn = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        y = stack.pop()
        locals_[a] = fn(stack.pop(), y)
        return np

    return h


def _f_ll_cmpbr(eng, a, b, pc, np):
    s1, s2 = a
    cmp, target = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        return target if cmp(locals_[s1], locals_[s2]) else np

    return h


def _f_lc_cmpbr(eng, a, b, pc, np):
    slot, const = a
    cmp, target = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        return target if cmp(locals_[slot], const) else np

    return h


def _f_sl_cmpbr(eng, a, b, pc, np):
    cmp, target = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        return target if cmp(stack.pop(), locals_[a]) else np

    return h


def _f_sc_cmpbr(eng, a, b, pc, np):
    cmp, target = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        return target if cmp(stack.pop(), a) else np

    return h


def _f_l_br(eng, a, b, pc, np):
    test, target = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        return target if test(locals_[a]) else np

    return h


def _f_al_getfield(eng, a, b, pc, np):
    slot, offset = a
    get_field = eng.vm.om.get_field
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        stack.append(get_field(locals_[slot], offset))
        return np

    return h


def _f_dup_putfield(eng, a, b, pc, np):
    put_field = eng.vm.om.put_field
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        x = stack.pop()
        put_field(x, a, x)
        return np

    return h


def _f_all_putfield(eng, a, b, pc, np):
    objslot, valslot = a
    put_field = eng.vm.om.put_field
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        put_field(locals_[objslot], b, locals_[valslot])
        return np

    return h


def _f_alc_putfield(eng, a, b, pc, np):
    objslot, const = a
    put_field = eng.vm.om.put_field
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        put_field(locals_[objslot], b, const)
        return np

    return h


def _f_all_aload(eng, a, b, pc, np):
    arrslot, idxslot = a
    array_get = eng.vm.om.array_get
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        stack.append(array_get(locals_[arrslot], locals_[idxslot]))
        return np

    return h


def _f_iinc_br(eng, a, b, pc, np):
    slot, delta = a
    fstat = eng._fstat
    to_i32 = words.to_i32

    def h(stack, locals_):
        fstat[0] += 1
        locals_[slot] = to_i32(locals_[slot] + delta)
        return b

    return h


_FACTORIES = {
    M_NOP: _f_nop,
    M_ICONST: _f_iconst,
    M_LDC: _f_ldc,
    M_ACONST_NULL: _f_aconst_null,
    M_DUP: _f_dup,
    M_POP: _f_pop,
    M_SWAP: _f_swap,
    M_ILOAD: _f_iload,
    M_ALOAD: _f_iload,
    M_ISTORE: _f_istore,
    M_ASTORE: _f_istore,
    M_IINC: _f_iinc,
    M_IADD: _mk_bin(words.iadd),
    M_ISUB: _mk_bin(words.isub),
    M_IMUL: _mk_bin(words.imul),
    M_IDIV: _mk_bin(idiv_trapping),
    M_IREM: _mk_bin(irem_trapping),
    M_INEG: _f_ineg,
    M_ISHL: _mk_bin(words.ishl),
    M_ISHR: _mk_bin(words.ishr),
    M_IUSHR: _mk_bin(words.iushr),
    M_IAND: _mk_bin(words.iand),
    M_IOR: _mk_bin(words.ior),
    M_IXOR: _mk_bin(words.ixor),
    M_GOTO: _f_goto,
    M_IFEQ: _f_ifeq,
    M_IFNE: _f_ifne,
    M_IFLT: _f_iflt,
    M_IFLE: _f_ifle,
    M_IFGT: _f_ifgt,
    M_IFGE: _f_ifge,
    M_IF_ICMPEQ: _f_if_icmpeq,
    M_IF_ICMPNE: _f_if_icmpne,
    M_IF_ICMPLT: _f_if_icmplt,
    M_IF_ICMPLE: _f_if_icmple,
    M_IF_ICMPGT: _f_if_icmpgt,
    M_IF_ICMPGE: _f_if_icmpge,
    M_IF_ACMPEQ: _f_if_icmpeq,
    M_IF_ACMPNE: _f_if_icmpne,
    M_IFNULL: _f_ifeq,
    M_IFNONNULL: _f_ifne,
    M_NEW: _f_new,
    M_GETFIELD: _f_getfield,
    M_PUTFIELD: _f_putfield,
    M_GETSTATIC: _f_getstatic,
    M_PUTSTATIC: _f_putstatic,
    M_NEWARRAY: _f_newarray,
    M_ANEWARRAY: _f_anewarray,
    M_IALOAD: _f_iaload,
    M_IASTORE: _f_iastore,
    M_AALOAD: _f_iaload,
    M_AASTORE: _f_iastore,
    M_ARRAYLENGTH: _f_arraylength,
    M_INSTANCEOF: _f_instanceof,
    M_CHECKCAST: _f_checkcast,
    M_INVOKESTATIC: _f_invokestatic,
    M_INVOKEVIRTUAL: _f_invokevirtual,
    M_RETURN: _f_return,
    M_IRETURN: _f_ireturn,
    M_ARETURN: _f_ireturn,
    M_MONITORENTER: _f_monitorenter,
    M_MONITOREXIT: _f_monitorexit,
    F_PUSH2: _f_push2,
    F_PUSH_LC: _f_push_lc,
    F_CONST_STORE: _f_const_store,
    F_MOVE: _f_move,
    F_LL_BIN: _f_ll_bin,
    F_LC_BIN: _f_lc_bin,
    F_C_BIN: _f_c_bin,
    F_BIN_STORE: _f_bin_store,
    F_LL_CMPBR: _f_ll_cmpbr,
    F_LC_CMPBR: _f_lc_cmpbr,
    F_SL_CMPBR: _f_sl_cmpbr,
    F_SC_CMPBR: _f_sc_cmpbr,
    F_L_BR: _f_l_br,
    F_AL_GETFIELD: _f_al_getfield,
    F_DUP_PUTFIELD: _f_dup_putfield,
    F_ALL_PUTFIELD: _f_all_putfield,
    F_ALC_PUTFIELD: _f_alc_putfield,
    F_ALL_ALOAD: _f_all_aload,
    F_IINC_BR: _f_iinc_br,
}


# -- hook wrappers.  ``Engine._bind`` wraps the entries an attached hook
# observes; the wrapper calls the hook, then the handler it wraps.


def _with_mem_hook(eng, inner, pc, mop, a, b):
    """Observe a memory micro-op before it runs, its operands still on
    the stack."""
    mem_hook = eng.mem_hook

    def h(stack, locals_):
        mem_hook(eng._thread, eng._frame, pc, mop, a, b, stack)
        return inner(stack, locals_)

    return h


def _with_debug(eng, inner, pc):
    """Consult the debug controller before the op runs.  A yield point
    has no handler (``inner`` is None): the loop runs it inline."""
    check = eng.debug.check
    if inner is None:

        def h(stack, locals_):
            return _PAUSE if check(eng._thread, eng._frame, pc) else _YIELD

    else:

        def h(stack, locals_):
            if check(eng._thread, eng._frame, pc):
                return _PAUSE
            return inner(stack, locals_)

    return h


class Engine:
    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        self.cfg = vm.config.engine
        self.cycles = 0
        self.hw_bit = False  # preemptive_hardware_bit (Figure 2)
        self.timer_enabled = True
        self.switch_pending = False
        self._deadline = _NEVER
        self._timer_armed = False
        self._debug = None
        self._mem_hook = None
        #: code objects whose handler tables are bound (see _unbind)
        self._bound: list = []
        #: (thread, shadow index, word) a debug pause overwrote
        self._unsync = None
        #: optional safe-point hook (repro.core.checkpoint): called with
        #: this engine whenever the run loop finds no current thread —
        #: every frame pc and shadow bci is committed and no guest state
        #: is in flight, so the complete machine state is snapshottable.
        #: Fires *before* the scheduler picks the next thread, so a
        #: restored run re-executes schedule() (and its clock reads)
        #: exactly as the original did.  Host-side only.
        self.safepoint_hook = None
        # -- engine stats (host-side observability; never guest-visible).
        #: monotonic fused execution counters: [pairs, triples].  The
        #: loop derives pending cycle carries from deltas of these, so a
        #: fused handler costs exactly one counter bump.
        self._fstat = [0, 0]
        #: fused yield-point groups: [executions, extra cycles charged].
        #: Tracked apart from _fstat because YP groups charge their extra
        #: cycles inline (before the yield point observes the hw bit),
        #: never through the loop's carry-fold.
        self._ypstat = [0, 0]
        self.ic_hits = 0
        self.ic_misses = 0
        # threaded-dispatch plumbing: the current thread/frame (for heavy
        # handlers) and the in-flight resolved call (rm, args).
        self._thread: GreenThread | None = None
        self._frame: Frame | None = None
        self._call = None

    # ------------------------------------------------------------------
    # hooks

    @property
    def debug(self):
        """Optional debug controller (breakpoints, stepping, and the
        profiler/coverage/time-travel tools): ``check(thread, frame, pc)``
        runs before every executable op, and a True answer pauses the
        thread before that op.  Host-side only — attaching one perturbs
        nothing the guest can observe.  It sees one check per executable
        op, so clients wanting every canonical micro-op run an unfused
        engine (``with_baseline_engine``)."""
        return self._debug

    @debug.setter
    def debug(self, controller) -> None:
        self._debug = controller
        self._unbind()

    @property
    def mem_hook(self):
        """Optional shared-memory observation hook (repro.explore race
        detection): called before every canonical memory micro-op runs,
        with the operand stack still holding the op's inputs.  Host-side
        and read-only.  A fused superinstruction hides the accesses inside
        it, so clients run an unfused engine (``with_baseline_engine``)."""
        return self._mem_hook

    @mem_hook.setter
    def mem_hook(self, hook) -> None:
        self._mem_hook = hook
        self._unbind()

    # ------------------------------------------------------------------
    # stats

    @property
    def fused_ops_executed(self) -> int:
        """Superinstruction executions (each replaced 2-4 micro-ops)."""
        return self._fstat[0] + self._fstat[1] + self._ypstat[0]

    @property
    def fused_extra_cycles(self) -> int:
        """Cycles charged by fused handlers beyond their one dispatch."""
        return self._fstat[0] + 2 * self._fstat[1] + self._ypstat[1]

    @property
    def dispatches(self) -> int:
        """Host dispatch count: cycles minus the fused-away dispatches."""
        return self.cycles - self.fused_extra_cycles

    def stats(self) -> dict:
        return {
            "config": self.cfg.describe(),
            "cycles": self.cycles,
            "dispatches": self.dispatches,
            "fused_ops_executed": self.fused_ops_executed,
            "fused_extra_cycles": self.fused_extra_cycles,
            "ic_hits": self.ic_hits,
            "ic_misses": self.ic_misses,
        }

    # ------------------------------------------------------------------

    def arm_timer(self) -> None:
        timer = self.vm.timer
        if self.timer_enabled and timer is not None:
            self._deadline = self.cycles + timer.next_interval()
        else:
            self._deadline = _NEVER

    def _check_limit(self, cycles: int) -> int:
        """Batched deadline/budget accounting; returns the next limit.

        Equivalent to the per-op checks of the seed engine, with two
        deliberate refinements:

        * the budget is tested *first*, so the budget trap cannot consume
          a timer interval or raise the hw bit (the seed's off-by-one
          window), and the trap cycle is pinned at ``max_cycles + 1``;
        * the deadline rearms relative to the *old* deadline, so every
          crossing the per-op scheme would have seen fires at its exact
          cycle even when a fused op advanced the counter by 2-3 at once.

        It does not commit ``self.cycles``; the loop does that wherever
        code outside it can read the clock.
        """
        vm = self.vm
        max_cycles = vm.config.max_cycles
        if cycles > max_cycles:
            self.cycles = max_cycles + 1
            raise VMError(f"cycle budget exceeded ({max_cycles})")
        d = self._deadline
        if d <= cycles:
            self.hw_bit = True
            timer = vm.timer
            if self.timer_enabled and timer is not None:
                while d <= cycles:
                    d += timer.next_interval()
            else:
                d = _NEVER
            self._deadline = d
        return d if d <= max_cycles else max_cycles + 1

    def run(self) -> None:
        """Run until completion, deadlock, or a debug pause.

        With a debug controller attached, the loop returns whenever the
        controller pauses; calling run() again resumes the paused thread
        exactly where it stopped (``scheduler.current`` survives pauses).
        """
        vm = self.vm
        scheduler = vm.scheduler
        if not self._timer_armed:
            self.arm_timer()
            self._timer_armed = True
        while True:
            if self._debug is not None and self._debug.paused:
                return
            thread = scheduler.current
            if thread is None:
                hook = self.safepoint_hook
                if hook is not None:
                    hook(self)
                thread = scheduler.schedule()
            if thread is None:
                return
            self.switch_pending = False
            try:
                self._execute(thread)
            except VMTrap as trap:
                self._kill(thread, trap)

    def _kill(self, thread: GreenThread, trap: VMTrap) -> None:
        """A trap terminates the offending thread, deterministically.

        Monitors the thread held are force-released (Java unwinds
        ``synchronized`` sections when a thread dies), so one thread's
        death cannot deadlock the rest of the program."""
        vm = self.vm
        vm.observer.emit("trap", thread.tid, trap.kind)
        vm.trap_reports.append((thread.tid, trap.kind, str(trap)))
        while thread.frames:
            vm.scheduler.pop_frame(thread)
        for heir in vm.monitors.release_all_owned_by(thread):
            vm.scheduler.make_ready(heir)
        vm.scheduler.on_terminate(thread)

    # ------------------------------------------------------------------
    # the dispatch loop: threaded code over pre-bound handler tables

    def _bind(self, code) -> list:
        """Bind the handler table for one compiled method.

        Yield points stay inline in the loop (they need the loop-local
        cycle counter), marked by a ``None`` entry; fused yield-point
        groups (F_YP_GROUP) do too — the loop tells them apart by the
        op's ``b`` operand.  Everything else becomes a pre-bound
        closure.  Attached hooks wrap the entries they observe (see
        ``_with_mem_hook`` and ``_with_debug``); an unhooked table holds
        the bare handlers."""
        debug = self._debug
        mem_hook = self._mem_hook
        entries: list = []
        append = entries.append
        for pc, (mop, a, b) in enumerate(code.xops):
            if mop == M_YIELDPOINT or mop == F_YP_GROUP:
                fn = None
            else:
                factory = _FACTORIES.get(mop)
                if factory is None:  # pragma: no cover - exhaustive
                    raise VMError(f"unknown micro-op {mop}")
                fn = factory(self, a, b, pc, pc + 1)
                if mem_hook is not None and mop in _MEM_OPS:
                    fn = _with_mem_hook(self, fn, pc, mop, a, b)
            if debug is not None:
                fn = _with_debug(self, fn, pc)
            append(fn)
        code.entries = entries
        self._bound.append(code)
        return entries

    def _unbind(self) -> None:
        """Drop every bound table, so the next dispatch of each method
        rebinds it under the current hook set."""
        for code in self._bound:
            code.entries = None
        self._bound = []

    def _pause_sync(self, thread: GreenThread) -> None:
        """Sync the paused frame's shadow bci, so the debugger's remote
        stack reads are exact, and remember the word it replaced."""
        om = self.vm.om
        index = 2 * om.array_get(thread.shadow_addr, 0)
        if index:
            self._unsync = (thread, index, om.array_get(thread.shadow_addr, index))
            self.vm.scheduler.shadow_sync_bci(thread)

    def _execute(self, thread: GreenThread) -> None:  # noqa: C901 - the dispatch loop
        vm = self.vm
        if self._unsync is not None:
            # resuming from a debug pause: put back the shadow word the
            # pause overwrote, so the pause leaves no trace in guest memory
            paused, index, word = self._unsync
            self._unsync = None
            vm.om.array_put(paused.shadow_addr, index, word)
        loader = vm.loader
        scheduler = vm.scheduler
        max_cycles = vm.config.max_cycles
        fstat = self._fstat
        ypstat = self._ypstat

        self._thread = thread
        cycles = self.cycles
        # fused-carry snapshots: cycles the fused counters have accrued
        # since the last fold (pairs carry 1 extra cycle, triples 2)
        ln2 = fstat[0]
        ln3 = fstat[1]
        d = self._deadline
        limit = d if d <= max_cycles else max_cycles + 1

        try:
            while True:
                # (re)load loop state from the top frame: on entry, and
                # after every call or return
                frame = thread.frames[-1]
                self._frame = frame
                code = frame.code
                entries = code.entries
                if entries is None:
                    entries = self._bind(code)
                xops = code.xops
                pc = frame.pc
                stack = frame.stack
                locals_ = frame.locals
                while True:
                    cycles += 1
                    if cycles >= limit:
                        x = fstat[0] - ln2 + 2 * (fstat[1] - ln3)
                        if x:
                            ln2 = fstat[0]
                            ln3 = fstat[1]
                            cycles += x
                        limit = self._check_limit(cycles)

                    fn = entries[pc]
                    if fn is not None:
                        r = fn(stack, locals_)
                        if r >= 0:
                            pc = r
                            continue

                        # -- sentinel: fold fused carries, commit the clock, act.
                        x = fstat[0] - ln2 + 2 * (fstat[1] - ln3)
                        if x:
                            ln2 = fstat[0]
                            ln3 = fstat[1]
                            cycles += x

                        if r == _CALL:
                            rm, args = self._call
                            self._call = None
                            frame.pc = pc + 1  # resume after the call (also: safe point)
                            self.cycles = cycles
                            if rm.native:
                                result = vm.call_native(thread, rm, args)
                                if result is BLOCK:
                                    scheduler.shadow_sync_bci(thread)
                                    return  # switch_pending is set
                                upcalls = ()
                                if isinstance(result, NativeResult):
                                    if rm.mdef.signature.ret != "V":
                                        if result.string_value is not None:
                                            # materialise the guest String here, so the
                                            # allocation happens identically in record
                                            # and replay mode (§2.5 + symmetry)
                                            stack.append(loader.make_string(result.string_value))
                                        else:
                                            stack.append(
                                                words.to_i32(
                                                    result.value if result.value is not None else 0
                                                )
                                            )
                                    upcalls = result.upcalls
                                    for ref, up_args in reversed(upcalls):
                                        up_rm = loader.resolve_static_method(ref)
                                        scheduler.shadow_sync_bci(thread)
                                        scheduler.push_frame(thread, Frame(up_rm, list(up_args)))
                                elif rm.mdef.signature.ret != "V":
                                    stack.append(words.to_i32(result if result is not None else 0))
                                if not upcalls:
                                    pc += 1
                                    if self.switch_pending:
                                        frame.pc = pc
                                        scheduler.shadow_sync_bci(thread)
                                        return
                                    continue
                                if self.switch_pending:
                                    scheduler.shadow_sync_bci(thread)
                                    return
                            else:
                                scheduler.shadow_sync_bci(thread)
                                scheduler.push_frame(thread, Frame(rm, args))
                            break  # frames were pushed: reload from the top one

                        if r == _RELOAD:
                            # a return handler popped back into the caller frame
                            self.cycles = cycles
                            break

                        if r == _PAUSE:
                            # the debug hook stopped the thread *before* this
                            # op: it is not charged, and resuming dispatches it
                            frame.pc = pc
                            self.cycles = cycles - 1
                            self._pause_sync(thread)
                            return

                        if r != _YIELD:  # _PARK: the handler stored frame.pc (or emptied frames)
                            self.cycles = cycles
                            scheduler.shadow_sync_bci(thread)
                            return

                        # _YIELD: a debug-hooked yield point.  Commit the clock
                        # here, since the non-firing paths below do not: the
                        # hook's next check reads it (time-travel seeks).
                        self.cycles = cycles

                    # -- inlined yield point (plain, or the terminal of a
                    # fused F_YP_GROUP).  Run any pure prefix and charge its
                    # cycles, fold fused carries, and process any deadline
                    # crossing *before* observing the hw bit, so the bit is
                    # exactly the per-op scheme's at this cycle.
                    _, tag, bb = xops[pc]
                    if bb is not None:
                        bb[0](stack, locals_)
                        cycles += bb[1]
                        ypstat[0] += 1
                        ypstat[1] += bb[1]
                    x = fstat[0] - ln2 + 2 * (fstat[1] - ln3)
                    if x:
                        ln2 = fstat[0]
                        ln3 = fstat[1]
                        cycles += x
                    if cycles >= limit:
                        limit = self._check_limit(cycles)
                    thread.yieldpoints += 1
                    dejavu = vm.dejavu
                    if dejavu is None:
                        if self.hw_bit:
                            self.hw_bit = False
                            scheduler.preempt()
                    # -- inline non-firing fast paths (see DejaVu.__init__):
                    # with liveclock + eager stacks on and nothing pending,
                    # the full Figure-2 body reduces to one counter bump.
                    elif (
                        dejavu._fast_record
                        and dejavu.liveclock
                        and not self.hw_bit
                        and not dejavu.threadswitch_bit
                        and thread.stack_capacity - thread.stack_used
                        >= EAGER_STACK_HEADROOM
                    ):
                        dejavu.nyp += 1
                    elif (
                        dejavu._fast_replay
                        and dejavu.liveclock
                        and not dejavu.threadswitch_bit
                        and dejavu._replay_nyp is not None
                        and dejavu._replay_nyp > 1
                        and thread.stack_capacity - thread.stack_used
                        >= EAGER_STACK_HEADROOM
                    ):
                        dejavu._replay_nyp -= 1
                    else:
                        frame.pc = pc  # instrumentation may grow the stack (alloc)
                        self.cycles = cycles
                        dejavu.at_yieldpoint(thread, tag)
                    pc += 1
                    if self.switch_pending:
                        frame.pc = pc
                        self.cycles = cycles
                        scheduler.shadow_sync_bci(thread)
                        return
        except VMTrap:
            # the thread dies mid-loop: commit the exact clock, since
            # whatever runs next (the trap handler, the scheduler's switch
            # event) reads it
            self.cycles = cycles + fstat[0] - ln2 + 2 * (fstat[1] - ln3)
            raise
