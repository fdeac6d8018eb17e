"""The ``compile`` hot-path tier: bytecode -> exec-generated Python.

The interpreter's translated-stream dispatch (PR 5) still pays one
linear if/elif scan plus tuple unpacking per executed instruction.
This module removes the fetch/decode/dispatch loop entirely: each
:class:`~repro.compiler.bytecode.Code` object is translated *once* into
the source text of a single Python function, compiled with ``exec``,
and driven by :meth:`VM._run_compiled`.  Straight-line bytecode becomes
straight-line Python over height-indexed virtual stack registers
(``s0, s1, ...``), so CPython's own bytecode does the dispatching.

Exactness contract (the golden tables must be bit-identical with the
tier on or off):

* **cycles** -- every instruction's static charge
  (:func:`~repro.compiler.bytecode.instr_cost`, the same rule
  :func:`~repro.interp.interpreter._translate` folds) is
  constant-folded into per-block accumulator updates ``c = c + <sum>``;
  event returns flush ``vm.pending_cycles += c + <tail>`` just like the
  interpreter flushes its local ``cycles``.  An exception mid-block
  discards the local accumulator in both worlds.
* **yield points** -- shared-memory ops, runtime calls and prints
  return the same event objects in the same order, trying the shell's
  ``fast_read``/``fast_write`` callbacks first; backward jumps decrement
  the same ``MAX_SLICE`` budget and yield ``TimeSlice`` on exhaustion.
* **state sync** -- ``frame.pc``/``frame.stack`` are written back at
  every exit (event return, call/ret frame switch), so snapshots taken
  at barriers and every shell-side observer see exactly the state the
  interpreter would have left.
* **resume** -- the generated function is re-entered through an
  ``_ENTRY`` table mapping resumable pcs (function entry, post-yield,
  post-call, backward-jump targets) to prologue stubs that reload the
  virtual registers from ``frame.stack``; an unknown pc returns the
  ``_DEOPT`` sentinel and the VM transparently falls back to the
  interpreter loop (restore/corrupt/armed-fault paths).

Functions whose bytecode the translator cannot prove statically
well-shaped (unreachable-depth conflicts, unknown ops -- in practice
only hand-built test Codes) raise :class:`NotCompilable`, and the
whole program stays on the interpreter: the tier is all-or-nothing per
image, so a partially compiled call chain can never mix conventions.

The generated source is attached to each ``Code`` as ``gen_src`` when
the image is built (see ``compiler.codegen.compile_program``), pickles
with the image into the ``npb/cache.py`` disk layer (the ``compile=``
key flag keeps tier-on and tier-off images apart), and is exec'd
lazily once per process per program.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Set, Tuple

from ..compiler.bytecode import (RT_RETURNS, Code, CompiledProgram,
                                 instr_cost)
from .events import Done, IoOut, MemRead, MemWrite, RtCall, TimeSlice
from .interpreter import (MISS, VMError, Frame, _DEOPT, _exp, _log,
                          _op_div, _op_mod, _pow, _sqrt)

__all__ = ["NotCompilable", "generate_source", "attach_generated",
           "compiled_functions"]


class NotCompilable(Exception):
    """This Code cannot be translated; the VM keeps the interpreter."""


def _strict() -> bool:
    """Fail loudly instead of falling back (tests set this)."""
    return os.environ.get("REPRO_COMPILE_STRICT") == "1"


# Names the generated code resolves as globals of its exec namespace.
_BASE_NS = {
    "_MISS": MISS,
    "_div": _op_div, "_mod": _op_mod,
    "_sqrt": _sqrt, "_exp": _exp, "_log": _log, "_pow": _pow,
    "_floor": math.floor,
    "_Frame": Frame,
    "_MemRead": MemRead, "_MemWrite": MemWrite, "_RtCall": RtCall,
    "_IoOut": IoOut, "_Done": Done, "_TimeSlice": TimeSlice,
    "_VMError": VMError, "_DEOPT": _DEOPT,
}

_ARITH_OPS = frozenset(("+", "-", "*"))
_CMP_OPS = frozenset(("<", "<=", ">", ">=", "==", "!="))

#: Ops that may yield a memory event (block-terminating, resumable).
_MEM_YIELDS = frozenset(("gload", "geload", "gstore", "gestore",
                         "ixge", "cblbge"))
#: Ops that always leave the function (resumable at pc+1).
_LEAVES = frozenset(("rt", "print", "call"))

_TERMINAL = _MEM_YIELDS | _LEAVES | frozenset(
    ("jump", "jfalse", "jnone", "cjf", "lcjf", "lljf", "lcbsj", "ret"))


def _bexpr(o: str, a: str, b: str) -> Tuple[str, str]:
    """(full value expression, truthiness expression) for a binop.

    Comparisons keep the interpreter's int results (``1``/``0``, never
    bool -- a printed ``True`` would diverge from the oracle) but hand
    conditional-jump consumers the raw comparison.
    """
    if o in _ARITH_OPS:
        e = "(%s %s %s)" % (a, o, b)
        return e, e
    if o in _CMP_OPS:
        raw = "%s %s %s" % (a, o, b)
        return "(1 if %s else 0)" % raw, raw
    if o == "/":
        e = "_div(%s, %s)" % (a, b)
        return e, e
    if o == "%":
        e = "_mod(%s, %s)" % (a, b)
        return e, e
    raise NotCompilable("unknown binop %r" % (o,))


_ICALL_INLINE = {
    "fabs": "abs(%s)",
    "sqrt": "_sqrt(%s)", "exp": "_exp(%s)", "log": "_log(%s)",
    "floor": "_floor(%s)",
    "pow": "_pow(%s, %s)", "mod": "_mod(%s, %s)",
}


def _succ(ins: Tuple, pc: int, d: int) -> List[Tuple[int, int]]:
    """Control successors of one instruction as (pc, depth-after) edges
    (post-resume depth for yielding ops).  Raises on stack underflow."""
    op = ins[0]
    arg = ins[1] if len(ins) > 1 else None

    def need(k: int) -> None:
        if d < k:
            raise NotCompilable("stack underflow at pc=%d (%r)" % (pc, op))

    def fall(nd: int) -> List[Tuple[int, int]]:
        return [(pc + 1, nd)]

    if op in ("const", "lload", "ll2b", "lcb", "lcblb", "ix", "gload",
              "ixge"):
        return fall(d + 1)
    if op == "dup":
        need(1)
        return fall(d + 1)
    if op in ("lstore", "pop", "gstore"):
        need(1)
        return fall(d - 1)
    if op in ("llst", "cs", "lcbs", "llbs"):
        return fall(d)
    if op in ("unop", "aload", "cb", "lb", "cblb", "lbcb", "geload",
              "cblbge"):
        need(1)
        return fall(d)
    if op == "unpack2":
        need(1)
        return fall(d + 1)
    if op == "binop":
        need(2)
        return fall(d - 1)
    if op == "icall":
        _name, n = arg
        need(n)
        return fall(d - n + 1)
    if op in ("astore", "gestore"):
        need(2)
        return fall(d - 2)
    if op == "jump":
        return [(arg, d)]
    if op == "jfalse":
        need(1)
        return [(arg, d - 1), (pc + 1, d - 1)]
    if op == "jnone":
        need(1)
        return [(arg, d - 1), (pc + 1, d)]
    if op == "cjf":
        need(2)
        return [(arg[1], d - 2), (pc + 1, d - 2)]
    if op in ("lcjf", "lljf"):
        return [(arg[3], d), (pc + 1, d)]
    if op == "lcbsj":
        return [(arg[4], d)]
    if op == "call":
        _fidx, n = arg
        need(n)
        return [(pc + 1, d - n + 1)]
    if op == "ret":
        return []
    if op == "rt":
        name, _static, n = arg
        need(n)
        return [(pc + 1, d - n + (1 if name in RT_RETURNS else 0))]
    if op == "print":
        need(arg)
        return [(pc + 1, d - arg)]
    raise NotCompilable("unknown opcode %r" % (op,))


def _analyze(instrs: List[Tuple]) -> Dict[int, int]:
    """Reachable pc -> operand-stack depth before the instruction.

    The depth at every pc must be unique across all paths reaching it
    (it is, for compiler-emitted bytecode); a conflict means we cannot
    assign static register names and the function stays interpreted.
    """
    n = len(instrs)
    depths = {0: 0}
    work = [0]
    while work:
        pc = work.pop()
        for (t, nd) in _succ(instrs[pc], pc, depths[pc]):
            if not 0 <= t < n:
                raise NotCompilable("edge to pc=%d out of range" % t)
            if nd < 0:
                raise NotCompilable("stack underflow at pc=%d" % pc)
            prev = depths.get(t)
            if prev is None:
                depths[t] = nd
                work.append(t)
            elif prev != nd:
                raise NotCompilable(
                    "inconsistent depth at pc=%d (%d vs %d)" % (t, prev, nd))
    return depths


def _entry_pcs(instrs: List[Tuple], depths: Dict[int, int]) -> Set[int]:
    """Pcs the driver may re-enter at: function start, every post-yield
    / post-call resume point, and backward-jump (TimeSlice) targets."""
    entries = {0}
    for pc in depths:
        ins = instrs[pc]
        op = ins[0]
        if op in _MEM_YIELDS or op in _LEAVES:
            if pc + 1 in depths:
                entries.add(pc + 1)
        elif op == "jump" and ins[1] < pc:
            entries.add(ins[1])
        elif op == "lcbsj" and ins[1][4] <= pc:
            entries.add(ins[1][4])
    return entries


def _leader_pcs(instrs: List[Tuple], depths: Dict[int, int],
                entries: Set[int]) -> Set[int]:
    """Basic-block leaders: entries plus every branch edge target."""
    leaders = set(entries)
    for pc in depths:
        ins = instrs[pc]
        op = ins[0]
        if op == "jump":
            leaders.add(ins[1])
        elif op in ("jfalse", "jnone"):
            leaders.add(ins[1])
            leaders.add(pc + 1)
        elif op == "cjf":
            leaders.add(ins[1][1])
            leaders.add(pc + 1)
        elif op in ("lcjf", "lljf"):
            leaders.add(ins[1][3])
            leaders.add(pc + 1)
        elif op == "lcbsj":
            leaders.add(ins[1][4])
    return {pc for pc in leaders if pc in depths}


def _block_pcs(start: int, instrs: List[Tuple],
               leaders: Set[int]) -> List[int]:
    pcs = []
    pc = start
    while True:
        pcs.append(pc)
        if instrs[pc][0] in _TERMINAL or pc + 1 in leaders:
            return pcs
        pc += 1


# --------------------------------------------------------------- emission

def generate_source(code: Code) -> Tuple[str, Tuple]:
    """Translate one Code into ``(python_source, hoisted_constants)``.

    The source defines ``_ENTRY`` (resume-pc -> dispatch id) and
    ``_fn(vm, frame, budget) -> (event_or_None, budget)``; constants
    whose repr does not round-trip (non-finite floats, tuples) are
    hoisted and injected into the exec namespace as ``_K<i>``.
    Raises :class:`NotCompilable` for bytecode the static analysis
    cannot shape.
    """
    instrs = code.instrs
    if not instrs:
        raise NotCompilable("empty code object")
    depths = _analyze(instrs)
    entries = _entry_pcs(instrs, depths)
    leaders = _leader_pcs(instrs, depths, entries)
    blocks = {pc: _block_pcs(pc, instrs, leaders) for pc in leaders}

    # Hot-first dispatch order: blocks in deeper loops get smaller ids
    # so the linear if/elif scan touches inner-loop bodies first.
    back_edges = []
    for pc in depths:
        ins = instrs[pc]
        if ins[0] == "jump" and ins[1] < pc:
            back_edges.append((pc, ins[1]))
        elif ins[0] == "lcbsj" and ins[1][4] <= pc:
            back_edges.append((pc, ins[1][4]))

    def loop_depth(leader: int) -> int:
        return sum(1 for (src, tgt) in back_edges if tgt <= leader <= src)

    ordered = sorted(leaders, key=lambda l: (-loop_depth(l), l))
    bid = {leader: i for i, leader in enumerate(ordered)}

    consts: List = []

    def lit(v) -> str:
        if v is None or isinstance(v, bool) or isinstance(v, (int, str)):
            return repr(v)
        if isinstance(v, float) and math.isfinite(v):
            return repr(v)
        consts.append(v)             # non-finite float, tuple, ...
        return "_K%d" % (len(consts) - 1)

    def sync(k: int) -> str:
        if k == 0:
            return "del S[:]"
        return "S[:] = (%s,)" % ", ".join("s%d" % i for i in range(k))

    def tup(texts: List[str]) -> str:
        if not texts:
            return "()"
        return "(%s,)" % ", ".join(texts)

    def emit_block(leader: int) -> List[Tuple[int, str]]:
        out: List[Tuple[int, str]] = []
        pcs = blocks[leader]
        d = depths[leader]
        deferred: Optional[Tuple[str, str]] = None   # (value, truthiness)
        pend = 0.0

        def w(ind: int, text: str) -> None:
            out.append((ind, text))

        def mat() -> None:
            nonlocal deferred
            if deferred is not None:
                w(0, "s%d = %s" % (d - 1, deferred[0]))
                deferred = None

        def push(full: str, cond: Optional[str] = None) -> None:
            nonlocal d, deferred
            assert deferred is None
            deferred = (full, cond if cond is not None else full)
            d += 1

        def pop1() -> Tuple[str, str, bool]:
            nonlocal d, deferred
            d -= 1
            if deferred is not None:
                t = deferred
                deferred = None
                return (t[0], t[1], True)
            return ("s%d" % d, "s%d" % d, False)

        def pop_vals(n: int) -> List[str]:
            """Oldest-first value texts of the top n entries."""
            texts = [pop1()[0] for _ in range(n)]
            texts.reverse()
            return texts

        def flushed(extra: float = 0.0) -> str:
            tot = pend + extra
            return "c" if tot == 0 else "c + %r" % float(tot)

        def flush_c() -> None:
            if pend:
                w(0, "c = c + %r" % float(pend))

        def goto(ind: int, target_pc: int) -> None:
            w(ind, "b = %d" % bid[target_pc])

        def cond_jump(cond: str, fall_pc: int, target_pc: int) -> None:
            # Truthy condition falls through, falsy jumps -- the shape
            # of every jfalse-family op.
            flush_c()
            w(0, "if %s:" % cond)
            goto(1, fall_pc)
            w(0, "else:")
            goto(1, target_pc)

        def back_jump(target_pc: int) -> None:
            flush_c()
            w(0, "budget = budget - 1")
            w(0, "if budget <= 0:")
            w(1, "frame.pc = %d" % target_pc)
            w(1, sync(d))
            w(1, "vm.pending_cycles = vm.pending_cycles + c")
            w(1, "return _TimeSlice(), budget")
            goto(0, target_pc)

        def mem_load(pc: int, gidx: int, flat: str) -> None:
            # d is the depth after operand pops, before the result push;
            # the interpreter leaves exactly d entries on the stack when
            # it yields MemRead (push happens on resume via vm.push).
            w(0, "v = _MISS if fr is None else fr(%d, %s)" % (gidx, flat))
            w(0, "if v is _MISS:")
            w(1, "frame.pc = %d" % (pc + 1))
            w(1, sync(d))
            w(1, "vm.pending_cycles = vm.pending_cycles + (%s)" % flushed())
            w(1, "vm._pending_push = True")
            w(1, "return _MemRead(%d, %s), budget" % (gidx, flat))
            w(0, "s%d = v" % d)
            flush_c()
            goto(0, pc + 1)

        def mem_store(pc: int, gidx: int, flat: str, val: str) -> None:
            w(0, "if fw is None or not fw(%d, %s, %s):" % (gidx, flat, val))
            w(1, "frame.pc = %d" % (pc + 1))
            w(1, sync(d))
            w(1, "vm.pending_cycles = vm.pending_cycles + (%s)" % flushed())
            w(1, "return _MemWrite(%d, %s, %s), budget" % (gidx, flat, val))
            flush_c()
            goto(0, pc + 1)

        for pc in pcs:
            ins = instrs[pc]
            op = ins[0]
            arg = ins[1] if len(ins) > 1 else None
            try:
                pend += instr_cost(ins)
            except KeyError:
                raise NotCompilable("unknown opcode %r" % (op,)) from None

            if op == "const":
                mat()
                push(lit(arg))
            elif op == "lload":
                mat()
                push("L[%d]" % arg)
            elif op == "lstore":
                t, _c, _df = pop1()
                w(0, "L[%d] = %s" % (arg, t))
            elif op == "llst":
                mat()
                w(0, "L[%d] = L[%d]" % (arg[1], arg[0]))
            elif op == "cs":
                mat()
                w(0, "L[%d] = %s" % (arg[1], lit(arg[0])))
            elif op == "dup":
                mat()
                push("s%d" % (d - 1))
            elif op == "pop":
                t, _c, was_def = pop1()
                if was_def:
                    # The interpreter evaluated this expression when it
                    # was pushed; dropping it unevaluated could skip a
                    # trap (division, wild index) the A-stream relies on.
                    w(0, t)
            elif op == "unop":
                t, _c, _df = pop1()
                if arg == "-":
                    push("(-%s)" % t)
                else:
                    push("(0 if %s else 1)" % t)
            elif op == "unpack2":
                mat()
                t, _c, _df = pop1()
                w(0, "s%d, s%d = %s" % (d, d + 1, t))
                d += 2
            elif op == "binop":
                b_t, a_t = pop1()[0], pop1()[0]
                push(*_bexpr(arg, a_t, b_t))
            elif op == "icall":
                name, n = arg
                if name in ("min", "max"):
                    mat()
                    a_t, b_t = pop_vals(2)
                    o = "<" if name == "min" else ">"
                    push("(%s if %s %s %s else %s)" % (a_t, a_t, o, b_t, b_t))
                elif name in _ICALL_INLINE:
                    push(_ICALL_INLINE[name] % tuple(pop_vals(n)))
                else:
                    raise NotCompilable("unknown intrinsic %r" % (name,))
            elif op == "aload":
                t, _c, _df = pop1()
                push("L[%d][%s].item()" % (arg, t))
            elif op == "astore":
                vals = pop_vals(2)           # [flat, value]; only the
                w(0, "L[%d][%s] = %s" % (arg, vals[0], vals[1]))
                # value can be deferred, and Python evaluates the RHS
                # before the subscripted store -- interpreter order.
            elif op == "ll2b":
                mat()
                push(*_bexpr(arg[2], "L[%d]" % arg[0], "L[%d]" % arg[1]))
            elif op == "cb":
                t, _c, _df = pop1()
                push(*_bexpr(arg[1], t, lit(arg[0])))
            elif op == "lcb":
                mat()
                push(*_bexpr(arg[2], "L[%d]" % arg[0], lit(arg[1])))
            elif op == "lb":
                t, _c, _df = pop1()
                push(*_bexpr(arg[1], t, "L[%d]" % arg[0]))
            elif op == "lcbs":
                mat()
                e = _bexpr(arg[2], "L[%d]" % arg[0], lit(arg[1]))[0]
                w(0, "L[%d] = %s" % (arg[3], e))
            elif op == "llbs":
                mat()
                e = _bexpr(arg[2], "L[%d]" % arg[0], "L[%d]" % arg[1])[0]
                w(0, "L[%d] = %s" % (arg[3], e))
            elif op == "cblb":
                t, _c, _df = pop1()
                e1 = _bexpr(arg[1], t, lit(arg[0]))[0]
                push(*_bexpr(arg[3], e1, "L[%d]" % arg[2]))
            elif op == "lbcb":
                t, _c, _df = pop1()
                e1 = _bexpr(arg[1], t, "L[%d]" % arg[0])[0]
                push(*_bexpr(arg[3], e1, lit(arg[2])))
            elif op == "lcblb":
                mat()
                e1 = _bexpr(arg[2], "L[%d]" % arg[0], lit(arg[1]))[0]
                push(*_bexpr(arg[4], e1, "L[%d]" % arg[3]))
            elif op in ("ix", "ixge"):
                a, k1, o1, b, o2, k2, o3, cslot, o4 = arg[:9]
                e = _bexpr(o1, "L[%d]" % a, lit(k1))[0]
                e = _bexpr(o2, e, "L[%d]" % b)[0]
                e = _bexpr(o3, e, lit(k2))[0]
                e = _bexpr(o4, e, "L[%d]" % cslot)[0]
                if op == "ix":
                    mat()
                    push(e)
                else:
                    mat()
                    w(0, "x = %s" % e)
                    mem_load(pc, arg[9], "x")
            elif op == "gload":
                mat()
                mem_load(pc, arg, "0")
            elif op == "geload":
                mat()                        # flat is used twice
                t, _c, _df = pop1()
                mem_load(pc, arg, t)
            elif op == "cblbge":
                t, _c, _df = pop1()
                e1 = _bexpr(arg[1], t, lit(arg[0]))[0]
                e = _bexpr(arg[3], e1, "L[%d]" % arg[2])[0]
                w(0, "x = %s" % e)
                mem_load(pc, arg[4], "x")
            elif op == "gstore":
                mat()                        # value is used twice
                t, _c, _df = pop1()
                mem_store(pc, arg, "0", t)
            elif op == "gestore":
                mat()
                vals = pop_vals(2)           # [flat, value], both temps
                mem_store(pc, arg, vals[0], vals[1])
            elif op == "jump":
                mat()
                if arg < pc:
                    back_jump(arg)
                else:
                    flush_c()
                    goto(0, arg)
            elif op == "jfalse":
                _t, cond, _df = pop1()
                cond_jump(cond, pc + 1, arg)
            elif op == "jnone":
                mat()
                flush_c()
                w(0, "if s%d is None:" % (d - 1))
                goto(1, arg)
                w(0, "else:")
                goto(1, pc + 1)
            elif op == "cjf":
                b_t, a_t = pop1()[0], pop1()[0]
                cond_jump(_bexpr(arg[0], a_t, b_t)[1], pc + 1, arg[1])
            elif op == "lcjf":
                mat()
                cond = _bexpr(arg[2], "L[%d]" % arg[0], lit(arg[1]))[1]
                cond_jump(cond, pc + 1, arg[3])
            elif op == "lljf":
                mat()
                cond = _bexpr(arg[2], "L[%d]" % arg[0],
                              "L[%d]" % arg[1])[1]
                cond_jump(cond, pc + 1, arg[3])
            elif op == "lcbsj":
                mat()
                e = _bexpr(arg[2], "L[%d]" % arg[0], lit(arg[1]))[0]
                w(0, "L[%d] = %s" % (arg[3], e))
                if arg[4] <= pc:
                    back_jump(arg[4])
                else:
                    flush_c()
                    goto(0, arg[4])
            elif op == "call":
                mat()
                fidx, n = arg
                args = pop_vals(n)
                w(0, "frame.pc = %d" % (pc + 1))
                w(0, sync(d))
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed())
                w(0, "vm.frames.append(_Frame(%d, _FUNCS[%d], %s))"
                  % (fidx, fidx, tup(args)))
                w(0, "return None, budget")
            elif op == "ret":
                mat()
                rv = "s%d" % (d - 1) if d > 0 else "0"
                w(0, "vm.frames.pop()")
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed())
                w(0, "if vm.frames:")
                w(1, "vm.frames[-1].stack.append(%s)" % rv)
                w(1, "return None, budget")
                w(0, "vm.done = True")
                w(0, "vm.result = %s" % rv)
                w(0, "return _Done(%s), budget" % rv)
            elif op == "rt":
                mat()
                name, static, n = arg
                args = pop_vals(n)
                w(0, "frame.pc = %d" % (pc + 1))
                w(0, sync(d))
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed(1.0))
                w(0, "return _RtCall(%s, %s, %s), budget"
                  % (lit(name), lit(static), tup(args)))
            elif op == "print":
                mat()
                args = pop_vals(arg)
                w(0, "frame.pc = %d" % (pc + 1))
                w(0, sync(d))
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed(1.0))
                w(0, "return _IoOut(%s), budget" % tup(args))
            else:
                raise NotCompilable("unknown opcode %r" % (op,))

        if instrs[pcs[-1]][0] not in _TERMINAL:
            # Plain fall-through into the next leader.
            mat()
            flush_c()
            goto(0, pcs[-1] + 1)
        return out

    bodies = {leader: emit_block(leader) for leader in ordered}

    # Entry stubs: reload the virtual registers from the synced stack,
    # then dispatch to the block.  Depth-0 entries need no prologue and
    # map straight to the block id.
    entry_map: Dict[int, int] = {}
    stubs: List[Tuple[int, int]] = []        # (stub id, entry pc)
    next_id = len(ordered)
    for e in sorted(entries):
        if depths[e] == 0:
            entry_map[e] = bid[e]
        else:
            entry_map[e] = next_id
            stubs.append((next_id, e))
            next_id += 1

    lines: List[str] = []

    def w(ind: int, text: str) -> None:
        lines.append("    " * ind + text)

    w(0, "_ENTRY = {%s}" % ", ".join(
        "%d: %d" % (pc, i) for pc, i in sorted(entry_map.items())))
    w(0, "def _fn(vm, frame, budget):")
    w(1, "b = _ENTRY.get(frame.pc, -1)")
    w(1, "if b < 0:")
    w(2, "return _DEOPT, budget")
    w(1, "S = frame.stack")
    w(1, "L = frame.locals")
    w(1, "fr = vm.fast_read")
    w(1, "fw = vm.fast_write")
    w(1, "c = 0.0")
    w(1, "try:")
    w(2, "while 1:")
    kw = "if"
    for leader in ordered:
        w(3, "%s b == %d:" % (kw, bid[leader]))
        kw = "elif"
        for ind, text in bodies[leader]:
            w(4 + ind, text)
    for sid, e in stubs:
        w(3, "elif b == %d:" % sid)
        for i in range(depths[e]):
            w(4, "s%d = S[%d]" % (i, i))
        w(4, "b = %d" % bid[e])
    w(3, "else:")
    w(4, "return _DEOPT, budget")
    # Same wrap as the interpreter loop: a wild index (array op or a
    # fast-path callback's store access) surfaces as VMError either way.
    w(1, "except IndexError:")
    w(2, 'raise _VMError("VM fault in %s (compiled) near pc=%%d"'
         " %% frame.pc) from None" % code.name)
    return "\n".join(lines) + "\n", tuple(consts)


# ------------------------------------------------------------ program API

def attach_generated(program: CompiledProgram) -> bool:
    """Attach generated source (``Code.gen_src``) to every function of
    an image; all-or-nothing so a compiled caller can never call into
    an uncompiled callee mid-image.  Returns True when attached."""
    generated = []
    try:
        for code in program.funcs:
            generated.append(generate_source(code))
    except NotCompilable:
        if _strict():
            raise
        return False
    for code, gs in zip(program.funcs, generated):
        code.gen_src = gs
    return True


def compiled_functions(program: CompiledProgram) -> Optional[List]:
    """exec the attached sources into callables, one per function,
    cached on the program (and rebuilt after unpickling -- the cache is
    dropped by ``CompiledProgram.__getstate__``).  Returns None when
    any function lacks ``gen_src``: the VM keeps the interpreter."""
    try:
        return program._cfns
    except AttributeError:
        pass
    fns: List = []
    result: Optional[List] = None
    for code in program.funcs:
        gs = getattr(code, "gen_src", None)
        if gs is None:
            break
        src, consts = gs
        ns = dict(_BASE_NS)
        ns["_FUNCS"] = program.funcs
        for i, v in enumerate(consts):
            ns["_K%d" % i] = v
        try:
            exec(compile(src, "<repro-compiled:%s>" % code.name,
                         "exec"), ns)
        except SyntaxError:
            if _strict():
                raise
            break
        fns.append(ns["_fn"])
    else:
        result = fns
    program._cfns = result
    return result
