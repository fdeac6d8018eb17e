"""Functional (untimed, single-thread) reference executor.

Runs a compiled image with a trivial implementation of the runtime
surface: one thread executes everything, worksharing hands it the whole
iteration space, synchronization is a no-op.  This is the compiler's
semantic oracle -- integration tests check that the full simulated
machine (any mode, any schedule) computes exactly what this executor
computes -- and a convenient way to run SlipC programs for their output.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compiler.bytecode import CompiledProgram
from ..obs.probe import NULL_PROBE, Probe
from .events import Done, IoOut, MemRead, MemWrite, RtCall, TimeSlice
from .interpreter import VM

__all__ = ["GlobalStore", "FunctionalRunner"]


class GlobalStore:
    """The program's shared data: one flat ``array.array`` per global,
    ``'q'`` (int64) for int globals and ``'d'`` (float64) for doubles.

    ``buffers`` are what the simulator reads and writes element by
    element (the shells' hit path indexes them directly); ``arrays``,
    :meth:`array` and :meth:`value` hand out zero-copy NumPy views of
    the same memory for verification and the oracles.  Writes to an
    int global truncate toward zero, as NumPy int64 assignment does.
    """

    def __init__(self, program: CompiledProgram):
        self.program = program
        self.buffers: List[array] = []
        for g in program.globals:
            buf = array("q" if g.typ == "int" else "d", bytes(8 * g.size))
            self.buffers.append(buf)
            if g.init is not None:
                self.write(g.index, 0, g.init)

    def _view(self, gidx: int) -> np.ndarray:
        buf = self.buffers[gidx]
        return np.frombuffer(buf, dtype=_DTYPES[buf.typecode])

    @property
    def arrays(self) -> List[np.ndarray]:
        """One writable int64/float64 NumPy view per global, aliasing
        its buffer."""
        return [self._view(i) for i in range(len(self.buffers))]

    def read(self, gidx: int, flat: int):
        """Read one element of a shared global."""
        return self.buffers[gidx][flat]

    def write(self, gidx: int, flat: int, value) -> None:
        """Write one element of a shared global."""
        buf = self.buffers[gidx]
        try:
            buf[flat] = value
        except TypeError:           # a float into an int global
            buf[flat] = int(value)

    def array(self, name: str) -> np.ndarray:
        """The named global as a shaped NumPy view."""
        g = self.program.global_named(name)
        return self._view(g.index).reshape(g.dims or (1,))

    def value(self, name: str):
        """Scalar value (or array view) of the named global."""
        g = self.program.global_named(name)
        if g.dims:
            return self.array(name)
        return self.buffers[g.index][0]


_DTYPES = {"q": np.int64, "d": np.float64}


class FunctionalRunner:
    """Single-threaded reference execution of a compiled image."""

    def __init__(self, program: CompiledProgram,
                 inputs: Optional[List[float]] = None,
                 probe: Probe = NULL_PROBE):
        self.program = program
        self.store = GlobalStore(program)
        self.output: List[Tuple] = []
        self.inputs = list(inputs or [])
        self._input_pos = 0
        self._sched: Dict[int, List] = {}
        self._instructions = 0
        self.probe = probe

    def run(self, max_events: int = 50_000_000):
        """Execute main() to completion; returns self for chaining."""
        vm = VM(self.program, self.program.main_index)
        if self.probe.prof is not None:
            self.probe.prof.bind_vm(vm)
        self._run_vm(vm, max_events)
        self.probe.count("func.events", self._instructions)
        return self

    def _run_vm(self, vm: VM, max_events: int) -> None:
        for _ in range(max_events):
            ev = vm.run()
            self._instructions += 1
            if isinstance(ev, MemRead):
                vm.push(self.store.read(ev.gidx, ev.flat))
            elif isinstance(ev, MemWrite):
                self.store.write(ev.gidx, ev.flat, ev.value)
            elif isinstance(ev, IoOut):
                self.output.append(ev.values)
            elif isinstance(ev, RtCall):
                self._rt(vm, ev, max_events)
            elif isinstance(ev, TimeSlice):
                pass
            elif isinstance(ev, Done):
                return
        raise RuntimeError("functional run exceeded max_events")

    # ------------------------------------------------------------- runtime

    def _rt(self, vm: VM, ev: RtCall, max_events: int) -> None:
        name = ev.name
        self.probe.count("rt." + name)
        if name == "parallel_begin":
            pass                        # team of one: master does the work
        elif name == "parallel_end":
            pass
        elif name == "sched_init":
            site = ev.static[0]
            lo, hi, step = ev.args
            n = max(0, -((lo - hi) // step))
            self._sched[site] = [False, n]   # [handed_out, total]
        elif name == "sched_next":
            site = ev.static[0]
            state = self._sched[site]
            if state[0] or state[1] == 0:
                vm.push(None)
            else:
                state[0] = True
                vm.push((0, state[1]))       # whole range, one chunk
        elif name == "sections_init":
            site, n = ev.static
            self._sched[site] = [0, n]
        elif name == "sections_next":
            site = ev.static[0]
            state = self._sched[site]
            if state[0] >= state[1]:
                vm.push(None)
            else:
                vm.push(state[0])
                state[0] += 1
        elif name == "reduce":
            op, gidx = ev.static
            (value,) = ev.args
            cur = self.store.read(gidx, 0)
            self.store.write(gidx, 0, _combine(op, cur, value))
        elif name in ("barrier", "flush", "crit_exit", "atomic_enter",
                      "atomic_exit", "slipstream_set"):
            pass
        elif name == "loop_is_last":
            site = ev.static[0]
            state = self._sched.get(site)
            vm.push(1 if state and state[0] and state[1] > 0 else 0)
        elif name == "single_begin":
            vm.push(1)
        elif name == "crit_enter":
            vm.push(1)
        elif name == "is_master":
            vm.push(1)
        elif name == "tid":
            vm.push(0)
        elif name == "nthreads":
            vm.push(1)
        elif name == "wtime":
            vm.push(float(self._instructions))
        elif name == "astream_probe":
            vm.push(0)                       # reference runner is an R-stream
        elif name == "io_read":
            if self._input_pos >= len(self.inputs):
                raise RuntimeError("read_input(): input exhausted")
            v = self.inputs[self._input_pos]
            self._input_pos += 1
            vm.push(v)
        else:
            raise RuntimeError(f"functional runner: unknown rt {name!r}")


def _combine(op: str, a, b):
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    if op == "max":
        return a if a > b else b
    if op == "min":
        return a if a < b else b
    raise ValueError(op)
