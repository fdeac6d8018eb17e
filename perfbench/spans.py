"""In-memory span tracer for the benchmark's traced run.

The tracer measures the program from outside: it wraps public entry
points of each layer (class methods and module functions) for the
duration of the traced pass and restores them afterwards.  No code
under ``src/`` knows it exists.

Every wrapped call or generator resumption is a span.  Spans are not
stored one per call: each is folded into a record keyed by
``(span name, enclosing span name)`` holding the call count, the
total time and the self time (the span's time minus the time its
child spans cover).  Coarse spans (units, pipeline stages) are also
kept individually, with start and end, and written out at the end.

Generators (engine processes, miss transactions, server occupancy)
are wrapped so that each resumption is timed as its own span nested
in whatever span resumed it; ``send``/``throw``/``close`` pass through
unchanged, so the simulation cannot tell it is being traced.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "<bench>"

#: Package directory of a process body's code -> layer of its resumptions.
_PROC_LAYERS = {"runtime": "runtime", "slipstream": "runtime",
                "mem": "mem.miss", "sim": "sim"}


class Tracer:
    """Span stack plus per-(span, parent) aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Names of the open spans, innermost last, and in step with it
        #: the time each open span's children have covered so far.
        self.names: List[str] = [ROOT]
        self.covered: List[float] = [0.0]
        #: name -> parent name -> [calls, total_s, self_s, hits]
        self.tables: Dict[str, Dict[str, list]] = {}
        #: (name, parent name, start, end) of each coarse span
        self.spans: List[Tuple[str, str, float, float]] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    @property
    def agg(self) -> Dict[Tuple[str, str], list]:
        """(name, parent name) -> [calls, total_s, self_s, hits]."""
        return {(n, p): rec for n, t in self.tables.items()
                for p, rec in t.items()}

    def _table(self, name: str) -> Dict[str, list]:
        return self.tables.setdefault(name, {})

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, coarse: bool = False,
             hit: Optional[Callable] = None, **kw):
        """Call ``fn`` as one span named ``name``."""
        return self._spanner(name, fn, coarse, hit)(*args, **kw)

    def _spanner(self, name: str, fn: Callable, coarse: bool = False,
                 hit: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so that every call is a span named ``name``.

        The hot loop of the traced run goes through these closures
        millions of times, so they keep to local names.
        """
        names, covered, clock = self.names, self.covered, self.clock
        table, spans = self._table(name), self.spans

        def call(*args, **kw):
            parent = names[-1]
            names.append(name)
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dt = clock() - t0
                names.pop()
                child = covered.pop()
                covered[-1] += dt
                rec = table.get(parent)
                if rec is None:
                    rec = table[parent] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if coarse:
                    spans.append((name, parent, t0, t0 + dt))
            if hit is not None and hit(result):
                rec[3] += 1
            return result
        return call

    def timed_gen(self, name: str, gen):
        """Wrap a generator: each resumption is a span named ``name``."""
        names, covered, clock = self.names, self.covered, self.clock
        table = self._table(name)
        send, exc = None, None
        while True:
            parent = names[-1]
            names.append(name)
            covered.append(0.0)
            t0 = clock()
            done, value = False, None
            try:
                if exc is None:
                    value = gen.send(send)
                else:
                    err, exc = exc, None
                    value = gen.throw(err)
            except StopIteration as stop:
                done, value = True, stop.value
            finally:
                dt = clock() - t0
                names.pop()
                child = covered.pop()
                covered[-1] += dt
                rec = table.get(parent)
                if rec is None:
                    rec = table[parent] = [0, 0.0, 0.0, 0]
                rec[1] += dt
                rec[2] += dt - child
            if done:
                return value
            try:
                send = yield value
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:      # forwarded to the body
                send, exc = None, e

    def _count_call(self, name: str) -> None:
        table = self._table(name)
        rec = table.get(self.names[-1])
        if rec is None:
            rec = table[self.names[-1]] = [0, 0.0, 0.0, 0]
        rec[0] += 1

    # -- installing wrappers ----------------------------------------------------

    def patch(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        own = attr in vars(owner)
        old = vars(owner)[attr] if own else getattr(owner, attr)
        self._undo.append((owner, attr, old, own))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, coarse: bool = False,
             hit: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``."""
        fn = getattr(owner, attr)
        self.patch(owner, attr, functools.wraps(fn)(
            self._spanner(name, fn, coarse, hit)))

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them.  For the
        hottest entry point, whose time belongs to its caller's layer
        anyway."""
        fn = getattr(owner, attr)
        rec = self._table(name).setdefault("*", [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            rec[0] += 1
            return fn(*args, **kw)
        self.patch(owner, attr, wrapper)

    def wrap_gen(self, owner, attr: str, name: str) -> None:
        """Wrap a generator function: count calls, time resumptions."""
        fn = getattr(owner, attr)
        timed, count = self.timed_gen, self._count_call

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            count(name)
            return timed(name, fn(*args, **kw))
        self.patch(owner, attr, wrapper)

    def wrap_processes(self, engine_cls) -> None:
        """Time every engine process's resumptions, named by its body."""
        fn = engine_cls.process
        timed, count = self.timed_gen, self._count_call

        @functools.wraps(fn)
        def process(engine, gen, *args, **kw):
            if gen.gi_code is _TIMED_CODE:
                # Already a traced generator (a wrapped entry point run
                # as a process): its resumptions are timed under its
                # own name.
                return fn(engine, gen, *args, **kw)
            name = proc_span_name(gen)
            count(name)
            return fn(engine, timed(name, gen), *args, **kw)
        self.patch(engine_cls, "process", process)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._undo:
            owner, attr, old, own = self._undo.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- derived figures ----------------------------------------------------------

    def _sum(self, name: str, i: int):
        return sum(rec[i] for rec in self.tables.get(name, {}).values())

    def calls(self, name: str) -> int:
        return self._sum(name, 0)

    def total(self, name: str) -> float:
        return self._sum(name, 1)

    def hits(self, name: str) -> int:
        return self._sum(name, 3)

    def layer_self(self, layer_of: Callable[[str], Optional[str]]
                   ) -> Dict[str, float]:
        """Self time per layer, given a span name -> layer map."""
        out: Dict[str, float] = {}
        for name in self.tables:
            layer = layer_of(name)
            if layer is not None:
                out[layer] = out.get(layer, 0.0) + self._sum(name, 2)
        return out


_TIMED_CODE = Tracer.timed_gen.__code__


def proc_span_name(gen) -> str:
    """``proc:<layer>:<qualname>`` of an engine process's body."""
    code = gen.gi_code
    parts = code.co_filename.replace("\\", "/").split("/")
    pkg = parts[-2] if len(parts) > 1 else ""
    layer = _PROC_LAYERS.get(pkg, "sim")
    return f"proc:{layer}:{code.co_qualname}"


#: Span name -> layer, for the spans the benchmark installs.
SPAN_LAYERS = {
    "Machine.run": "sim",
    "Server.serve": "sim",
    "Machine.__init__": "runtime",
    "ThreadShell._fast_read": "runtime",
    "ThreadShell._fast_write": "runtime",
    "memsys.try_fast_load": "mem.fast",
    "memsys.try_fast_store": "mem.fast",
    "memsys.l1_probe": "mem.fast",
    "memsys.load": "mem.miss",
    "memsys.store": "mem.miss",
    "memsys.prefetch_exclusive": "mem.miss",
    "VM.run": "interp",
    "KernelSpec.compile": "compile",
    "KernelSpec.verify": "verify",
    "execute_spec": "harness",
    "pipeline.run_plan": "harness",
    "transport.run": "harness",
    "journal.load": "harness",
    "journal.record": "harness",
    "integrity.atomic_pickle": "harness",
    "integrity.load_verified": "harness",
}


def layer_of(name: str) -> Optional[str]:
    """The layer a span's self time belongs to."""
    if name.startswith("proc:"):
        return name.split(":")[1]
    if name.startswith("Probe."):
        return "obs"
    return SPAN_LAYERS.get(name)


def install(tracer: Tracer, step_counter: list) -> None:
    """Wrap every layer's public entry points (see README.md)."""
    from repro.harness import checkpoint, integrity, jobs, pipeline, \
        transport
    from repro.interp.interpreter import VM
    from repro.mem.cache import Cache
    from repro.mem.memsys import CoherentMemorySystem as MS
    from repro.npb.common import KernelSpec
    from repro.obs.probe import Probe
    from repro.runtime.machine import Machine
    from repro.runtime.shell import ThreadShell
    from repro.sim.engine import Engine
    from repro.sim.resources import Server

    w = tracer.wrap
    # harness
    w(pipeline.ExecutionPipeline, "run_plan", "pipeline.run_plan",
      coarse=True)
    for cls in (transport.SerialTransport, transport.PoolTransport):
        w(cls, "run", "transport.run", coarse=True)
    w(checkpoint.CheckpointJournal, "load", "journal.load", coarse=True)
    w(checkpoint.CheckpointJournal, "record", "journal.record")
    for mod in (integrity, checkpoint):
        w(mod, "atomic_pickle", "integrity.atomic_pickle")
        w(mod, "load_verified", "integrity.load_verified")
    for mod in (jobs, transport):
        w(mod, "execute_spec", "execute_spec", coarse=True)
    # lang + compiler (through the compile cache) and the oracle
    w(KernelSpec, "compile", "KernelSpec.compile", coarse=True)
    w(KernelSpec, "verify", "KernelSpec.verify", coarse=True)
    # runtime + sim
    w(Machine, "__init__", "Machine.__init__")
    w(Machine, "run", "Machine.run", coarse=True)
    w(ThreadShell, "_fast_read", "ThreadShell._fast_read")
    w(ThreadShell, "_fast_write", "ThreadShell._fast_write")
    tracer.wrap_processes(Engine)
    tracer.wrap_gen(Server, "serve", "Server.serve")
    init = Engine.__init__

    def engine_init(engine, *args, **kw):
        init(engine, *args, **kw)

        def hook(_t, _proc):
            step_counter[0] += 1
        engine.trace_hook = hook
    tracer.patch(Engine, "__init__", functools.wraps(init)(engine_init))
    # interp
    w(VM, "run", "VM.run")
    # mem
    not_none = (lambda r: r is not None)
    w(MS, "try_fast_load", "memsys.try_fast_load", hit=not_none)
    w(MS, "try_fast_store", "memsys.try_fast_store", hit=not_none)
    w(MS, "l1_probe", "memsys.l1_probe", hit=bool)
    tracer.wrap_gen(MS, "load", "memsys.load")
    tracer.wrap_gen(MS, "store", "memsys.store")
    w(MS, "prefetch_exclusive", "memsys.prefetch_exclusive")
    # Cache lookups are counted, not timed: their time stays in the
    # hit or miss path that issued them.
    tracer.wrap_count(Cache, "lookup", "Cache.lookup")
    # obs
    for attr in ("count", "push", "pop", "switch", "close", "transfer",
                 "mem_level", "mem_fast", "instant", "fault", "classify"):
        w(Probe, attr, f"Probe.{attr}")
