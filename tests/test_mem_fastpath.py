"""Directed tests for the memory system's synchronous hit path
(``try_fast_load``/``try_fast_store``): latencies, the "latency or
None" contract, and the cache state, LRU order and statistics it must
leave -- the same as the generator path's lookup/insert calls."""

from repro.config import PAPER_MACHINE
from repro.mem import CoherentMemorySystem, MESIState
from repro.mem.address import SHARED_BASE
from repro.sim import Engine


def make(n_cmps=2, **kw):
    cfg = PAPER_MACHINE.with_(n_cmps=n_cmps, placement="round_robin", **kw)
    eng = Engine()
    return eng, CoherentMemorySystem(eng, cfg), cfg


def addr_homed_at(cfg, node):
    return SHARED_BASE + node * cfg.page_bytes


def test_fast_load_misses_the_cmp_returns_none():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    assert ms.try_fast_load(0, 0, a, "R") is None
    nm = ms.nodes[0]
    assert nm.l2.hits == nm.l2.misses == 0      # L2 only peeked
    assert nm.l1s[0].misses == 0                # left to the slow path
    assert nm.l2.peek(a) is None and nm.l1s[0].peek(a) is None


def test_cold_shared_load_records_one_l1_miss():
    """A shell's cold load tries the hit path, then the timed slow path
    (which probes the L1 again): one access, one recorded L1 miss."""
    from repro.compiler import compile_source
    from repro.interp.interpreter import MISS
    from repro.runtime.machine import Machine
    img = compile_source("double x[4];\nvoid main() { x[1] = x[2]; }")
    m = Machine(img, PAPER_MACHINE.with_(n_cmps=1), "single")
    shell = m.shells[0]
    gidx = img.global_named("x").index
    assert shell._fast_read(gidx, 2) is MISS
    m.engine.run_process(shell.timed_load(m.gaddr(gidx, 2)))
    l1 = m.memsys.nodes[0].l1s[0]
    assert (l1.hits, l1.misses) == (0, 1)
    assert m.memsys.nodes[0].l2.misses == 1
    assert shell._fast_read(gidx, 3) == 0.0     # same line: an L1 hit
    assert (l1.hits, l1.misses) == (1, 1)


def test_fast_load_l1_hit_is_one_cycle_and_touches_lru():
    eng, ms, cfg = make()
    l1 = ms.nodes[0].l1s[0]
    a = addr_homed_at(cfg, 0)
    b = a + l1.cfg.num_sets * cfg.line_bytes     # same L1 set
    eng.run_process(ms.load(0, 0, a))
    eng.run_process(ms.load(0, 0, b))
    hits, l2_hits = l1.hits, ms.nodes[0].l2.hits
    assert ms.try_fast_load(0, 0, a + 8, "R") == ms.c_l1   # same line
    assert l1.hits == hits + 1
    assert ms.nodes[0].l2.hits == l2_hits        # L2 never consulted
    s = l1._sets[(a // cfg.line_bytes) % l1.cfg.num_sets]
    assert list(s) == [b, a]                     # a is now MRU


def test_fast_load_l2_hit_fills_the_l1():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    eng.run_process(ms.load(0, 0, a))            # CPU 0 fills the L2
    nm = ms.nodes[0]
    assert nm.l1s[1].peek(a) is None
    assert ms.try_fast_load(0, 1, a, "A") == ms.c_l2
    assert nm.l1s[1].peek(a) is not None
    line = nm.l2.peek(a)
    assert line.sibling_hit                      # R filled it, A used it
    ms.publish_cache_stats()                     # folds the hit tallies
    assert nm.stats.get("l2_hits") == 1
    assert nm.stats.get("loads") == 1 + 1        # slow load + fast load


def test_fast_load_l1_fill_evicts_lru_when_set_full():
    eng, ms, cfg = make()
    nm = ms.nodes[0]
    stride = nm.l1s[0].cfg.num_sets * cfg.line_bytes   # same L1 set
    base = addr_homed_at(cfg, 0)
    addrs = [base + i * stride for i in range(cfg.l1.assoc + 1)]
    for a in addrs:
        eng.run_process(ms.load(0, 0, a))        # L2 holds them all
    for a in addrs:
        ms.try_fast_load(0, 1, a, "R")           # fill CPU 1's L1 set
    l1 = nm.l1s[1]
    assert l1.evictions == 1
    assert l1.peek(addrs[0]) is None             # the LRU one went
    assert all(l1.peek(a) is not None for a in addrs[1:])


def test_fast_store_needs_an_exclusive_line():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    assert ms.try_fast_store(0, 0, a, "R") is None     # not resident
    eng.run_process(ms.load(0, 0, a))
    assert ms.try_fast_store(0, 0, a, "R") is None     # SHARED only
    assert ms.nodes[0].l2.peek(a).state == MESIState.SHARED


def test_fast_store_hit_is_write_through():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    eng.run_process(ms.store(0, 0, a))           # node 0 owns the line
    nm = ms.nodes[0]
    assert ms.try_fast_load(0, 1, a, "R") == ms.c_l2   # sibling L1 copy
    inv = nm.l1s[1].invalidations
    assert ms.try_fast_store(0, 0, a, "R") == ms.c_l2
    line = nm.l2.peek(a)
    assert line.dirty and line.state == MESIState.EXCLUSIVE
    assert nm.l1s[1].peek(a) is None             # sibling invalidated
    assert nm.l1s[1].invalidations == inv + 1
    assert nm.l1s[0].peek(a) is not None         # writer keeps its copy
    ms.publish_cache_stats()
    assert nm.stats.get("stores") == 2


def test_fast_paths_leave_the_generator_paths_cache_state():
    """The inlined hit paths must leave the same tags, LRU order and
    hit/eviction counts as the generator path's lookup/insert calls,
    on a workload that hits, misses and evicts in both levels."""
    def drive(fast):
        eng, ms, cfg = make(n_cmps=1)
        stride = ms.nodes[0].l1s[0].cfg.num_sets * cfg.line_bytes
        addrs = [SHARED_BASE + i * stride for i in range(5)]
        seq = [addrs[i % 5] for i in (0, 1, 2, 0, 3, 1, 4, 0, 2, 2, 3)]

        def body():
            for i, a in enumerate(seq):
                cpu = i % 2
                if not (fast and ms.try_fast_load(0, cpu, a, "R")):
                    if not ms.l1_probe(0, cpu, a):
                        yield from ms.load(0, cpu, a)
                if i % 3 == 0:
                    if not (fast and ms.try_fast_store(0, cpu, a, "R")):
                        yield from ms.store(0, cpu, a)
        eng.run_process(body())
        nm = ms.nodes[0]
        return [(list(s), c.hits, c.misses, c.evictions, c.invalidations)
                for c in nm.l1s + [nm.l2] for s in c._sets if s]

    assert drive(fast=True) == drive(fast=False)
