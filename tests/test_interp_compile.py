"""Generated-code tier (hot-path tier ``compile``): the exec'd
functions must be observationally identical to the interpreter loop.

The contract under test is *bit-identity of the event/cycle stream*:
for any program, driving a VM whose Codes run as generated Python
functions must produce exactly the same sequence of events -- same
types, same payloads, and same ``take_cycles()`` reading at every
yield point -- as the tuple-dispatch interpreter, plus the same final
memory image.  A seeded random-program sweep covers the combinatorial
space; directed tests pin the deopt edges (restore, corrupt, armed
faults, profiling, wild pc) where the tier must step aside without
perturbing a single cycle.
"""

import random

import pytest

from repro.compiler import compile_source
from repro.compiler.optimize import optimize_code
from repro.config import PAPER_MACHINE
from repro.harness import RunSpec, execute_spec
from repro.hotpath import reset_for_tests
from repro.interp import VM, Done, IoOut, MemRead, MemWrite, RtCall
from repro.interp.compile import attach_generated
from repro.interp.events import TimeSlice
from repro.interp.interpreter import MISS, VMError
from repro.obs.profile import TrackProfile

# ------------------------------------------------------------ random SlipC

N_ARR = 16


def _iexpr(rng, depth):
    """A terminating int expression over loop counter i and scratch j."""
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(["i", "j", str(rng.randint(0, 9))])
    a, b = _iexpr(rng, depth - 1), _iexpr(rng, depth - 1)
    op = rng.choice(["+", "-", "*", "%"])
    if op == "%":
        b = str(rng.randint(2, 7))           # nonzero literal divisor
    return f"({a} {op} {b})"


MAIN_LEAVES = ("x", "y", "i", "j", f"arr[i % {N_ARR}]")


def _dexpr(rng, depth, leaves=MAIN_LEAVES):
    """A double expression; division only by nonzero literals and no
    raw sqrt/log of possibly-negative values, so no NaNs or traps --
    traces stay comparable with plain ``==``."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(list(leaves) + ["%.2f" % rng.uniform(-4, 4)])
    kind = rng.random()
    a = _dexpr(rng, depth - 1, leaves)
    b = _dexpr(rng, depth - 1, leaves)
    if kind < 0.15:
        return f"min({a}, {b})"
    if kind < 0.3:
        return f"max({a}, {b})"
    if kind < 0.4:
        return f"fabs({a})"
    if kind < 0.5:
        return f"sqrt(fabs({a}))"
    if kind < 0.6:
        return f"(-{a})"
    if kind < 0.7:
        return "({} / {:.2f})".format(a, rng.uniform(1.0, 5.0))
    return f"({a} {rng.choice(['+', '-', '*'])} {b})"


def _stmt(rng, depth=2):
    r = rng.random()
    if r < 0.2:
        return f"x = {_dexpr(rng, depth)};"
    if r < 0.35:
        return f"y = f0({_dexpr(rng, 1)}, {_dexpr(rng, 1)});"
    if r < 0.5:
        return f"j = {_iexpr(rng, depth)};"
    if r < 0.65:
        return f"arr[i % {N_ARR}] = {_dexpr(rng, depth)};"
    if r < 0.78:
        return f"ga = ga + {_dexpr(rng, 1)};"
    if r < 0.88:
        cmp = rng.choice(["<", ">", "<=", ">=", "==", "!="])
        return (f"if ({_dexpr(rng, 1)} {cmp} {_dexpr(rng, 1)}) "
                f"{{ {_stmt(rng, 1)} }} else {{ {_stmt(rng, 1)} }}")
    return "gb = j;"


def make_program(seed):
    rng = random.Random(seed)
    body = []
    for _ in range(rng.randint(2, 4)):
        body.append(_stmt(rng))
    loops = []
    for _ in range(rng.randint(1, 3)):
        inner = "\n        ".join(_stmt(rng) for _ in range(rng.randint(1, 3)))
        loops.append(f"""
    i = 0;
    while (i < {rng.randint(3, 9)}) {{
        {inner}
        i = i + 1;
    }}""")
    return f"""
double ga;
int gb;
double arr[{N_ARR}];

double f0(double a, double b) {{
    double r;
    r = {_dexpr(rng, 2, leaves=("a", "b"))};
    return r + min(a, b);
}}

void main() {{
    int i;
    int j;
    double x;
    double y;
    i = 0;
    j = {rng.randint(0, 5)};
    x = 0.5;
    y = -1.25;
    {' '.join(body)}
    {''.join(loops)}
    print(ga, gb, x, y, j);
}}
"""


# ------------------------------------------------------------------ driver

def new_store(prog):
    store = {}
    for g in prog.globals:
        store[g.index] = [0.0] * g.size if g.dims else (g.init or 0)
    return store


def drive(prog, compiled, fast=False):
    """Run to Done, logging every (event, cycles) pair; optionally with
    fast-path hooks that hit on even flat indices and miss on odd."""
    vm = VM(prog, prog.main_index)
    if not compiled:
        vm.disable_compiled()
    store = new_store(prog)
    if fast:
        def fast_read(g, flat):
            if flat % 2 == 0:
                v = store[g]
                return v[flat] if isinstance(v, list) else v
            return MISS

        def fast_write(g, flat, val):
            if flat % 2:
                return False
            v = store[g]
            if isinstance(v, list):
                v[flat] = val
            else:
                store[g] = val
            return True
        vm.fast_read = fast_read
        vm.fast_write = fast_write
    trace = []
    for _ in range(200_000):
        ev = vm.run()
        c = vm.take_cycles()
        k = type(ev)
        if k is MemRead:
            trace.append(("R", ev.gidx, ev.flat, c))
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
        elif k is MemWrite:
            trace.append(("W", ev.gidx, ev.flat, ev.value, c))
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
        elif k is IoOut:
            trace.append(("IO", ev.values, c))
        elif k is TimeSlice:
            trace.append(("TS", c))
        elif k is RtCall:
            trace.append(("RT", ev.name, ev.args, c))
            vm.push(0)
        elif k is Done:
            trace.append(("DONE", ev.value, c))
            return trace, store, vm
    raise AssertionError("program did not terminate")


def assert_same_run(prog, fast=False):
    t_i, s_i, _ = drive(prog, compiled=False, fast=fast)
    t_c, s_c, _ = drive(prog, compiled=True, fast=fast)
    for n, (a, b) in enumerate(zip(t_i, t_c)):
        assert a == b, f"event {n} diverged: interp {a} vs compiled {b}"
    assert len(t_i) == len(t_c)
    assert s_i == s_c


# ------------------------------------------------------- property sweep

@pytest.mark.parametrize("seed", range(30))
def test_random_programs_identical_streams(seed, monkeypatch):
    """Seeded random programs: identical (event, cycles) streams and
    final stores, with and without the uncontended fast path."""
    src = make_program(seed)
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    prog = compile_source(src)
    assert all(f.gen_src is not None for f in prog.funcs)
    assert_same_run(prog, fast=False)
    assert_same_run(prog, fast=True)


@pytest.mark.parametrize("seed", [0, 3, 6, 9, 12])
def test_random_programs_identical_without_fusion(seed, monkeypatch):
    """Same property on unfused opcode streams (peephole-optimized but
    not fused): the generated code's cost folding must match the
    pre-fusion translation too."""
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    prog = compile_source(make_program(seed), optimize=False)
    for code in prog.funcs:
        optimize_code(code)
    assert attach_generated(prog)
    assert_same_run(prog, fast=False)
    assert_same_run(prog, fast=True)


# -------------------------------------------------------- directed deopt

SRC_LOOP = f"""
double ga;
double arr[{N_ARR}];
void main() {{
    int i;
    i = 0;
    while (i < {N_ARR}) {{
        arr[i] = i * 2.5;
        ga = ga + arr[i];
        i = i + 1;
    }}
    print(ga);
}}
"""


def test_compiled_tier_attaches_and_activates():
    prog = compile_source(SRC_LOOP)
    assert all(f.gen_src is not None for f in prog.funcs)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None


def test_tier_off_means_no_gen_src_and_interpreter(monkeypatch):
    monkeypatch.setenv("REPRO_HOTPATH", "")
    reset_for_tests()
    prog = compile_source(SRC_LOOP)
    assert all(f.gen_src is None for f in prog.funcs)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is None
    t, s, _ = drive(prog, compiled=False)
    assert t[-1][0] == "DONE"


def test_image_without_gen_src_falls_back(monkeypatch):
    """A compile-tier process handed an image built with the tier off
    (stale pickle, foreign producer) must run it interpreted -- the
    all-or-nothing gate returns None, never a partial table."""
    monkeypatch.setenv("REPRO_HOTPATH", "")
    reset_for_tests()
    prog = compile_source(SRC_LOOP)
    monkeypatch.delenv("REPRO_HOTPATH")
    reset_for_tests()
    vm = VM(prog, prog.main_index)          # tier on, but no gen_src
    assert vm._cfns is None
    t, _, _ = drive(prog, compiled=False)
    assert t[-1][0] == "DONE"


def _run_to_nth_write(vm, store, n):
    writes = 0
    while True:
        ev = vm.run()
        vm.take_cycles()
        if isinstance(ev, MemRead):
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
        elif isinstance(ev, MemWrite):
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
            writes += 1
            if writes == n:
                return ev


def test_restore_deopts_and_replays_exactly():
    """Snapshot mid-run under the compiled tier, restore, finish: the
    VM drops to the interpreter for good and the replayed tail matches
    a never-compiled run bit for bit."""
    prog = compile_source(SRC_LOOP)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None
    store = new_store(prog)
    _run_to_nth_write(vm, store, 5)
    snap = vm.snapshot()
    snap_store = {k: (list(v) if isinstance(v, list) else v)
                  for k, v in store.items()}
    vm.restore(snap)
    assert vm._cfns is None                 # permanent deopt

    # Reference: an interpreter-only VM advanced to the same point.
    ref = VM(prog, prog.main_index)
    ref.disable_compiled()
    ref_store = new_store(prog)
    _run_to_nth_write(ref, ref_store, 5)
    ref.restore(ref.snapshot())

    def finish(v, st):
        tail = []
        while True:
            ev = v.run()
            c = v.take_cycles()
            if isinstance(ev, MemRead):
                val = st[ev.gidx]
                v.push(val[ev.flat] if isinstance(val, list) else val)
                tail.append(("R", ev.gidx, ev.flat, c))
            elif isinstance(ev, MemWrite):
                val = st[ev.gidx]
                if isinstance(val, list):
                    val[ev.flat] = ev.value
                else:
                    st[ev.gidx] = ev.value
                tail.append(("W", ev.gidx, ev.flat, ev.value, c))
            elif isinstance(ev, IoOut):
                tail.append(("IO", ev.values, c))
            elif isinstance(ev, Done):
                tail.append(("DONE", c))
                return tail

    assert finish(vm, snap_store) == finish(ref, ref_store)


def test_corrupt_deopts():
    prog = compile_source(SRC_LOOP)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None
    store = new_store(prog)
    _run_to_nth_write(vm, store, 2)
    assert vm.corrupt((0, 999.0)) is not None
    assert vm._cfns is None


def test_profile_binding_takes_priority():
    """Binding a profile drops a VM with compiled functions attached
    to the line-attributing interpreter loop -- with the same busy
    cycles as the generated code."""
    prog = compile_source(SRC_LOOP)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None
    TrackProfile("T0").bind_vm(vm)
    assert vm._cfns is None
    t_p, s_p, _ = _drive_bound(vm, prog)
    t_c, s_c, _ = drive(prog, compiled=True)
    assert t_p == t_c and s_p == s_c
    assert vm.profile and sum(vm.profile.values()) > 0


def _drive_bound(vm, prog):
    store = new_store(prog)
    trace = []
    while True:
        ev = vm.run()
        c = vm.take_cycles()
        if isinstance(ev, MemRead):
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
            trace.append(("R", ev.gidx, ev.flat, c))
        elif isinstance(ev, MemWrite):
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
            trace.append(("W", ev.gidx, ev.flat, ev.value, c))
        elif isinstance(ev, IoOut):
            trace.append(("IO", ev.values, c))
        elif isinstance(ev, Done):
            trace.append(("DONE", ev.value, c))
            return trace, store, vm


def test_wild_pc_faults_like_interpreter():
    """A pc the generated code has no entry for deopts to the
    interpreter, which raises its usual VMError -- no KeyError or
    silent miscompile from the dispatch table."""
    prog = compile_source(SRC_LOOP)
    for compiled in (True, False):
        vm = VM(prog, prog.main_index)
        if not compiled:
            vm.disable_compiled()
        vm.frames[-1].pc = 10 ** 6
        with pytest.raises(VMError):
            vm.run()


def test_division_trap_identical():
    src = "int z;\nvoid main() { int a; a = 7; z = 0; a = a / z; }"
    prog = compile_source(src)

    def crash(compiled):
        vm = VM(prog, prog.main_index)
        if not compiled:
            vm.disable_compiled()
        store = {0: 0}
        try:
            while True:
                ev = vm.run()
                if isinstance(ev, MemRead):
                    vm.push(store.get(ev.gidx, 0))
                elif isinstance(ev, MemWrite):
                    store[ev.gidx] = ev.value
                elif isinstance(ev, Done):
                    return ("done",)
        except VMError as e:
            return ("trap", str(e), vm.pending_cycles)

    assert crash(True) == crash(False)
    assert crash(True)[0] == "trap"


# ------------------------------------------------- machine-level identity

def test_benchmark_identical_with_tier_on_and_off(monkeypatch):
    """Full runtime path (slipstream shells, rt ops, faults disarmed):
    cycles, rt_stats and breakdowns are tier-invariant."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    results = {}
    for tiers in (None, ""):
        if tiers is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", tiers)
        reset_for_tests()
        run = execute_spec(RunSpec.make("cg", "G0", size="test", cfg=cfg))
        results[tiers] = run
    on, off = results[None], results[""]
    assert on.cycles == off.cycles
    assert on.result.rt_stats == off.result.rt_stats
    assert on.result.r_breakdown == off.result.r_breakdown
    assert on.result.classes.as_dict() == off.result.classes.as_dict()


def test_fault_armed_shells_run_interpreted(monkeypatch):
    """Armed fault plans force the interpreter (injection hooks need
    live Frame state) -- and the campaign's results are tier-invariant
    because only disarmed A-streams ever ran compiled."""
    from repro.faults import FaultConfig
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    outcomes = {}
    for tiers in (None, ""):
        if tiers is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", tiers)
        reset_for_tests()
        spec = RunSpec.make("cg", "G0", size="test", verify=True,
                            faults=FaultConfig(4, classes=("vm",)),
                            timeout_cycles=5e6, cfg=cfg)
        r = execute_spec(spec).result
        outcomes[tiers] = (r.cycles, r.rt_stats, r.faults["fired"],
                           r.recoveries)
    assert outcomes[None] == outcomes[""]
