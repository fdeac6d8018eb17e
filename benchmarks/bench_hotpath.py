"""Hot-path benchmark: the reference path against the default.

``REPRO_HOTPATH`` has one tier, ``compile`` (generated code per
function).  This benchmark runs the test-size static suite serially on
the two arms -- ``reference`` (``REPRO_HOTPATH=``, the bytecode
interpreter) and ``default`` (unset, generated code) -- in **paired,
interleaved** reps: each rep runs both arms back to back, alternating
which goes first, so host drift hits the pair rather than one arm.  It
then:

* asserts the simulated cycle map is bit-identical across the arms
  (the tier's cycle-exactness contract);
* reports CPU time per arm and the per-pair speedup as median and
  interquartile range, plus the same for a VM-dispatch microbenchmark,
  and writes them to ``BENCH_hotpath.json`` at the repository root.

The suite here is pinned to test size / 4 CMPs (the regress smoke
scale) regardless of ``REPRO_BENCH_SIZE`` so the recorded trajectory
stays comparable across hosts.  ``REPRO_BENCH_HOTPATH_REPS`` sets the
number of pairs (default 7).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -s``
"""

import json
import os
import pathlib
import platform
import statistics
import time

from conftest import publish
from repro.config import PAPER_MACHINE
from repro.harness import render_table, run_static_suite
from repro.hotpath import reset_for_tests

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_hotpath.json"

#: Arm name -> ``REPRO_HOTPATH`` value (None: unset).
ARMS = {"reference": "", "default": None}
REPS = int(os.environ.get("REPRO_BENCH_HOTPATH_REPS", "7"))


def _suite():
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    return run_static_suite(cfg=cfg, size="test")


def _vm_only_bench():
    """Dispatch-only microbenchmark: a compute-bound kernel driven as a
    bare VM (events serviced from a flat store), so the measurement
    isolates what the ``compile`` tier actually touches --
    fetch/decode/dispatch -- from the memory-system and engine work
    that dominates the machine-level suite."""
    from repro.compiler import compile_source
    from repro.interp import VM, Done, MemRead, MemWrite
    prog = compile_source("""
double acc;
void main() {
    int i;
    int k;
    double x;
    double y;
    acc = 0.0;
    k = 0;
    while (k < 60) {
        x = 1.0; y = 0.5; i = 0;
        while (i < 4000) {
            x = x + y * 0.25 - min(x, y);
            y = max(y, x / 3.0) + fabs(x - y) * 0.125;
            i = i + 1;
        }
        acc = acc + x + y;
        k = k + 1;
    }
    print(acc);
}
""")
    t0 = time.process_time()
    vm = VM(prog, prog.main_index)
    store = {}
    for g in prog.globals:
        store[g.index] = [0.0] * g.size if g.dims else (g.init or 0)
    while True:
        ev = vm.run()
        vm.take_cycles()
        k = type(ev)
        if k is MemRead:
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
        elif k is MemWrite:
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
        elif k is Done:
            return time.process_time() - t0
        else:
            vm.push(0)


def _cycle_map(suite):
    return {f"{b}/{c}": run.cycles
            for b, row in suite.items() for c, run in row.items()}


def _spread(xs):
    """Median and interquartile range ``[q1, q3]``, rounded."""
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(statistics.median(xs), 3),
            "iqr": [round(q1, 3), round(q3, 3)]}


def _set_arm(arm):
    value = ARMS[arm]
    if value is None:
        os.environ.pop("REPRO_HOTPATH", None)
    else:
        os.environ["REPRO_HOTPATH"] = value
    reset_for_tests()                   # tiers latch once per process


def _measure():
    prior = os.environ.get("REPRO_HOTPATH")
    try:
        cycle_maps = {}
        cpu = {arm: [] for arm in ARMS}
        vm_cpu = {arm: [] for arm in ARMS}

        def run(arm, record=True):
            _set_arm(arm)
            t0 = time.process_time()
            suite = _suite()
            dt = time.process_time() - t0
            cycle_maps.setdefault(arm, _cycle_map(suite))
            if record:
                cpu[arm].append(dt)
                vm_cpu[arm].append(_vm_only_bench())

        for arm in ARMS:                        # warm compile caches
            run(arm, record=False)
        order = list(ARMS)
        for _ in range(REPS):                   # paired, interleaved
            for arm in order:
                run(arm)
            order.reverse()

        base = cycle_maps["reference"]
        assert cycle_maps["default"] == base, "cycle drift off reference"
        speedup = [r / d for r, d in zip(cpu["reference"], cpu["default"])]
        vm_speedup = [r / d for r, d in zip(vm_cpu["reference"],
                                            vm_cpu["default"])]
        return {
            "sweep": {"suite": "static", "size": "test", "n_cmps": 4,
                      "runs": len(base), "pairs": REPS,
                      "timer": "process_time; paired interleaved reps, "
                               "first arm alternating per pair; median "
                               "and interquartile range",
                      "vm_dispatch": "per-arm compute-bound bare-VM "
                                     "microbenchmark isolating what the "
                                     "compile tier touches"},
            "cycles": base,
            "cycles_bit_identical_across_arms": True,
            "arms": {
                arm: {"REPRO_HOTPATH": "unset" if v is None else v,
                      "cpu_s": _spread(cpu[arm]),
                      "cpu_reps": [round(x, 3) for x in cpu[arm]],
                      "vm_dispatch_s": _spread(vm_cpu[arm])}
                for arm, v in ARMS.items()},
            "paired_speedup": {"suite": _spread(speedup),
                               "vm_dispatch": _spread(vm_speedup)},
            "host": {"cpu_count": os.cpu_count(),
                     "platform": platform.platform(),
                     "python": platform.python_version()},
            "notes": {
                "compile": "The generated-code tier removes dispatch "
                           "outright: on the compute-bound VM-only "
                           "microbenchmark it is an order of magnitude "
                           "over the interpreter.  The suite-level gain "
                           "is Amdahl-capped: the rest of suite CPU is "
                           "the shell's hit path, the memory system and "
                           "the event engine.",
                "fuse": "Superinstruction fusion has no switch: it is "
                        "always on, on both arms.  It carries most of "
                        "the interpreter-side speedup (it removes about "
                        "55% of VM dispatches on this suite); under the "
                        "compile tier its effect was within noise.",
                "engine": "The event queue is one heapq.  A calendar/"
                          "bucket queue measured at parity with it (its "
                          "paired difference sat inside the host's "
                          "spread) and was removed.",
            },
        }
    finally:
        if prior is None:
            os.environ.pop("REPRO_HOTPATH", None)
        else:
            os.environ["REPRO_HOTPATH"] = prior
        reset_for_tests()


def test_hotpath_ablation(once):
    data = once(_measure)
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
    sp = data["paired_speedup"]
    rows = []
    for arm, d in data["arms"].items():
        gain = (sp["suite"] if arm == "default"
                else {"median": 1.0, "iqr": [1.0, 1.0]})
        rows.append([arm, d["REPRO_HOTPATH"] or '""',
                     f"{d['cpu_s']['median']:.2f}",
                     "{:.2f}-{:.2f}".format(*d["cpu_s"]["iqr"]),
                     f"{gain['median']:.3f}",
                     "{:.3f}-{:.3f}".format(*gain["iqr"])])
    publish("hotpath_ablation", render_table(
        ["arm", "REPRO_HOTPATH", "cpu s (median)", "cpu s (IQR)",
         "speedup vs reference (median)", "speedup (IQR)"], rows,
        f"hot-path reference vs default, {data['sweep']['runs']}-run "
        f"static suite (test size, 4 CMPs, {data['sweep']['pairs']} "
        f"paired interleaved reps, host cpus={data['host']['cpu_count']}"
        f"); VM-dispatch speedup median "
        f"{sp['vm_dispatch']['median']:.1f}x"))
    # The exactness contract is the hard gate; the wall-clock floors
    # sit deliberately below the recorded medians (~1.3x suite, ~17x
    # dispatch; fusion is on in both arms) so noisy hosts don't flake.
    assert data["cycles_bit_identical_across_arms"]
    assert sp["suite"]["median"] > 1.15, sp
    assert sp["vm_dispatch"]["median"] > 3.0, sp
