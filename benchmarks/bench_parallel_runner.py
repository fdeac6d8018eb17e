"""Perf baseline for the parallel experiment execution layer.

Measures the static smoke sweep three ways -- serial with a cold
compile cache, serial warm, and under a process pool -- records the
per-stage compile/simulate split, and writes the whole measurement to
``BENCH_parallel_runner.json`` at the repository root so future PRs
have a wall-clock trajectory to compare against (cycle counts are
additionally asserted bit-identical across transports, the
determinism guarantee of :class:`repro.harness.ExecutionPipeline`).

Knobs (see conftest): ``REPRO_BENCH_SIZE``, ``REPRO_BENCH_CMPS``;
``REPRO_BENCH_POOL_JOBS`` sets the pool width measured here (default
``min(4, cpu_count)``).
"""

import json
import os
import pathlib
import platform
import time

from conftest import bench_cfg, bench_size, publish
from repro.config import PAPER_MACHINE
from repro.harness import (ExecutionPipeline, PoolTransport, render_table,
                           static_specs)
from repro.npb import clear_cache

BASELINE_PATH = pathlib.Path(__file__).parent.parent / \
    "BENCH_parallel_runner.json"

#: The CI smoke sweep: every execution mode, both sync policies, on the
#: two benchmarks with the most distinct communication patterns.
SMOKE_BENCHMARKS = ("bt", "cg")
SMOKE_CONFIGS = ("single", "double", "G0", "L1")


def _pool_jobs() -> int:
    # At least 2 so the pool machinery (fork, pickle, merge) is always
    # exercised; on a multicore host, up to 4.
    return int(os.environ.get("REPRO_BENCH_POOL_JOBS",
                              max(2, min(4, os.cpu_count() or 1))))


def _stage_split(runs):
    compile_s = sum(r.timing["compile_s"] for r in runs)
    sim_s = sum(r.timing["sim_s"] for r in runs)
    return {"compile_s": round(compile_s, 4), "sim_s": round(sim_s, 4)}


def _measure():
    specs = static_specs(bench_cfg(), bench_size(),
                         SMOKE_BENCHMARKS, SMOKE_CONFIGS)
    clear_cache()                       # cold in-memory compile cache
    t0 = time.perf_counter()
    cold = ExecutionPipeline().run(specs)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = ExecutionPipeline().run(specs)   # compile cache now hot
    t_warm = time.perf_counter() - t0

    jobs = _pool_jobs()
    t0 = time.perf_counter()
    pooled = ExecutionPipeline(PoolTransport(jobs=jobs)).run(specs)
    t_pool = time.perf_counter() - t0

    assert [r.cycles for r in warm] == [r.cycles for r in cold]
    assert [r.cycles for r in pooled] == [r.cycles for r in cold]
    return {
        "sweep": {"benchmarks": SMOKE_BENCHMARKS, "configs": SMOKE_CONFIGS,
                  "size": bench_size(), "n_cmps": bench_cfg().n_cmps,
                  "runs": len(specs)},
        # Per-run simulated cycles: the regression gate
        # (python -m repro.harness.regress) re-runs this sweep and
        # demands an exact match, so intended cycle changes must
        # regenerate this file (see README.md).
        "cycles": {f"{r.bench}/{r.config}": r.cycles for r in cold},
        "host": {"cpu_count": os.cpu_count(),
                 "platform": platform.platform(),
                 "python": platform.python_version()},
        "serial_cold_s": round(t_cold, 3),
        "serial_warm_s": round(t_warm, 3),
        "pool_jobs": jobs,
        "pool_s": round(t_pool, 3),
        "pool_speedup_vs_serial": round(t_cold / t_pool, 3),
        "stages_cold": _stage_split(cold),
        "stages_warm": _stage_split(warm),
        "cycles_bit_identical_across_contexts": True,
    }


def test_parallel_runner_baseline(once):
    data = once(_measure)
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
    rows = [
        ["serial (cold cache)", f"{data['serial_cold_s']:.2f}",
         f"{data['stages_cold']['compile_s']:.3f}",
         f"{data['stages_cold']['sim_s']:.2f}"],
        ["serial (warm cache)", f"{data['serial_warm_s']:.2f}",
         f"{data['stages_warm']['compile_s']:.3f}",
         f"{data['stages_warm']['sim_s']:.2f}"],
        [f"pool ({data['pool_jobs']} jobs)", f"{data['pool_s']:.2f}",
         "-", "-"],
    ]
    publish("parallel_runner", render_table(
        ["context", "wall s", "compile s", "sim s"], rows,
        f"execution contexts, {len(SMOKE_BENCHMARKS) * len(SMOKE_CONFIGS)}"
        f"-run static sweep ({data['sweep']['size']} size, "
        f"{data['sweep']['n_cmps']} CMPs, "
        f"host cpus={data['host']['cpu_count']})"))
    # Determinism is asserted inside _measure(); wall-clock claims about
    # pool speedup are only meaningful with real cores to fan out on.
    if (os.cpu_count() or 1) >= 4:
        assert data["pool_speedup_vs_serial"] > 1.5


# --------------------------------------------------- observability cost

def _measure_null_overhead():
    """Wall-clock of the test-size static sweep with observability off
    (NullSink) vs the default AggregateSink, warm compile cache,
    best-of-3 interleaved so cache/scheduler drift hits both arms."""
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    kw = dict(cfg=cfg, size="test", benchmarks=SMOKE_BENCHMARKS,
              configs=SMOKE_CONFIGS)
    agg = static_specs(kw["cfg"], kw["size"], kw["benchmarks"],
                       kw["configs"])
    null = static_specs(kw["cfg"], kw["size"], kw["benchmarks"],
                        kw["configs"], obs="null")
    ctx = ExecutionPipeline()
    baseline = ctx.run(agg)              # also warms the compile cache
    agg_s, null_s = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        ctx.run(agg)
        agg_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        runs = ctx.run(null)
        null_s.append(time.perf_counter() - t0)
    assert [r.cycles for r in runs] == [r.cycles for r in baseline]
    return {
        "sweep": {"benchmarks": SMOKE_BENCHMARKS,
                  "configs": SMOKE_CONFIGS, "size": "test", "n_cmps": 4},
        "aggregate_s": round(min(agg_s), 3),
        "null_s": round(min(null_s), 3),
        "null_over_aggregate": round(min(null_s) / min(agg_s), 4),
    }


def test_null_sink_overhead(once):
    data = once(_measure_null_overhead)
    if BASELINE_PATH.exists():           # fold into the shared baseline
        merged = json.loads(BASELINE_PATH.read_text())
        merged["null_sink"] = data
        BASELINE_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    publish("null_sink_overhead", render_table(
        ["sink", "wall s", "vs aggregate"],
        [["aggregate (default)", f"{data['aggregate_s']:.2f}", "1.000"],
         ["null (observability off)", f"{data['null_s']:.2f}",
          f"{data['null_over_aggregate']:.3f}"]],
        "observability-off cost, 8-run static sweep (test size, 4 CMPs)"))
    # The off switch must actually be an off switch: disabling
    # observability may not cost more than 2% over the default path
    # (in practice it is faster -- no span/counter bookkeeping).
    assert data["null_over_aggregate"] <= 1.02, data


# --------------------------------------------------- telemetry cost

def _measure_telemetry_overhead():
    """Wall-clock of the test-size static sweep with harness telemetry
    disabled (NULL_TELEMETRY, the default) vs a live on-disk session,
    warm compile cache, best-of-3 interleaved.  Same discipline as the
    NullSink guard above: the disabled path's no-op hooks must be
    free, and enabling must never change a cycle count."""
    import tempfile

    from repro.harness import ExecutionPipeline, SerialTransport, Telemetry

    cfg = PAPER_MACHINE.with_(n_cmps=4)
    specs = static_specs(cfg, "test", SMOKE_BENCHMARKS, SMOKE_CONFIGS)
    baseline = ExecutionPipeline(transport=SerialTransport()).run(specs)

    def run_off():
        t0 = time.perf_counter()
        runs = ExecutionPipeline(transport=SerialTransport()).run(specs)
        return runs, time.perf_counter() - t0

    off_s, on_s = [], []
    last_tel = None
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(4):
            def run_on(rep=rep):
                nonlocal last_tel
                last_tel = Telemetry(root=f"{tmp}/telemetry-{rep}")
                t0 = time.perf_counter()
                runs = ExecutionPipeline(transport=SerialTransport(),
                                         telemetry=last_tel).run(specs)
                dt = time.perf_counter() - t0
                last_tel.close()
                return runs, dt
            # Alternate arm order per rep so slow-drift noise (cache
            # pressure, scheduler) cannot bias one arm systematically.
            first, second = ((run_off, run_on) if rep % 2 == 0
                             else (run_on, run_off))
            a_runs, a_dt = first()
            b_runs, b_dt = second()
            if rep % 2 == 0:
                (off_runs, off_dt), (on_runs, on_dt) = \
                    (a_runs, a_dt), (b_runs, b_dt)
            else:
                (on_runs, on_dt), (off_runs, off_dt) = \
                    (a_runs, a_dt), (b_runs, b_dt)
            off_s.append(off_dt)
            on_s.append(on_dt)
    base = [r.cycles for r in baseline]
    assert [r.cycles for r in off_runs] == base
    assert [r.cycles for r in on_runs] == base
    return {
        "sweep": {"benchmarks": SMOKE_BENCHMARKS,
                  "configs": SMOKE_CONFIGS, "size": "test", "n_cmps": 4},
        "off_s": round(min(off_s), 3),
        "on_s": round(min(on_s), 3),
        "off_over_on": round(min(off_s) / min(on_s), 4),
        "on_over_off": round(min(on_s) / min(off_s), 4),
        "exec_hist_on": last_tel.metrics.histograms[
            "unit.exec_s"].snapshot(),
        "cycles_bit_identical_on_off": True,
    }


def test_telemetry_overhead(once):
    data = once(_measure_telemetry_overhead)
    if BASELINE_PATH.exists():           # fold into the shared baseline
        merged = json.loads(BASELINE_PATH.read_text())
        merged["telemetry"] = data
        BASELINE_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    publish("telemetry_overhead", render_table(
        ["telemetry", "wall s", "vs on"],
        [["off (default)", f"{data['off_s']:.2f}",
          f"{data['off_over_on']:.3f}"],
         ["on (event log + metrics)", f"{data['on_s']:.2f}", "1.000"]],
        "harness-telemetry cost, 8-run static sweep (test size, 4 CMPs)"))
    # Zero-cost-off, NullSink discipline: the disabled path (the
    # default everywhere) may not cost more than 2% over the recorded
    # one -- if it does, the no-op hooks are not actually no-ops.
    assert data["off_over_on"] <= 1.02, data


# --------------------------------------------------- hazard-site cost

def _measure_hazard_overhead():
    """Wall-clock of the test-size static sweep through a checkpointed
    + memoized pipeline with hazard sites disarmed (the default
    everywhere) vs armed with an empty schedule (every publish/claim
    site consults the plan, nothing ever fires), warm compile cache,
    best-of-4 interleaved.  Same discipline as the telemetry guard:
    the disarmed check is one cached pid comparison per site and must
    be free, and arming must never change a cycle count."""
    import tempfile

    from repro.harness import (CheckpointJournal, ExecutionPipeline,
                               MemoStore, SerialTransport)
    from repro.harness import hazards
    from repro.harness.hazards import HazardConfig

    cfg = PAPER_MACHINE.with_(n_cmps=4)
    specs = static_specs(cfg, "test", SMOKE_BENCHMARKS, SMOKE_CONFIGS)
    baseline = ExecutionPipeline().run(specs)   # warms the compile cache

    def sweep(root, tag):
        # fresh journal/memo per arm+rep: every run pays the full
        # publish path (atomic_pickle x2 per unit), where the hazard
        # seam lives
        pipe = ExecutionPipeline(
            transport=SerialTransport(),
            journal=CheckpointJournal(f"{root}/j-{tag}"),
            memo=MemoStore(f"{root}/m-{tag}"))
        t0 = time.perf_counter()
        runs = pipe.run(specs)
        return runs, time.perf_counter() - t0

    def run_disarmed(root, rep):
        hazards.disarm()
        return sweep(root, f"off-{rep}")

    def run_armed(root, rep):
        plan = hazards.arm(HazardConfig(0))
        plan.schedule = {k: {} for k in plan.schedule}  # fires nothing
        plan._seen = {k: 0 for k in plan.schedule}
        try:
            return sweep(root, f"on-{rep}")
        finally:
            hazards.disarm()

    off_s, on_s = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(4):
            # Alternate arm order per rep (telemetry-guard discipline).
            first, second = ((run_disarmed, run_armed) if rep % 2 == 0
                             else (run_armed, run_disarmed))
            a_runs, a_dt = first(tmp, rep)
            b_runs, b_dt = second(tmp, rep)
            if rep % 2 == 0:
                (off_runs, off_dt), (on_runs, on_dt) = \
                    (a_runs, a_dt), (b_runs, b_dt)
            else:
                (on_runs, on_dt), (off_runs, off_dt) = \
                    (a_runs, a_dt), (b_runs, b_dt)
            off_s.append(off_dt)
            on_s.append(on_dt)
    base = [r.cycles for r in baseline]
    assert [r.cycles for r in off_runs] == base
    assert [r.cycles for r in on_runs] == base
    return {
        "sweep": {"benchmarks": SMOKE_BENCHMARKS,
                  "configs": SMOKE_CONFIGS, "size": "test", "n_cmps": 4},
        "disarmed_s": round(min(off_s), 3),
        "armed_empty_s": round(min(on_s), 3),
        "disarmed_over_armed": round(min(off_s) / min(on_s), 4),
        "cycles_bit_identical_armed_disarmed": True,
    }


def test_hazards_disarmed_overhead(once):
    data = once(_measure_hazard_overhead)
    if BASELINE_PATH.exists():           # fold into the shared baseline
        merged = json.loads(BASELINE_PATH.read_text())
        merged["hazards"] = data
        BASELINE_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    publish("hazards_disarmed_overhead", render_table(
        ["hazard sites", "wall s", "vs armed"],
        [["disarmed (default)", f"{data['disarmed_s']:.2f}",
          f"{data['disarmed_over_armed']:.3f}"],
         ["armed, empty schedule", f"{data['armed_empty_s']:.2f}",
          "1.000"]],
        "hazard-site cost, 8-run checkpointed sweep (test size, 4 CMPs)"))
    # The injector must be invisible until armed: the disarmed path
    # (every production run) may not cost more than 2% over an armed
    # plan that never fires -- same bar as the telemetry off switch.
    assert data["disarmed_over_armed"] <= 1.02, data
