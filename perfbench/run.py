"""The repository benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload fig2_static --seed 1 \\
        --seconds 25 --trace 0

Runs the workload's sweep on the default ``REPRO_HOTPATH`` tiers,
checks every run (NumPy oracle, reference cycles, determinism,
pipeline counters), and prints a report followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from checks import (CountStore, classify, count_diffs, keyed,
                    load_reference, run_counts, sweep_gain_err_pts)
from spans import Tracer, install, layer_of
from workloads import WORKLOADS, kernels, run_name, shuffled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_tmp"
SETUP_REPS = 7

#: A fresh interpreter imports repro and compiles the given kernels
#: with the on-disk compile cache off; prints the elapsed seconds.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import repro
from repro.npb import REGISTRY
for bench, size, params in {kernels!r}:
    REGISTRY[bench].compile(size, **dict(params))
print(time.perf_counter() - t0)
"""


def _private_env() -> None:
    """Point every cache the program has at a private directory and
    turn off the two that could serve work without doing it."""
    os.environ["REPRO_DISK_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")
    os.environ["REPRO_MEMO_DIR"] = str(WORK / "memo")


def _import_repro():
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    where = Path(repro.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"repro imported from {where}, not this checkout")
    return repro


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


# -- one pass over a sweep --------------------------------------------------

@dataclasses.dataclass
class Pass:
    """One pass over a sweep: its runs in canonical order, its wall
    time, and whether the pipeline counters show honest work."""

    specs: list
    runs: list
    sweep_s: float
    executed_ok: bool
    resume_s: Optional[float] = None
    resume_ok: bool = True


def run_pass(workload, order, canonical, tag: str) -> Pass:
    """Run ``order`` through a fresh pipeline; return runs in
    ``canonical`` order.  A pooled workload journals the pass and then
    resumes it from the journal, which must execute nothing and return
    bit-identical results."""
    from repro.harness import (CheckpointJournal, ExecutionPipeline,
                               PoolTransport, SerialTransport)
    from repro.npb import clear_cache
    journal_dir = None
    if workload.jobs > 1:
        # Workers fork from this process: empty its compile cache so
        # every worker compiles cold, as a fresh `repro bench` does.
        clear_cache()
        journal_dir = WORK / f"journal-{os.getpid()}-{tag}"
        shutil.rmtree(journal_dir, ignore_errors=True)
        pipe = ExecutionPipeline(PoolTransport(jobs=workload.jobs),
                                 journal=CheckpointJournal(journal_dir))
    else:
        pipe = ExecutionPipeline(SerialTransport())
    t0 = time.perf_counter()
    runs = pipe.run(order)
    sweep_s = time.perf_counter() - t0
    c = pipe.counters.get
    executed_ok = c("unit.executed") == c("unit.planned") == len(order)
    by_key = {s.key: r for s, r in zip(order, runs)}
    runs = [by_key[s.key] for s in canonical]
    result = Pass(canonical, runs, sweep_s, executed_ok)
    if journal_dir is not None:
        again = ExecutionPipeline(PoolTransport(jobs=workload.jobs),
                                  journal=CheckpointJournal(journal_dir))
        t0 = time.perf_counter()
        resumed = again.run(order)
        result.resume_s = time.perf_counter() - t0
        c = again.counters.get
        by_key = {s.key: r for s, r in zip(order, resumed)}
        result.resume_ok = (
            c("unit.resumed") == c("unit.planned") == len(order)
            and c("unit.executed") == 0
            and all(_same(by_key[s.key], r)
                    for s, r in zip(canonical, runs)))
        shutil.rmtree(journal_dir, ignore_errors=True)
    return result


def _same(a, b) -> bool:
    if (a.result is None) != (b.result is None):
        return False
    if a.result is None:
        return (a.error_kind, a.error) == (b.error_kind, b.error)
    return run_counts(a) == run_counts(b) and a.timing == b.timing


def check_pass(p: Pass, ref, report) -> dict:
    """Classify every run of a pass; returns name -> counts of the runs
    that produced a result."""
    counts = {}
    for spec, run in zip(p.specs, p.runs):
        name = run_name(spec)
        why = classify(run, ref.get(name), p.executed_ok)
        if why is not None:
            detail = run.error or ""
            if why == "cycle-mismatch":
                detail = (f"{run.cycles:,.0f} cycles, reference "
                          f"{ref[name]:,}")
            report["failures"].append(f"{name}: {why} {detail}".rstrip())
        report["attempted"] += 1
        report["failed"] += why is not None
        report["fatal"] |= why not in (None, "cycle-mismatch")
        if run.result is not None:
            counts[name] = run_counts(run)
    if not p.resume_ok:
        report["fatal"] = True
        report["failures"].append("resume from the journal was not "
                                  "bit-identical or executed units")
    return counts


def check_determinism(all_counts, workload, report) -> None:
    """Every pass and every earlier invocation of the same code must
    agree on every count and cycle value."""
    from repro.harness import code_fingerprint
    from repro.hotpath import hotpath_tiers
    diffs, union = [], {}
    for counts in all_counts:
        diffs += count_diffs(union, counts)
        union.update(counts)
    store = CountStore(WORK, workload.name, code_fingerprint(),
                       hotpath_tiers())
    diffs += store.check(union)
    if diffs:
        report["fatal"] = True
        report["failures"] += [f"nondeterministic: {d}" for d in diffs[:20]]


# -- end-to-end run -----------------------------------------------------------

def setup_once(code: str) -> float:
    """Seconds a fresh process takes to import repro and compile the
    sweep's kernel images with the disk cache off."""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(workload, specs, rng, seconds, report) -> dict:
    """End-to-end metrics: untraced passes until ``seconds`` have gone
    by (at least one), with set-up timed in fresh processes between
    them."""
    from repro.npb import REGISTRY
    code = SETUP_SNIPPET.format(src=str(ROOT / "src"),
                                kernels=kernels(specs))
    ref = load_reference(workload.name)
    for bench, size, params in kernels(specs):
        REGISTRY[bench].compile(size, **dict(params))  # warm, in memory
    # Only the first pass's runs are kept: holding every pass's results
    # would make peak RSS grow with the number of passes.
    # Set-up is timed before every pass and topped up at the end, so
    # its samples spread over the run like the passes do.
    first, sweeps, resumes, all_counts, setups = None, [], [], [], []
    t_end = time.perf_counter() + seconds
    while first is None or time.perf_counter() < t_end:
        setups.append(setup_once(code))
        p = run_pass(workload, shuffled(specs, rng), specs,
                     tag=str(len(sweeps)))
        all_counts.append(check_pass(p, ref, report))
        sweeps.append(p.sweep_s)
        if p.resume_s is not None:
            resumes.append(p.resume_s)
        first = first or p
    while len(setups) < SETUP_REPS:
        setups.append(setup_once(code))
    check_determinism(all_counts, workload, report)
    sweep_s = statistics.median(sweeps)
    mcycles = sum(r.cycles for r in first.runs
                  if r.result is not None) / 1e6
    report["passes"] = len(sweeps)
    report["sweep_s_all"] = [round(s, 4) for s in sweeps]
    report["setup_s_all"] = [round(s, 4) for s in setups]
    if resumes:
        report["resume_s_median"] = statistics.median(resumes)
    return {
        "sweep_s": (sweep_s, "s"),
        "sim_mcycles_per_s": (mcycles / sweep_s, "Mcycles/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "paper_gain_err_pts": (
            sweep_gain_err_pts(keyed(specs, first.runs)), "points"),
    }


# -- traced run -----------------------------------------------------------------

def _unit_s(p: Pass, names) -> float:
    return sum(r.timing.get("total_s", 0.0)
               for s, r in zip(p.specs, p.runs) if run_name(s) in names)


def traced(workload, specs, rng, report) -> dict:
    """Per-layer metrics: an untraced calibration pass, then the same
    sweep traced.  For a pooled workload the harness layer is traced
    on the pooled pass (in this process) and the simulation layers on
    a serial pass, since pool workers' spans stay in the workers."""
    from repro.npb import cache_stats, clear_cache
    ref = load_reference(workload.name)
    calib = [s for s in specs if workload.calib_configs is None
             or s.config in workload.calib_configs]
    calib_names = {run_name(s) for s in calib}
    base = run_pass(workload, shuffled(calib, rng), calib, tag="calib")
    all_counts = [check_pass(base, ref, report)]
    overhead_frac = 1.0 - _unit_s(base, calib_names) / (
        workload.jobs * base.sweep_s)

    def traced_pass(wl, tag):
        tracer, steps = Tracer(), [0]
        install(tracer, steps)
        clear_cache()
        before = cache_stats()
        try:
            p = run_pass(wl, shuffled(specs, rng), specs, tag=tag)
        finally:
            tracer.restore()
        after = cache_stats()
        all_counts.append(check_pass(p, ref, report))
        return tracer, steps[0], p, before, after

    first = traced_pass(workload, "traced")
    if workload.jobs > 1:
        tr, steps, p, before, after = traced_pass(
            dataclasses.replace(workload, jobs=1), "serial")
    else:
        tr, steps, p, before, after = first
    harness_tr, pooled = first[0], first[2]
    fast = ("memsys.try_fast_load", "memsys.try_fast_store")
    miss = ("memsys.load", "memsys.store", "memsys.prefetch_exclusive")
    # The tracer's own counts are work counts too: they must repeat
    # exactly between traced runs of the same code.
    work = {
        "engine.steps": steps,
        "vm.run.calls": tr.calls("VM.run"),
        "mem.fast.calls": sum(tr.calls(n) for n in fast),
        "mem.fast.hits": sum(tr.hits(n) for n in fast),
        "mem.cache_lookup.calls": tr.calls("Cache.lookup"),
        "mem.miss_txn.calls": sum(tr.calls(n) for n in miss),
        "obs.probe.calls": sum(tr.calls(n) for n in tr.tables
                               if n.startswith("Probe.")),
        "compile.calls": tr.calls("KernelSpec.compile"),
    }
    all_counts.append({"<traced pass>": work})
    check_determinism(all_counts, workload, report)
    _write_trace(workload.name, harness_tr, tr)

    runs = [r.result for r in p.runs if r.result is not None]
    mem = {}
    for r in runs:
        for k, v in r.mem_stats.as_dict().items():
            mem[k] = mem.get(k, 0) + v

    def rt(track, key):
        return sum(r.rt_stats.get(track, {}).get(key, 0) for r in runs)

    def chan(key):
        return sum(c[key] for r in runs for c in r.channel_stats.values())

    def ratio(a, b):
        return a / b if b else 0.0

    selfs = tr.layer_self(layer_of)
    fast_calls, fast_hits = work["mem.fast.calls"], work["mem.fast.hits"]
    planned = mem.get("forecast.hit", 0)
    entered = planned + mem.get("forecast.abort", 0) + sum(
        v for k, v in mem.items() if k.startswith("fallback."))
    comp_hits = (after["hits"] - before["hits"]
                 + after["disk_hits"] - before["disk_hits"])
    comp_calls = comp_hits + after["misses"] - before["misses"]
    l1h, l1m = mem.get("cache.l1.hits", 0), mem.get("cache.l1.misses", 0)
    l2h, l2m = mem.get("cache.l2.hits", 0), mem.get("cache.l2.misses", 0)
    lock_acq = rt("team", "lock.acquisitions")
    overhead = ratio(_unit_s(pooled, calib_names), _unit_s(base, calib_names))
    return {
        "mem.fast.calls": (fast_calls, "count"),
        "mem.fast.hits": (fast_hits, "count"),
        "mem.fast_hit_ratio": (ratio(fast_hits, fast_calls), "ratio"),
        "mem.fast.self_s": (selfs.get("mem.fast", 0.0), "s"),
        "mem.cache_lookup.calls": (work["mem.cache_lookup.calls"], "count"),
        "runtime.self_s": (selfs.get("runtime", 0.0), "s"),
        "mem.l1.hits": (l1h, "count"),
        "mem.l1.misses": (l1m, "count"),
        "mem.l1_hit_ratio": (ratio(l1h, l1h + l1m), "ratio"),
        "mem.l2.hits": (l2h, "count"),
        "mem.l2.misses": (l2m, "count"),
        "mem.l2_hit_ratio": (ratio(l2h, l2h + l2m), "ratio"),
        "mem.miss_txn.calls": (work["mem.miss_txn.calls"], "count"),
        "mem.forecast_planned_ratio": (ratio(planned, entered), "ratio"),
        "mem.miss.self_s": (selfs.get("mem.miss", 0.0), "s"),
        "engine.steps": (work["engine.steps"], "count"),
        "engine.events": (rt("engine", "engine.events"), "count"),
        "engine.processes": (rt("engine", "engine.processes"), "count"),
        "sim.self_s": (selfs.get("sim", 0.0), "s"),
        "vm.run.calls": (work["vm.run.calls"], "count"),
        "interp.self_s": (selfs.get("interp", 0.0), "s"),
        "obs.probe.calls": (work["obs.probe.calls"], "count"),
        "obs.self_s": (selfs.get("obs", 0.0), "s"),
        "compile.calls": (work["compile.calls"], "count"),
        "compile.s": (tr.total("KernelSpec.compile"), "s"),
        "compile.cache_hit_ratio": (ratio(comp_hits, comp_calls), "ratio"),
        "verify.s": (tr.total("KernelSpec.verify"), "s"),
        "harness.overhead_frac": (overhead_frac, "ratio"),
        "journal.record.s": (harness_tr.total("journal.record"), "s"),
        "journal.load.s": (harness_tr.total("journal.load"), "s"),
        "integrity.pickle.calls": (
            harness_tr.calls("integrity.atomic_pickle"), "count"),
        "team.barrier_episodes": (rt("team", "barrier.episodes"), "count"),
        "team.lock_acquisitions": (lock_acq, "count"),
        "team.lock_contended_ratio": (
            ratio(rt("team", "lock.contended"), lock_acq), "ratio"),
        "slip.tokens_consumed": (chan("tokens_consumed"), "count"),
        "slip.decisions_forwarded": (chan("decisions_forwarded"), "count"),
        "slip.recoveries": (chan("recoveries"), "count"),
        "trace.sweep_s": (pooled.sweep_s, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def _write_trace(workload: str, *tracers) -> None:
    """Write the traced run's aggregates and coarse spans to disk."""
    doc = []
    for tr in dict.fromkeys(tracers):
        doc.append({
            "aggregates": [{"span": n, "parent": p, "calls": r[0],
                            "total_s": r[1], "self_s": r[2], "hits": r[3]}
                           for (n, p), r in sorted(tr.agg.items())],
            "spans": [{"span": n, "parent": p, "start": a, "end": b}
                      for n, p, a, b in tr.spans]})
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"trace-{workload}.json", "w") as fh:
        json.dump(doc, fh)


# -- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if "REPRO_HOTPATH" in os.environ:
        print("refusing to measure: REPRO_HOTPATH is set; the benchmark "
              "measures the default tiers", file=sys.stderr)
        return 2
    _private_env()
    _import_repro()
    from repro.hotpath import hotpath_tiers
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    specs = workload.build()
    rng = random.Random(args.seed)
    report = {"attempted": 0, "failed": 0, "fatal": False, "failures": []}
    provenance = {
        "workload": workload.name, "seed": args.seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_commit": _git_commit(),
        "hotpath_tiers": sorted(hotpath_tiers()),
        "runs_per_pass": len(specs), "trace": args.trace}
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        metrics = traced(workload, specs, rng, report)
    else:
        metrics = end_to_end(workload, specs, rng, args.seconds, report)
    for line in report["failures"]:
        print("FAILED " + line)
    print(f"fail_frac: {report['failed']}/{report['attempted']}")
    for k in ("passes", "sweep_s_all", "setup_s_all", "resume_s_median"):
        if k in report:
            print(f"{k}: {report[k]}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not report["fatal"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
