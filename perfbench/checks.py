"""Correctness checks the benchmark applies to every measured run.

A run *fails* when it raised (crash), tripped the watchdog, was
quarantined by the pool, failed its NumPy oracle, was served without
being simulated, or when its simulated cycles differ from the
reference table.  The reference tables are recorded on the all-tiers-
off reference path (``REPRO_HOTPATH=``), so a cycle mismatch means a
hot-path tier is not cycle-exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from workloads import PAPER_AVG_GAIN_PCT, kind, run_name

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: BenchRun.error_kind -> failure class.
ERROR_CLASSES = {"hang": "watchdog", "wrong-output": "oracle",
                 "crash": "crash", "quarantined": "quarantined"}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Dict[str, int]:
    """Run name -> reference cycles for one workload."""
    with open(reference_path(workload)) as fh:
        return {k: int(v) for k, v in json.load(fh)["cycles"].items()}


def classify(run, ref_cycles: Optional[int], simulated: bool
             ) -> Optional[str]:
    """The failure class of one finished run, or None when it passed.

    ``simulated`` is False when the pipeline served the result without
    executing it (a memo or journal hit on a fresh pass): a result that
    was not simulated is a failure, not a fast run.
    """
    if run.error_kind is not None:
        return ERROR_CLASSES.get(run.error_kind, run.error_kind)
    if not simulated:
        return "memo-hit"
    if ref_cycles is None:
        return "no-reference"
    if run.cycles != ref_cycles:
        return "cycle-mismatch"
    return None


def run_counts(run) -> Dict[str, float]:
    """Every deterministic count one run produced, flattened.

    Model counts (cycles, cache hits and misses, barrier episodes, lock
    traffic, tokens, forwarded decisions, recoveries) and the
    simulator's own work counts (engine events and processes, miss
    transactions, fast-path and forecast outcomes).  Two runs of the
    same code must agree on all of them.
    """
    res = run.result
    out: Dict[str, float] = {"cycles": res.cycles}
    out.update({f"mem.{k}": v for k, v in res.mem_stats.as_dict().items()})
    for track in ("engine", "team"):
        for k, v in res.rt_stats.get(track, {}).items():
            out[f"{track}.{k}" if not k.startswith(track) else k] = v
    for k in ("tokens_consumed", "decisions_forwarded", "recoveries"):
        out[f"slip.{k}"] = sum(c[k] for c in res.channel_stats.values())
    out["slip.recovery_log"] = len(res.recoveries)
    out["output_digest"] = int(hashlib.sha256(
        repr(res.output).encode()).hexdigest()[:12], 16)
    return out


def sweep_gain_err_pts(runs: Mapping[Tuple[str, str, str], object]
                       ) -> float:
    """|our average gain - the paper's|, in percentage points.

    ``runs`` maps (kind, bench, config) to a finished run.  Per paper
    exhibit our gain is the mean over benchmarks of best-slipstream
    over best-of-single/double (``harness.summary_gains``), minus one;
    a workload holding both exhibits reports the mean of the two
    errors.
    """
    from repro.harness import summary_gains
    suites: Dict[str, Dict[str, Dict[str, object]]] = {}
    for (k, bench, config), run in runs.items():
        suites.setdefault(k, {}).setdefault(bench, {})[config] = run
    errs = []
    for k, suite in sorted(suites.items()):
        gains = summary_gains(suite)
        ours = (statistics.fmean(gains.values()) - 1.0) * 100.0
        errs.append(abs(ours - PAPER_AVG_GAIN_PCT[k]))
    return statistics.fmean(errs)


def keyed(specs: Iterable, runs: Iterable) -> Dict[Tuple[str, str, str],
                                                     object]:
    """(kind, bench, config) -> run, for :func:`sweep_gain_err_pts`."""
    return {(kind(s), s.bench, s.config): r for s, r in zip(specs, runs)}


def count_diffs(a: Mapping[str, Mapping[str, float]],
                b: Mapping[str, Mapping[str, float]]) -> List[str]:
    """Every (run, count) on which two sets of run counts disagree,
    over the runs both sets hold."""
    out = []
    for name in sorted(set(a) & set(b)):
        ca, cb = a[name], b[name]
        for key in sorted(set(ca) | set(cb)):
            if ca.get(key) != cb.get(key):
                out.append(f"{name} {key}: {ca.get(key)} != {cb.get(key)}")
    return out


class CountStore:
    """Run counts of earlier invocations of the same code, on disk.

    Keyed by workload, the code fingerprint of the ``repro`` sources
    and the hot-path tier set, so only runs of identical code are ever
    compared.  The first invocation records; later ones must match.
    """

    def __init__(self, root: Path, workload: str, code_fp: str,
                 tiers: Iterable[str]):
        tag = hashlib.sha256(
            (code_fp + ",".join(sorted(tiers))).encode()).hexdigest()[:16]
        self.path = Path(root) / f"counts-{workload}-{tag}.json"

    def check(self, counts: Mapping[str, Mapping[str, float]]
              ) -> List[str]:
        """Disagreements with the recorded counts; runs not recorded
        yet are added to the record."""
        try:
            with open(self.path) as fh:
                recorded = json.load(fh)
        except (OSError, ValueError):
            recorded = {}
        diffs = count_diffs(recorded, counts)
        if not diffs and not set(counts) <= set(recorded):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "w") as fh:
                json.dump({**counts, **recorded}, fh, sort_keys=True)
            os.replace(tmp, self.path)
        return diffs

