"""Workload definitions: which runs each benchmark workload sweeps.

Every workload is a fixed list of ``RunSpec`` s in canonical (suite)
order.  Nothing about the inputs is random: the kernels build their
data from fixed LCG structure.  The benchmark's ``--seed`` only
shuffles the order in which units are submitted, and results must be
bit-identical for every order (the harness's merge contract).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The paper's published average gains of slipstream over the best of
#: single/double mode, in percent: Fig 2 (static) and Fig 4 (dynamic).
PAPER_AVG_GAIN_PCT = {"static": 13.5, "dynamic": 12.0}

STATIC_CONFIGS = ("single", "double", "G0", "L1")
DYNAMIC_CONFIGS = ("single", "G0")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``jobs == 1`` runs the sweep serially in the benchmark process.
    ``jobs > 1`` runs it through a ``PoolTransport`` with a fresh
    checkpoint journal, then resumes it from that journal.
    """

    name: str
    #: Builds the sweep's specs in canonical (suite) order.
    build: Callable[[], list]
    jobs: int = 1
    #: Configs whose units the traced run also times untraced, to state
    #: the tracing overhead; None means the whole sweep.
    calib_configs: Optional[Tuple[str, ...]] = None


def kind(spec) -> str:
    """``static`` or ``dynamic`` (the paper exhibit a spec belongs to)."""
    return "static" if spec.schedule is None else "dynamic"


def run_name(spec) -> str:
    """Stable name of one run: ``bt/L1``; dynamic runs end in ``/dyn``."""
    name = f"{spec.bench}/{spec.config}"
    return name if kind(spec) == "static" else name + "/dyn"


def _static(cfg, size):
    from repro.harness import STATIC_BENCHMARKS, static_specs
    return static_specs(cfg, size, STATIC_BENCHMARKS, STATIC_CONFIGS,
                        verify=True, capture_errors=True)


def _dynamic(cfg, size):
    from repro.harness import DYNAMIC_BENCHMARKS, dynamic_specs
    return dynamic_specs(cfg, size, DYNAMIC_BENCHMARKS, DYNAMIC_CONFIGS,
                         verify=True, capture_errors=True)


def _fig2():
    from repro.config.machine import PAPER_MACHINE
    return _static(PAPER_MACHINE, "bench")


def _fig4():
    from repro.config.machine import PAPER_MACHINE
    return _dynamic(PAPER_MACHINE, "bench")


def _smoke():
    from repro.config.machine import PAPER_MACHINE
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    return _static(cfg, "test") + _dynamic(cfg, "test")


#: Why each workload was chosen: perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig2_static", _fig2, calib_configs=("single",)),
    Workload("fig4_dynamic", _fig4, calib_configs=("single",)),
    Workload("smoke_pool", _smoke, jobs=2),
)}


def shuffled(specs: list, rng: random.Random) -> list:
    """A submission order drawn from ``rng`` (the seed's only effect)."""
    order = list(specs)
    rng.shuffle(order)
    return order


def kernels(specs: list) -> List[Tuple[str, str, Tuple]]:
    """Distinct (bench, size, params) compile points of a sweep."""
    seen = []
    for s in specs:
        k = (s.bench, s.size, s.params)
        if k not in seen:
            seen.append(k)
    return seen
