"""Regenerate the reference cycle tables under ``perfbench/reference/``.

Runs each workload's sweep serially on the all-tiers-off reference
path (``REPRO_HOTPATH=`` set to empty: heapq engine queue, generator
miss transactions, no fusion, interpreted bytecode) and records each
run's simulated cycles.  The default hot-path tiers must reproduce
these numbers exactly; never record the default-tier values here, or
a tier's exactness bug disappears from the benchmark.

    python3 perfbench/regen_reference.py              # every workload
    python3 perfbench/regen_reference.py fig2_static  # just one
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv) -> int:
    os.environ["REPRO_HOTPATH"] = ""
    os.environ["REPRO_DISK_CACHE"] = "0"
    sys.path.insert(0, str(ROOT / "src"))
    from repro.harness import execute_spec
    from repro.hotpath import hotpath_tiers
    from checks import reference_path
    from workloads import WORKLOADS, run_name

    if hotpath_tiers():
        print("reference path requires every tier off", file=sys.stderr)
        return 2
    names = argv or sorted(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    for name in names:
        cycles = {}
        for spec in WORKLOADS[name].build():
            run = execute_spec(spec)
            if run.error is not None:
                print(f"{name}: {run_name(spec)} failed: {run.error}",
                      file=sys.stderr)
                return 1
            cycles[run_name(spec)] = int(run.cycles)
            print(f"{name}: {run_name(spec)} {int(run.cycles)}",
                  flush=True)
        doc = {"workload": name,
               "recorded_with": {"REPRO_HOTPATH": "",
                                 "python": platform.python_version()},
               "cycles": cycles}
        path = reference_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
