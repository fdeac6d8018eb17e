"""Omni-style OpenMP runtime over the simulated machine."""

from .env import RuntimeEnv, parse_slipstream
from .machine import (MODES, Machine, RunResult, SimDeadlockError,
                      run_program)
from .shell import ThreadShell
from .team import Job, LoopLocal, LoopShared, Team
from .words import RTWord, SenseBarrier, SpinLock

__all__ = ["RuntimeEnv", "parse_slipstream", "MODES", "Machine",
           "RunResult", "run_program", "SimDeadlockError",
           "ThreadShell", "Job", "LoopLocal", "LoopShared", "Team",
           "RTWord", "SenseBarrier", "SpinLock"]
