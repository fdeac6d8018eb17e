"""Hot-path tier switch (``REPRO_HOTPATH``).

One cycle-exact optimization on the per-simulation critical path can
be switched off, so the regression gate can diff it against a
reference path:

* ``compile`` -- per-function generated-code translation in
  :mod:`repro.interp.compile` (the bytecode dispatch loop is replaced
  by an ``exec``-compiled Python function per ``Code`` object).

``REPRO_HOTPATH`` unset means the tier is on (it is bit-exact, so there
is no reason to run without it); set, it is a comma-separated subset
of :data:`HOTPATH_TIERS` to enable -- ``REPRO_HOTPATH=`` (empty) runs
the bytecode interpreter, the reference path.  An unknown name raises
``ValueError``: a stale setting naming a tier that no longer exists
must not quietly select the reference path.

Everything else on the hot path has one implementation and no switch:
the engine's ``heapq`` event queue, superinstruction fusion in
:mod:`repro.compiler.optimize`, and the memory system's synchronous
hit path.

The environment is consulted *once per process* -- the first
:func:`hotpath_tiers` call latches the set, and compile sites (the
compiler when an image is built, the VM when it adopts generated code)
read that latch.  Toggling the variable mid-run therefore has no
effect and the hot loops carry no environment lookups.  Process-pool
workers inherit the environment, keeping serial and pooled sweeps on
the same tiers.  Tests that flip ``REPRO_HOTPATH`` must call
:func:`reset_for_tests` after each change (the autouse fixture in
``tests/conftest.py`` resets around every test).
"""

from __future__ import annotations

import os
from typing import FrozenSet, Optional

__all__ = ["HOTPATH_TIERS", "hotpath_tiers", "hotpath_enabled",
           "reset_for_tests"]

#: Every known tier.
HOTPATH_TIERS = ("compile",)

_tiers: Optional[FrozenSet[str]] = None


def hotpath_tiers() -> FrozenSet[str]:
    """The set of enabled tiers (``REPRO_HOTPATH`` read once, latched).

    Raises ``ValueError`` naming the valid tiers if the variable lists
    an unknown one."""
    global _tiers
    if _tiers is None:
        raw = os.environ.get("REPRO_HOTPATH")
        if raw is None:
            _tiers = frozenset(HOTPATH_TIERS)
        else:
            names = frozenset(t.strip() for t in raw.split(",")
                              if t.strip())
            unknown = sorted(names.difference(HOTPATH_TIERS))
            if unknown:
                raise ValueError(
                    f"REPRO_HOTPATH: unknown tier(s) {', '.join(unknown)}; "
                    f"valid tiers: {', '.join(HOTPATH_TIERS)} "
                    f"(empty selects the reference path)")
            _tiers = names
    return _tiers


def hotpath_enabled(tier: str) -> bool:
    """Is one tier enabled?"""
    return tier in hotpath_tiers()


def reset_for_tests() -> None:
    """Drop the latched tier set so the next call re-reads the
    environment.  For tests (and the bench harness) that flip
    ``REPRO_HOTPATH`` between runs; production code never needs it."""
    global _tiers
    _tiers = None
