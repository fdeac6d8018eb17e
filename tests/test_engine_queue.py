"""The engine's queue contract: time order first, scheduling order
within a timestamp.

Directed tests pin the expected order on the edge cases (int vs float
timestamps, same-time resumptions scheduled mid-drain, ``run(until=)``
stopping between same-time entries).  A randomized scenario -- mixed
int/float delays, same-time collisions, zero-delay cascades, timer
events, kills and interrupts -- is replayed on the engine and on
:class:`SortedModelEngine`, a direct model of the contract, and the
full resumption traces are compared.
"""

import random

import pytest

from repro.sim import Engine, Interrupt

# Delay palette: ints and floats that collide (1 vs 1.0), sub-cycle
# fractions, and zero-delay cascades.
DELAYS = [0, 0, 1, 1.0, 2, 3, 0.25, 0.5, 1.5, 2.5, 7, 0.125]


class SortedModelEngine(Engine):
    """The queue contract written out literally: every pending entry
    carries ``(time, seq)``, and the next resumption is the entry with
    the smallest pair.  No heap -- a linear ``min`` over a flat list."""

    def __init__(self):
        super().__init__()
        self._entries = []

    def _schedule(self, proc, delay, value):
        self._seq += 1
        self._entries.append((self.now + delay, self._seq, proc, value))

    def next_time(self):
        if not self._entries:
            return None
        return min(e[:2] for e in self._entries)[0]

    def step(self):
        while self._entries:
            i = min(range(len(self._entries)),
                    key=lambda k: self._entries[k][:2])
            t, _seq, proc, value = self._entries.pop(i)
            if not proc.alive:
                continue
            self.now = t
            if self.trace_hook is not None:
                self.trace_hook(t, proc)
            proc._step(value)
            return True
        return False


def _scenario(seed, n_workers=10, n_steps=25):
    """Precompute a deterministic schedule so both engines replay the
    same program (no draws happen during the simulation)."""
    rng = random.Random(seed)
    delays = [[rng.choice(DELAYS) for _ in range(n_steps)]
              for _ in range(n_workers)]
    chaos = sorted(
        (rng.randint(1, n_steps), rng.randrange(n_workers),
         rng.choice(["kill", "interrupt"]))
        for _ in range(n_workers // 2))
    return delays, chaos


def _run(eng, seed):
    trace = []
    eng.trace_hook = lambda t, proc: trace.append((t, proc.name))
    delays, chaos = _scenario(seed)
    procs = {}

    def worker(tag, ds):
        for i, d in enumerate(ds):
            try:
                if i % 7 == 3:
                    # Exercise the direct-fire timer path too.
                    yield eng.timeout_event(d, value=i)
                else:
                    yield d
                trace.append(("ran", tag, i, eng.now))
            except Interrupt as exc:
                trace.append(("intr", tag, i, eng.now, exc.cause))

    def agitator():
        prev = 0
        for when, victim, action in chaos:
            if when > prev:
                yield when - prev
                prev = when
            p = procs[victim]
            if not p.alive:
                continue
            if action == "kill":
                p.kill()
            else:
                p.interrupt(("chaos", victim))
            trace.append((action, victim, eng.now))

    for w, ds in enumerate(delays):
        procs[w] = eng.process(worker(w, ds), name=f"w{w}")
    eng.process(agitator(), name="agitator")
    eng.run()
    trace.append(("end", eng.now))
    return trace


@pytest.mark.parametrize("seed", range(8))
def test_bucket_order_matches_heap_reference(seed):
    """The engine's resumption trace equals the sorted ``(t, seq)``
    model's.  (The id predates the single-queue engine; the reference
    is now the model.)"""
    trace = _run(Engine(), seed)
    assert trace == _run(SortedModelEngine(), seed)
    times = [e[0] for e in trace if isinstance(e[0], float)]
    assert times == sorted(times)


def test_same_time_collision_int_vs_float_keys():
    """1 and 1.0 are the same timestamp: ties across the int/float
    boundary resolve in scheduling order."""
    eng = Engine()
    order = []

    def w(tag, d):
        yield d
        order.append(tag)

    for tag, d in [("a", 1), ("b", 1.0), ("c", 1), ("d", 0.5)]:
        eng.process(w(tag, d), name=tag)
    eng.run()
    assert order == ["d", "a", "b", "c"]


def test_schedule_into_draining_bucket_preserves_seq_order():
    """A process that schedules a same-time resumption while that
    timestamp's entries are running must run after everything already
    queued at that time."""
    eng = Engine()
    order = []

    def spawner():
        yield 2
        order.append("spawner")
        yield 0          # re-enters t=2 while t=2 is still draining
        order.append("spawner-again")

    def other():
        yield 2
        order.append("other")

    eng.process(spawner(), name="s")
    eng.process(other(), name="o")
    eng.run()
    assert order == ["spawner", "other", "spawner-again"]


def test_run_until_mid_bucket_resumes_cleanly():
    """Stopping with ``until=`` between two same-time entries must not
    lose the rest of that timestamp on the next run() call."""
    eng = Engine()
    order = []

    def w(tag):
        yield 5
        order.append((tag, eng.now))

    for tag in "abc":
        eng.process(w(tag), name=tag)
    # 3 steps start the processes at t=0; two more run a and b at t=5.
    eng.run(until=5, max_steps=5)
    assert order == [("a", 5.0), ("b", 5.0)]
    eng.run()
    assert order == [("a", 5.0), ("b", 5.0), ("c", 5.0)]
