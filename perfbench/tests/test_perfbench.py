"""Self-tests of the benchmark's own logic (not of the simulator).

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (CountStore, classify, count_diffs,  # noqa: E402
                    sweep_gain_err_pts)
from spans import ROOT, Tracer, layer_of, proc_span_name  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# -- self-time subtraction ---------------------------------------------------

def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        tr.span("leaf", leaf)
        clock.t += 3.0
        tr.span("leaf", leaf)

    tr.span("middle", middle)
    agg = tr.agg
    assert agg[("middle", ROOT)] == [1, 8.0, 4.0, 0]
    assert agg[("leaf", "middle")] == [2, 4.0, 4.0, 0]
    assert tr.covered == [8.0]          # the root saw one 8 s child


def test_same_function_is_aggregated_per_enclosing_span():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.t += 1.0

    tr.span("leaf", leaf)
    tr.span("a", lambda: tr.span("leaf", leaf))
    assert tr.agg[("leaf", ROOT)][0] == 1
    assert tr.agg[("leaf", "a")][0] == 1
    assert tr.calls("leaf") == 2
    assert tr.total("leaf") == 2.0


def test_generator_resumptions_are_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def body():
        clock.t += 1.0
        got = yield "first"
        clock.t += 2.0 + got
        tr.span("child", lambda: setattr(clock, "t", clock.t + 0.5))
        return "done"

    g = tr.timed_gen("body", body())
    assert next(g) == "first"
    with pytest.raises(StopIteration) as stop:
        g.send(10.0)
    assert stop.value.value == "done"
    total, self_s = tr.agg[("body", ROOT)][1:3]
    assert total == 13.5
    assert self_s == 13.0
    assert tr.agg[("child", "body")][1] == 0.5


def test_generator_wrapper_forwards_throw_and_close():
    tr = Tracer()
    log = []

    def body():
        try:
            yield 1
        except KeyError:
            log.append("caught")
        try:
            yield 2
        finally:
            log.append("closed")

    g = tr.timed_gen("body", body())
    next(g)
    assert g.throw(KeyError("x")) == 2
    g.close()
    assert log == ["caught", "closed"]
    assert tr.names == [ROOT]


def test_exceptions_leave_the_span_stack_balanced():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.span("boom", boom)
    assert tr.names == [ROOT] and tr.calls("boom") == 1


def test_wrap_and_restore_class_method():
    class Thing:
        def probe(self, x):
            return x if x > 0 else None

    orig = Thing.probe
    tr = Tracer()
    tr.wrap(Thing, "probe", "Thing.probe", hit=lambda r: r is not None)
    t = Thing()
    assert t.probe(3) == 3 and t.probe(-1) is None
    assert tr.calls("Thing.probe") == 2 and tr.hits("Thing.probe") == 1
    tr.restore()
    assert Thing.probe is orig


def test_wrap_count_counts_without_a_span():
    class Cache:
        def lookup(self, addr):
            return addr

    tr = Tracer()
    tr.wrap_count(Cache, "lookup", "Cache.lookup")
    c = Cache()
    tr.span("memsys.load", lambda: c.lookup(1) + c.lookup(2))
    tr.restore()
    assert tr.calls("Cache.lookup") == 2
    assert tr.agg[("memsys.load", ROOT)][1] == tr.agg[("memsys.load",
                                                       ROOT)][2]


def test_processes_are_named_by_body_and_not_wrapped_twice():
    class Engine:
        def process(self, gen, name=""):
            return gen

    def body():
        yield 1

    tr = Tracer()
    tr.wrap_processes(Engine)
    inner = tr.timed_gen("Server.serve", body())
    assert Engine().process(inner) is inner
    wrapped = Engine().process(body())
    tr.restore()
    assert next(inner) == next(wrapped) == 1
    assert sorted(tr.tables) == sorted(["Server.serve",
                                        proc_span_name(body())])


def test_layer_map():
    assert layer_of("memsys.try_fast_load") == "mem.fast"
    assert layer_of("memsys.load") == "mem.miss"
    assert layer_of("Probe.count") == "obs"
    assert layer_of("Machine.run") == "sim"
    assert layer_of("proc:runtime:ThreadShell.run_master") == "runtime"
    assert layer_of("proc:mem.miss:X.body") == "mem.miss"
    assert layer_of("Cache.lookup") is None


def test_process_span_name_uses_the_body_package():
    def gen():
        yield 1
    assert proc_span_name(gen()) == (
        "proc:sim:test_process_span_name_uses_the_body_package.<locals>.gen")


# -- failure classification ---------------------------------------------------

def _run(cycles=100.0, error_kind=None):
    return SimpleNamespace(cycles=cycles, error_kind=error_kind, error=None)


@pytest.mark.parametrize("run, ref, simulated, want", [
    (_run(), 100, True, None),
    (_run(error_kind="wrong-output"), 100, True, "oracle"),
    (_run(error_kind="hang"), 100, True, "watchdog"),
    (_run(error_kind="crash"), 100, True, "crash"),
    (_run(error_kind="quarantined"), 100, True, "quarantined"),
    (_run(cycles=973885.0), 998890, True, "cycle-mismatch"),
    (_run(), 100, False, "memo-hit"),
    (_run(), None, True, "no-reference"),
])
def test_classify(run, ref, simulated, want):
    assert classify(run, ref, simulated) == want


# -- determinism ------------------------------------------------------------------

def test_count_diffs_names_the_run_and_count():
    a = {"bt/L1": {"cycles": 1.0, "engine.events": 5}}
    b = {"bt/L1": {"cycles": 1.0, "engine.events": 6}, "cg/G0": {}}
    assert count_diffs(a, b) == ["bt/L1 engine.events: 5 != 6"]


def test_count_store_records_then_compares(tmp_path):
    store = CountStore(tmp_path, "w", "fp", ["mem"])
    assert store.check({"a": {"cycles": 1}}) == []
    assert store.check({"a": {"cycles": 1}, "b": {"cycles": 2}}) == []
    assert store.check({"b": {"cycles": 3}}) == ["b cycles: 2 != 3"]
    other = CountStore(tmp_path, "w", "fp2", ["mem"])
    assert other.check({"b": {"cycles": 3}}) == []


# -- paper_gain_err_pts ----------------------------------------------------------

def test_gain_error_matches_the_paper_average():
    # bt: best base 100 (single) / best slip 80 (L1) = 1.25
    # cg: best base 90 (double) / best slip 100 (G0) = 0.90
    # mean gain 7.5% against the paper's 13.5% -> 6.0 points
    runs = {("static", "bt", "single"): _run(100.0),
            ("static", "bt", "double"): _run(120.0),
            ("static", "bt", "G0"): _run(90.0),
            ("static", "bt", "L1"): _run(80.0),
            ("static", "cg", "single"): _run(95.0),
            ("static", "cg", "double"): _run(90.0),
            ("static", "cg", "G0"): _run(100.0),
            ("static", "cg", "L1"): _run(110.0)}
    assert sweep_gain_err_pts(runs) == pytest.approx(6.0)


def test_gain_error_averages_the_two_exhibits():
    # dynamic: single 100 / G0 80 = 1.25 -> 25% vs 12% -> 13 points;
    # static: single 100 / G0 100 -> 0% vs 13.5% -> 13.5 points.
    runs = {("dynamic", "bt", "single"): _run(100.0),
            ("dynamic", "bt", "G0"): _run(80.0),
            ("static", "bt", "single"): _run(100.0),
            ("static", "bt", "G0"): _run(100.0)}
    assert sweep_gain_err_pts(runs) == pytest.approx((13.0 + 13.5) / 2)
