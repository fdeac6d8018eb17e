"""Tests for the cycle-exact source-line profiler.

Covers the whole chain: the compiler's per-instruction ``lines`` table
(including the peephole optimizer keeping it in sync and the compile
cache carrying it), the ``TrackProfile`` settle clock, sum-to-busy
exactness against the breakdowns, three golden full profiles pinned
bucket for bucket, the collapsed-stack export format,
``TeeSink`` composition, and the ``repro profile run`` / ``repro bench
--profile`` CLI verbs.
"""

import hashlib
import io
import json
import pickle
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.compiler import compile_source
from repro.config import PAPER_MACHINE
from repro.harness import profile_table, run_benchmark
from repro.obs import (AggregateSink, MEM_LEVELS, NullSink, Probe,
                       ProfileSink, Sink, TeeSink, TrackProfile,
                       collapsed_stacks, line_totals, make_sink,
                       profile_total, write_collapsed)
from repro.runtime import run_program

CFG = PAPER_MACHINE.with_(n_cmps=4)

SOURCE = """
double a[256];
double total;
int i;
void main() {
    #pragma omp parallel for reduction(+: total)
    for (i = 0; i < 256; i = i + 1) {
        a[i] = i * 0.5;
        total = total + a[i];
    }
    print("total", total);
}
"""


# ------------------------------------------------------ the lines table

def test_every_function_has_a_parallel_lines_table():
    image = compile_source(SOURCE)
    for code in image.funcs:
        assert len(code.lines) == len(code.instrs), code.name
        # Lines are real source positions (the source starts at line 2).
        assert any(ln > 0 for ln in code.lines), code.name


def test_optimizer_keeps_lines_in_sync():
    """The peephole pass rewrites instrs; the lines table must follow.
    ``2.0 * 3.0`` folds to one const -- its line must survive."""
    src = """
double x;
void main() {
    x = 2.0 * 3.0;
    print("x", x);
}
"""
    image = compile_source(src)
    main_code = image.funcs[image.main_index]
    assert len(main_code.lines) == len(main_code.instrs)
    assert 4 in main_code.lines           # the folded assignment's line


def test_lines_table_survives_pickle():
    """Disk-cached images must carry the table (cache.py pickles the
    whole CompiledProgram)."""
    image = compile_source(SOURCE)
    clone = pickle.loads(pickle.dumps(image))
    for orig, copy in zip(image.funcs, clone.funcs):
        assert copy.lines == orig.lines


# --------------------------------------------------- TrackProfile clock

def test_track_profile_settles_spans_to_entry_position():
    tp = TrackProfile("t", start=0.0)
    tp.push("lock", 2.0)          # 0..2 busy at (no position)
    tp.pop(5.0)                   # 2..5 lock
    tp.close(9.0)                 # 5..9 busy
    assert tp.data[("", 0, "lock", "")] == 3.0
    assert tp.data[("", 0, "busy", "")] == 6.0
    assert profile_total({"t": tp.data}) == 9.0


def test_track_profile_memory_level_tagging():
    tp = TrackProfile("t", start=0.0)
    tp.push("memory", 1.0)
    tp.mem_level("remote3")
    tp.pop(4.0)
    tp.push("memory", 4.0)        # never tagged -> merged
    tp.pop(6.0)
    tp.close(6.0)
    assert tp.data[("", 0, "memory", "remote3")] == 3.0
    assert tp.data[("", 0, "memory", "merged")] == 2.0


def test_track_profile_drains_pending_with_cap_and_carry():
    tp = TrackProfile("t", start=0.0)
    tp.pending[("f", 3)] = 5.0    # VM tallied 5 busy cycles
    tp.fast(2.0, 4.0, "l2")       # fast access: 2 busy + 4 l2 stall
    # Only 6 cycles actually elapsed: stalls drain first, then busy,
    # remainder carries.
    tp.push("barrier", 6.0)
    assert tp.data[("", 0, "memory", "l2")] == 4.0
    assert sum(c for (_, _, cat, _), c in tp.data.items()
               if cat == "busy") == 2.0
    assert tp.pending            # 5 busy not yet elapsed
    tp.pop(6.0)
    tp.close(20.0)               # the rest elapses now
    assert profile_total({"t": tp.data}, "busy") == 16.0
    assert not tp.pending and not tp.pending_fast


def test_track_profile_time_backwards_raises():
    tp = TrackProfile("t", start=5.0)
    with pytest.raises(ValueError, match="backwards"):
        tp.push("lock", 4.0)


# ----------------------------------------------------- sinks / TeeSink

def test_make_sink_profile_is_tee_with_aggregate_primary():
    s = make_sink("profile")
    assert isinstance(s, TeeSink)
    assert isinstance(s.children[0], AggregateSink)
    assert isinstance(s.children[1], ProfileSink)
    p = s.probe("cpu0", start=0.0)
    assert p.bd is not None and p.prof is not None
    p.push("lock", 1.0)
    p.pop(3.0)
    p.close(4.0)
    assert s.breakdowns["cpu0"].as_dict() == {"busy": 2.0, "lock": 2.0}
    assert s.profile_data()["cpu0"][("", 0, "lock", "")] == 2.0


def test_tee_sink_requires_children_and_first_provider_wins():
    with pytest.raises(ValueError, match="at least one child"):
        TeeSink()
    tee = TeeSink(NullSink(), AggregateSink())
    p = tee.probe("t")
    assert p.bd is not None       # the aggregate's, despite null first
    assert tee.profile_data() is None


def test_profile_sink_alone_mints_profile_only_probes():
    s = ProfileSink()
    p = s.probe("cpu0", start=0.0)
    assert p.bd is None and p.prof is not None
    p.push("io", 1.0)
    p.pop(2.0)
    p.close(2.0)
    assert s.profile_data() == {"cpu0": {("", 0, "busy", ""): 1.0,
                                         ("", 0, "io", ""): 1.0}}


# ------------------------------------------- end-to-end cycle exactness

@pytest.fixture(scope="module")
def profiled():
    image = compile_source(SOURCE)
    return run_program(image, cfg=CFG, mode="slipstream", obs="profile")


def test_profile_sums_to_breakdowns_slipstream(profiled):
    """Acceptance: per-line totals sum to each track's total simulated
    cycles, category by category, for every stream of a slipstream
    run."""
    for track, bd in profiled.breakdowns.items():
        per_track = profiled.profile.get(track, {})
        by_cat = {}
        for (_f, _l, cat, _lv), c in per_track.items():
            by_cat[cat] = by_cat.get(cat, 0.0) + c
        assert by_cat == {k: v for k, v in bd.items() if v}, track


def test_profile_levels_are_known(profiled):
    for per_track in profiled.profile.values():
        for (_f, _l, cat, level) in per_track:
            if cat == "memory":
                assert level in MEM_LEVELS
            else:
                assert level == ""


def test_profile_lines_match_source(profiled):
    """Hot lines must be real source lines of the loop body (SOURCE
    lines 7-10), not instruction indices."""
    rows = line_totals(profiled.profile)
    hot = {line for (func, line), r in rows.items()
           if func.startswith("main.") and r["busy"] > 0}
    assert hot <= set(range(6, 12))
    assert {8, 9} <= hot          # the two assignment lines


def test_profile_does_not_perturb_cycles():
    image = compile_source(SOURCE)
    plain = run_program(image, cfg=CFG, mode="slipstream")
    prof = run_program(image, cfg=CFG, mode="slipstream", obs="profile")
    assert prof.cycles == plain.cycles
    assert prof.r_breakdown == plain.r_breakdown


# ------------------------------------------------ golden line profiles

#: Full line profiles of three test-size runs at 4 CMPs: cycles, bucket
#: count, a sha256 over every track's sorted buckets, and the
#: ``line_totals`` rows.  Per-category sums cannot see a cycle moved
#: from one line to another; the digest can.  Regenerate with
#: ``PYTHONPATH=src python tests/test_profile.py --regen`` only when a
#: change is meant to move cycles.
GOLDEN_PROFILES = Path(__file__).with_name("golden_profiles.json")
GOLDEN_RUNS = (("cg", "L1"), ("bt", "G0"), ("mg", "double"))


def profile_digest(profile) -> str:
    h = hashlib.sha256()
    for track in sorted(profile):
        h.update(track.encode())
        h.update(repr(sorted(profile[track].items())).encode())
    return h.hexdigest()


def golden_entry(bench: str, config: str) -> dict:
    result = run_benchmark(bench, config, cfg=CFG, size="test",
                           obs="profile").result
    prof = result.profile
    return {"cycles": result.cycles,
            "buckets": sum(len(t) for t in prof.values()),
            "sha256": profile_digest(prof),
            "lines": [[func, line, row] for (func, line), row
                      in sorted(line_totals(prof).items())]}


@pytest.mark.parametrize("bench,config", GOLDEN_RUNS,
                         ids=["/".join(r) for r in GOLDEN_RUNS])
def test_golden_line_profile(bench, config):
    want = json.loads(GOLDEN_PROFILES.read_text())[f"{bench}/{config}"]
    got = golden_entry(bench, config)
    if got != want:
        old = {(f, ln): row for f, ln, row in want["lines"]}
        new = {(f, ln): row for f, ln, row in got["lines"]}
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                print(f"{key}: golden {old.get(key)} got {new.get(key)}")
    assert got == want


# ------------------------------------------------- shaping and export

def test_line_totals_streams_split(profiled):
    rows = line_totals(profiled.profile)
    assert sum(r["streams"]["R"] for r in rows.values()) > 0
    assert sum(r["streams"]["A"] for r in rows.values()) > 0
    total = profile_total(profiled.profile)
    assert sum(r["total"] for r in rows.values()) == pytest.approx(total)


def test_collapsed_stack_format(profiled, tmp_path):
    stacks = collapsed_stacks(profiled.profile, label="slip")
    assert stacks == sorted(stacks)
    for line in stacks:
        frames, count = line.rsplit(" ", 1)
        assert int(count) > 0     # integer counts only
        label, func, leaf = frames.split(";")
        assert label == "slip"
        assert leaf.startswith("line ")
    # Round-trip through the file writer.
    path = tmp_path / "out.folded"
    write_collapsed(path, stacks)
    assert path.read_text().splitlines() == stacks
    write_collapsed(path, [])
    assert path.read_text() == ""


def test_profile_table_renders(profiled):
    text = profile_table(profiled.profile, top=5, title="hot")
    lines = text.splitlines()
    assert lines[0] == "hot"
    assert "function" in lines[1] and "cycles" in lines[1]
    assert len(lines) <= 3 + 5    # title + header + rule + top-5


# ---------------------------------------------------------------- CLI

@pytest.fixture
def demo(tmp_path):
    f = tmp_path / "demo.c"
    f.write_text(SOURCE)
    return str(f)


def run_cli(argv):
    out = io.StringIO()
    rc = cli_main(argv, out=out)
    return rc, out.getvalue()


def test_cli_profile_run(demo, tmp_path):
    folded = tmp_path / "out.folded"
    csv_path = tmp_path / "out.csv"
    rc, out = run_cli(["profile", "run", demo, "--mode", "slipstream",
                       "--cmps", "4", "--top", "5",
                       "--collapsed", str(folded), "--csv", str(csv_path)])
    assert rc == 0
    assert "hot lines" in out and "cycles on 4 CMPs" in out
    assert folded.exists() and csv_path.exists()
    stacks = folded.read_text().splitlines()
    assert stacks and all(len(s.split(";")) == 3 for s in stacks)
    assert csv_path.read_text().startswith("function,line,total,busy")


def test_cli_bench_profile(tmp_path):
    folded = tmp_path / "bench.folded"
    rc, out = run_cli(["bench", "cg", "--size", "test", "--cmps", "4",
                       "--profile", str(folded)])
    assert rc == 0
    assert "hot lines (all runs)" in out
    assert "collapsed stacks written" in out
    stacks = folded.read_text().splitlines()
    labels = {s.split(";")[0] for s in stacks}
    assert {"cg:single", "cg:double", "cg:G0", "cg:L1"} <= labels


def test_cli_bench_profile_and_trace_conflict(tmp_path):
    rc = cli_main(["bench", "cg", "--size", "test", "--cmps", "4",
                   "--profile", str(tmp_path / "p.txt"),
                   "--trace", str(tmp_path / "t.json")],
                  out=io.StringIO())
    assert rc == 2


def test_cli_trace_merged_under_pool_validates(demo, tmp_path):
    """Satellite: --trace together with --jobs 2 still produces one
    merged timeline that passes the validator."""
    from repro.obs.trace import main as trace_main
    trace = tmp_path / "merged.json"
    rc, out = run_cli(["bench", "cg", "--size", "test", "--cmps", "4",
                       "--jobs", "2", "--trace", str(trace)])
    assert rc == 0
    assert trace_main([str(trace)]) == 0


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    parts = []                        # one line per line_totals row
    for b, c in GOLDEN_RUNS:
        entry = golden_entry(b, c)
        rows = ",\n  ".join(json.dumps(r) for r in entry.pop("lines"))
        parts.append(f' "{b}/{c}": {json.dumps(entry)[:-1]}, '
                     f'"lines": [\n  {rows}]}}')
    GOLDEN_PROFILES.write_text("{\n" + ",\n".join(parts) + "\n}\n")
