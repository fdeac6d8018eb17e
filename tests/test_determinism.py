"""Determinism guard for the simulator's hot paths.

The simulated cycle counts below were recorded from the seed simulator
(before the cache tag index, engine fast path and interpreter dispatch
table landed) and pin down the acceptance criterion that performance
work must leave simulated time bit-identical: any optimization that
perturbs event ordering, LRU victim choice, or per-instruction cycle
accounting shows up here as an exact-equality failure, not a tolerance
drift.

The matrix is the full static study (5 benchmarks x 4 configurations)
plus the dynamic study (4 benchmarks x 2 configurations) at test size
on a 4-CMP machine -- every execution mode, both A-R synchronization
policies, and both scheduling styles.
"""

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import run_dynamic_suite, run_static_suite

CFG = PAPER_MACHINE.with_(n_cmps=4)

#: {(suite, bench, config): simulated cycles} recorded from the seed.
GOLDEN_CYCLES = {
    ("static", "bt", "single"): 306917.0,
    ("static", "bt", "double"): 195050.0,
    ("static", "bt", "G0"): 261238.0,
    ("static", "bt", "L1"): 305153.0,
    ("static", "cg", "single"): 81587.0,
    ("static", "cg", "double"): 78462.0,
    ("static", "cg", "G0"): 73175.0,
    ("static", "cg", "L1"): 70587.0,
    ("static", "lu", "single"): 78041.0,
    ("static", "lu", "double"): 88708.0,
    ("static", "lu", "G0"): 67153.0,
    ("static", "lu", "L1"): 71687.0,
    ("static", "mg", "single"): 59876.0,
    ("static", "mg", "double"): 50914.0,
    ("static", "mg", "G0"): 54221.0,
    ("static", "mg", "L1"): 51907.0,
    ("static", "sp", "single"): 153978.0,
    ("static", "sp", "double"): 98806.0,
    ("static", "sp", "G0"): 138917.0,
    ("static", "sp", "L1"): 154287.0,
    ("dynamic", "bt", "single"): 446706.0,
    ("dynamic", "bt", "G0"): 359809.0,
    ("dynamic", "cg", "single"): 209913.0,
    ("dynamic", "cg", "G0"): 197033.0,
    ("dynamic", "mg", "single"): 241899.0,
    ("dynamic", "mg", "G0"): 232333.0,
    ("dynamic", "sp", "single"): 251695.0,
    ("dynamic", "sp", "G0"): 204586.0,
}


#: {(suite, bench, config): per-run counters} for three runs that cover
#: a static global-sync run, a static local-sync run and a dynamic run.
#: Recorded on the generator-only memory path (``REPRO_HOTPATH=engine,
#: fuse,compile`` before the miss-forecast tier was removed), so a
#: shortcut that reorders events or miscounts a hit, a miss or a
#: coherence action fails here even when the total cycles agree.
#: ``mem_stats`` is the machine-wide sum of the ``mem:n*`` tracks.
#: ``cache.l1.misses`` alone was re-recorded after the hit path stopped
#: counting an L1 miss that its slow path counts again.
GOLDEN_STATS = {
    ("static", "cg", "G0"): {
        "mem_stats": {"cache.l1.hits": 7645, "cache.l1.invalidations": 301,
                      "cache.l1.misses": 304, "cache.l2.evictions": 0,
                      "cache.l2.hits": 1578, "cache.l2.invalidations": 211,
                      "cache.l2.misses": 326, "inv_rounds": 62,
                      "invs_sent": 125, "l2_hits": 1523, "loads": 304,
                      "local": 28, "mshr_merges": 92, "prefetch_ex": 73,
                      "remote": 114, "remote3": 147, "stores": 1508},
        "rt_stats": {
            "A0@n0c1": {"slip.region.GLOBAL_SYNC": 1},
            "R0@n0c0": {"slip.region.GLOBAL_SYNC": 1},
            "chan:n0": {"token.consumes": 14, "token.inserts": 14},
            "chan:n1": {"token.consumes": 14, "token.inserts": 14},
            "chan:n2": {"token.consumes": 14, "token.inserts": 14},
            "chan:n3": {"token.consumes": 14, "token.inserts": 14},
            "engine": {"engine.events": 852, "engine.processes": 337},
            "mem": {"dir.lines": 76, "dir.locks": 76},
            "mem:n0": {"cache.l1.hits": 1904, "cache.l1.invalidations": 77,
                       "cache.l1.misses": 76, "cache.l2.evictions": 0,
                       "cache.l2.hits": 397, "cache.l2.invalidations": 53,
                       "cache.l2.misses": 81, "inv_rounds": 20,
                       "invs_sent": 39, "l2_hits": 382, "loads": 76,
                       "local": 16, "mshr_merges": 19, "prefetch_ex": 20,
                       "remote": 27, "remote3": 34, "stores": 383},
            "mem:n1": {"cache.l1.hits": 1918, "cache.l1.invalidations": 87,
                       "cache.l1.misses": 84, "cache.l2.evictions": 0,
                       "cache.l2.hits": 382, "cache.l2.invalidations": 65,
                       "cache.l2.misses": 97, "inv_rounds": 13,
                       "invs_sent": 23, "l2_hits": 371, "loads": 84,
                       "local": 12, "mshr_merges": 27, "prefetch_ex": 17,
                       "remote": 17, "remote3": 52, "stores": 368},
            "mem:n2": {"cache.l1.hits": 1911, "cache.l1.invalidations": 66,
                       "cache.l1.misses": 71, "cache.l2.evictions": 0,
                       "cache.l2.hits": 395, "cache.l2.invalidations": 44,
                       "cache.l2.misses": 74, "inv_rounds": 15,
                       "invs_sent": 33, "l2_hits": 382, "loads": 71,
                       "mshr_merges": 24, "prefetch_ex": 19, "remote": 33,
                       "remote3": 30, "stores": 374},
            "mem:n3": {"cache.l1.hits": 1912, "cache.l1.invalidations": 71,
                       "cache.l1.misses": 73, "cache.l2.evictions": 0,
                       "cache.l2.hits": 404, "cache.l2.invalidations": 49,
                       "cache.l2.misses": 74, "inv_rounds": 14,
                       "invs_sent": 30, "l2_hits": 388, "loads": 73,
                       "mshr_merges": 22, "prefetch_ex": 17, "remote": 37,
                       "remote3": 31, "stores": 383},
            "team": {"barrier.episodes": 13, "jobs.posted": 1,
                     "lock.acquisitions": 16, "lock.contended": 9,
                     "loops.materialized": 0},
        },
    },
    ("static", "bt", "L1"): {
        "mem_stats": {"cache.l1.hits": 41494, "cache.l1.invalidations": 878,
                      "cache.l1.misses": 959, "cache.l2.evictions": 0,
                      "cache.l2.hits": 11745, "cache.l2.invalidations": 442,
                      "cache.l2.misses": 570, "inv_rounds": 365,
                      "invs_sent": 408, "l2_hits": 11435, "loads": 959,
                      "local": 79, "mshr_merges": 24, "prefetch_ex": 174,
                      "remote": 304, "remote3": 473, "stores": 11332},
        "rt_stats": {
            "A0@n0c1": {"slip.region.LOCAL_SYNC": 1},
            "R0@n0c0": {"slip.region.LOCAL_SYNC": 1},
            "chan:n0": {"token.consumes": 6, "token.inserts": 6},
            "chan:n1": {"token.consumes": 6, "token.inserts": 6},
            "chan:n2": {"token.consumes": 6, "token.inserts": 6},
            "chan:n3": {"token.consumes": 6, "token.inserts": 6},
            "engine": {"engine.events": 2420, "engine.processes": 1403},
            "mem": {"dir.lines": 126, "dir.locks": 126},
            "mem:n0": {"cache.l1.hits": 7501, "cache.l1.invalidations": 180,
                       "cache.l1.misses": 196, "cache.l2.evictions": 0,
                       "cache.l2.hits": 2061, "cache.l2.invalidations": 104,
                       "cache.l2.misses": 131, "inv_rounds": 69,
                       "invs_sent": 78, "l2_hits": 1995, "loads": 196,
                       "local": 72, "mshr_merges": 2, "prefetch_ex": 24,
                       "remote": 13, "remote3": 110, "stores": 1994},
            "mem:n1": {"cache.l1.hits": 13202, "cache.l1.invalidations": 272,
                       "cache.l1.misses": 296, "cache.l2.evictions": 0,
                       "cache.l2.hits": 3808, "cache.l2.invalidations": 133,
                       "cache.l2.misses": 171, "inv_rounds": 141,
                       "invs_sent": 156, "l2_hits": 3688, "loads": 296,
                       "local": 7, "mshr_merges": 8, "prefetch_ex": 59,
                       "remote": 130, "remote3": 146, "stores": 3675},
            "mem:n2": {"cache.l1.hits": 7497, "cache.l1.invalidations": 179,
                       "cache.l1.misses": 195, "cache.l2.evictions": 0,
                       "cache.l2.hits": 2060, "cache.l2.invalidations": 103,
                       "cache.l2.misses": 130, "inv_rounds": 59,
                       "invs_sent": 68, "l2_hits": 2001, "loads": 195,
                       "mshr_merges": 6, "prefetch_ex": 20, "remote": 79,
                       "remote3": 104, "stores": 1989},
            "mem:n3": {"cache.l1.hits": 13294, "cache.l1.invalidations": 247,
                       "cache.l1.misses": 272, "cache.l2.evictions": 0,
                       "cache.l2.hits": 3816, "cache.l2.invalidations": 102,
                       "cache.l2.misses": 138, "inv_rounds": 96,
                       "invs_sent": 106, "l2_hits": 3751, "loads": 272,
                       "mshr_merges": 8, "prefetch_ex": 71, "remote": 82,
                       "remote3": 113, "stores": 3674},
            "team": {"barrier.episodes": 5, "jobs.posted": 1,
                     "lock.acquisitions": 4, "lock.contended": 1,
                     "loops.materialized": 0},
        },
    },
    ("dynamic", "sp", "G0"): {
        "mem_stats": {"cache.l1.hits": 26639, "cache.l1.invalidations": 1177,
                      "cache.l1.misses": 1270, "cache.l2.evictions": 0,
                      "cache.l2.hits": 8474, "cache.l2.invalidations": 582,
                      "cache.l2.misses": 837, "inv_rounds": 407,
                      "invs_sent": 456, "l2_hits": 8117, "loads": 1270,
                      "local": 57, "mshr_merges": 391, "prefetch_ex": 359,
                      "remote": 163, "remote3": 583, "stores": 7650},
        "rt_stats": {
            "A0@n0c1": {"slip.region.GLOBAL_SYNC": 1},
            "R0@n0c0": {"slip.region.GLOBAL_SYNC": 1},
            "chan:n0": {"decisions.published": 15, "token.consumes": 6,
                        "token.inserts": 6},
            "chan:n1": {"decisions.published": 17, "token.consumes": 6,
                        "token.inserts": 6},
            "chan:n2": {"decisions.published": 15, "token.consumes": 6,
                        "token.inserts": 6},
            "chan:n3": {"decisions.published": 17, "token.consumes": 6,
                        "token.inserts": 6},
            "engine": {"engine.events": 2693, "engine.processes": 1702},
            "mem": {"dir.lines": 94, "dir.locks": 94},
            "mem:n0": {"cache.l1.hits": 5988, "cache.l1.invalidations": 300,
                       "cache.l1.misses": 331, "cache.l2.evictions": 0,
                       "cache.l2.hits": 1972, "cache.l2.invalidations": 146,
                       "cache.l2.misses": 222, "inv_rounds": 108,
                       "invs_sent": 119, "l2_hits": 1871, "loads": 331,
                       "local": 25, "mshr_merges": 118, "prefetch_ex": 97,
                       "remote": 30, "remote3": 150, "stores": 1745},
            "mem:n1": {"cache.l1.hits": 6872, "cache.l1.invalidations": 307,
                       "cache.l1.misses": 365, "cache.l2.evictions": 0,
                       "cache.l2.hits": 2162, "cache.l2.invalidations": 145,
                       "cache.l2.misses": 227, "inv_rounds": 109,
                       "invs_sent": 124, "l2_hits": 2061, "loads": 365,
                       "local": 20, "mshr_merges": 109, "prefetch_ex": 96,
                       "remote": 31, "remote3": 168, "stores": 1915},
            "mem:n2": {"cache.l1.hits": 6424, "cache.l1.invalidations": 299,
                       "cache.l1.misses": 299, "cache.l2.evictions": 0,
                       "cache.l2.hits": 2097, "cache.l2.invalidations": 149,
                       "cache.l2.misses": 197, "inv_rounds": 95,
                       "invs_sent": 104, "l2_hits": 2022, "loads": 299,
                       "mshr_merges": 87, "prefetch_ex": 92, "remote": 53,
                       "remote3": 132, "stores": 1908},
            "mem:n3": {"cache.l1.hits": 7355, "cache.l1.invalidations": 271,
                       "cache.l1.misses": 275, "cache.l2.evictions": 0,
                       "cache.l2.hits": 2243, "cache.l2.invalidations": 142,
                       "cache.l2.misses": 191, "inv_rounds": 95,
                       "invs_sent": 109, "l2_hits": 2163, "loads": 275,
                       "local": 12, "mshr_merges": 77, "prefetch_ex": 74,
                       "remote": 49, "remote3": 133, "stores": 2082},
            "team": {"barrier.episodes": 5, "jobs.posted": 1,
                     "lock.acquisitions": 68, "lock.contended": 21,
                     "loops.materialized": 5},
        },
    },
}

@pytest.fixture(scope="module")
def suites():
    return (run_static_suite(cfg=CFG, size="test"),
            run_dynamic_suite(cfg=CFG, size="test"))


def test_static_suite_cycles_match_seed_exactly(suites):
    static, _ = suites
    got = {("static", b, c): run.cycles
           for b, row in static.items() for c, run in row.items()}
    want = {k: v for k, v in GOLDEN_CYCLES.items() if k[0] == "static"}
    assert got == want


def test_dynamic_suite_cycles_match_seed_exactly(suites):
    _, dynamic = suites
    got = {("dynamic", b, c): run.cycles
           for b, row in dynamic.items() for c, run in row.items()}
    want = {k: v for k, v in GOLDEN_CYCLES.items() if k[0] == "dynamic"}
    assert got == want


def test_repeated_run_is_bit_identical(suites):
    """Same spec, same process, fresh machine: identical cycles *and*
    identical per-shell time breakdowns, not just the total."""
    from repro.harness import run_benchmark
    a = run_benchmark("cg", "G0", cfg=CFG, size="test")
    b = run_benchmark("cg", "G0", cfg=CFG, size="test")
    assert a.cycles == b.cycles
    assert a.result.breakdowns == b.result.breakdowns
    assert a.result.r_breakdown == b.result.r_breakdown


@pytest.mark.parametrize("key", sorted(GOLDEN_STATS), ids="/".join)
def test_run_counters_match_golden(suites, key):
    suite, bench, config = key
    run = suites[0 if suite == "static" else 1][bench][config].result
    want = GOLDEN_STATS[key]
    assert run.mem_stats.as_dict() == want["mem_stats"]
    assert run.rt_stats == want["rt_stats"]
