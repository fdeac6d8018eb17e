"""Tests for the functional reference executor."""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.interp import FunctionalRunner, GlobalStore


def run(src, inputs=None):
    return FunctionalRunner(compile_source(src), inputs=inputs).run()


def test_global_store_scalars_and_arrays():
    img = compile_source("""
int n = 3;
double m[2][2];
void main() { m[1][1] = 7.0; }
""")
    store = GlobalStore(img)
    assert store.value("n") == 3
    arr = store.array("m")
    assert arr.shape == (2, 2)
    store.write(img.global_named("m").index, 3, 9.0)
    assert store.array("m")[1, 1] == 9.0


def _store():
    img = compile_source("""
int k;
int idx[3];
double x[2];
void main() { }
""")
    return img, GlobalStore(img)


def test_global_store_int_writes_truncate_toward_zero():
    img, store = _store()
    k = img.global_named("k").index
    store.write(k, 0, 3.7)
    assert store.read(k, 0) == 3 and type(store.read(k, 0)) is int
    store.write(k, 0, -3.7)
    assert store.value("k") == -3
    x = img.global_named("x").index
    store.write(x, 1, 2)                        # ints widen to doubles
    assert store.read(x, 1) == 2.0 and type(store.read(x, 1)) is float


def test_global_store_views_are_typed_and_alias_the_buffers():
    img, store = _store()
    assert [a.dtype for a in store.arrays] == [np.int64, np.int64,
                                               np.float64]
    view = store.array("idx")
    view[2] = 5                                 # view -> buffer
    assert store.read(img.global_named("idx").index, 2) == 5
    store.write(img.global_named("x").index, 0, 1.5)   # buffer -> view
    assert store.arrays[2][0] == 1.5
    store.arrays[2][0] += 1.0                   # in-place on a fresh view
    assert store.value("x")[0] == 2.5


def test_global_store_pickle_round_trip_is_exact():
    import pickle
    img, store = _store()
    store.write(img.global_named("k").index, 0, -(2 ** 62))
    store.write(img.global_named("x").index, 1, 0.1 + 0.2)
    back = pickle.loads(pickle.dumps(store))
    for a, b in zip(store.arrays, back.arrays):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    back.array("x")[0] = 9.0                    # still aliased after load
    assert back.value("x")[0] == 9.0


def test_int_arrays_are_integer_typed():
    r = run("""
int idx[4];
void main() {
    int i;
    for (i = 0; i < 4; i = i + 1) idx[i] = i * 2;
}
""")
    arr = r.store.array("idx")
    assert arr.dtype == np.int64
    assert list(arr) == [0, 2, 4, 6]


def test_output_ordering_preserved():
    r = run("""
void main() {
    int i;
    for (i = 0; i < 3; i = i + 1) print("line", i);
}
""")
    assert r.output == [("line", 0), ("line", 1), ("line", 2)]


def test_inputs_consumed_in_order():
    r = run("""
double a, b;
void main() {
    a = read_input();
    b = read_input();
}
""", inputs=[1.5, 2.5])
    assert (r.store.value("a"), r.store.value("b")) == (1.5, 2.5)


def test_input_underflow_raises():
    with pytest.raises(RuntimeError):
        run("double a;\nvoid main() { a = read_input(); }", inputs=[])


def test_worksharing_single_thread_covers_all():
    r = run("""
double a[40];
int i;
void main() {
    #pragma omp parallel for schedule(dynamic, 7)
    for (i = 0; i < 40; i = i + 1) a[i] = 1.0;
}
""")
    assert float(np.sum(r.store.array("a"))) == 40.0


def test_sections_all_run_once():
    r = run("""
double a[3];
void main() {
    #pragma omp parallel sections
    {
        #pragma omp section
        { a[0] = a[0] + 1.0; }
        #pragma omp section
        { a[1] = a[1] + 1.0; }
        #pragma omp section
        { a[2] = a[2] + 1.0; }
    }
}
""")
    assert list(r.store.array("a")) == [1.0, 1.0, 1.0]


def test_max_events_guard():
    img = compile_source("""
double x;
void main() {
    while (1 > 0) { x = x + 1.0; }
}
""")
    with pytest.raises(RuntimeError):
        FunctionalRunner(img).run(max_events=1000)


def test_wtime_monotonic():
    r = run("""
double t1, t2;
void main() {
    int i; double s;
    t1 = omp_get_wtime();
    for (i = 0; i < 100; i = i + 1) s = s + i;
    t2 = omp_get_wtime();
}
""")
    assert r.store.value("t2") >= r.store.value("t1")
