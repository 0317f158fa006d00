"""Span recording, self-time arithmetic, wrapping and per-layer aggregation."""

import itertools
import json
import os

import numpy as np
import pytest

from perfbench import harness
from perfbench.layers import TARGETS, aggregate, load_mapping, lu_gflop, svd_gflop
from perfbench.spans import Span, Target, Tracer, patched, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def ticking_clock():
    """A clock that advances by one on every reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


def test_self_time_of_nested_tree():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("a.inner", 2.0, 3.0, parent=1),
             Span("b", 5.0, 9.0, parent=0),
             Span("b.x", 5.5, 6.0, parent=3),
             Span("b.y", 7.0, 8.5, parent=3)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0),
             Span("c1", 1.0, 4.0, parent=0),
             Span("c2", 3.0, 6.0, parent=0),
             Span("c3", 9.0, 12.0, parent=0)]   # runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_times():
    tracer = Tracer(clock=ticking_clock())
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    # clock readings: outer 0..5, inner 1..2 and 3..4
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 5), (1, 2), (3, 4)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_wrapper_returns_the_callee_result_and_closes_on_error():
    tracer = Tracer()
    marker = object()
    assert tracer.wrap("f", lambda: marker)() is marker

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[-1].end >= tracer.spans[-1].start
    assert tracer._open == []


def test_before_and_after_hooks_set_attributes():
    tracer = Tracer()
    f = tracer.wrap("f", lambda a, b=2: a * b,
                    before=lambda a, b=2: {"a": a},
                    after=lambda result, a, b=2: {"result": result})
    assert f(3, b=4) == 12
    assert tracer.spans[0].attrs == {"a": 3, "result": 12}


def test_patched_wraps_every_binding_and_restores():
    cli = harness.ensure_program(ROOT)
    import eitdisk.completion
    import eitdisk.regularization as reg
    import eitdisk.sampling
    originals = (eitdisk.sampling.scan, cli.scan, reg.regularized_solve,
                 eitdisk.completion.regularized_solve,
                 reg.SvdFactorization.__dict__["from_matrix"])
    assert originals[0] is originals[1]
    tracer = Tracer()
    with patched(tracer, TARGETS):
        assert cli.scan is eitdisk.sampling.scan is not originals[0]
        assert eitdisk.completion.regularized_solve is reg.regularized_solve
        assert reg.regularized_solve is not originals[2]
        svd = reg.SvdFactorization.from_matrix(np.eye(3))
    assert isinstance(svd, reg.SvdFactorization)
    assert [s.name for s in tracer.spans] == ["regularization.svd_factorization",
                                              "linalg.svd"]
    assert tracer.spans[1].parent == 0
    assert (eitdisk.sampling.scan, cli.scan, reg.regularized_solve,
            eitdisk.completion.regularized_solve,
            reg.SvdFactorization.__dict__["from_matrix"]) == originals


def test_patched_results_equal_unpatched_results():
    harness.ensure_program(ROOT)
    import eitdisk.regularization as reg
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 9))
    g = rng.standard_normal(12)
    plain = (reg.perturb_vector(g, 0.1, (3, 1)), reg.SvdFactorization.from_matrix(a),
             np.linalg.svd(a))
    with patched(Tracer(), TARGETS):
        traced = (reg.perturb_vector(g, 0.1, (3, 1)), reg.SvdFactorization.from_matrix(a),
                  np.linalg.svd(a))
    assert np.array_equal(plain[0], traced[0])
    for x, y in zip((plain[1].u, plain[1].s, plain[1].vh), (traced[1].u, traced[1].s,
                                                              traced[1].vh)):
        assert np.array_equal(x, y)
    for x, y in zip(plain[2], traced[2]):
        assert np.array_equal(x, y)


def test_patched_restores_after_an_exception():
    import math
    original = math.sqrt
    with pytest.raises(RuntimeError), patched(Tracer(), [Target("m.sqrt", "math:sqrt")]):
        assert math.sqrt is not original
        raise RuntimeError
    assert math.sqrt is original


def test_aggregate_self_time_counts_and_attributes():
    spans = [Span("pass", 0.0, 10.0, attrs={"all_modes_cut": 2}),
             Span("sampling.scan", 1.0, 5.0, parent=0, attrs={"points": 100}),
             Span("linalg.svd", 2.0, 3.0, parent=1, attrs={"gflop": 0.5}),
             Span("completion.complete_cauchy", 6.0, 7.0, parent=0, attrs={"used": 1}),
             Span("completion.complete_cauchy", 7.0, 8.0, parent=0, attrs={"used": 0})]
    mapping = {k: v for k, v in load_mapping().items()
               if k in ("sampling.scan.s", "sampling.scan.points_per_s", "linalg.svd.gflop",
                        "linalg.svd.calls", "completion.pairs_used_ratio",
                        "regularization.all_modes_cut", "completion.nodes_recovered_ratio",
                        "trace.overhead_s")}
    assert aggregate(spans, mapping) == {
        "sampling.scan.s": 3.0, "sampling.scan.points_per_s": 25.0,
        "linalg.svd.gflop": 0.5, "linalg.svd.calls": 1,
        "completion.pairs_used_ratio": 0.5, "regularization.all_modes_cut": 2,
        "completion.nodes_recovered_ratio": 0.0}


def test_operation_count_models():
    assert lu_gflop(np.zeros((1000, 1000)))["gflop"] == pytest.approx(2.0 / 3.0)
    assert lu_gflop(np.zeros((10, 10), complex))["gflop"] == pytest.approx(4 * 2e3 / 3 / 1e9)
    assert svd_gflop(np.zeros((100, 100)))["gflop"] == pytest.approx(21e6 / 1e9)
    assert svd_gflop(np.zeros((200, 100)), compute_uv=False)["gflop"] == pytest.approx(
        (4 * 200 * 100**2 - 4 * 100**3 / 3) / 1e9)
    thin = (14 * 512 * 256**2 + 8 * 256**3) / 1e9
    assert svd_gflop(np.zeros((256, 512)), False)["gflop"] == pytest.approx(thin)
    assert svd_gflop(np.zeros((512, 256)), full_matrices=False)["gflop"] == pytest.approx(thin)
    assert svd_gflop(np.zeros((256, 512)))["gflop"] > thin


def test_summary_reports_a_percentile_with_ten_samples_beyond_it():
    few = harness.summary([3.0, 1.0, 2.0])
    assert few == {"median": 2.0, "n": 3, "max": 3.0}
    many = harness.summary([float(i) for i in range(100)])
    assert many["n"] == 100 and "p90" in many


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == list(load_mapping())
    for metric in doc["end_to_end"]:
        assert harness.E2E_UNITS[metric["name"]] == metric["unit"]
    spans_named = {t.name for t in TARGETS} | {"pass"}
    for spec in load_mapping().values():
        assert set(spec["spans"]) <= spans_named
