"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

import json
import sys
import types
from pathlib import Path

import pytest

import stats
import tracer as tr


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_percentile_interpolates_like_numpy_default():
    xs = list(range(1, 101))          # 1..100
    assert stats.percentile(xs, 50) == 50.5
    assert stats.percentile(xs, 90) == pytest.approx(90.1)
    assert stats.percentile(xs, 0) == 1
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.median([3, 1, 2]) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 101)


def test_p90_of_100_samples_keeps_ten_beyond():
    xs = [float(i) for i in range(100)]
    assert stats.samples_beyond(xs, 90) == 10
    assert stats.samples_beyond(xs[:99], 90) == 10
    assert stats.samples_beyond(xs[:50], 90) == 5


def test_union_length_counts_overlaps_once():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_children_clipped_to_the_span():
    assert stats.self_time(0, 10, []) == 10
    assert stats.self_time(0, 10, [(1, 3), (5, 6)]) == 7
    assert stats.self_time(0, 10, [(1, 4), (2, 5)]) == 6
    assert stats.self_time(2, 10, [(0, 4)]) == 6


def test_tally_counts_failures_into_error_rate():
    t = stats.Tally()
    assert t.error_rate == 0.0
    for ok in (True, True, False, True):
        t.record(ok, "check")
    assert (t.attempted, t.failed) == (4, 1)
    assert t.error_rate == 0.25
    assert t.failures == ["check"]


def test_nested_spans_give_self_times_and_share_a_root():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock)
    with tracer.span("pipeline.train"):
        clock.now = 1.0
        with tracer.span("svm.fit"):
            clock.now = 4.0
        with tracer.span("forest.fit"):
            clock.now = 9.0
        clock.now = 10.0
    with tracer.span("pipeline.infer"):
        with tracer.span("pipeline.predict"):
            clock.now = 12.0
        clock.now = 12.5
    train, svm, forest, infer, predict = tracer.spans
    assert {svm.parent, forest.parent} == {train.id}
    assert svm.root == forest.root == train.id
    assert predict.root == infer.id != train.id
    m = tr.layer_metrics(tracer.spans)
    assert m["pipeline.train_s"] == 10.0
    assert m["pipeline.train_self_s"] == 2.0      # 10 - 3 (svm) - 5 (forest)
    assert m["svm.fit_s"] == 3.0 and m["svm.fit_calls"] == 1
    assert m["forest.fit_s"] == 5.0
    assert m["pipeline.infer_s"] == 2.5
    assert m["pipeline.infer_self_s"] == 0.5
    assert m["pipeline.predict_s"] == 2.0
    assert m["gp.rows_used_ratio"] == 0.0          # no GP fit: no base, no ratio


def test_instrument_wraps_at_the_callers_name_and_restores():
    lib = types.ModuleType("fake_lib")
    lib.fit = lambda x: {"rows": len(x)}
    sys.modules["fake_lib"] = lib
    try:
        original = lib.fit
        tracer = tr.Tracer()
        targets = [
            ("fake_lib", "fit", "gp.fit",
             lambda a, k, r: {"rows_offered": len(a[0]), "rows_used": r["rows"] // 2}),
            ("fake_lib", "absent", "gp.predict", None),
        ]
        with tr.instrument(tracer, targets) as missing:
            assert lib.fit([1, 2, 3, 4]) == {"rows": 4}
            assert lib.fit([1, 2]) == {"rows": 2}
        assert missing == ["fake_lib.absent"]
        assert lib.fit is original
        m = tr.layer_metrics(tracer.spans)
        assert (m["gp.rows_offered"], m["gp.rows_used"]) == (6, 3)
        assert m["gp.rows_used_ratio"] == 0.5
    finally:
        del sys.modules["fake_lib"]


def test_tree_shape_of_nested_and_flat_trees():
    leaf = {"counts": [1, 0]}
    nested = {"feature": 0, "threshold": 0.5, "left": leaf,
              "right": {"feature": 1, "threshold": 0.1, "left": leaf, "right": leaf}}
    assert tr.tree_shape(leaf) == (1, 0)
    assert tr.tree_shape(nested) == (5, 2)
    flat = {"left": [1, -1, 3, -1, -1], "right": [2, -1, 4, -1, -1]}
    assert tr.tree_shape(flat) == (5, 2)


def test_per_layer_names_are_unique_and_all_reported():
    names = [n for n, _, _ in tr.PER_LAYER]
    assert len(names) == len(set(names))
    reported = set(tr.layer_metrics([])) | {
        "trace.chain_s", "trace.untraced_chain_s", "trace.overhead_s",
    }
    assert reported == set(names)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tr.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_extra_serving_rounds_fill_the_seconds(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    clock = FakeClock()
    monkeypatch.setattr(workloads, "clock", clock)
    clock.now = 18.0                       # the fixed work ended at 18 s
    rounds = []
    for r in workloads._extra_rounds(0.0, 30.0):
        rounds.append(r)
        clock.now += 5.0
    assert rounds == [4, 5, 6]             # the third ends at 33 s
    assert list(workloads._extra_rounds(0.0, 10.0)) == []
