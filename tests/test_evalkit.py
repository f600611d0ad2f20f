"""Fold planning, metrics, confusion matrices, and the cross-validation
drivers."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eskin import (
    ConfigError,
    ConfusionMatrix,
    CoverageError,
    Dataset,
    MetricsReport,
    SchemaError,
    UndefinedMetricError,
    ValidationError,
    confusion,
    cross_validate,
    cross_validate_two,
    mse,
    r2,
    stratified_kfold,
)
from eskin import evalkit
from eskin.codec import from_dict, to_dict
from eskin.evalkit import (
    confusion_to_csv,
    confusion_to_pgm,
    load_report,
    write_report_files,
)

from .entry_point import eskin_env
from .oracles import stratified_kfold_oracle


@pytest.fixture(scope="module")
def single_report(small_single_ds):
    return cross_validate(small_single_ds, k=3)


@pytest.fixture(scope="module")
def two_report(small_two_ds):
    return cross_validate(small_two_ds, k=2)


class TestStratifiedKfold:
    def test_balanced_two_class_k10(self):
        labels = ["a"] * 10 + ["b"] * 10
        folds = stratified_kfold(labels, k=10)
        for fold in range(10):
            test = np.flatnonzero(folds == fold)
            assert len(test) == 2
            assert {labels[i] for i in test} == {"a", "b"}

    def test_seven_three_split(self):
        labels = np.array(["A"] * 7 + ["B"] * 3)
        folds = stratified_kfold(labels, k=2)
        comps = [
            (int(np.sum(labels[folds == fold] == "A")),
             int(np.sum(labels[folds == fold] == "B")))
            for fold in range(2)
        ]
        assert sorted(comps) == [(3, 1), (4, 2)]

    def test_k1_rejected(self):
        with pytest.raises(ConfigError):
            stratified_kfold([0, 1], k=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            stratified_kfold([0, 1], k=2, seed=-1)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            stratified_kfold([], k=2)

    def test_fold_ids_are_a_read_only_int_array(self):
        folds = stratified_kfold([i % 3 for i in range(17)], k=4, seed=2)
        assert folds.shape == (17,) and folds.dtype.kind == "i"
        assert set(folds.tolist()) == set(range(4))
        with pytest.raises(ValueError):
            folds[0] = 1

    def test_train_test_complementary(self):
        labels = [i % 3 for i in range(17)]
        folds = stratified_kfold(labels, k=4, seed=2)
        for fold in range(4):
            test = set(np.flatnonzero(folds == fold).tolist())
            train = set(np.flatnonzero(folds != fold).tolist())
            assert test | train == set(range(17))
            assert not (test & train)

    def test_deterministic_per_seed(self):
        labels = [i % 4 for i in range(30)]
        a = stratified_kfold(labels, k=3, seed=5)
        b = stratified_kfold(labels, k=3, seed=5)
        c = stratified_kfold(labels, k=3, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(
        n=st.integers(4, 60),
        k=st.integers(2, 5),
        n_classes=st.integers(1, 4),
        seed=st.integers(0, 100),
    )
    def test_partition_and_balance(self, n, k, n_classes, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_classes, n)
        folds = stratified_kfold(labels, k=k, seed=seed)
        assert folds.shape == (n,) and set(folds.tolist()) <= set(range(k))
        # every stratum spreads as evenly as it can
        for cls in set(labels.tolist()):
            per_fold = np.bincount(folds[labels == cls], minlength=k)
            assert max(per_fold) - min(per_fold) <= 1

    @pytest.mark.parametrize(
        "values",
        [
            st.integers(-3, 12),
            st.text("abAB", max_size=3),
            # the node ids of two contacts: one row per sample
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
        ],
        ids=["int", "str", "pair"],
    )
    @given(data=st.data(), k=st.integers(2, 11), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dict_of_lists_plan(self, values, data, k, seed):
        strata = data.draw(st.lists(values, min_size=1, max_size=150))
        folds = stratified_kfold(strata, k, seed)
        assert folds.tolist() == stratified_kfold_oracle(strata, k, seed)


class TestMetrics:
    def test_r2_example(self):
        assert r2([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5, abs=1e-12)

    def test_mse_examples(self):
        assert mse([1, 2, 3], [1, 2, 4]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert mse([0.0], [2.0]) == pytest.approx(4.0, abs=1e-12)

    def test_r2_zero_variance(self):
        with pytest.raises(UndefinedMetricError):
            r2([2, 2, 2], [1, 2, 3])

    def test_perfect_prediction(self):
        assert r2([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    @pytest.mark.parametrize("fn", [r2, mse])
    def test_empty_rejected(self, fn):
        with pytest.raises(ValidationError):
            fn([], [])

    @pytest.mark.parametrize("fn", [r2, mse])
    def test_length_mismatch(self, fn):
        with pytest.raises(ValidationError):
            fn([1, 2], [1])


class TestConfusion:
    def test_three_sample_example(self):
        cm = confusion([0, 0, 1], [0, 1, 1], labels=(0, 1))
        assert cm.counts[0][0] == 1
        assert cm.counts[0][1] == 1
        assert cm.counts[1][0] == 0
        assert cm.counts[1][1] == 1
        assert cm.total == 3
        assert cm.accuracy() == pytest.approx(2.0 / 3.0)

    def test_row_sums_match_class_counts(self, rng):
        true = rng.integers(0, 5, 100)
        pred = rng.integers(0, 5, 100)
        cm = confusion(true, pred, labels=range(5))
        rows = np.array(cm.counts).sum(axis=1)
        assert np.array_equal(rows, np.bincount(true, minlength=5))
        assert cm.total == 100

    @pytest.mark.parametrize(
        "true, pred, label",
        [([1, 6], [1, 2], 2), ([0, 6], [1, 6], 0), ([1, 6], [1, 10], 10)],
    )
    def test_label_outside_labels_rejected(self, true, pred, label):
        match = rf"label {label} is not one of \[1, 6\]"
        with pytest.raises(ValidationError, match=match):
            confusion(true, pred, labels=(1, 6))

    @pytest.mark.parametrize("labels", [(6, 1), (1, 1, 6), ((1, 6),)])
    def test_labels_must_increase(self, labels):
        with pytest.raises(ValidationError, match="are not increasing"):
            confusion([1, 6], [1, 6], labels=labels)

    def test_counts_label_pairs(self):
        cm = confusion([1, 6, 6, 10], [1, 1, 6, 10], labels=(1, 6, 10))
        assert cm.labels == (1, 6, 10)
        assert cm.counts == ((1, 0, 0), (1, 1, 0), (0, 0, 1))

    def test_diagonal_dominance(self):
        good = ConfusionMatrix(counts=((2, 0), (1, 3)), labels=(0, 1))
        assert good.is_diagonal_dominant()
        bad = ConfusionMatrix(counts=((2, 2), (0, 3)), labels=(0, 1))
        assert not bad.is_diagonal_dominant()

    def test_empty_accuracy_undefined(self):
        cm = ConfusionMatrix(counts=((0, 0), (0, 0)), labels=(0, 1))
        with pytest.raises(UndefinedMetricError):
            cm.accuracy()

    def test_dict_round_trip(self):
        cm = confusion([0, 1, 1], [0, 1, 0], labels=(0, 1))
        assert from_dict(ConfusionMatrix, to_dict(cm)) == cm


class TestEmitters:
    CM = ConfusionMatrix(counts=((2, 0), (1, 3)), labels=(1, 6))

    def test_csv_layout(self):
        text = confusion_to_csv(self.CM)
        assert text == "true\\pred,1,6\n1,2,0\n6,1,3\n"

    def test_pgm_layout(self):
        text = confusion_to_pgm(self.CM, cell=2)
        lines = text.splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 4"
        assert lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(pixels) == 16
        assert all(0 <= p <= 255 for p in pixels)
        # peak count renders black, zero count renders white
        assert pixels[0] == 85           # count 2 of peak 3
        assert pixels[2] == 255          # count 0
        assert pixels[-1] == 0           # count 3 (peak)

    def test_pgm_empty_matrix_is_white(self):
        cm = ConfusionMatrix(counts=((0, 0), (0, 0)), labels=(0, 1))
        pixels = confusion_to_pgm(cm, cell=1).splitlines()[3:]
        assert all(v == "255" for row in pixels for v in row.split())


class TestCrossValidateSingle:
    def test_report_shape(self, single_report, small_single_ds):
        rep = single_report
        assert rep.mode == "single"
        assert rep.k == 3
        assert rep.n_samples == len(small_single_ds)
        assert all(len(vals) == 3 for vals in rep.per_fold.values())
        assert set(rep.per_fold) == set(rep.pooled)
        assert set(rep.confusions) == {"row", "col"}
        for cm in rep.confusions.values():
            assert cm.labels == tuple(range(1, 11))
            # every contact row is tested in exactly one fold
            assert cm.total == np.count_nonzero(small_single_ds.node_ids())

    def test_headline_line(self, single_report):
        head = single_report.headline()
        assert head.startswith("mode=single k=3 ")
        for key in (
            "stretch_r2",
            "stretch_mse",
            "force_r2",
            "detection_accuracy",
            "row_accuracy",
            "col_accuracy",
        ):
            assert f"{key}=" in head

    def test_sane_pooled_values(self, single_report):
        pooled = single_report.pooled
        assert pooled["stretch_r2"] > 0.98
        assert pooled["force_r2"] > 0.6
        assert 0.0 <= pooled["detection_accuracy"] <= 1.0
        assert pooled["stretch_mse"] >= 0.0

    def test_fold_stats_align(self, single_report):
        assert set(single_report.fold_mean) == set(single_report.fold_std)
        assert all(v >= 0.0 for v in single_report.fold_std.values())

    def test_json_round_trip(self, single_report):
        back = from_dict(MetricsReport, json.loads(single_report.to_json()))
        assert back.to_json() == single_report.to_json()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cross_validate(Dataset(x=np.empty((0, 20)), labels=np.empty((0, 4))), k=2)


class TestCrossValidateTwo:
    def test_report_shape(self, two_report, small_two_ds):
        rep = two_report
        assert rep.mode == "two"
        assert rep.k == 2
        assert rep.n_samples == len(small_two_ds)
        assert set(rep.confusions) == {"x1", "y1", "x2", "y2"}
        for cm in rep.confusions.values():
            assert cm.labels == (1, 6)
            assert cm.total == len(small_two_ds)

    def test_headline_line(self, two_report):
        head = two_report.headline()
        assert head.startswith("mode=two k=2 ")
        for key in (
            "x1_accuracy",
            "y1_accuracy",
            "x2_accuracy",
            "y2_accuracy",
            "force1_r2",
            "force2_r2",
            "force_mse_shared_axis",
            "force_mse_disjoint",
        ):
            assert f"{key}=" in head
        for key in ("x1_accuracy", "y1_accuracy", "x2_accuracy", "y2_accuracy"):
            assert 0.0 <= two_report.pooled[key] <= 1.0

    def test_deterministic_report(self, small_two_ds, two_report):
        again = cross_validate(small_two_ds, k=2)
        assert again.to_json() == two_report.to_json()

    def test_empty_rejected(self, two_ds):
        empty = two_ds.take(np.arange(0))
        with pytest.raises(ValidationError):
            cross_validate(empty, k=2)


class TestCrossValidateModes:
    """One cross_validate serves both contact modes, taking the mode from
    the data; every fold plan is checked before any fold is trained."""

    @pytest.fixture
    def untrained(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fold was trained")

        monkeypatch.setattr(evalkit, "train", refuse)

    @pytest.mark.parametrize("mode, confusions", [
        ("single", {"row", "col"}), ("two", {"x1", "y1", "x2", "y2"}),
    ])
    def test_mode_comes_from_the_data(self, request, mode, confusions):
        report = request.getfixturevalue(f"{mode}_report")
        assert report.mode == mode
        assert set(report.confusions) == confusions
        assert cross_validate_two is cross_validate

    @pytest.mark.parametrize("mode, k", [("single", 10), ("two", 19)])
    def test_fold_without_contact_rows_raises(self, request, untrained, mode, k):
        # one rep per cell gives 9 rows per node, and the 2 x 2 two-contact
        # grid 18 rows per node pair, so with k folds fold k - 1 tests no
        # contact row: single-contact no-contact rows only, two-contact none
        ds = request.getfixturevalue(f"small_{mode}_ds")
        with pytest.raises(
            CoverageError,
            match=rf"fold {k - 1} test split holds no contact rows.*fewer folds",
        ):
            cross_validate(ds, k=k)

    @pytest.mark.parametrize("mode, stratum, missing", [
        ("single", lambda ds: ds.node_ids() == 1, "node classes"),
        ("two", lambda ds: (ds.node_ids("x1", "y1") == 1)
                           & (ds.node_ids("x2", "y2") == 6), "y2 terminals"),
    ], ids=["single", "two"])
    def test_fold_coverage_failure_is_attributed(
        self, request, untrained, mode, stratum, missing
    ):
        # the stratum keeps one sample, so one training split lacks its node
        ds = request.getfixturevalue(f"small_{mode}_ds")
        keep = np.ones(len(ds), dtype=bool)
        keep[np.flatnonzero(stratum(ds))[:-1]] = False
        with pytest.raises(
            CoverageError, match=rf"^fold 0: training split lacks {missing} \[1\]$"
        ):
            cross_validate(ds.take(keep), k=2)


class TestReportFiles:
    def test_write_and_load_round_trip(self, two_report, tmp_path):
        paths = write_report_files(two_report, tmp_path)
        names = [p.name for p in paths]
        assert names == [
            "report.json",
            "cm_x1.csv",
            "cm_x2.csv",
            "cm_y1.csv",
            "cm_y2.csv",
        ]
        back = load_report(tmp_path / "report.json")
        assert back.to_json() == two_report.to_json()

    def test_heatmaps_emitted_on_request(self, two_report, tmp_path):
        paths = write_report_files(two_report, tmp_path, emit_heatmaps=True)
        names = {p.name for p in paths}
        assert "heatmap_x1.pgm" in names
        assert (tmp_path / "heatmap_y2.pgm").read_text().startswith("P2\n")

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            load_report(bad)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(mode="three"), "report mode 'three' is not"),
            (lambda d: d["pooled"].pop("force_mse_disjoint"), "metrics differ"),
            (lambda d: d["fold_std"].pop("x1_accuracy"), "metrics differ"),
            (lambda d: d["per_fold"].update(x1_accuracy=[0.5]), "needs k=2 values"),
            (lambda d: d["confusions"].pop("y2"), r"confusion matrices \['x1', 'x2'"),
            (lambda d: d.update(notes=[]), "has no notes"),
            (lambda d: d.update(n_samples=0), "n_samples must be >= 1"),
        ],
    )
    def test_load_rejects_incomplete_report(self, two_report, tmp_path, edit, message):
        d = json.loads(two_report.to_json())
        edit(d)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        match = f"malformed report: ValidationError: .*{message}"
        with pytest.raises(SchemaError, match=match):
            load_report(bad)

    def test_load_rejects_missing_fields(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"mode": "single"}))
        with pytest.raises(SchemaError):
            load_report(bad)


def test_single_contact_path_leaves_numpy_ma_unimported():
    # numpy imports numpy.ma (+1.3-1.7 MB RSS) on a process's first plain
    # np.unique, which np.setdiff1d calls; the class maps and label checks
    # of a single-contact train and eval make none
    code = """
import sys
from eskin import (PipelineConfig, SingleForceProtocol, SkinModel, cross_validate,
                   generate_single_force_dataset, train)
from eskin.learners import ForestConfig
ds = generate_single_force_dataset(SkinModel(), SingleForceProtocol(reps_per_cell=1))
config = PipelineConfig(forest=ForestConfig(n_trees=2))
train(ds, config)
cross_validate(ds, k=2, config=config)
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=eskin_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
