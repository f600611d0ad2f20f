"""Random forest: root splits against an exhaustive Gini search, whole
trees against a node-by-node reference fit, the node arrays against a
node-by-node flattening of the trees, the tree pool against an in-process
fit, trees that do not depend on row order, each forest of a shared fit
against its lone reference fit, vote semantics, seeded determinism, the
checks a model makes of its node arrays, the leaf entries against their
dense count matrix, and the compiled node table that predict serves from,
one forest or several, in its one-row and its many-row order, against a
node-by-node walk of the nested trees."""

import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eskin import SchemaError, SingleForceProtocol, SkinModel, ValidationError
from eskin import generate_single_force_dataset
from eskin.codec import from_dict, to_dict
from eskin.learners import (
    ForestConfig,
    ForestModel,
    compile_forests,
    fit_forests,
    forest,
    forest_fit,
    forest_predict,
)
from eskin.learners.preprocess import Standardizer

from .oracles import (
    exhaustive_best_split,
    forest_of,
    forest_trees_oracle,
    gini_split_score,
    reference_predict,
)

SINGLE_TREE = ForestConfig(n_trees=1, bootstrap=False)


def fit_single_tree(x, y):
    cfg = ForestConfig(
        n_trees=1, bootstrap=False, features_per_split=x.shape[1]
    )
    return forest_fit(x, y, cfg)


def predict(model, x):
    """The labels of one forest, served from its node table of one."""
    (labels,) = forest_predict(compile_forests((model,)), x)
    return labels


class TestPinnedFixtures:
    def test_separable_stump_is_perfect(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = forest_fit(x, y, ForestConfig(n_trees=1, max_depth=1, bootstrap=False))
        assert np.array_equal(predict(model, x), y)

    def test_constant_labels_predict_that_label(self):
        # one pure leaf: every query, NaN and infinities too, lands on it
        x = np.array([[0.0], [1.0], [2.0]])
        model = forest_fit(x, np.array([2, 2, 2]), SINGLE_TREE)
        assert model.trees == ({"counts": [3]},)
        assert model.classes.tolist() == [2]
        q = np.array([[5.0], [-5.0], [np.nan], [np.inf], [-np.inf]])
        assert np.array_equal(predict(model, q), np.full(5, 2))

    def test_four_sample_root_threshold(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_single_tree(x, y)
        root = model.trees[0]
        assert root["feature"] == 0
        assert 1.0 < root["threshold"] < 10.0
        best_score, ties = exhaustive_best_split(x, y)
        assert (0, root["threshold"]) in ties
        mask = x[:, 0] <= root["threshold"]
        achieved = gini_split_score(y[mask], y[~mask], model.n_classes)
        assert achieved == pytest.approx(best_score, abs=1e-9)


class TestRootSplitOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 21))
        d = int(rng.integers(1, 4))
        x = np.round(rng.normal(0.0, 1.0, (n, d)), 2)
        y = rng.integers(0, 3, n)
        if len(np.unique(y)) < 2:
            y[0] = (y[0] + 1) % 3
        model = fit_single_tree(x, y)
        root = model.trees[0]
        best_score, ties = exhaustive_best_split(x, y)
        if "counts" in root:
            assert not ties
            return
        assert (root["feature"], root["threshold"]) in ties
        mask = x[:, root["feature"]] <= root["threshold"]
        achieved = gini_split_score(y[mask], y[~mask], model.n_classes)
        assert achieved == pytest.approx(best_score, abs=1e-9)

    def test_min_leaf_respected_by_search(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        cfg = ForestConfig(n_trees=1, bootstrap=False, min_leaf=2)
        root = forest_fit(x, y, cfg).trees[0]
        mask = x[:, 0] <= root["threshold"]
        assert mask.sum() >= 2 and (~mask).sum() >= 2
        best_score, ties = exhaustive_best_split(x, y, min_leaf=2)
        assert (0, root["threshold"]) in ties


class TestTreesMatchReferenceFit:
    """forest_fit must build exactly the trees of the reference fit, which
    re-sorts every node per feature and scores with a float one-hot cumsum."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_fixture(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 150))
        d = int(rng.integers(1, 7))
        n_classes = int(rng.integers(2, 11))
        # a random subset of the classes, so some below the largest are absent
        present = rng.choice(n_classes, size=int(rng.integers(1, n_classes + 1)),
                             replace=False)
        y = rng.choice(present, n)
        x = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))   # ties
        cfg = ForestConfig(
            n_trees=int(rng.integers(1, 6)),
            max_depth=[None, 1, 2, 3, 4][seed % 5],
            min_leaf=int(rng.integers(1, 4)),
            features_per_split=1 + seed % d,
            bootstrap=bool(seed % 2),
            seed=seed,
        )
        model = forest_fit(x, y, cfg)
        assert model.trees == forest_trees_oracle(x, y, cfg)
        assert np.array_equal(model.classes, np.unique(y))

    @pytest.mark.parametrize("label", ["node_x", "node_y"])
    def test_desk_contact_fold(self, label):
        ds = generate_single_force_dataset(
            SkinModel(), SingleForceProtocol(reps_per_cell=1, seed=5)
        )
        pos = np.flatnonzero(ds.label("node_x") != 0)
        fold = pos[np.random.default_rng(5).permutation(pos.size)[: 2 * pos.size // 3]]
        z = Standardizer.fit(ds.x[fold]).transform(ds.x[fold])
        y = ds.label(label)[fold] - 1
        cfg = ForestConfig(n_trees=6, seed=5)
        assert forest_fit(z, y, cfg).trees == forest_trees_oracle(z, y, cfg)


def pool_of(workers):
    return lambda n_trees: workers


class TestTreePool:
    def fixture(self):
        rng = np.random.default_rng(8)
        x = np.round(rng.normal(size=(60, 4)), 1)
        return x, rng.integers(0, 4, 60)

    def labels(self, n_forests):
        """Label vectors of 4, 2, 7 and 3 classes for the fixture's rows."""
        rng = np.random.default_rng(9)
        return tuple(rng.integers(0, c, 60) for c in (4, 2, 7, 3)[:n_forests])

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("n_forests", [1, 2, 4])
    def test_worker_count_does_not_change_trees(self, monkeypatch, n_forests, bootstrap):
        # each forest of one fit_forests call is the forest a forest_fit of
        # its labels alone makes in-process, at any worker count
        x, _ = self.fixture()
        ys = self.labels(n_forests)
        cfg = ForestConfig(n_trees=7, seed=3, bootstrap=bootstrap)
        monkeypatch.setattr(forest, "_pool_workers", pool_of(1))
        monkeypatch.setattr(forest, "ProcessPoolExecutor", None)   # one worker: no pool
        separate = tuple(forest_fit(x, y, cfg) for y in ys)
        assert len({m.n_classes for m in separate}) == n_forests
        monkeypatch.undo()
        for workers in (1, 2, 3):
            monkeypatch.setattr(forest, "_pool_workers", pool_of(workers))
            assert fit_forests(x, ys, cfg) == separate
            assert multiprocessing.active_children() == []

    def test_failed_tree_fit_leaves_no_children(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("tree fit failed")

        x, _ = self.fixture()
        monkeypatch.setattr(forest, "_pool_workers", pool_of(2))
        monkeypatch.setattr(forest, "_grow", fail)
        with pytest.raises(RuntimeError, match="tree fit failed"):
            fit_forests(x, self.labels(2), ForestConfig(n_trees=4))
        assert multiprocessing.active_children() == []

    def test_needs_a_label_vector(self):
        x, _ = self.fixture()
        with pytest.raises(ValidationError, match="at least one label vector"):
            fit_forests(x, ())

    def test_daemonic_process_fits_in_process(self):
        # a multiprocessing.Pool worker is daemonic and may not start a pool
        x, y = self.fixture()
        cfg = ForestConfig(n_trees=4, seed=3)
        with multiprocessing.get_context("fork").Pool(1) as workers:
            model = workers.apply_async(forest_fit, (x, y, cfg)).get(timeout=60)
        assert model == forest_fit(x, y, cfg)

    def test_pool_size_follows_cpus_and_trees(self):
        cpus = len(os.sched_getaffinity(0))
        assert forest._pool_workers(1) == 1
        assert forest._pool_workers(100) == min(cpus, forest._MAX_WORKERS)

    def test_threaded_process_fits_in_process(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            assert forest._pool_workers(100) == 1
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()


def n_splits(node):
    if "counts" in node:
        return 0
    return 1 + n_splits(node["left"]) + n_splits(node["right"])


class TestNodeSort:
    """A node sorts its drawn features itself, with an unstable sort, and the
    forests of one call read one list of feature subsets per tree index."""

    @pytest.mark.parametrize("seed", range(6))
    def test_row_order_does_not_change_trees(self, seed):
        # rounded to integers: a few values per feature, each on many rows
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(200, 5)))
        y = rng.integers(0, 4, 200)
        assert all(np.unique(col).size < 12 for col in x.T)
        cfg = ForestConfig(n_trees=5, bootstrap=False, min_leaf=1 + seed % 3, seed=seed)
        perm = rng.permutation(200)
        assert forest_fit(x[perm], y[perm], cfg) == forest_fit(x, y, cfg)

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("deep_first", [False, True])
    def test_each_forest_is_its_lone_oracle(self, bootstrap, deep_first):
        # the forest with more candidate splits draws the subsets the other
        # reads: the later one when deep_first is False, the first otherwise
        rng = np.random.default_rng(11)
        x = np.round(rng.normal(size=(120, 6)), 1)
        shallow = (x[:, 0] + x[:, 1] > 0).astype(int)
        deep = rng.integers(0, 7, 120)
        ys = (deep, shallow) if deep_first else (shallow, deep)
        cfg = ForestConfig(n_trees=5, seed=4, bootstrap=bootstrap)
        models = fit_forests(x, ys, cfg)
        first, later = ([n_splits(t) for t in m.trees] for m in models)
        assert all((a > b) == deep_first for a, b in zip(first, later))
        for model, y in zip(models, ys):
            assert model.trees == forest_trees_oracle(x, y, cfg)


class TestTreeShape:
    def test_min_leaf_blocks_small_node(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = forest_fit(x, y, ForestConfig(n_trees=1, bootstrap=False, min_leaf=3))
        # 4 samples cannot split into two nodes of >= 3
        assert model.trees[0] == {"counts": [2, 2]}
        assert np.all(predict(model, x) == 0)   # count tie goes to the smaller class

    def test_max_depth_caps_fit(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        deep = forest_fit(x, y, SINGLE_TREE)
        assert np.array_equal(predict(deep, x), y)
        stump = forest_fit(x, y, ForestConfig(n_trees=1, max_depth=1, bootstrap=False))
        assert np.sum(predict(stump, x) == y) == 3   # one sample stays wrong at depth 1

    def test_pure_node_stops(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = forest_fit(x, np.array([1, 1, 1]), SINGLE_TREE)
        assert model.trees[0] == {"counts": [3]}

    @pytest.mark.parametrize("b", [1.0, np.finfo(float).max])
    def test_threshold_between_adjacent_floats(self, b):
        # the midpoint of b and the float just below it rounds to b
        a = np.nextafter(b, 0)
        x = np.array([[a], [a], [b], [b]])
        y = np.array([0, 0, 1, 1])
        model = forest_fit(x, y, SINGLE_TREE)
        assert model.trees[0]["threshold"] == a
        assert np.array_equal(predict(model, x), y)


class TestVoting:
    @pytest.mark.parametrize("leaves", [([1, 0], [0, 1]), ([0, 1], [1, 0])])
    def test_tie_goes_to_smaller_class(self, leaves):
        # one vote each, in either tree order
        model = forest_of(tuple({"counts": c} for c in leaves), (0, 1), 1)
        assert np.array_equal(predict(model, np.array([[0.0]])), [0])

    @pytest.mark.parametrize(
        "leaves, label",
        [
            (([0, 1, 0], [0, 1, 0], [4, 0, 0]), 1),
            (([3, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 2]), 2),
            (([0, 2, 2], [0, 1, 0], [0, 0, 1]), 1),   # a tied leaf votes its first class
        ],
    )
    def test_majority_of_trees_wins(self, leaves, label):
        model = forest_of(tuple({"counts": c} for c in leaves), (0, 1, 2), 1)
        assert np.array_equal(predict(model, np.zeros((2, 1))), [label, label])

    def test_separated_clusters_predict_their_labels(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.3, (15, 2)), rng.normal(2, 0.3, (15, 2))])
        y = np.array([0] * 15 + [1] * 15)
        model = forest_fit(x, y, ForestConfig(n_trees=25, seed=1))
        assert np.array_equal(predict(model, x), y)


class TestClassLabels:
    """A forest fits on the indices of its sorted distinct labels, keeps the
    labels as its classes and predicts labels."""

    def test_labels_are_kept_and_predicted(self):
        rng = np.random.default_rng(6)
        x = np.round(rng.normal(size=(80, 3)), 1)
        idx = rng.integers(0, 3, 80)
        labels = np.array([3, 7, 10])[idx]
        cfg = ForestConfig(n_trees=5, seed=2)
        model = forest_fit(x, labels, cfg)
        on_indices = forest_fit(x, idx, cfg)
        assert model.classes.tolist() == [3, 7, 10]
        assert on_indices.classes.tolist() == [0, 1, 2]
        assert model.trees == on_indices.trees
        q = np.round(rng.normal(size=(30, 3)), 1)
        want = np.array([3, 7, 10])[predict(on_indices, q)]
        assert np.array_equal(predict(model, q), want)

    def test_vote_tie_goes_to_smaller_label(self):
        model = forest_of(({"counts": [0, 1]}, {"counts": [1, 0]}), (4, 9), 1)
        assert np.array_equal(predict(model, np.zeros((2, 1))), [4, 4])

    def test_table_serves_each_forest_its_labels(self):
        models = (
            forest_of(({"counts": [0, 2]},), (1, 6), 1),
            forest_of(({"counts": [5, 0, 1]},), (2, 5, 9), 1),
        )
        table = compile_forests(models)
        assert table.classes.tolist() == [1, 6, 2, 5, 9]
        first, second = forest_predict(table, np.zeros((1, 1)))
        assert (first.tolist(), second.tolist()) == ([6], [2])


class TestDeterminismAndSerialisation:
    def test_same_seed_same_trees(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, 40)
        a = forest_fit(x, y, ForestConfig(n_trees=12, seed=9))
        b = forest_fit(x, y, ForestConfig(n_trees=12, seed=9))
        assert a.trees == b.trees

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, 40)
        a = forest_fit(x, y, ForestConfig(n_trees=3, seed=0))
        b = forest_fit(x, y, ForestConfig(n_trees=3, seed=1))
        assert a.trees != b.trees

    def test_dict_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 2))
        y = rng.integers(0, 3, 20)
        model = forest_fit(x, y, ForestConfig(n_trees=5))
        back = from_dict(ForestModel, to_dict(model))
        q = rng.normal(size=(8, 2))
        assert np.array_equal(predict(model, q), predict(back, q))


class TestValidation:
    @pytest.mark.parametrize(
        "y",
        [
            np.array([-1, 0, 1]),
            np.array([0.5, 1.0, 2.0]),
        ],
    )
    def test_bad_labels(self, y):
        with pytest.raises(ValidationError):
            forest_fit(np.zeros((3, 1)), y)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            forest_fit(np.empty((0, 1)), np.empty(0, dtype=int))

    def test_no_features_rejected(self):
        with pytest.raises(ValidationError, match="at least one feature"):
            forest_fit(np.empty((3, 0)), np.array([0, 1, 0]))

    def test_predict_feature_mismatch(self):
        model = forest_fit(np.zeros((3, 2)), np.array([0, 1, 0]), SINGLE_TREE)
        with pytest.raises(ValidationError):
            predict(model, np.array([[1.0]]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"max_depth": 0},
            {"min_leaf": 0},
            {"features_per_split": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValidationError):
            ForestConfig(**kwargs)


def tree_depth(node):
    if "counts" in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def hand_model(*trees, n_classes=3, n_features=2):
    return forest_of(trees, range(n_classes), n_features)


STUMP = {"feature": 1, "threshold": 0.5, "left": {"counts": [3, 0, 0]},
         "right": {"counts": [0, 0, 2]}}


def assert_matches_reference(model, x):
    """The many-row walk and the one-row order, row by row, both give the
    reference labels."""
    ref_labels = reference_predict(model, x)
    assert np.array_equal(predict(model, x), ref_labels)
    for i in range(x.shape[0]):
        assert np.array_equal(predict(model, x[i : i + 1]), ref_labels[i : i + 1])


def random_forest(seed, n_features=None, n_classes=None):
    """A fitted forest of random shape on rounded (so tied) random data, the
    data, and the generator that drew them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 80))
    d = n_features or int(rng.integers(1, 6))
    n_classes = n_classes or int(rng.integers(2, 6))
    x = np.round(rng.normal(size=(n, d)), 1)   # repeated values
    y = rng.integers(0, n_classes, n)
    cfg = ForestConfig(
        n_trees=int(rng.integers(1, 12)),
        max_depth=[None, 1, 3][seed % 3],
        min_leaf=int(rng.integers(1, 4)),
        seed=seed,
    )
    return forest_fit(x, y, cfg), x, rng


class TestCompiledTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_forests_match_reference_walk(self, seed):
        model, x, rng = random_forest(seed)
        q = np.vstack([x, np.round(rng.normal(size=(40, x.shape[1])), 1)])
        assert_matches_reference(model, q)
        assert_matches_reference(from_dict(ForestModel, to_dict(model)), q)
        depth = compile_forests((model,)).depth
        assert depth == max(tree_depth(t) for t in model.trees)

    def test_root_leaf_tree_next_to_deep_tree(self):
        deep = {"feature": 0, "threshold": 0.0,
                "left": {"counts": [0, 1, 0]}, "right": STUMP}
        model = hand_model({"counts": [0, 0, 4]}, deep)
        q = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert_matches_reference(model, q)
        assert compile_forests((model,)).depth == 2

    def test_every_tree_a_root_leaf(self):
        model = hand_model({"counts": [0, 2, 0]}, {"counts": [1, 0, 0]},
                           n_features=1)
        assert np.array_equal(predict(model, np.zeros((3, 1))), [0, 0, 0])   # 1-1 vote tie
        assert_matches_reference(model, np.zeros((3, 1)))

    def test_vote_tie_goes_to_smaller_class(self):
        model = hand_model(STUMP, {"counts": [0, 0, 1]}, {"counts": [0, 1, 0]})
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(predict(model, q), [0, 2])   # three-way tie, then 2 of 3
        assert_matches_reference(model, q)

    def test_leaf_with_tied_counts_votes_first_maximum(self):
        model = hand_model({"feature": 0, "threshold": 1.0,
                            "left": {"counts": [0, 2, 2]},
                            "right": {"counts": [5, 0, 5]}})
        assert np.array_equal(predict(model, np.array([[0.0, 0.0], [2.0, 0.0]])), [1, 0])

    def test_nan_feature_goes_right(self):
        model = hand_model(STUMP)
        q = np.array([[0.0, np.nan], [np.nan, 0.0]])
        assert np.array_equal(predict(model, q), [2, 0])
        assert_matches_reference(model, q)

    @pytest.mark.parametrize("seed", range(3))
    def test_non_finite_features_go_right(self, seed):
        model, x, rng = random_forest(seed, n_features=3)
        q = x[:12].copy()
        q[rng.random(q.shape) < 0.3] = np.nan
        q[rng.random(q.shape) < 0.2] = np.inf
        q[rng.random(q.shape) < 0.2] = -np.inf
        assert_matches_reference(model, q)

    def test_zero_rows(self):
        model = hand_model(STUMP, {"counts": [1, 0, 0]})
        assert predict(model, np.empty((0, 2))).shape == (0,)

    def test_hand_built_voting_model(self):
        model = forest_of(({"counts": [1, 0]}, {"counts": [0, 1]}), (0, 1), 1)
        assert_matches_reference(model, np.array([[0.0], [3.0]]))

    def test_serving_changes_neither_equality_nor_dict(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 3))
        model = forest_fit(x, rng.integers(0, 3, 30), ForestConfig(n_trees=4))
        before = to_dict(model)
        fresh = from_dict(ForestModel, before)
        state = dict(vars(model))
        predict(model, x)
        assert vars(model) == state   # the table is kept by its caller
        assert model == fresh
        assert to_dict(model) == before
        assert "table" not in repr(model)


class TestMultiForestTable:
    """One table serving several forests gives each forest exactly what it
    gives on its own, in both evaluation orders."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_forests_with_different_class_counts(self, seed):
        models, xs, _ = zip(*(
            random_forest(10 * seed + k, n_features=3, n_classes=c)
            for k, c in enumerate((2, 5, 3, 7))
        ))
        table = compile_forests(models)
        q = np.vstack(xs)
        q[::7, 1] = np.nan
        q[1::9, 2] = np.inf
        q[2::9, 0] = -np.inf
        assert table.depth == max(compile_forests((m,)).depth for m in models)
        assert table.class_ranges == ((0, 2), (2, 7), (7, 10), (10, 17))
        for rows in [q, q[:1], q[5:6], q[:0]]:
            for model, labels in zip(models, forest_predict(table, rows)):
                assert np.array_equal(labels, reference_predict(model, rows))

    def test_root_leaf_forest_next_to_deep_forest(self):
        deep = {"feature": 0, "threshold": 0.0,
                "left": {"counts": [0, 1, 0]}, "right": STUMP}
        leafy = hand_model({"counts": [0, 3]}, {"counts": [2, 0]}, n_classes=2)
        models = (leafy, hand_model(deep, STUMP), hand_model(STUMP, n_classes=3))
        q = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [np.nan, np.nan]])
        table = compile_forests(models)
        assert table.depth == 2
        for rows in [q] + [q[i : i + 1] for i in range(len(q))]:
            for model, labels in zip(models, forest_predict(table, rows)):
                assert np.array_equal(labels, reference_predict(model, rows))

    def test_zero_rows(self):
        table = compile_forests(
            (hand_model(STUMP), hand_model({"counts": [0, 0, 0, 1]}, n_classes=4))
        )
        l1, l2 = forest_predict(table, np.empty((0, 2)))
        assert l1.shape == l2.shape == (0,)

    def test_forests_must_share_features(self):
        with pytest.raises(SchemaError, match="same features"):
            compile_forests((hand_model(STUMP), hand_model(STUMP, n_features=3)))

    def test_feature_count_checked_against_the_table(self):
        table = compile_forests((hand_model(STUMP), hand_model(STUMP)))
        with pytest.raises(ValidationError, match="expected 2 features, got 3"):
            forest_predict(table, np.zeros((1, 3)))


class TestNodeArrays:
    """The node arrays are the queue-order flattening of the fitted trees,
    and the nested view rebuilds those trees."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_is_queue_order_of_its_trees(self, seed):
        model, _, _ = random_forest(seed)
        flat = forest_of(model.trees, model.classes, model.n_features)
        assert flat == model
        assert flat.trees == model.trees

    def test_dtypes(self):
        model, _, _ = random_forest(1)
        assert model.is_split.dtype == bool
        for name in ("feature", "leaf_entries", "entry_class", "entry_count"):
            assert getattr(model, name).dtype == np.int32
        assert model.classes.dtype == np.int32
        assert model.threshold.dtype == np.float64

    def test_trees_view_is_rebuilt_on_each_call(self):
        model = hand_model({"counts": [1, 0, 0]}, STUMP)
        model.trees[1]["left"]["counts"][0] = 99
        assert model.trees == ({"counts": [1, 0, 0]}, STUMP)

    def test_equality_compares_arrays(self):
        model = hand_model(STUMP)
        assert model == hand_model(STUMP)
        assert model != hand_model({**STUMP, "threshold": 0.25})
        assert model != hand_model({**STUMP, "right": {"counts": [0, 1, 2]}})
        assert model != replace(model, n_features=3)


class TestMalformedNodeArrays:
    """A model refuses node arrays that are not n_trees whole trees in
    queue order, or whose values predict cannot use."""

    MODEL = hand_model({"counts": [1, 0, 0]}, STUMP)   # leaf, split, leaf, leaf

    @pytest.mark.parametrize(
        "arrays, match",
        [
            ({"feature": np.array([2], np.int32)}, "split feature 2 is not in 0..1"),
            ({"feature": np.array([-1], np.int32)}, "split feature -1 "),
            ({"threshold": np.array([np.nan])}, "split threshold nan is not finite"),
            ({"threshold": np.array([np.inf])}, "split threshold inf is not finite"),
            ({"threshold": np.array([-np.inf])}, "split threshold -inf"),
            ({"feature": np.array([1, 1], np.int32)}, r"1 splits but features \(2,\)"),
            ({"threshold": np.array([], float)}, r"1 splits but .* thresholds \(0,\)"),
            # a mask of 3 trees and 1 split has 4 leaves
            ({"is_split": np.array([False, True, False, False, False])},
             r"leaf_entries are \(3,\), expected \(4,\): one per leaf"),
            ({"is_split": np.array([False, True, True, False])},
             "2 splits need a flat mask of more than 4 nodes"),
            ({"is_split": np.array([], bool)},
             "0 splits need a flat mask of more than 0 nodes"),
            ({"is_split": np.array([[False, True], [False, False]])},
             r"split mask has shape \(2, 2\)"),
            ({"is_split": np.array([False, False, True, False])}, "not in queue order"),
            ({"n_features": 0}, "n_features must be >= 1, got 0"),
            # leaf entries: one per leaf, each >= 1, summing to the entry count
            ({"leaf_entries": np.array([1, 1], np.int32)},
             r"leaf_entries are \(2,\), expected \(3,\)"),
            ({"leaf_entries": np.array([[1, 1, 1]], np.int32)},
             r"leaf_entries are \(1, 3\), expected \(3,\)"),
            ({"leaf_entries": np.array([1, 0, 2], np.int32)},
             "leaf_entries must be >= 1"),
            ({"leaf_entries": np.array([1, 1, 2], np.int32)},
             r"leaf_entries sum to 4 but entry_class is \(3,\) and entry_count \(3,\)"),
            ({"entry_class": np.array([0, 0], np.int32)},
             r"sum to 3 but entry_class is \(2,\)"),
            ({"entry_count": np.array([[1, 3, 2]], np.int32)},
             r"sum to 3 but .* entry_count \(1, 3\)"),
            # entry classes: indices of ``classes``, increasing within a leaf
            ({"entry_class": np.array([0, 0, 3], np.int32)},
             r"entry_class 3 is not in 0\.\.2"),
            ({"entry_class": np.array([0, -1, 2], np.int32)},
             r"entry_class -1 is not in 0\.\.2"),
            ({"leaf_entries": np.array([1, 1, 2], np.int32),
              "entry_class": np.array([0, 0, 2, 1], np.int32),
              "entry_count": np.array([1, 3, 2, 1], np.int32)},
             "entry_class is not strictly increasing within a leaf"),
            ({"leaf_entries": np.array([1, 1, 2], np.int32),
              "entry_class": np.array([0, 0, 2, 2], np.int32),
              "entry_count": np.array([1, 3, 2, 1], np.int32)},
             "entry_class is not strictly increasing within a leaf"),
            ({"entry_count": np.array([1, 0, 2], np.int32)},
             "entry_count must be >= 1"),
            ({"entry_count": np.array([1, 3, -2], np.int32)},
             "entry_count must be >= 1"),
            # strictly increasing labels, one per class an entry may name
            ({"classes": np.array([0, 1], np.int32)},
             r"forest entry_class 2 is not in 0\.\.1"),
            ({"classes": np.array([], np.int32)},
             r"forest classes \[\] are not one or more strictly increasing labels"),
            ({"classes": np.array([[0, 1, 2]], np.int32)},
             r"forest classes \[\[0, 1, 2\]\] are not one or more"),
            ({"classes": np.array([1, 1, 2], np.int32)},
             r"forest classes \[1, 1, 2\] are not one or more strictly increasing"),
            ({"classes": np.array([0, 2, 1], np.int32)},
             r"forest classes \[0, 2, 1\] are not one or more strictly increasing"),
        ],
    )
    def test_rejected_on_construction(self, arrays, match):
        with pytest.raises(ValidationError, match=match):
            replace(self.MODEL, **arrays)

    @pytest.mark.parametrize(
        "arrays",
        [
            # classes may fall from one leaf to the next
            {"entry_class": np.array([2, 1, 0], np.int32)},
            # a class no leaf names, and two classes in one leaf
            {"classes": np.array([0, 1, 2, 3], np.int32)},
            {"leaf_entries": np.array([1, 1, 2], np.int32),
             "entry_class": np.array([0, 0, 1, 2], np.int32),
             "entry_count": np.array([1, 3, 2, 1], np.int32)},
        ],
    )
    def test_accepted_on_construction(self, arrays):
        replace(self.MODEL, **arrays)


def leaves_of(counts):
    """A forest of one root leaf per row of a dense count matrix."""
    n_leaves, n_classes = counts.shape
    return ForestModel(
        is_split=np.zeros(n_leaves, bool),
        feature=np.zeros(0, np.int32),
        threshold=np.zeros(0),
        **forest._entries(counts),
        classes=np.arange(n_classes, dtype=np.int32),
        n_features=1,
    )


# count matrices with a nonzero in every row; small counts make ties common
count_matrices = st.integers(1, 6).flatmap(
    lambda n_classes: st.lists(
        st.lists(st.integers(0, 3), min_size=n_classes, max_size=n_classes)
        .filter(any),
        min_size=1, max_size=12,
    )
).map(lambda rows: np.array(rows, dtype=np.int32))


class TestSparseLeaves:
    """A leaf's counts are stored as its nonzero entries: the dense matrix
    comes back exactly, and serving reads each leaf's first argmax from the
    entries without building it."""

    @given(counts=count_matrices)
    def test_dense_entries_dense(self, counts):
        model = leaves_of(counts)
        assert np.array_equal(model.leaf_entries, np.count_nonzero(counts, axis=1))
        assert np.all(model.entry_count > 0)
        assert model.leaf_counts.dtype == np.int32
        assert np.array_equal(model.leaf_counts, counts)
        assert from_dict(ForestModel, to_dict(model)) == model

    @given(counts=count_matrices)
    def test_table_leaf_classes_are_dense_argmax(self, counts):
        model = leaves_of(counts)
        table = compile_forests((model,))
        assert np.array_equal(table.leaf_class, np.argmax(counts, axis=1))
        assert "leaf_counts" not in vars(model)

    @pytest.mark.parametrize("seed", range(6))
    def test_fitted_table_leaf_classes_are_dense_argmax(self, seed):
        # max_depth 1 and 3 stop early, so those leaves hold several classes
        model, _, _ = random_forest(seed)
        table = compile_forests((model,))
        leaves = ~model.is_split
        assert np.array_equal(
            table.leaf_class[leaves], np.argmax(model.leaf_counts, axis=1)
        )

    def test_dense_view_is_built_once_and_read_only(self):
        model = hand_model({"counts": [1, 0, 0]}, STUMP)
        assert "leaf_counts" not in vars(model)
        counts = model.leaf_counts
        assert counts.tolist() == [[1, 0, 0], [3, 0, 0], [0, 0, 2]]
        assert model.leaf_counts is counts
        with pytest.raises(ValueError, match="read-only"):
            counts[0, 0] = 5

