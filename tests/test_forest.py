"""Random forest: root splits against an exhaustive Gini search, whole
trees against a node-by-node reference fit, the tree pool against an
in-process fit, vote semantics, seeded determinism, and the compiled node
table that predict serves from against a node-by-node walk of the nested
trees."""

import copy
import multiprocessing
import os
import threading

import numpy as np
import pytest

from eskin import SchemaError, SingleForceProtocol, SkinModel, ValidationError
from eskin import generate_single_force_dataset
from eskin.codec import from_dict, to_dict
from eskin.learners import ForestConfig, ForestModel, forest, forest_fit, forest_predict
from eskin.learners.preprocess import Standardizer

from .oracles import exhaustive_best_split, forest_trees_oracle, gini_split_score

SINGLE_TREE = ForestConfig(n_trees=1, bootstrap=False)


def fit_single_tree(x, y):
    cfg = ForestConfig(
        n_trees=1, bootstrap=False, features_per_split=x.shape[1]
    )
    return forest_fit(x, y, cfg)


class TestPinnedFixtures:
    def test_separable_stump_is_perfect(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = forest_fit(x, y, ForestConfig(n_trees=1, max_depth=1, bootstrap=False))
        labels, votes = forest_predict(model, x)
        assert np.array_equal(labels, y)
        assert np.all(votes[np.arange(4), y] == 1.0)

    def test_constant_labels_predict_that_label(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = forest_fit(x, np.array([2, 2, 2]), SINGLE_TREE)
        labels, votes = forest_predict(model, np.array([[5.0]]))
        assert labels[0] == 2
        assert votes[0, 2] == 1.0

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
        assert forest_fit(x, y, cfg).trees == forest_trees_oracle(x, y, cfg)

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

    def test_worker_count_does_not_change_trees(self, monkeypatch):
        x, y = self.fixture()
        cfg = ForestConfig(n_trees=7, seed=3)
        monkeypatch.setattr(forest, "_pool_workers", pool_of(1))
        monkeypatch.setattr(forest, "ProcessPoolExecutor", None)   # one worker: no pool
        serial = forest_fit(x, y, cfg)
        monkeypatch.undo()
        for workers in (2, 3):
            monkeypatch.setattr(forest, "_pool_workers", pool_of(workers))
            assert forest_fit(x, y, cfg) == serial
            assert multiprocessing.active_children() == []

    def test_failed_tree_fit_leaves_no_children(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("tree fit failed")

        x, y = self.fixture()
        monkeypatch.setattr(forest, "_pool_workers", pool_of(2))
        monkeypatch.setattr(forest, "_grow", fail)
        with pytest.raises(RuntimeError, match="tree fit failed"):
            forest_fit(x, y, ForestConfig(n_trees=4))
        assert multiprocessing.active_children() == []

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


class TestTreeShape:
    def test_min_leaf_blocks_small_node(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = forest_fit(x, y, ForestConfig(n_trees=1, bootstrap=False, min_leaf=3))
        # 4 samples cannot split into two nodes of >= 3
        assert model.trees[0] == {"counts": [2, 2]}
        labels, _ = forest_predict(model, x)
        assert np.all(labels == 0)   # count tie goes to the smaller class

    def test_max_depth_caps_fit(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        deep = forest_fit(x, y, SINGLE_TREE)
        labels, _ = forest_predict(deep, x)
        assert np.array_equal(labels, y)
        stump = forest_fit(x, y, ForestConfig(n_trees=1, max_depth=1, bootstrap=False))
        labels, _ = forest_predict(stump, x)
        assert np.sum(labels == y) == 3   # one sample stays wrong at depth 1

    def test_pure_node_stops(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = forest_fit(x, np.array([1, 1, 1]), SINGLE_TREE)
        assert model.trees[0] == {"counts": [0, 3]}

    @pytest.mark.parametrize("b", [1.0, np.finfo(float).max])
    def test_threshold_between_adjacent_floats(self, b):
        # the midpoint of b and the float just below it rounds to b
        a = np.nextafter(b, 0)
        x = np.array([[a], [a], [b], [b]])
        y = np.array([0, 0, 1, 1])
        model = forest_fit(x, y, SINGLE_TREE)
        assert model.trees[0]["threshold"] == a
        labels, _ = forest_predict(model, x)
        assert np.array_equal(labels, y)


class TestVoting:
    def test_tie_goes_to_smaller_class(self):
        model = ForestModel(
            trees=({"counts": [1, 0]}, {"counts": [0, 1]}),
            n_classes=2,
            n_features=1,
            config=ForestConfig(n_trees=2),
        )
        labels, votes = forest_predict(model, np.array([[0.0]]))
        assert labels[0] == 0
        assert np.allclose(votes[0], [0.5, 0.5])

    def test_vote_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.3, (15, 2)), rng.normal(2, 0.3, (15, 2))])
        y = np.array([0] * 15 + [1] * 15)
        model = forest_fit(x, y, ForestConfig(n_trees=25, seed=1))
        labels, votes = forest_predict(model, x)
        assert votes.shape == (30, 2)
        assert np.allclose(votes.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(labels, y)


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
        l0, v0 = forest_predict(model, q)
        l1, v1 = forest_predict(back, q)
        assert np.array_equal(l0, l1)
        assert np.array_equal(v0, v1)


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
            forest_predict(model, np.array([[1.0]]))

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


def reference_predict(model, x):
    """Node-by-node recursive walk of the nested trees: one vote per tree at
    its leaf's first-argmax class, ties to the smaller class."""
    x = np.atleast_2d(np.asarray(x, dtype=float))

    def leaf(node, row):
        if "counts" in node:
            return int(np.argmax(node["counts"]))
        go_left = row[node["feature"]] <= node["threshold"]
        return leaf(node["left"] if go_left else node["right"], row)

    votes = np.zeros((x.shape[0], model.n_classes))
    for tree in model.trees:
        for r, row in enumerate(x):
            votes[r, leaf(tree, row)] += 1
    return np.argmax(votes, axis=1), votes / len(model.trees)


def tree_depth(node):
    if "counts" in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def hand_model(*trees, n_classes=3, n_features=2):
    return ForestModel(
        trees=trees,
        n_classes=n_classes,
        n_features=n_features,
        config=ForestConfig(n_trees=len(trees)),
    )


STUMP = {"feature": 1, "threshold": 0.5, "left": {"counts": [3, 0, 0]},
         "right": {"counts": [0, 0, 2]}}


def assert_matches_reference(model, x):
    labels, votes = forest_predict(model, x)
    ref_labels, ref_votes = reference_predict(model, x)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(votes, ref_votes)


class TestCompiledTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_forests_match_reference_walk(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        d = int(rng.integers(1, 6))
        n_classes = int(rng.integers(2, 6))
        x = np.round(rng.normal(size=(n, d)), 1)   # repeated values
        y = rng.integers(0, n_classes, n)
        cfg = ForestConfig(
            n_trees=int(rng.integers(1, 12)),
            max_depth=[None, 1, 3][seed % 3],
            min_leaf=int(rng.integers(1, 4)),
            seed=seed,
        )
        model = forest_fit(x, y, cfg)
        q = np.vstack([x, np.round(rng.normal(size=(40, d)), 1)])
        assert_matches_reference(model, q)
        assert_matches_reference(from_dict(ForestModel, to_dict(model)), q)
        assert model.table.depth == max(tree_depth(t) for t in model.trees)

    def test_root_leaf_tree_next_to_deep_tree(self):
        deep = {"feature": 0, "threshold": 0.0,
                "left": {"counts": [0, 1, 0]}, "right": STUMP}
        model = hand_model({"counts": [0, 0, 4]}, deep)
        q = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert_matches_reference(model, q)
        assert model.table.depth == 2

    def test_every_tree_a_root_leaf(self):
        model = hand_model({"counts": [0, 2, 0]}, {"counts": [1, 0, 0]},
                           n_features=1)
        labels, votes = forest_predict(model, np.zeros((3, 1)))
        assert np.array_equal(labels, [0, 0, 0])   # 1-1 vote tie
        assert_matches_reference(model, np.zeros((3, 1)))

    def test_vote_tie_goes_to_smaller_class(self):
        model = hand_model(STUMP, {"counts": [0, 0, 1]}, {"counts": [0, 1, 0]})
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        labels, votes = forest_predict(model, q)
        assert np.array_equal(labels, [0, 2])   # three-way tie, then 2 of 3
        assert np.array_equal(votes[0], np.full(3, 1 / 3))
        assert_matches_reference(model, q)

    def test_leaf_with_tied_counts_votes_first_maximum(self):
        model = hand_model({"feature": 0, "threshold": 1.0,
                            "left": {"counts": [0, 2, 2]},
                            "right": {"counts": [5, 0, 5]}})
        labels, _ = forest_predict(model, np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.array_equal(labels, [1, 0])

    def test_nan_feature_goes_right(self):
        model = hand_model(STUMP)
        q = np.array([[0.0, np.nan], [np.nan, 0.0]])
        labels, _ = forest_predict(model, q)
        assert np.array_equal(labels, [2, 0])
        assert_matches_reference(model, q)

    def test_zero_rows(self):
        model = hand_model(STUMP, {"counts": [1, 0, 0]})
        labels, votes = forest_predict(model, np.empty((0, 2)))
        assert labels.shape == (0,)
        assert votes.shape == (0, 3)

    def test_hand_built_voting_model(self):
        model = ForestModel(
            trees=({"counts": [1, 0]}, {"counts": [0, 1]}),
            n_classes=2,
            n_features=1,
            config=ForestConfig(n_trees=2),
        )
        assert_matches_reference(model, np.array([[0.0], [3.0]]))

    def test_cached_table_changes_neither_equality_nor_dict(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 3))
        model = forest_fit(x, rng.integers(0, 3, 30), ForestConfig(n_trees=4))
        before = to_dict(model)
        fresh = from_dict(ForestModel, before)
        forest_predict(model, x)
        assert model._table is not None and fresh._table is None
        assert model == fresh
        assert to_dict(model) == before
        assert "_table" not in repr(model)


class TestMalformedTrees:
    @pytest.mark.parametrize(
        "tree, match",
        [
            ({**STUMP, "feature": 2}, "split feature 2 is not an integer in 0..1"),
            ({**STUMP, "feature": -1}, "split feature -1"),
            ({**STUMP, "feature": 1.0}, "split feature 1.0"),
            ({**STUMP, "feature": True}, "split feature True"),
            ({**STUMP, "right": {"counts": [0, 2]}}, "leaf has 2 counts, expected 3"),
            ({**STUMP, "left": {"counts": [3, 0, 0, 0]}}, "leaf has 4 counts"),
            ({k: v for k, v in STUMP.items() if k != "threshold"}, "KeyError"),
            ({k: v for k, v in STUMP.items() if k != "right"}, "KeyError"),
            ({**STUMP, "left": None}, "TypeError"),
            ({**STUMP, "threshold": "high"}, "ValueError"),
        ],
    )
    def test_rejected_at_predict(self, tree, match):
        model = hand_model({"counts": [1, 0, 0]}, tree)
        with pytest.raises(SchemaError, match=match):
            forest_predict(model, np.zeros((1, 2)))

    def test_forest_without_trees_rejected(self):
        with pytest.raises(SchemaError, match="no trees"):
            forest_predict(
                ForestModel(trees=(), n_classes=2, n_features=2, config=SINGLE_TREE),
                np.zeros((1, 2)),
            )

    def test_rejected_again_on_every_call(self):
        model = hand_model({**STUMP, "feature": 5})
        for _ in range(2):
            with pytest.raises(SchemaError):
                forest_predict(model, np.zeros((1, 2)))

    def test_nested_trees_left_untouched(self):
        tree = copy.deepcopy(STUMP)
        model = hand_model(tree)
        forest_predict(model, np.zeros((2, 2)))
        assert model.trees[0] == STUMP
