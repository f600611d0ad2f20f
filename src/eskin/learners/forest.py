"""Random-forest classifier built on from-scratch Gini CART trees.

Each tree trains on a seeded bootstrap resample and each split scans a
seeded subset of ceil(sqrt(d)) features, so a fit is a pure function of
(data, config).

A node holds its rows and sorts only the values of the features it drew,
all at once: a node scores ceil(sqrt(d)) of d features, so sorting those
costs less than keeping every feature's sorted order through each split
(the CART presort; Breiman et al. 1984; Louppe 2014, ch. 5). The scores
come from exact integer class counts, and the children are the chosen
feature's sorted rows before and after the cut.

A forest's ``classes`` are the distinct labels it was fitted on, in order
(scikit-learn's ``classes_``; Pedregosa et al., JMLR 2011): trees grow on
their indices, and predict returns labels. ``fit_forests`` fits every
forest of one training call (a pipeline's two or four, which share their
rows and config) in one pool of forked processes, one per usable CPU (at
most _MAX_WORKERS). The sample reaches the workers once, through fork, and
each task is one tree index t: it draws tree t's bootstrap once, and tree t
of every forest reads its feature subsets from one list drawn after it, so
each tree is the one a lone ``forest_fit`` grows. Trees make no BLAS call,
and are merged in tree order: the trees are the same for any worker count.

A fitted forest is flat node arrays, all its trees together in queue order:
one queue starts with every tree's root, and each split node appends its
left and right child. So the children of the s-th split are nodes
n_trees + 2s and n_trees + 2s + 1, and the arrays need no child pointers: a
split mask over the nodes, each split's feature and threshold, each leaf's
class counts, and the classes. That is also the bundle's layout, and the
model checks it on construction. ``ForestModel.trees`` rebuilds the
nested-dict view ({"feature", "threshold", "left", "right"} and {"counts"})
on demand; fit, load and predict never build it.

Predict serves from a node table (parallel feature, threshold, right-child
and leaf-class arrays, after the sklearn ``Tree`` layout; Louppe 2014,
ch. 5) that ``compile_forests`` makes from the node arrays by offset
arithmetic. Each forest's nodes, roots and classes follow the previous
forest's, so a pipeline serves all its forests, which read the same
features, from one table (its ``table``, compiled on first use); a lone
forest is served from a table of one. A left child sits just before its
right sibling, and a leaf is its own right child with a NaN threshold, so
one step from any node is ``right[node] - (x[feature[node]] <=
threshold[node])``: one compare, no test for leaves. The evaluation order
follows the row count. One row tests every node once and builds each
node's successor from the outcomes, then follows the successors from all
roots at once (the QuickScorer idea of scoring a document node test by
node test rather than tree by tree; Lucchese et al., SIGIR 2015). More rows
descend all trees of a forest at once, one level per step. The leaf classes
of every forest are counted in a single bincount, and each forest predicts
the label of the class with the most votes, the smaller label on a tie.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import threading
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..codec import BoolArray, FloatArray, IntArray, fields_equal
from ..errors import SchemaError, ValidationError
from .linear import _check_xy

_MAX_WORKERS = 4   # tree-fit processes; more buys little at desk scale


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None   # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1 or None")
        if self.min_leaf < 1:
            raise ValidationError("min_leaf must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValidationError("features_per_split must be >= 1 or None")
        if self.seed < 0:
            raise ValidationError(f"forest seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ForestTable:
    """The trees of one or more forests as parallel arrays, one entry per
    node. Every forest reads the same feature columns.

    A split's left child is ``right - 1``, so one level is ``right[node] -
    (x[feature[node]] <= threshold[node])``. A leaf is its own right child
    and has a NaN threshold, which no value is <=, so descending from it
    stays put. A NaN feature value is not <= any threshold either: it goes
    right. Leaf classes are numbered across the table, forest after forest,
    as are the nodes and the roots, and ``classes`` holds the label of each.
    """

    feature: np.ndarray       # split feature; 0 at leaves
    threshold: np.ndarray     # go left when x[feature] <= threshold; NaN at leaves
    right: np.ndarray         # right child; a leaf's own index
    leaf_class: np.ndarray    # table class of the first argmax of the leaf counts
    roots: np.ndarray         # node index of each tree's root, forest by forest
    classes: np.ndarray       # label of each table class
    n_features: int
    class_ranges: tuple[tuple[int, int], ...]   # (start, stop) per forest
    n_trees: tuple[int, ...]               # per forest
    depths: tuple[int, ...]                # longest root-to-leaf path per forest

    @property
    def depth(self) -> int:
        """Longest root-to-leaf path of the table, in edges."""
        return max(self.depths)


@dataclass(frozen=True)
class ForestModel:
    """A fitted forest as node arrays in queue order (see the module
    docstring). The arrays give the tree and class counts. Construction
    checks that they describe whole trees of labelled classes, and raises
    ValidationError if not."""

    is_split: BoolArray       # (n_nodes,): True at a split, False at a leaf
    feature: IntArray         # (n_splits,): each split's feature
    threshold: FloatArray     # (n_splits,): go left when x[feature] <= threshold
    leaf_counts: IntArray     # (n_leaves, n_classes): training rows per class
    classes: IntArray         # (n_classes,): the label of each class, increasing
    n_features: int

    __eq__ = fields_equal

    def __post_init__(self):
        split, counts = self.is_split, self.leaf_counts
        n_splits, n_trees = int(np.count_nonzero(split)), self.n_trees
        if split.ndim != 1 or n_trees < 1:
            raise ValidationError(
                f"forest split mask has shape {split.shape}: {n_splits} splits "
                f"need a flat mask of more than {2 * n_splits} nodes"
            )
        if self.feature.shape != (n_splits,) or self.threshold.shape != (n_splits,):
            raise ValidationError(
                f"forest has {n_splits} splits but features {self.feature.shape} "
                f"and thresholds {self.threshold.shape}"
            )
        n_leaves = n_trees + n_splits
        if counts.ndim != 2 or counts.shape[0] != n_leaves or counts.shape[1] < 1:
            raise ValidationError(
                f"forest leaf counts are {counts.shape}, expected "
                f"({n_leaves}, n_classes >= 1): one row per leaf, "
                "one count per class"
            )
        classes = self.classes
        if classes.shape != counts.shape[1:] or np.any(classes[1:] <= classes[:-1]):
            raise ValidationError(
                f"forest classes {classes.tolist()} are not {counts.shape[1]} "
                "strictly increasing labels, one per leaf-count column"
            )
        if np.any(classes < 0):
            raise ValidationError(
                f"forest classes {classes.tolist()} hold a negative label, "
                "which no fit takes"
            )
        if self.n_features < 1:
            raise ValidationError("forest needs n_features >= 1")
        # node i is a root or a child of an earlier split: queued before it is reached
        queued = n_trees + 2 * (np.cumsum(split) - split)
        if np.any(np.arange(split.shape[0]) >= queued):
            raise ValidationError("forest nodes are not in queue order")
        bad = (self.feature < 0) | (self.feature >= self.n_features)
        if bad.any():
            raise ValidationError(
                f"split feature {self.feature[bad][0]} is not in "
                f"0..{self.n_features - 1}"
            )
        finite = np.isfinite(self.threshold)
        if not finite.all():
            raise ValidationError(
                f"split threshold {self.threshold[~finite][0]} is not finite"
            )
        if np.any(counts < 0):
            raise ValidationError("forest leaf counts must be >= 0")

    @property
    def n_trees(self) -> int:
        """Roots: every node that is no split's child."""
        return self.is_split.size - 2 * int(np.count_nonzero(self.is_split))

    @property
    def n_classes(self) -> int:
        return self.leaf_counts.shape[1]

    @property
    def trees(self) -> tuple[dict, ...]:
        """The trees as nested dicts, built anew on each call: splits
        {"feature", "threshold", "left", "right"}, leaves {"counts"}."""
        splits = zip(self.feature.tolist(), self.threshold.tolist())
        counts = iter(self.leaf_counts.tolist())
        nodes = [
            dict(zip(("feature", "threshold"), next(splits))) if is_split
            else {"counts": next(counts)}
            for is_split in self.is_split.tolist()
        ]
        n_trees = self.n_trees
        for s, i in enumerate(np.flatnonzero(self.is_split)):
            child = n_trees + 2 * s
            nodes[i]["left"], nodes[i]["right"] = nodes[child], nodes[child + 1]
        return tuple(nodes[:n_trees])


def _check_labels(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, y = _check_xy(x, y)
    if x.shape[1] == 0:   # a node's candidate features are drawn from d >= 1
        raise ValidationError("need at least one feature")
    if not np.all(y == np.floor(y)) or np.any(y < 0):
        raise ValidationError("labels must be non-negative integers")
    return x, y.astype(int)


def _best_split(
    xt: np.ndarray,
    yt: np.ndarray,
    rows: np.ndarray,
    counts: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, np.ndarray, np.ndarray] | None:
    """Max Gini-gain split of one node over the candidate features: (feature,
    threshold, the rows that go left, the rows that go right), or None.

    ``xt`` is the tree's sample feature-major, (d, n_tree), and ``rows`` the
    node's rows in it. Maximising sum_sq_left/n_left + sum_sq_right/n_right
    is equivalent to maximising gain; a split must beat the unsplit node
    strictly. Both sums of squares are exact int64 counts until the two
    divisions, so every score is the float a one-hot cumsum gives. Ties go
    to the first feature in ``feats``, then the first cut. At a valid cut
    (``xs[i] < xs[i + 1]``) the left rows are all rows with x <= the cut, so
    neither scores nor children depend on how the sort orders ties.
    """
    n = rows.shape[0]
    each = np.arange(feats.shape[0])[:, None]
    xs = xt[feats[:, None], rows]
    by_value = xs.argsort(axis=1)
    xs = xs[each, by_value]
    order = rows[by_value]              # (k, n): the node's rows, sorted per feature
    ys = yt[order]
    # occ: each row's inclusive rank within its class, in feature order. A
    # stable sort by class lists the same class blocks for every feature.
    starts = counts.cumsum() - counts
    occ = np.empty(ys.shape, dtype=np.intp)
    occ[each, ys.argsort(axis=1, kind="stable")] = (
        np.arange(1, n + 1) - starts.repeat(counts)
    )
    # the first i + 1 sorted rows on the left: a row of class c raises
    # sum_c L_c^2 by 2 L_c - 1 and sum_c T_c L_c by T_c
    sum_sq_left = (2 * occ - 1).cumsum(axis=1)
    sum_sq_right = int(counts @ counts) - 2 * counts[ys].cumsum(axis=1) + sum_sq_left
    lo, hi = min_leaf - 1, n - min_leaf   # cuts that leave min_leaf rows a side
    n_left = np.arange(min_leaf, n - min_leaf + 1)
    score = np.where(
        xs[:, lo:hi] < xs[:, lo + 1 : hi + 1],
        sum_sq_left[:, lo:hi] / n_left + sum_sq_right[:, lo:hi] / (n - n_left),
        -np.inf,
    )
    j, i = divmod(int(score.argmax()), score.shape[1])
    if not score[j, i] > float(counts @ counts) / n + 1e-12:
        return None
    i += lo
    a, b = float(xs[j, i]), float(xs[j, i + 1])
    # between adjacent floats, or when a + b overflows, the midpoint rounds
    # to b or past it, which would send b's rows left; a still separates
    t = 0.5 * (a + b)
    return int(feats[j]), t if t < b else a, order[j, : i + 1], order[j, i + 1 :]


def _feature_subsets(
    drawn: list[np.ndarray], rng: np.random.Generator, d: int, n_feats: int
) -> Iterator[np.ndarray]:
    """The sorted feature subsets of a tree's candidate splits, in order.
    The m-th is ``drawn[m]``, drawn from ``rng`` by the first tree that
    needs it, so every tree that shares ``drawn`` reads the same sequence."""
    for m in itertools.count():
        if m == len(drawn):
            drawn.append(
                np.sort(rng.choice(d, size=n_feats, replace=False))
                if n_feats < d else np.arange(d)
            )
        yield drawn[m]


class _Tree:
    """One tree's nodes in depth-first order, left before right, as _grow
    appends them: every node's depth and kind, each split's feature and
    threshold, each leaf's class counts. ``subsets`` yields the feature
    subsets of its candidate splits."""

    def __init__(self, subsets: Iterator[np.ndarray]):
        self.subsets = subsets
        self.depth: list[int] = []
        self.is_split: list[bool] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.counts: list[np.ndarray] = []


def _grow(
    xt: np.ndarray,
    yt: np.ndarray,
    rows: np.ndarray,
    depth: int,
    n_classes: int,
    config: ForestConfig,
    tree: _Tree,
) -> None:
    n, min_leaf = rows.shape[0], config.min_leaf
    counts = np.bincount(yt[rows], minlength=n_classes)
    tree.depth.append(depth)
    split = None
    if not (
        counts.max() == n
        or (config.max_depth is not None and depth >= config.max_depth)
        or n < 2 * min_leaf
    ):
        split = _best_split(xt, yt, rows, counts, next(tree.subsets), min_leaf)
    tree.is_split.append(split is not None)
    if split is None:
        tree.counts.append(counts)
        return
    f, t, left, right = split
    tree.feature.append(f)
    tree.threshold.append(t)
    grow = (depth + 1, n_classes, config, tree)
    _grow(xt, yt, left, *grow)
    _grow(xt, yt, right, *grow)


def _fit_trees(sample: tuple, t: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Tree t of every forest of ``sample`` (x, the label vectors, their
    class counts, the features per split, the config): per forest the
    (depth, is_split, feature, threshold, leaf counts) arrays, nodes depth
    first.

    Tree t draws its bootstrap from ``SeedSequence([seed, t])``, then one
    feature subset per candidate split (depth first, left before right).
    The forests share the bootstrap and one list of subsets drawn after it,
    so each forest's tree is the one a fit of that forest alone grows.
    """
    x, ys, n_classes, n_feats, config = sample
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, t]).generate_state(1)[0]
    )
    if config.bootstrap:
        idx = rng.integers(0, x.shape[0], x.shape[0])
        x, ys = x[idx], [y[idx] for y in ys]
    xt = np.ascontiguousarray(x.T)
    rows = np.arange(x.shape[0])
    drawn: list[np.ndarray] = []
    trees = []
    for y, classes in zip(ys, n_classes):
        tree = _Tree(_feature_subsets(drawn, rng, xt.shape[0], n_feats))
        _grow(xt, y, rows, 0, classes, config, tree)
        trees.append((
            np.array(tree.depth),
            np.array(tree.is_split),
            np.array(tree.feature, dtype=np.int32),
            np.array(tree.threshold, dtype=float),
            np.array(tree.counts, dtype=np.int32),
        ))
    return tuple(trees)


# A pool worker's sample, set once by _set_sample as the worker starts: with
# fork it is inherited, so no task pickles it.
_sample: tuple = ()


def _set_sample(sample: tuple) -> None:
    global _sample
    _sample = sample


def _fit_pooled(t: int) -> tuple[tuple[np.ndarray, ...], ...]:
    return _fit_trees(_sample, t)


def _pool_workers(n_trees: int) -> int:
    """Processes to fit trees in: the CPUs this process may run on, at most
    _MAX_WORKERS and n_trees. 1 fits in-process, and so does a process that
    runs other Python threads, since a forked worker could inherit a lock
    one of them holds, and a daemonic process, which may not have children
    (a multiprocessing.Pool worker is one)."""
    if not hasattr(os, "sched_getaffinity"):   # macOS, Windows: fork unsafe or absent
        return 1
    if threading.active_count() > 1 or mp.current_process().daemon:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, n_trees)


def _assemble(trees: Sequence[tuple], classes: np.ndarray, d: int) -> ForestModel:
    """One forest of ``classes`` from its trees' arrays, in tree order."""
    depth, is_split, feature, threshold, leaf_counts = (
        np.concatenate(part) for part in zip(*trees)
    )
    # queue order is level by level, each level tree by tree and left to
    # right: a stable sort by depth of the trees' depth-first orders
    split_order = np.argsort(depth[is_split], kind="stable")
    return ForestModel(
        is_split=is_split[np.argsort(depth, kind="stable")],
        feature=feature[split_order],
        threshold=threshold[split_order],
        leaf_counts=leaf_counts[np.argsort(depth[~is_split], kind="stable")],
        classes=classes.astype(np.int32),
        n_features=d,
    )


def fit_forests(
    x: np.ndarray, ys: Sequence[np.ndarray], config: ForestConfig | None = None
) -> tuple[ForestModel, ...]:
    """One forest per label vector of ``ys``, all on the rows of ``x`` with
    one config: each the forest ``forest_fit(x, y, config)`` fits, from one
    pool, one bootstrap draw per tree index and one list of feature subsets
    drawn after it."""
    config = config or ForestConfig()
    if len(ys) == 0:
        raise ValidationError("need at least one label vector")
    checked = [_check_labels(x, y) for y in ys]
    x = checked[0][0]
    d = x.shape[1]
    # each vector's distinct labels, increasing, and each row's index among them
    present = [np.bincount(y) > 0 for _, y in checked]
    classes = [np.flatnonzero(p) for p in present]
    ys = [(np.cumsum(p) - 1)[y] for p, (_, y) in zip(present, checked)]
    n_classes = tuple(c.shape[0] for c in classes)
    # the narrowest index type: a stable sort of 8- or 16-bit keys is a radix sort
    ys = [y.astype(np.min_scalar_type(c - 1)) for y, c in zip(ys, n_classes)]
    n_feats = config.features_per_split or math.ceil(math.sqrt(d))
    sample = (x, ys, n_classes, n_feats, config)
    workers = _pool_workers(config.n_trees)
    if workers == 1:
        trees = [_fit_trees(sample, t) for t in range(config.n_trees)]
    else:
        # fork, not spawn: a worker starts in ~10 ms where spawn re-imports
        # numpy for ~0.35 s, about a whole 50-tree fit, and inherits the
        # sample instead of unpickling it. No other Python thread runs (see
        # _pool_workers), the executor forks its workers before it starts
        # its own thread, and tree fits make no BLAS call, so no worker
        # touches a lock another thread held.
        with ProcessPoolExecutor(
            workers, mp_context=mp.get_context("fork"),
            initializer=_set_sample, initargs=(sample,),
        ) as pool:
            trees = list(pool.map(_fit_pooled, range(config.n_trees)))
    return tuple(_assemble(forest, c, d) for forest, c in zip(zip(*trees), classes))


def forest_fit(
    x: np.ndarray, y: np.ndarray, config: ForestConfig | None = None
) -> ForestModel:
    """The forest of one label vector: ``fit_forests(x, (y,), config)``."""
    return fit_forests(x, (y,), config)[0]


def compile_forests(models: Sequence[ForestModel]) -> ForestTable:
    """One node table for ``models``, which must share their features:
    each forest's nodes, tree roots and classes follow the previous
    forest's. Raises SchemaError if the features differ."""
    if len({m.n_features for m in models}) != 1:
        raise SchemaError("forests of one table must read the same features")
    right_parts, leaf_parts, root_parts, ranges = [], [], [], []
    depths: list[int] = []
    node_base = class_base = 0
    for model in models:
        split = model.is_split
        n_trees, n = model.n_trees, split.shape[0]
        # splits_before[i]: number of splits queued before node i
        splits_before = np.concatenate([[0], np.cumsum(split)])
        depth, lo, hi = 0, 0, n_trees   # [lo, hi): the nodes of one level
        while splits_before[hi] > splits_before[lo]:
            lo, hi = n_trees + 2 * splits_before[lo], n_trees + 2 * splits_before[hi]
            depth += 1
        depths.append(depth)
        leaf_class = np.zeros(n, dtype=np.intp)
        leaf_class[~split] = class_base + np.argmax(model.leaf_counts, axis=1)
        right_parts.append(node_base + np.where(
            split, n_trees + 2 * splits_before[:-1] + 1, np.arange(n)
        ))
        leaf_parts.append(leaf_class)
        root_parts.append(node_base + np.arange(n_trees))
        ranges.append((class_base, class_base + model.n_classes))
        node_base += n
        class_base += model.n_classes

    split = np.concatenate([m.is_split for m in models])
    table_feature = np.zeros(node_base, dtype=np.intp)
    table_feature[split] = np.concatenate([m.feature for m in models])
    table_threshold = np.full(node_base, np.nan)
    table_threshold[split] = np.concatenate([m.threshold for m in models])
    return ForestTable(
        feature=table_feature,
        threshold=table_threshold,
        right=np.concatenate(right_parts),
        leaf_class=np.concatenate(leaf_parts),
        roots=np.concatenate(root_parts),
        classes=np.concatenate([m.classes for m in models]).astype(np.intp),
        n_features=models[0].n_features,
        class_ranges=tuple(ranges),
        n_trees=tuple(m.n_trees for m in models),
        depths=tuple(depths),
    )


def _leaves(tab: ForestTable, x: np.ndarray) -> np.ndarray:
    """(n, n_roots) table class of the leaf each row reaches in each tree.

    One row tests every node once, QuickScorer style (Lucchese et al., SIGIR
    2015): the outcomes give each node its successor, which all roots follow
    for the table's depth. More rows descend all trees of a forest at once,
    one level per step, testing only the nodes they stand on.
    """
    n, d = x.shape
    if n == 1:
        successor = tab.right - (x[0][tab.feature] <= tab.threshold)
        node = tab.roots
        for _ in range(tab.depth):
            node = successor[node]
        return tab.leaf_class[node][None, :]
    # a flat gather: x[r, f] is xf[r * d + f]
    xf = x.ravel()
    row_base = np.arange(n)[:, None] * d
    leaves = np.empty((n, tab.roots.shape[0]), dtype=np.intp)
    start = 0
    # forest by forest, each to its own depth: a shallow forest takes no
    # extra steps, and each step's (n, n_trees) arrays stay cache-sized
    for n_trees, depth in zip(tab.n_trees, tab.depths):
        roots = tab.roots[start : start + n_trees]
        node = np.broadcast_to(roots, (n, n_trees))
        for _ in range(depth):
            node = tab.right[node] - (
                xf[row_base + tab.feature[node]] <= tab.threshold[node]
            )
        leaves[:, start : start + n_trees] = tab.leaf_class[node]
        start += n_trees
    return leaves


def forest_predict(tab: ForestTable, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The labels of each forest of a table, in table order: per row the
    label of the class most of the forest's trees vote for, ties going to
    the smaller label. A lone forest is served through
    ``compile_forests((model,))``.

    A NaN feature compares False and goes right.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != tab.n_features:
        raise ValidationError(
            f"expected {tab.n_features} features, got {x.shape[1]}"
        )
    n = x.shape[0]
    n_classes = tab.class_ranges[-1][1]
    rows = np.arange(n)[:, None]
    votes = np.bincount(
        (rows * n_classes + _leaves(tab, x)).ravel(), minlength=n * n_classes
    ).reshape(n, n_classes)
    return tuple(
        tab.classes[a + np.argmax(votes[:, a:b], axis=1)] for a, b in tab.class_ranges
    )
