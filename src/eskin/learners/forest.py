"""Random-forest classifier built on from-scratch Gini CART trees.

Trees are fitted and persisted as plain nested dicts (JSON-friendly for the
model bundle): internal nodes {"feature", "threshold", "left", "right"},
leaves {"counts": per-class sample counts}. Each tree trains on a seeded
bootstrap resample and each split scans a seeded subset of ceil(sqrt(d))
features, so a fit is a pure function of (data, config).

Fit uses the CART presort layout (Breiman et al. 1984; Louppe 2014, ch. 5):
a tree argsorts its sample once per feature, and each split partitions
those sorted rows with one boolean gather, which keeps every feature's
order, so no node sorts again. A node scores all its candidate features at
once from exact integer class counts. Trees are independent and make no
BLAS call, so they fit in a pool of forked processes, one per usable CPU
(at most _MAX_WORKERS), and are merged in tree order: the trees are the same
for any worker count.

Predict serves from a different form: on first use a model compiles all its
trees into one flat node table (parallel feature, threshold, child and
leaf-class arrays, the sklearn ``Tree`` layout; Louppe 2014, ch. 5), checking
each node as it goes. Every row then descends every tree at once, one level
per step, and the leaf classes are counted in a single bincount. The table is
derived from the trees, so it is neither compared nor serialised.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from ..errors import SchemaError, ValidationError

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


@dataclass(frozen=True)
class _NodeTable:
    """All trees of a forest as parallel arrays, one entry per node.

    A leaf is its own left and right child, so descending from it stays put.
    """

    feature: np.ndarray       # split feature; 0 at leaves
    threshold: np.ndarray     # go left when x[feature] <= threshold
    children: np.ndarray      # (n_nodes, 2): left and right child
    leaf_class: np.ndarray    # first argmax of the leaf counts; 0 at splits
    roots: np.ndarray         # node index of each tree's root
    depth: int                # longest root-to-leaf path, in edges


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[dict, ...]
    n_classes: int
    n_features: int
    config: ForestConfig
    # compiled from trees on first predict, so neither compared nor serialised
    _table: _NodeTable | None = field(default=None, compare=False, repr=False)

    @property
    def table(self) -> _NodeTable:
        """The trees as one flat node table; raises SchemaError on a
        malformed tree."""
        if self._table is None:
            object.__setattr__(self, "_table", _compile(self))
        return self._table


def _check_labels(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValidationError("need x (n, d) and y (n,) with matching n")
    if x.shape[0] == 0:
        raise ValidationError("empty training set")
    if x.shape[1] == 0:   # every node indexes its rows by a feature's sort order
        raise ValidationError("need at least one feature")
    if not np.all(np.isfinite(x)):
        raise ValidationError("features must be finite")
    yf = y.astype(float)
    if not np.all(yf == np.floor(yf)) or np.any(yf < 0):
        raise ValidationError("labels must be non-negative integers")
    return x, y.astype(int)


def _best_split(
    xt: np.ndarray,
    yt: np.ndarray,
    srt: np.ndarray,
    counts: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, np.ndarray] | None:
    """Max Gini-gain split of one node over the candidate features: (feature,
    threshold, the node's rows that go left), or None.

    ``xt`` is the tree's sample feature-major, (d, n_tree); ``srt`` holds the
    node's rows sorted by each feature, (d, n). Maximising
    sum_sq_left/n_left + sum_sq_right/n_right is equivalent to maximising
    gain; a split must beat the unsplit node strictly. Both sums of squares
    are exact int64 counts until the two divisions, so every score is the
    float a one-hot cumsum gives. Ties go to the first feature in ``feats``,
    then the first cut.
    """
    n = srt.shape[1]
    order = srt[feats]                  # (k, n): the node's rows, sorted per feature
    xs = xt[feats[:, None], order]
    ys = yt[order]
    # occ: each row's inclusive rank within its class, in feature order. A
    # stable sort by class lists the same class blocks for every feature.
    starts = counts.cumsum() - counts
    occ = np.empty(ys.shape, dtype=np.intp)
    occ[np.arange(len(feats))[:, None], ys.argsort(axis=1, kind="stable")] = (
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
    return int(feats[j]), t if t < b else a, order[j, : i + 1]


def _grow(
    xt: np.ndarray,
    yt: np.ndarray,
    srt: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    n_classes: int,
    max_depth: int | None,
    min_leaf: int,
    n_feats: int,
) -> dict:
    d, n = srt.shape
    counts = np.bincount(yt[srt[0]], minlength=n_classes)
    if (
        counts.max() == n
        or (max_depth is not None and depth >= max_depth)
        or n < 2 * min_leaf
    ):
        return {"counts": counts.tolist()}
    if n_feats < d:
        feats = np.sort(rng.choice(d, size=n_feats, replace=False))
    else:
        feats = np.arange(d)
    split = _best_split(xt, yt, srt, counts, feats, min_leaf)
    if split is None:
        return {"counts": counts.tolist()}
    f, t, left = split
    # one gather splits every feature's sorted row and keeps its order
    goes_left = np.zeros(yt.shape[0], dtype=bool)
    goes_left[left] = True
    mask = goes_left[srt]
    grow = (depth + 1, rng, n_classes, max_depth, min_leaf, n_feats)
    return {
        "feature": f,
        "threshold": t,
        "left": _grow(xt, yt, srt[mask].reshape(d, left.shape[0]), *grow),
        "right": _grow(xt, yt, srt[~mask].reshape(d, n - left.shape[0]), *grow),
    }


def _fit_tree(
    x: np.ndarray, y: np.ndarray, n_classes: int, n_feats: int, config: ForestConfig, t: int
) -> dict:
    """Tree t: a bootstrap draw, then one feature subset per split node
    (depth first, left before right), all from ``SeedSequence([seed, t])``.

    The sample is sorted once per feature; at a valid cut the left rows are
    all rows with x <= the cut value, so neither thresholds nor scores depend
    on how ties are ordered.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, t]).generate_state(1)[0]
    )
    if config.bootstrap:
        idx = rng.integers(0, x.shape[0], x.shape[0])
        x, y = x[idx], y[idx]
    xt = np.ascontiguousarray(x.T)
    srt = np.argsort(xt, axis=1)
    return _grow(xt, y, srt, 0, rng, n_classes, config.max_depth, config.min_leaf, n_feats)


def _pool_workers(n_trees: int) -> int:
    """Processes to fit trees in: the CPUs this process may run on, at most
    _MAX_WORKERS and n_trees. 1 fits in-process, and so does a process that
    runs other Python threads: a forked worker could inherit a lock one of
    them holds."""
    if not hasattr(os, "sched_getaffinity"):   # macOS, Windows: fork unsafe or absent
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, n_trees)


def forest_fit(
    x: np.ndarray, y: np.ndarray, config: ForestConfig | None = None
) -> ForestModel:
    config = config or ForestConfig()
    x, y = _check_labels(x, y)
    d = x.shape[1]
    n_classes = int(y.max()) + 1
    n_feats = config.features_per_split or math.ceil(math.sqrt(d))
    # the narrowest label type: a stable sort of 8- or 16-bit keys is a radix sort
    y = y.astype(np.min_scalar_type(n_classes - 1))
    fit_tree = partial(_fit_tree, x, y, n_classes, n_feats, config)
    workers = _pool_workers(config.n_trees)
    if workers == 1:
        trees = [fit_tree(t) for t in range(config.n_trees)]
    else:
        # fork, not spawn: a worker starts in ~10 ms where spawn re-imports
        # numpy for ~0.35 s, about a whole 50-tree fit. No other Python
        # thread runs (see _pool_workers), the executor forks its workers
        # before it starts its own thread, and tree fits make no BLAS call,
        # so no worker touches a lock another thread held.
        with ProcessPoolExecutor(workers, mp_context=mp.get_context("fork")) as pool:
            trees = list(pool.map(
                fit_tree, range(config.n_trees),
                chunksize=math.ceil(config.n_trees / (4 * workers)),
            ))
    return ForestModel(trees=tuple(trees), n_classes=n_classes, n_features=d, config=config)


def _compile(model: ForestModel) -> _NodeTable:
    """Flatten the nested trees into one node table, checking that every
    node has its keys, every split a feature in range and every leaf one
    count per class.

    One queue walks all trees breadth first, roots first, and each split
    queues its two children at the end. So the children of the s-th split
    are nodes n_trees + 2s and n_trees + 2s + 1, and the child columns and
    the depth follow from the split mask alone.
    """
    n_trees = len(model.trees)
    if n_trees == 0:
        raise SchemaError("forest has no trees")
    nodes = list(model.trees)
    is_split: list[bool] = []
    feature: list = []
    threshold: list[float] = []
    counts: list = []
    try:
        for node in nodes:   # the loop visits what it appends
            if "counts" in node:
                is_split.append(False)
                counts.append(node["counts"])
            else:
                is_split.append(True)
                feature.append(node["feature"])
                threshold.append(float(node["threshold"]))
                nodes.append(node["left"])
                nodes.append(node["right"])
        for c in counts:
            if len(c) != model.n_classes:
                raise SchemaError(
                    f"leaf has {len(c)} counts, expected {model.n_classes}"
                )
        leaf_counts = np.fromiter(
            chain.from_iterable(counts), dtype=float, count=len(counts) * model.n_classes
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed forest node: {type(exc).__name__}: {exc}")
    bad_features = [f for f in feature
                    if type(f) is not int or not 0 <= f < model.n_features]
    if bad_features:
        raise SchemaError(
            f"split feature {bad_features[0]!r} is not an integer in "
            f"0..{model.n_features - 1}"
        )

    split = np.array(is_split)
    n = split.shape[0]
    table_feature = np.zeros(n, dtype=np.intp)
    table_feature[split] = feature
    table_threshold = np.zeros(n)
    table_threshold[split] = threshold
    leaf_class = np.zeros(n, dtype=np.intp)
    leaf_class[~split] = np.argmax(leaf_counts.reshape(-1, model.n_classes), axis=1)
    # splits_before[i]: number of splits queued before node i
    splits_before = np.concatenate([[0], np.cumsum(split)])
    left = np.where(split, n_trees + 2 * splits_before[:-1], np.arange(n))
    depth, lo, hi = 0, 0, n_trees   # [lo, hi): the nodes of one level
    while splits_before[hi] > splits_before[lo]:
        lo, hi = n_trees + 2 * splits_before[lo], n_trees + 2 * splits_before[hi]
        depth += 1
    return _NodeTable(
        feature=table_feature,
        threshold=table_threshold,
        children=np.stack([left, left + split], axis=1),
        leaf_class=leaf_class,
        roots=np.arange(n_trees),
        depth=depth,
    )


def forest_predict(model: ForestModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, per-class vote fractions); vote ties go to the smaller class.

    A NaN feature compares False and goes right.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.n_features:
        raise ValidationError(
            f"expected {model.n_features} features, got {x.shape[1]}"
        )
    tab = model.table
    n, d = x.shape
    # flat gathers: x[r, f] is xf[r * d + f], children[i, c] is kids[2 * i + c]
    xf = x.ravel()
    rows = np.arange(n)[:, None]
    row_base = rows * d
    kids = tab.children.ravel()
    node = np.broadcast_to(tab.roots, (n, tab.roots.shape[0]))
    for _ in range(tab.depth):
        go_right = ~(xf[row_base + tab.feature[node]] <= tab.threshold[node])
        node = kids[2 * node + go_right]
    votes = np.bincount(
        (rows * model.n_classes + tab.leaf_class[node]).ravel(),
        minlength=n * model.n_classes,
    ).reshape(n, model.n_classes)
    labels = np.argmax(votes, axis=1)
    return labels, votes / len(model.trees)
