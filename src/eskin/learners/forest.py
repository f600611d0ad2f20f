"""Random-forest classifier built on from-scratch Gini CART trees.

Trees are fitted and persisted as plain nested dicts (JSON-friendly for the
model bundle): internal nodes {"feature", "threshold", "left", "right"},
leaves {"counts": per-class sample counts}. Each tree trains on a seeded
bootstrap resample and each split scans a seeded subset of ceil(sqrt(d))
features, so a fit is a pure function of (data, config).

Predict serves from a different form: on first use a model compiles all its
trees into one flat node table (parallel feature, threshold, child and
leaf-class arrays, the sklearn ``Tree`` layout; Louppe 2014, ch. 5), checking
each node as it goes. Every row then descends every tree at once, one level
per step, and the leaf classes are counted in a single bincount. The table is
derived from the trees, so it is neither compared nor serialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..errors import SchemaError, ValidationError


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
    if not np.all(np.isfinite(x)):
        raise ValidationError("features must be finite")
    yf = y.astype(float)
    if not np.all(yf == np.floor(yf)) or np.any(yf < 0):
        raise ValidationError("labels must be non-negative integers")
    return x, y.astype(int)


def _best_split(
    x: np.ndarray, y: np.ndarray, feats: np.ndarray, n_classes: int, min_leaf: int
) -> tuple[int, float] | None:
    """Max Gini-gain (feature, threshold) over candidate features, or None.

    Maximising sum_sq_left/n_left + sum_sq_right/n_right is equivalent to
    maximising gain; a split must beat the unsplit node strictly.
    """
    n = y.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    total = onehot.sum(axis=0)
    base = float(total @ total) / n
    best_score = base + 1e-12
    best: tuple[int, float] | None = None
    for f in feats:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        cum = np.cumsum(onehot[order], axis=0)
        nl = np.arange(1, n)
        valid = (xs[:-1] < xs[1:]) & (nl >= min_leaf) & (n - nl >= min_leaf)
        if not np.any(valid):
            continue
        left = cum[:-1]
        right = total[None, :] - left
        score = np.full(n - 1, -np.inf)
        score[valid] = (
            np.sum(left[valid] ** 2, axis=1) / nl[valid]
            + np.sum(right[valid] ** 2, axis=1) / (n - nl[valid])
        )
        i = int(np.argmax(score))
        if score[i] > best_score:
            best_score = float(score[i])
            best = (int(f), float(0.5 * (xs[i] + xs[i + 1])))
    return best


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    n_classes: int,
    max_depth: int | None,
    min_leaf: int,
    n_feats: int,
) -> dict:
    counts = np.bincount(y, minlength=n_classes)
    n, d = x.shape
    if (
        np.max(counts) == n
        or (max_depth is not None and depth >= max_depth)
        or n < 2 * min_leaf
    ):
        return {"counts": counts.tolist()}
    if n_feats < d:
        feats = np.sort(rng.choice(d, size=n_feats, replace=False))
    else:
        feats = np.arange(d)
    split = _best_split(x, y, feats, n_classes, min_leaf)
    if split is None:
        return {"counts": counts.tolist()}
    f, t = split
    mask = x[:, f] <= t
    return {
        "feature": f,
        "threshold": t,
        "left": _grow(x[mask], y[mask], depth + 1, rng, n_classes, max_depth, min_leaf, n_feats),
        "right": _grow(x[~mask], y[~mask], depth + 1, rng, n_classes, max_depth, min_leaf, n_feats),
    }


def forest_fit(
    x: np.ndarray, y: np.ndarray, config: ForestConfig | None = None
) -> ForestModel:
    config = config or ForestConfig()
    x, y = _check_labels(x, y)
    n, d = x.shape
    n_classes = int(y.max()) + 1
    n_feats = config.features_per_split or math.ceil(math.sqrt(d))
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, t]).generate_state(1)[0]
        )
        if config.bootstrap:
            idx = rng.integers(0, n, n)
            xt, yt = x[idx], y[idx]
        else:
            xt, yt = x, y
        trees.append(
            _grow(xt, yt, 0, rng, n_classes, config.max_depth, config.min_leaf, n_feats)
        )
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
