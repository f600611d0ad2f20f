"""Independent reference implementations the learner tests compare against.

Everything here is deliberately written the slow, obvious way (explicit
inverses, exhaustive enumeration) so a bug in the production code cannot
hide in a shared shortcut.
"""

import math

import numpy as np

from eskin.learners import ForestModel


def frame_oracle(model, stretch, contacts, seed):
    """One frame of the skin forward model, built row by row: the (20,)
    frame in serialisation order.

    ``contacts`` holds (x, y, force) triples. On each axis a contact adds
    its saturating amplitude (scalar ``math.exp``), scaled by the edge taper
    of its crossing coordinate, to every terminal within reach of its own
    coordinate, decaying per terminal of distance; contacts are added in
    list order and the row's noise comes from ``default_rng(seed)``.
    """
    axes = []
    for axis, gain in ((0, model.stretch_gain_x), (1, model.stretch_gain_y)):
        values = np.full(10, model.baseline + gain * (stretch - 1.0))
        delta = np.zeros(10)
        for contact in contacts:
            center, cross, force = contact[axis], contact[1 - axis], contact[2]
            amp = model.force_scale * (1.0 - math.exp(-force / model.force_sat))
            amp *= 1.0 - model.edge_taper * (cross - 1) / 9.0
            dist = np.abs(np.arange(1, 11) - center)
            near = dist <= model.neighbor_reach
            delta[near] += amp * model.neighbor_decay ** dist[near]
        axes.append(values + delta)
    frame = np.concatenate(axes)
    if model.noise_sigma > 0:
        frame = frame + np.random.default_rng(seed).normal(0.0, model.noise_sigma, 20)
    return frame


def ols_normal_oracle(x, y):
    """Intercept-augmented normal-equation solve; returns (weights, bias)."""
    x = np.asarray(x, dtype=float)
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    coef = np.linalg.solve(xa.T @ xa, xa.T @ np.asarray(y, dtype=float))
    return coef[:-1], float(coef[-1])


def _rbf_gram(a, b, length_scale, signal_var):
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return signal_var * np.exp(-sq / (2.0 * length_scale**2))


# (query rows, training rows): one frame and one training row, the serving
# and training-fit extremes, and sizes around OpenBLAS's thread partition
KERNEL_SHAPES = [(1, 2000), (2000, 1), (65, 601), (641, 2000), (3, 7)]


def kernel_inputs(rng, na, nb, d=20):
    """Random rows where the first half of the shorter side repeats rows of
    the other, so the clamp at 0 sees rounding below it."""
    a, b = rng.normal(size=(na, d)), rng.normal(size=(nb, d))
    dup = min(na, nb) // 2 or 1
    a[:dup] = b[:dup]
    return a, b


def sq_distances_oracle(a, b):
    """Squared row distances by the out-of-place formula a_sq + b_sq -
    2 (a @ b.T), clamped at 0. The one-buffer kernels must match these bits
    exactly, so this is the same float arithmetic in the same order, not an
    independent derivation."""
    b_sq = np.sum(b * b, axis=1)
    sq = np.sum(a * a, axis=1)[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def rbf_kernel_oracle(a, b, length_scale, signal_var):
    """The out-of-place RBF Gram matrix (see sq_distances_oracle)."""
    return signal_var * np.exp(-sq_distances_oracle(a, b) / (2.0 * length_scale**2))


def svm_decision_oracle(model, x):
    """The out-of-place SVM decision values (see sq_distances_oracle)."""
    sq = sq_distances_oracle(x, model.support_inputs)
    return np.exp(-model.kernel_gamma * sq) @ model.dual_coefs + model.bias


def gp_dense_oracle(x_train, y_train, x_query, length_scale, signal_var, noise_var):
    """Posterior (mean, std) via an explicit matrix inverse.

    Mirrors gp_fit's preprocessing: standardize inputs with training
    statistics (constant columns keep scale 1) and subtract the target mean.
    """
    x_train = np.asarray(x_train, dtype=float)
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    y_train = np.asarray(y_train, dtype=float)
    mu = y_train.mean()
    m = x_train.mean(axis=0)
    s = x_train.std(axis=0)
    s = np.where(s > 0, s, 1.0)
    zt = (x_train - m) / s
    zq = (x_query - m) / s
    k = _rbf_gram(zt, zt, length_scale, signal_var) + noise_var * np.eye(len(zt))
    k_inv = np.linalg.inv(k)
    ks = _rbf_gram(zq, zt, length_scale, signal_var)
    mean = ks @ k_inv @ (y_train - mu) + mu
    var = signal_var - np.sum((ks @ k_inv) * ks, axis=1)
    return mean, np.sqrt(np.maximum(var, 0.0))


def gini_split_score(y_left, y_right, n_classes):
    """The quantity CART maximises: sum over children of (sum counts^2)/n."""
    score = 0.0
    for part in (y_left, y_right):
        counts = np.bincount(part, minlength=n_classes)
        score += float(counts @ counts) / len(part)
    return score


def exhaustive_best_split(x, y, min_leaf=1):
    """Brute-force scan of every (feature, midpoint threshold) candidate.

    Returns (best score, list of (feature, threshold) achieving it), or
    (None, []) when no candidate beats leaving the node unsplit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    n, d = x.shape
    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes)
    base = float(counts @ counts) / n
    best_score, best = None, []
    for f in range(d):
        vals = np.unique(x[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            t = 0.5 * (lo + hi)
            mask = x[:, f] <= t
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            score = gini_split_score(y[mask], y[~mask], n_classes)
            if score <= base + 1e-12:
                continue
            if best_score is None or score > best_score + 1e-12:
                best_score, best = score, [(f, t)]
            elif abs(score - best_score) <= 1e-12:
                best.append((f, t))
    return best_score, best


def _forest_oracle_best_split(x, y, feats, n_classes, min_leaf):
    """Per feature: a stable argsort, a float one-hot cumsum and the Gini
    score at every cut; the first strict improvement over the unsplit node
    wins, scanning ``feats`` in order."""
    n = y.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    total = onehot.sum(axis=0)
    base = float(total @ total) / n
    best_score = base + 1e-12
    best = None
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


def _forest_oracle_grow(x, y, depth, rng, n_classes, max_depth, min_leaf, n_feats):
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
    split = _forest_oracle_best_split(x, y, feats, n_classes, min_leaf)
    if split is None:
        return {"counts": counts.tolist()}
    f, t = split
    mask = x[:, f] <= t
    grow = (depth + 1, rng, n_classes, max_depth, min_leaf, n_feats)
    return {
        "feature": f,
        "threshold": t,
        "left": _forest_oracle_grow(x[mask], y[mask], *grow),
        "right": _forest_oracle_grow(x[~mask], y[~mask], *grow),
    }


def forest_trees_oracle(x, y, config):
    """The nested-dict trees of a Gini CART forest, one node at a time: each
    node re-sorts its rows per candidate feature. Tree t draws its
    bootstrap sample and then one feature subset per split node (depth
    first, left before right) from ``SeedSequence([seed, t])``. The trees
    grow on the indices of the sorted distinct labels."""
    x = np.asarray(x, dtype=float)
    classes, y = np.unique(np.asarray(y).astype(int), return_inverse=True)
    n, d = x.shape
    n_classes = classes.size
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
            _forest_oracle_grow(
                xt, yt, 0, rng, n_classes, config.max_depth, config.min_leaf, n_feats
            )
        )
    return tuple(trees)


def reference_predict(model, x):
    """Labels from a node-by-node recursive walk of the nested trees: one
    vote per tree at its leaf's first-argmax class, the most votes winning,
    ties to the smaller class, which names its label in ``model.classes``."""
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
    return model.classes[np.argmax(votes, axis=1)]


def forest_of(trees, classes, n_features):
    """A ForestModel of nested-dict trees, flattened the obvious way: one
    queue walks all trees breadth first, roots first, and each split
    queues its left and right child at the end. ``classes`` labels the
    columns of the leaf counts."""
    nodes = list(trees)
    is_split, feature, threshold, counts = [], [], [], []
    for node in nodes:   # the loop visits what it appends
        if "counts" in node:
            is_split.append(False)
            counts.append(node["counts"])
        else:
            is_split.append(True)
            feature.append(node["feature"])
            threshold.append(node["threshold"])
            nodes += [node["left"], node["right"]]
    return ForestModel(
        is_split=np.array(is_split, dtype=bool),
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=float),
        leaf_counts=np.array(counts, dtype=np.int32).reshape(len(counts), len(classes)),
        classes=np.array(classes, dtype=np.int32),
        n_features=n_features,
    )


def stratified_kfold_oracle(strata, k, seed):
    """Each sample's fold id, as a list, from the dict-of-lists fold plan:
    group the sample indices by their hashable stratum (a value or a tuple),
    visit the groups in ``sorted`` order, shuffle each group's ascending
    indices with one ``default_rng(seed)`` and deal them round-robin."""
    groups = {}
    for i, s in enumerate(strata):
        groups.setdefault(s, []).append(i)
    rng = np.random.default_rng(seed)
    folds = [None] * len(strata)
    for label in sorted(groups):
        idx = np.array(groups[label])
        rng.shuffle(idx)
        for position, i in enumerate(idx):
            folds[i] = position % k
    return folds
