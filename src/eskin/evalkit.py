"""Stratified cross-validation, metrics, and confusion-matrix reporting.

Fold plans shuffle within each stratum and deal round-robin, so per-stratum
fold counts never differ by more than 1. Reports carry pooled metrics
(computed over the concatenation of all test folds), per-fold values, and
their mean/std; confusion matrices count the pooled test predictions, so
they equal the sum of the per-fold matrices. Everything is a pure function
of (dataset, k, seed, config), which is what makes report files
byte-reproducible.

Both contact modes train and predict each fold through the one pipeline
(``pipeline.train``, ``pipeline.predict_batch``); they differ in what they
score. Single-contact localisation and force metrics are computed on
contact-positive test samples only (the gated estimate defines no node or
force for a negative detection); detection accuracy covers every test sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import dumps, from_dict, loads, to_dict
from .core import SCHEMA_SINGLE, SCHEMA_TWO, Dataset, atomic_write_text
from .errors import (
    ConfigError,
    CoverageError,
    SchemaError,
    UndefinedMetricError,
    ValidationError,
)
from .pipeline import PipelineConfig, predict_batch, train


@dataclass(frozen=True)
class FoldPlan:
    """Fold index per sample."""

    k: int
    assignments: tuple[int, ...]

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignments) == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignments) != fold)


def stratified_kfold(strata, k: int, seed: int = 0) -> FoldPlan:
    """Shuffle each stratum by seed, then deal its samples round-robin."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    strata = list(strata)
    if not strata:
        raise ValidationError("cannot fold an empty sample list")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(strata), dtype=int)
    groups: dict = {}
    for i, s in enumerate(strata):
        groups.setdefault(s, []).append(i)
    for label in sorted(groups):
        idx = np.array(groups[label])
        rng.shuffle(idx)
        assignments[idx] = np.arange(len(idx)) % k
    return FoldPlan(k=k, assignments=tuple(int(a) for a in assignments))


def _check_pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.ndim != 1 or yhat.ndim != 1 or y.shape != yhat.shape:
        raise ValidationError("need two 1-d vectors of equal length")
    if y.shape[0] == 0:
        raise ValidationError("metrics are undefined on empty vectors")
    return y, yhat


def r2(y, yhat) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot."""
    y, yhat = _check_pair(y, yhat)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise UndefinedMetricError("r2 is undefined for zero-variance targets")
    return 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot


def mse(y, yhat) -> float:
    y, yhat = _check_pair(y, yhat)
    return float(np.mean((y - yhat) ** 2))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true classes, columns predicted; labels name the classes."""

    counts: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.counts) != n or any(len(r) != n for r in self.counts):
            raise ValidationError("counts grid must be n_classes x n_classes")
        if any(c < 0 for row in self.counts for c in row):
            raise ValidationError("counts must be >= 0")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise UndefinedMetricError("accuracy is undefined for an empty matrix")
        return sum(self.counts[i][i] for i in range(len(self.labels))) / total

    def is_diagonal_dominant(self) -> bool:
        """Every diagonal entry strictly exceeds every other entry in its row."""
        for i, row in enumerate(self.counts):
            if any(row[j] >= row[i] for j in range(len(row)) if j != i):
                return False
        return True


def confusion(true, pred, labels) -> ConfusionMatrix:
    """Counts of (true, predicted) pairs over ``labels``, which must be
    strictly increasing and hold every value of both vectors."""
    true = np.asarray(true, dtype=int)
    pred = np.asarray(pred, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if true.shape != pred.shape or true.ndim != 1:
        raise ValidationError("need equal-length 1-d label vectors")
    if labels.ndim != 1 or np.any(labels[1:] <= labels[:-1]):
        raise ValidationError(f"confusion labels {labels.tolist()} are not increasing")
    values = np.concatenate((true, pred))
    outside = values[~np.isin(values, labels)]
    if outside.size:
        raise ValidationError(f"label {outside.min()} is not one of {labels.tolist()}")
    counts = np.zeros((labels.size, labels.size), dtype=int)
    np.add.at(counts, (np.searchsorted(labels, true), np.searchsorted(labels, pred)), 1)
    return ConfusionMatrix(
        counts=tuple(tuple(int(c) for c in row) for row in counts),
        labels=tuple(labels.tolist()),
    )


# per mode: the pooled metrics the headline shows, in order, and the
# confusion matrices a report holds
_CONTENTS = {
    SCHEMA_SINGLE: (("stretch_r2", "stretch_mse", "force_r2", "detection_accuracy",
                     "row_accuracy", "col_accuracy"), {"col", "row"}),
    SCHEMA_TWO: (("x1_accuracy", "y1_accuracy", "x2_accuracy", "y2_accuracy",
                  "force1_r2", "force2_r2", "force_mse_shared_axis",
                  "force_mse_disjoint"), {"x1", "y1", "x2", "y2"}),
}


# the closed range of a metric's values, by a part of its name
_RANGES = (("_accuracy", 0.0, 1.0), ("_mse", 0.0, math.inf), ("_r2", -math.inf, 1.0))


@dataclass(frozen=True)
class MetricsReport:
    """Construction checks that the report holds every metric and confusion
    matrix of its mode, at least one sample, k values per fold metric and at
    least one note, and that no value is impossible: accuracies in [0, 1],
    MSEs and fold stds >= 0, R^2 <= 1, and confusions as a cross-validation
    writes them: single-contact row and col labelled 1..10, two-contact
    matrices sharing strictly increasing labels in 1..10, each counting one
    number of rows: the contact rows, at most n_samples, for one contact,
    and n_samples for two."""

    mode: str
    k: int
    seed: int
    n_samples: int
    pooled: dict[str, float]
    per_fold: dict[str, tuple[float, ...]]
    fold_mean: dict[str, float]
    fold_std: dict[str, float]
    confusions: dict[str, ConfusionMatrix]
    notes: tuple[str, ...]

    def __post_init__(self):
        if self.mode not in _CONTENTS:
            raise ValidationError(f"report mode {self.mode!r} is not single or two")
        headline, confusions = _CONTENTS[self.mode]
        names = set(self.per_fold)
        if not (
            names == set(self.fold_mean) == set(self.fold_std)
            and names.union(headline) <= set(self.pooled)
        ):
            raise ValidationError(
                "report metrics differ between pooled, per_fold, fold_mean and fold_std"
            )
        if self.n_samples < 1:
            raise ValidationError("report n_samples must be >= 1")
        if any(len(values) != self.k for values in self.per_fold.values()):
            raise ValidationError(f"every per-fold metric needs k={self.k} values")
        if set(self.confusions) != confusions:
            raise ValidationError(
                f"{self.mode} report needs confusion matrices {sorted(confusions)}"
            )
        if not self.notes:
            raise ValidationError("report has no notes")
        values = [
            (f"{where}.{name}", name, value)
            for where in ("pooled", "fold_mean", "per_fold")
            for name, named in getattr(self, where).items()
            for value in (named if where == "per_fold" else (named,))
        ]
        for path, name, value in values:
            for part, low, high in _RANGES:
                # a NaN passes here: the JSON writer refuses it, as exit 3
                if part in name and (value < low or value > high):
                    raise ValidationError(
                        f"report {path} {value} is outside [{low:g}, {high:g}]"
                    )
        for name, value in self.fold_std.items():
            if value < 0:
                raise ValidationError(f"report fold_std.{name} {value} is below 0")
        cms = sorted(self.confusions.items())
        first, first_cm = cms[0]
        single = self.mode == SCHEMA_SINGLE
        for name, cm in cms:
            labels = list(cm.labels)
            if not all(1 <= label <= 10 for label in labels):
                problem = "not in 1..10"
            elif single and labels != list(range(1, 11)):
                problem = "are not 1..10"
            elif labels != sorted(set(labels)):
                problem = "are not strictly increasing"
            elif cm.labels != first_cm.labels:
                problem = f"differ from confusions.{first} labels {list(first_cm.labels)}"
            else:
                continue
            raise ValidationError(f"report confusions.{name} labels {labels} {problem}")
        totals = {name: cm.total for name, cm in cms}
        want = min(first_cm.total, self.n_samples) if single else self.n_samples
        if set(totals.values()) != {want}:
            raise ValidationError(
                f"report confusions count {totals} rows: need one count of "
                f"{'at most' if single else 'exactly'} n_samples {self.n_samples}"
            )

    def to_json(self) -> str:
        return dumps(to_dict(self), sort_keys=True, indent=1) + "\n"

    def headline(self) -> str:
        parts = [f"{k}={self.pooled[k]:.6g}" for k in _CONTENTS[self.mode][0]]
        return f"mode={self.mode} k={self.k} " + " ".join(parts)


def _check_fold_coverage(plan: FoldPlan, columns: dict[str, np.ndarray]) -> None:
    """Raise CoverageError unless every fold's training split holds every
    nonzero value (0 is no contact) that each named column takes."""
    for fold in range(plan.k):
        train = plan.train_indices(fold)
        for name, values in columns.items():
            taken = np.bincount(values[train], minlength=values.max() + 1)
            missing = np.flatnonzero((np.bincount(values) > 0) & (taken == 0))
            missing = missing[missing != 0]
            if missing.size:
                raise CoverageError(
                    f"fold {fold}: training split lacks {name} {missing.tolist()}"
                )


def _fold_loop(ds: Dataset, plan: FoldPlan, config: PipelineConfig, metrics):
    """Train on each fold's complement, predict its test rows and score them.

    Returns the per-fold metrics, the test rows of all folds in fold order
    and the predictions for those rows, concatenated the same way.
    """
    per_fold: dict[str, list] = {}
    rows, outs = [], []
    for fold in range(plan.k):
        te = plan.test_indices(fold)
        try:
            p = train(ds.take(plan.train_indices(fold)), config)
        except CoverageError as exc:
            raise CoverageError(f"fold {fold}: {exc}")
        out = predict_batch(p, ds.x[te])
        for key, value in metrics(te, out).items():
            per_fold.setdefault(key, []).append(value)
        rows.append(te)
        outs.append(out)
    pooled = {key: np.concatenate([o[key] for o in outs]) for key in outs[0]}
    return per_fold, np.concatenate(rows), pooled


def _report(mode, ds, plan, seed, per_fold, pooled, confusions, notes) -> MetricsReport:
    return MetricsReport(
        mode=mode,
        k=plan.k,
        seed=seed,
        n_samples=len(ds),
        pooled=pooled,
        per_fold={key: tuple(v) for key, v in per_fold.items()},
        fold_mean={key: float(np.mean(v)) for key, v in per_fold.items()},
        fold_std={key: float(np.std(v)) for key, v in per_fold.items()},
        confusions=confusions,
        notes=notes + (
            "pooled metrics are computed over the concatenated test folds; "
            "fold_mean/fold_std aggregate the per-fold values",
        ),
    )


def cross_validate(
    ds: Dataset, k: int = 10, seed: int = 0, config: PipelineConfig | None = None
) -> MetricsReport:
    """k-fold CV of the single-contact pipeline, stratified on pressed node."""
    ds.require(SCHEMA_SINGLE)
    node_ids = ds.node_ids()
    plan = stratified_kfold(node_ids.tolist(), k, seed)
    stretch = ds.label("lambda")
    force = ds.label("force_n")
    contact = node_ids > 0
    x_term = ds.label("node_x")
    y_term = ds.label("node_y")

    # every fold is checked before any is trained, so a bad plan fails fast
    _check_fold_coverage(plan, {"node classes": node_ids})
    for fold in range(k):
        if not np.any(contact[plan.test_indices(fold)]):
            raise CoverageError(
                f"fold {fold} test split holds no contact rows, so its force "
                f"and localisation metrics are undefined; use fewer folds than "
                f"k={k} or a dataset with more reps per cell"
            )

    def metrics(rows, out):
        pos = contact[rows]
        return {
            "stretch_r2": r2(stretch[rows], out["stretch"]),
            "stretch_mse": mse(stretch[rows], out["stretch"]),
            "detection_accuracy": float(np.mean(out["detected"] == pos)),
            "force_r2": r2(force[rows][pos], out["force"][pos]),
            "force_mse": mse(force[rows][pos], out["force"][pos]),
            "row_accuracy": float(np.mean(out["y_term"][pos] == y_term[rows][pos])),
            "col_accuracy": float(np.mean(out["x_term"][pos] == x_term[rows][pos])),
        }

    per_fold, rows, out = _fold_loop(ds, plan, config, metrics)
    pos = contact[rows]
    confusions = {
        name: confusion(true[rows][pos], out[key][pos], range(1, 11))
        for name, true, key in (("row", y_term, "y_term"), ("col", x_term, "x_term"))
    }
    return _report(
        SCHEMA_SINGLE, ds, plan, seed, per_fold, metrics(rows, out), confusions,
        ("localisation and force metrics cover contact-positive test samples only",),
    )


def cross_validate_two(
    ds: Dataset, k: int = 5, seed: int = 0, config: PipelineConfig | None = None
) -> MetricsReport:
    """k-fold CV of the two-contact models, stratified on the node pair."""
    ds.require(SCHEMA_TWO)
    pairs = zip(ds.node_ids("x1", "y1").tolist(), ds.node_ids("x2", "y2").tolist())
    plan = stratified_kfold(list(pairs), k, seed)
    coord_keys = ("x1", "y1", "x2", "y2")
    truth = {c: ds.label(c).astype(int) for c in coord_keys}
    _check_fold_coverage(plan, {f"{c} terminals": truth[c] for c in coord_keys})
    truth["force1"] = ds.label("f1_n")
    truth["force2"] = ds.label("f2_n")

    def metrics(rows, out):
        m = {
            f"{c}_accuracy": float(np.mean(out[c] == truth[c][rows]))
            for c in coord_keys
        }
        for f in ("force1", "force2"):
            m[f"{f}_r2"] = r2(truth[f][rows], out[f])
            m[f"{f}_mse"] = mse(truth[f][rows], out[f])
        return m

    per_fold, rows, out = _fold_loop(ds, plan, config, metrics)
    pooled = metrics(rows, out)
    shared = (truth["x1"] == truth["x2"]) | (truth["y1"] == truth["y2"])
    shared2 = np.concatenate([shared[rows], shared[rows]])
    sq_err = np.concatenate(
        [(out[f] - truth[f][rows]) ** 2 for f in ("force1", "force2")]
    )
    pooled["force_mse_shared_axis"] = float(np.mean(sq_err[shared2]))
    pooled["force_mse_disjoint"] = float(np.mean(sq_err[~shared2]))
    labels = np.unique([truth[c] for c in coord_keys])
    cms = {c: confusion(truth[c][rows], out[c], labels) for c in coord_keys}
    return _report(
        SCHEMA_TWO, ds, plan, seed, per_fold, pooled, cms,
        ("force_mse_shared_axis pools both contacts over test pairs sharing a "
         "row or column terminal; force_mse_disjoint covers the remaining pairs",),
    )


def confusion_to_csv(cm: ConfusionMatrix) -> str:
    lines = ["true\\pred," + ",".join(str(l) for l in cm.labels)]
    for label, row in zip(cm.labels, cm.counts):
        lines.append(str(label) + "," + ",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def confusion_to_pgm(cm: ConfusionMatrix, cell: int = 24) -> str:
    """ASCII (P2) heatmap; darker cells hold more counts."""
    n = len(cm.labels)
    peak = max((c for row in cm.counts for c in row), default=0)
    lines = ["P2", f"{n * cell} {n * cell}", "255"]
    for i in range(n):
        shades = [
            255 - round(255 * cm.counts[i][j] / peak) if peak else 255
            for j in range(n)
        ]
        pixel_row = " ".join(" ".join([str(s)] * cell) for s in shades)
        lines.extend([pixel_row] * cell)
    return "\n".join(lines) + "\n"


def write_report_files(
    report: MetricsReport, out_dir: str | Path, emit_heatmaps: bool = False
) -> list[Path]:
    """report.json plus one CSV (and optional PGM) per confusion matrix."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    path = out / "report.json"
    atomic_write_text(path, report.to_json())
    written.append(path)
    for name, cm in sorted(report.confusions.items()):
        csv_path = out / f"cm_{name}.csv"
        atomic_write_text(csv_path, confusion_to_csv(cm))
        written.append(csv_path)
        if emit_heatmaps:
            pgm_path = out / f"heatmap_{name}.pgm"
            atomic_write_text(pgm_path, confusion_to_pgm(cm))
            written.append(pgm_path)
    return written


def load_report(path: str | Path) -> MetricsReport:
    try:
        d = loads(Path(path).read_text())
    except ValueError as exc:
        raise SchemaError(f"report is not valid JSON: {exc}")
    try:
        return from_dict(MetricsReport, d)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise SchemaError(f"malformed report: {type(exc).__name__}: {exc}")
