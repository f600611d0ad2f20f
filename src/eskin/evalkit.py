"""Stratified cross-validation, metrics, and confusion-matrix reporting.

A fold plan is one array holding each sample's fold id. A sample's stratum
is a value or a row of values (here the node ids of its contacts); each
stratum is shuffled and dealt round-robin, so per-stratum fold counts never
differ by more than 1. Reports carry pooled metrics
(computed over the concatenation of all test folds), per-fold values, and
their mean/std; confusion matrices count the pooled test predictions, so
they equal the sum of the per-fold matrices. Everything is a pure function
of (dataset, k, seed, config), which is what makes report files
byte-reproducible.

One ``cross_validate`` serves both contact modes. It takes the mode from the
dataset, as ``pipeline.train`` does, stratifies on the node ids of each
contact, and refuses a fold plan before any fold trains if a training split
lacks a class or a test split holds no contact row. Terminal accuracies and
force metrics are computed on the contact rows (every two-contact row is
one; the gated single-contact estimate defines no node or force for a
negative detection). One contact adds stretch metrics and detection
accuracy over every test row; two contacts add the shared-axis and
disjoint force MSEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import (
    NonNegativeInt, PositiveInt, check_ranges, dumps, from_dict, loads, to_dict,
)
from .core import SCHEMA_SINGLE, SCHEMA_TWO, Dataset, atomic_write_text
from .errors import (
    ConfigError,
    CoverageError,
    SchemaError,
    UndefinedMetricError,
    ValidationError,
)
from .pipeline import _MODES, PipelineConfig, predict_batch, train


def stratified_kfold(strata, k: int, seed: int = 0) -> np.ndarray:
    """Each sample's fold id in 0..k-1, as a read-only int array.

    ``strata`` holds one value or one row per sample, and equal ones form a
    stratum. One generator seeded by ``seed`` shuffles the ascending indices
    of each stratum, in sorted (for rows, lexicographic) order of stratum,
    then deals them round-robin to the folds."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    strata = np.asarray(strata)
    if not len(strata):
        raise ValidationError("cannot fold an empty sample list")
    _, stratum = np.unique(strata.reshape(len(strata), -1), axis=0, return_inverse=True)
    rng = np.random.default_rng(seed)
    folds = np.empty(len(strata), dtype=int)
    for s in range(stratum.max() + 1):
        idx = np.flatnonzero(stratum == s)
        rng.shuffle(idx)
        folds[idx] = np.arange(idx.size) % k
    folds.flags.writeable = False
    return folds


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


# per mode: the report name of each terminal key of pipeline._MODES, which
# names its accuracy and its confusion matrix; the pooled metrics the
# headline shows, in order; and the mode's report note
_REPORTS = {
    SCHEMA_SINGLE: (
        {"x_term": "col", "y_term": "row"},
        ("stretch_r2", "stretch_mse", "force_r2", "detection_accuracy",
         "row_accuracy", "col_accuracy"),
        "localisation and force metrics cover contact-positive test samples only",
    ),
    SCHEMA_TWO: (
        {"x1": "x1", "y1": "y1", "x2": "x2", "y2": "y2"},
        ("x1_accuracy", "y1_accuracy", "x2_accuracy", "y2_accuracy",
         "force1_r2", "force2_r2", "force_mse_shared_axis", "force_mse_disjoint"),
        "force_mse_shared_axis pools both contacts over test pairs sharing a "
        "row or column terminal; force_mse_disjoint covers the remaining pairs",
    ),
}


# the closed range of a metric's values, by a part of its name
_RANGES = (("_accuracy", 0.0, 1.0), ("_mse", 0.0, math.inf), ("_r2", -math.inf, 1.0))


@dataclass(frozen=True)
class MetricsReport:
    """Construction checks that the report holds every metric and confusion
    matrix of its mode, at least one sample, k values per fold metric and at
    least one note, and that no value is impossible: k in 2..n_samples, a
    seed >= 0, accuracies in [0, 1], MSEs and fold stds >= 0, R^2 <= 1, and
    confusions as a cross-validation writes them: single-contact row and col
    labelled 1..10, two-contact matrices sharing strictly increasing labels
    in 1..10, each counting one number of rows: the contact rows, at most
    n_samples, for one contact, and n_samples for two."""

    mode: str
    k: int
    seed: NonNegativeInt
    n_samples: PositiveInt
    pooled: dict[str, float]
    per_fold: dict[str, tuple[float, ...]]
    fold_mean: dict[str, float]
    fold_std: dict[str, float]
    confusions: dict[str, ConfusionMatrix]
    notes: tuple[str, ...]

    def __post_init__(self):
        check_ranges(self)
        if self.mode not in _REPORTS:
            raise ValidationError(f"report mode {self.mode!r} is not single or two")
        terminal_names, headline, _ = _REPORTS[self.mode]
        confusions = set(terminal_names.values())
        names = set(self.per_fold)
        if not (
            names == set(self.fold_mean) == set(self.fold_std)
            and names.union(headline) <= set(self.pooled)
        ):
            raise ValidationError(
                "report metrics differ between pooled, per_fold, fold_mean and fold_std"
            )
        # a cross-validation needs 2 folds and a contact row in each test fold
        if not 2 <= self.k <= self.n_samples:
            raise ValidationError(
                f"report k {self.k} is outside [2, n_samples {self.n_samples}]"
            )
        if any(len(values) != self.k for values in self.per_fold.values()):
            raise ValidationError(f"every per-fold metric needs k={self.k} values")
        if set(self.confusions) != confusions:
            raise ValidationError(
                f"{self.mode} report needs confusion matrices {sorted(confusions)}"
            )
        if not self.notes:
            raise ValidationError("report has no notes")
        values = [
            (where, name, value)
            for where in ("pooled", "fold_mean", "per_fold", "fold_std")
            for name, named in getattr(self, where).items()
            for value in (named if where == "per_fold" else (named,))
        ]
        for where, name, value in values:
            path = f"{where}.{name}"
            try:   # a JSON int can be one that no float holds
                float(value)
            except OverflowError:
                raise ValidationError(f"report {path} is too large for a float")
            # a NaN passes here: the JSON writer refuses it, as exit 3
            if where == "fold_std":
                if value < 0:
                    raise ValidationError(f"report {path} {value} is below 0")
                continue
            for part, low, high in _RANGES:
                if part in name and (value < low or value > high):
                    raise ValidationError(
                        f"report {path} {value} is outside [{low:g}, {high:g}]"
                    )
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
        parts = [f"{k}={self.pooled[k]:.6g}" for k in _REPORTS[self.mode][1]]
        return f"mode={self.mode} k={self.k} " + " ".join(parts)


def cross_validate(
    ds: Dataset, k: int = 10, seed: int = 0, config: PipelineConfig | None = None
) -> MetricsReport:
    """k-fold CV of the pipeline of the dataset's contact mode, stratified on
    the node ids of its contacts."""
    single = ds.schema == SCHEMA_SINGLE
    terminals, forces = _MODES[ds.schema]
    names, _, note = _REPORTS[ds.schema]
    columns = list(terminals.values())
    node_ids = [ds.node_ids(x, y) for x, y in zip(columns[::2], columns[1::2])]
    folds = stratified_kfold(np.column_stack(node_ids), k, seed)
    truth = {key: ds.label(c) for key, c in (terminals | forces).items()}
    if single:
        truth["stretch"] = ds.label("lambda")
    contact = np.logical_and.reduce([ids > 0 for ids in node_ids])

    # every fold is checked before any is trained, so a bad plan fails fast:
    # each training split must hold every nonzero value (0 is no contact)
    # that each coverage column takes, and each test split a contact row
    if single:
        coverage = {"node classes": node_ids[0]}
    else:
        coverage = {f"{key} terminals": truth[key].astype(int) for key in terminals}
    for fold in range(k):
        tr = folds != fold
        for name, values in coverage.items():
            taken = np.bincount(values[tr], minlength=values.max() + 1)
            missing = np.flatnonzero((np.bincount(values) > 0) & (taken == 0))
            missing = missing[missing != 0]
            if missing.size:
                raise CoverageError(
                    f"fold {fold}: training split lacks {name} {missing.tolist()}"
                )
    for fold in range(k):
        if not np.any(contact[folds == fold]):
            raise CoverageError(
                f"fold {fold} test split holds no contact rows, so its force "
                f"and localisation metrics are undefined; use fewer folds than "
                f"k={k} or a dataset with more reps per cell"
            )

    def scores(rows, out):
        pos = contact[rows]
        m = {f"{name}_accuracy": float(np.mean(out[key][pos] == truth[key][rows][pos]))
             for key, name in names.items()}
        fits = [(key, pos) for key in forces]
        if single:   # stretch and detection are scored on every row
            fits.append(("stretch", slice(None)))
            m["detection_accuracy"] = float(np.mean(out["detected"] == pos))
        for key, on in fits:
            y, yhat = truth[key][rows][on], out[key][on]
            m[f"{key}_r2"], m[f"{key}_mse"] = r2(y, yhat), mse(y, yhat)
        return m

    per_fold: dict[str, list] = {}
    rows, outs = [], []
    for fold in range(k):
        te = np.flatnonzero(folds == fold)
        try:
            p = train(ds.take(folds != fold), config)
        except CoverageError as exc:
            raise CoverageError(f"fold {fold}: {exc}")
        out = predict_batch(p, ds.x[te])
        for key, value in scores(te, out).items():
            per_fold.setdefault(key, []).append(value)
        rows.append(te)
        outs.append(out)
    rows = np.concatenate(rows)
    out = {key: np.concatenate([o[key] for o in outs]) for key in outs[0]}
    pooled = scores(rows, out)
    pos = contact[rows]
    if single:
        labels = range(1, 11)
    else:
        labels = np.unique([truth[key] for key in terminals])
        shared = (truth["x1"] == truth["x2"]) | (truth["y1"] == truth["y2"])
        shared2 = np.concatenate([shared[rows], shared[rows]])
        sq_err = np.concatenate([(out[f] - truth[f][rows]) ** 2 for f in forces])
        pooled["force_mse_shared_axis"] = float(np.mean(sq_err[shared2]))
        pooled["force_mse_disjoint"] = float(np.mean(sq_err[~shared2]))
    return MetricsReport(
        mode=ds.schema,
        k=k,
        seed=seed,
        n_samples=len(ds),
        pooled=pooled,
        per_fold={key: tuple(v) for key, v in per_fold.items()},
        fold_mean={key: float(np.mean(v)) for key, v in per_fold.items()},
        fold_std={key: float(np.std(v)) for key, v in per_fold.items()},
        confusions={
            name: confusion(truth[key][rows][pos], out[key][pos], labels)
            for key, name in names.items()
        },
        notes=(
            note,
            "pooled metrics are computed over the concatenated test folds; "
            "fold_mean/fold_std aggregate the per-fold values",
        ),
    )


# tests/test_acceptance.py imports this name from eskin
cross_validate_two = cross_validate


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
