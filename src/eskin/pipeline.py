"""The decoupling pipeline: stretch OLS, contact detector SVM, terminal
forests and force GP, in one record for single- and two-contact inference.

A contact mode names the columns its pipeline learns (``_MODES``): a forest
per terminal column and a GP output per force column, fitted on the contact
rows. One contact adds the stretch OLS, which reads raw capacitances, and
the detector, both fitted on every row. The SVM and the forests read the
features standardized on the training split; the GP standardizes its own.
One contact's estimate is gated by detection: a negative detection reports
node 0 and force 0. Two contacts are listed in node order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .codec import (
    NonNegativeInt, PositiveInt, check_ranges, dumps, from_dict, loads, to_dict,
)
from .core import (
    SCHEMA_SINGLE,
    SCHEMA_TWO,
    CapacitanceFrame,
    Dataset,
    NodeCoord,
    NODE_ZERO,
    atomic_write_text,
)
from .errors import CoverageError, SchemaError, ValidationError
from .learners import (
    ForestConfig,
    ForestModel,
    ForestTable,
    GpHyper,
    GpModel,
    LinearModel,
    Standardizer,
    SvmConfig,
    SvmModel,
    compile_forests,
    fit_forests,
    forest_fit,   # unused; perfbench/tracer.py patches eskin.pipeline.forest_fit
    forest_predict,
    gp_fit,
    gp_grid_search,
    gp_predict,
    ols_fit,
    ols_predict,
    svm_fit,
    svm_predict,
)

# 2: force models no longer store their Cholesky factor
# 3: the SVM config no longer stores seed or max_passes
# 4: compact JSON; SVM iterations and KKT gap, GP rows offered
# 5: arrays as base64 bytes; forests as node arrays in queue order
# 6: the GP mean offset on the model; forests without config or n_classes
# 7: one two-output force GP for two contacts; the GP mean offset an array
# 8: standardizer statistics and OLS weights as arrays; every GP has a scaler
# 9: each forest stores its class labels; the config names no grid axes
# 10: one record for both modes: the mode inside the pipeline, forests keyed
#     by prediction key, no stretch model or detector for two contacts
# 11: forest leaf counts as entries, each leaf's nonzero classes and counts
BUNDLE_SCHEMA_VERSION = 11

# Per contact mode, the dataset columns the pipeline learns: each terminal
# column by one forest, and the force columns as the outputs of one GP, all
# keyed by the name predict_batch gives their estimates.
_MODES = {
    SCHEMA_SINGLE: ({"x_term": "node_x", "y_term": "node_y"}, {"force": "force_n"}),
    SCHEMA_TWO: ({"x1": "x1", "y1": "y1", "x2": "x2", "y2": "y2"},
                 {"force1": "f1_n", "force2": "f2_n"}),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Hyperparameters for every stage."""

    svm: SvmConfig = field(default_factory=SvmConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    # shorter length scale than the GP default: force decoding must condition
    # on contact position, and 2.0 oversmooths across neighbouring placements
    gp: GpHyper = field(default_factory=lambda: GpHyper(length_scale=1.0))
    gp_cap: PositiveInt = 2000
    gp_search: bool = False
    seed: NonNegativeInt = 0

    __post_init__ = check_ranges


def _check_feature_widths(p: TrainedPipeline) -> None:
    """Raise ValidationError unless every model of ``p`` reads the same
    number of frame channels: a mismatch would otherwise surface as a numpy
    broadcast error on the first frame served. Each forest is named by its
    field path, so no forest's width hides behind another's."""
    models = {f.name: getattr(p, f.name) for f in fields(p)}
    models.update((f"forests.{key}", m) for key, m in models.pop("forests").items())
    widths = {}
    for name, value in models.items():
        if isinstance(value, Standardizer):
            widths[name] = value.mean.shape[0]
        elif isinstance(value, LinearModel):
            widths[name] = value.weights.shape[0]
        elif isinstance(value, SvmModel):
            widths[name] = value.support_inputs.shape[1]
        elif isinstance(value, ForestModel):
            widths[name] = value.n_features
        elif isinstance(value, GpModel):
            widths[name] = value.train_inputs.shape[1]   # its scaler's too
    if len(set(widths.values())) > 1:
        raise ValidationError(
            "pipeline models read different feature widths: "
            + ", ".join(f"{name} {width}" for name, width in widths.items())
        )


@dataclass(frozen=True)
class TrainedPipeline:
    """One contact mode's model stack plus its preprocessing statistics.
    Construction checks that it is the mode's stack (see ``_MODES``) and
    that every model reads one feature width, and raises ValidationError if
    not."""

    mode: str
    stretch_model: LinearModel | None
    detector: SvmModel | None
    forests: dict[str, ForestModel]   # classes: the terminals each was trained on
    force_model: GpModel              # outputs: the mode's forces, in order
    preprocessing: Standardizer
    config: PipelineConfig

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValidationError(f"pipeline mode {self.mode!r} is not single or two")
        terminals, forces = _MODES[self.mode]
        if self.forests.keys() != terminals.keys():
            raise ValidationError(
                f"{self.mode} pipeline forests {sorted(self.forests)} are not "
                f"{sorted(terminals)}"
            )
        single = self.mode == SCHEMA_SINGLE
        for name in ("stretch_model", "detector"):
            if (getattr(self, name) is None) == single:
                raise ValidationError(
                    f"{self.mode} pipeline {'lacks' if single else 'has'} a {name}"
                )
        outputs = (len(forces),) if len(forces) > 1 else ()   # see train
        if self.force_model.mean_offset.shape != outputs:
            raise ValidationError(
                f"{self.mode} pipeline force GP has mean_offset "
                f"{self.force_model.mean_offset.shape}, not {outputs}: one output "
                f"per force ({', '.join(forces)})"
            )
        _check_feature_widths(self)

    @cached_property
    def table(self) -> ForestTable:
        """The forests as one node table in the mode's terminal order, built
        on first use: a loaded ``forests`` dict has its keys sorted."""
        return compile_forests([self.forests[key] for key in _MODES[self.mode][0]])


@dataclass(frozen=True)
class ContactEstimate:
    """Single-frame output; an undetected contact is node 0 with force 0."""

    stretch: float
    contact_detected: bool
    node: NodeCoord
    force: float

    def __post_init__(self):
        if not self.contact_detected and (
            self.node != NODE_ZERO or self.force != 0.0
        ):
            raise ValidationError(
                "undetected contact must report node 0 and force 0"
            )
        if self.force < 0:
            raise ValidationError("estimated force must be >= 0")


@dataclass(frozen=True)
class TwoContactEstimate:
    """Up to two (node, force) pairs sorted by node_id.

    Ground truth always has distinct nodes; predictions may coincide on a
    hard frame because the coordinate classifiers are independent.
    """

    contacts: tuple[tuple[NodeCoord, float], ...]

    def __post_init__(self):
        if len(self.contacts) > 2:
            raise ValidationError("at most 2 contacts")
        ids = [n.node_id for n, _ in self.contacts]
        if ids != sorted(ids):
            raise ValidationError("contacts must be sorted by node_id")
        if any(f < 0 for _, f in self.contacts):
            raise ValidationError("estimated forces must be >= 0")


def train(ds: Dataset, config: PipelineConfig | None = None) -> TrainedPipeline:
    """Fit the model stack of the dataset's contact mode on one training
    split. The contact rows are those whose terminals are all nonzero; in a
    two-contact dataset every row must be one. The force GP's hyperparameters
    are picked by marginal likelihood when config.gp_search is set.
    """
    config = config or PipelineConfig()
    mode = ds.schema
    terminals, forces = _MODES[mode]
    contact = np.logical_and.reduce([ds.label(c) != 0 for c in terminals.values()])
    if mode == SCHEMA_TWO and not contact.all():
        raise ValidationError(
            f"row {np.flatnonzero(~contact)[0]} has a contact at node (0, 0), but "
            "two-contact training needs two pressed nodes"
        )
    if not np.any(contact):
        raise CoverageError(
            "no contact-positive samples: every terminal class is absent"
        )

    scaler = Standardizer.fit(ds.x)
    z = scaler.transform(ds.x)
    stretch_model = detector = None
    if mode == SCHEMA_SINGLE:
        stretch_model = ols_fit(ds.x, ds.label("lambda"))
        detector = svm_fit(z, np.where(contact, 1.0, -1.0), config.svm)

    models = fit_forests(
        z[contact], [ds.label(c)[contact] for c in terminals.values()], config.forest
    )
    y = np.column_stack([ds.label(c)[contact] for c in forces.values()])
    if y.shape[1] == 1:   # a 1-d target serves without a loop over outputs
        y = y[:, 0]
    subsample = dict(cap=config.gp_cap, seed=config.seed)
    if config.gp_search:
        force_model, _ = gp_grid_search(ds.x[contact], y, base=config.gp, **subsample)
    else:
        force_model = gp_fit(ds.x[contact], y, config.gp, **subsample)
    return TrainedPipeline(
        mode=mode,
        stretch_model=stretch_model,
        detector=detector,
        forests=dict(zip(terminals, models)),
        force_model=force_model,
        preprocessing=scaler,
        config=config,
    )


def predict_batch(p: TrainedPipeline, x: np.ndarray) -> dict[str, np.ndarray]:
    """Raw per-model outputs for a feature matrix (n, 20): ``stretch`` and
    ``detected`` for one contact, then the terminals and the forces (clamped
    at 0), keyed as in ``_MODES``. They are ungated for every row; composing
    them with ``detected`` is the caller's choice (single_estimate gates).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = p.preprocessing.transform(x)
    out = {}
    if p.detector is not None:
        out["stretch"] = ols_predict(p.stretch_model, x)
        out["detected"] = svm_predict(p.detector, z) > 0
    terminals, forces = _MODES[p.mode]
    out.update(zip(terminals, forest_predict(p.table, z)))
    mean, _ = gp_predict(p.force_model, x, std=False)
    out.update(zip(forces, np.atleast_2d(np.maximum(mean, 0.0).T)))
    return out


def single_estimate(out: dict[str, np.ndarray], i: int) -> ContactEstimate:
    """Row ``i`` of one-contact :func:`predict_batch` output, gated by detection."""
    stretch = float(out["stretch"][i])
    if out["detected"][i]:
        node = NodeCoord(int(out["x_term"][i]), int(out["y_term"][i]))
        return ContactEstimate(stretch, True, node, float(out["force"][i]))
    return ContactEstimate(stretch, False, NODE_ZERO, 0.0)


def two_estimate(out: dict[str, np.ndarray], i: int) -> TwoContactEstimate:
    """Row ``i`` of two-contact :func:`predict_batch` output, in node order."""
    pairs = [
        (NodeCoord(int(out["x1"][i]), int(out["y1"][i])), float(out["force1"][i])),
        (NodeCoord(int(out["x2"][i]), int(out["y2"][i])), float(out["force2"][i])),
    ]
    pairs.sort(key=lambda nf: nf[0].node_id)
    return TwoContactEstimate(contacts=tuple(pairs))


def infer(p: TrainedPipeline, frame: CapacitanceFrame):
    """One frame's ContactEstimate, or TwoContactEstimate for two contacts."""
    out = predict_batch(p, frame.as_vector()[None, :])
    return (single_estimate if p.mode == SCHEMA_SINGLE else two_estimate)(out, 0)


# perfbench/workloads.py is the only caller of these three names
train_single = train
predict_single_batch = predict_batch
infer_single = infer


def save_pipeline(p: TrainedPipeline, path: str | Path) -> None:
    """Canonical JSON on one line (sorted keys, no whitespace, arrays as
    the base64 of their bytes), written atomically, so equal pipelines
    always serialise byte-identically. Without ``indent`` CPython encodes in
    C. A NaN or infinite scalar raises NonFiniteError."""
    bundle = {"bundle_schema": BUNDLE_SCHEMA_VERSION, "pipeline": to_dict(p)}
    text = dumps(bundle, sort_keys=True, separators=(",", ":"))
    atomic_write_text(path, text + "\n")


def load_pipeline(path: str | Path) -> TrainedPipeline:
    try:
        d = loads(Path(path).read_text())
    except ValueError as exc:
        raise SchemaError(f"model bundle is not valid JSON: {exc}")
    if not isinstance(d, dict):
        raise SchemaError("model bundle must be a JSON object")
    if d.get("bundle_schema") != BUNDLE_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported model bundle schema {d.get('bundle_schema')!r} "
            f"(this eskin reads schema {BUNDLE_SCHEMA_VERSION}); "
            "re-run `eskin train` to rebuild the bundle"
        )
    try:
        return from_dict(TrainedPipeline, d["pipeline"])
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise SchemaError(f"malformed model bundle: {type(exc).__name__}: {exc}")
