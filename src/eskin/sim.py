"""Seeded forward model of the e-skin and the acquisition-protocol generators.

The skin is modelled as 20 independent terminal readings. Global stretch
shifts every terminal linearly in (lambda - 1); a contact adds a saturating
increment on the terminals of its row and column that decays geometrically
with terminal distance, reaching two neighbours on each side by default.
The sheet is anchored along its far edges, so the increment a contact
induces on an x terminal weakens linearly with how far along y the contact
sits, and vice versa (the edge taper). Two contacts superpose additively,
so a shared row or column terminal is affected twice. Homoscedastic
Gaussian noise is drawn from a seeded generator, which makes every frame
and every generated dataset a pure function of (model, inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import to_dict
from .core import (
    PROTOCOL_FORCES,
    PROTOCOL_STRETCHES,
    CapacitanceFrame,
    Dataset,
    DatasetMeta,
    NodeCoord,
    config_digest,
    validate_force,
    validate_stretch,
)
from .errors import ProtocolError, ValidationError


@dataclass(frozen=True)
class SkinModel:
    """Forward-model parameters; all capacitances are unitless (baseline 1.0).

    The stretch gains put the full protocol stretch swing well above the
    largest contact increment, which is what lets a linear readout recover
    stretch underneath contacts. edge_taper is the fractional loss of a
    contact's row/column increment when the contact sits at the far anchored
    edge (crossing coordinate 10); 0 disables it and restores a fully
    symmetric sheet. A nonzero taper stamps the crossing coordinate into
    each axis profile, which is what makes simultaneous-contact frames
    attributable to a unique (x, y) pairing.
    """

    baseline: float = 1.0
    stretch_gain_x: float = 3.0
    stretch_gain_y: float = 3.0
    force_scale: float = 0.25
    force_sat: float = 2.0
    neighbor_decay: float = 0.4
    neighbor_reach: int = 2
    noise_sigma: float = 0.005
    edge_taper: float = 0.3

    def __post_init__(self):
        for name in ("stretch_gain_x", "stretch_gain_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in ("baseline", "force_scale", "force_sat"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and > 0")
        if not 0.0 < self.neighbor_decay < 1.0:
            raise ValidationError("neighbor_decay must be in (0, 1)")
        if self.neighbor_reach < 0:
            raise ValidationError("neighbor_reach must be >= 0")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValidationError("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.edge_taper < 1.0:
            raise ValidationError("edge_taper must be in [0, 1)")


@dataclass(frozen=True)
class Contact:
    """An indenter position (a real node) and the force it applies."""

    node: NodeCoord
    force: float

    def __post_init__(self):
        validate_force(self.force)
        if not self.node.is_contact:
            raise ValidationError("contact node must not be node 0")


def derive_seed(seed: int, *path: int) -> int:
    """Deterministically mix a base seed with an index path (for per-sample
    and per-component generators)."""
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


def _frames(model: SkinModel, stretch, nodes, forces, seeds) -> np.ndarray:
    """The forward model over n rows: (n, 20) frames in serialisation order.

    ``stretch`` is (n,), ``nodes`` (n, c, 2) integer (x, y) pairs and
    ``forces`` (n, c), one column per contact slot; a slot of force 0 adds
    exactly +0.0, whatever its node. On each axis a slot's bump centres on
    its own coordinate and is scaled by the edge taper of the crossing one;
    slots are added in slot order. Row k draws its noise from
    ``default_rng(seeds[k])``.
    """
    # math.exp, not np.exp: the two differ in the last bits on some inputs
    headroom = [math.exp(-f / model.force_sat) for f in forces.ravel().tolist()]
    amp = model.force_scale * (1.0 - np.reshape(headroom, forces.shape))
    amp = amp[..., None] * (1.0 - model.edge_taper * (nodes[..., ::-1] - 1) / 9.0)
    dist = np.abs(np.arange(1, 11) - nodes[..., None])
    near = dist <= model.neighbor_reach
    bumps = np.where(near, amp[..., None] * model.neighbor_decay**dist, 0.0)
    delta = np.zeros((len(stretch), 2, 10))
    for slot in range(forces.shape[1]):
        delta += bumps[:, slot]
    gains = np.array([model.stretch_gain_x, model.stretch_gain_y])
    rest = model.baseline + gains * (stretch[:, None] - 1.0)
    x = (rest[..., None] + delta).reshape(-1, 20)
    if model.noise_sigma > 0:
        sigma = model.noise_sigma
        x += np.array([np.random.default_rng(s).normal(0.0, sigma, 20) for s in seeds])
    return x


def simulate_frame(
    model: SkinModel,
    stretch: float,
    contacts: list[Contact] | tuple[Contact, ...],
    rng_seed: int,
) -> CapacitanceFrame:
    """One noisy scan of the skin under a stretch state and up to 2 contacts.

    Deterministic for fixed (model, stretch, contacts, rng_seed). Contacts
    superpose additively; noise is N(0, noise_sigma) per terminal, drawn in
    serialisation order (cx1..cx10, cy1..cy10).
    """
    validate_stretch(stretch)
    if len(contacts) > 2:
        raise ValidationError(
            f"at most 2 simultaneous contacts supported, got {len(contacts)}"
        )
    if len(contacts) == 2 and contacts[0].node == contacts[1].node:
        raise ValidationError("contact nodes must be distinct")
    nodes = np.array([(c.node.x, c.node.y) for c in contacts], dtype=int)
    forces = np.array([c.force for c in contacts], dtype=float)
    x = _frames(
        model, np.array([stretch], dtype=float), nodes.reshape(1, -1, 2),
        forces.reshape(1, -1), [rng_seed],
    )[0]
    return CapacitanceFrame(cx=tuple(x[:10]), cy=tuple(x[10:]))


def _check_levels(levels, low: float, what: str) -> None:
    for v in levels:
        if not (math.isfinite(v) and v >= low):
            raise ProtocolError(f"{what} level {v} must be finite and >= {low:g}")


@dataclass(frozen=True)
class SingleForceProtocol:
    """Replay of the single-force acquisition sweep.

    Every stretch x node-in-0..100 x force x rep yields one sample. Cells
    with node 0 or zero force are no-contact frames and get labelled
    (force 0, node 0); the sample count is |stretches| * 101 * |forces| * reps
    either way.
    """

    stretches: tuple[float, ...] = PROTOCOL_STRETCHES
    forces: tuple[float, ...] = PROTOCOL_FORCES
    reps_per_cell: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.reps_per_cell < 1:
            raise ProtocolError("reps_per_cell must be >= 1")
        if self.seed < 0:
            raise ProtocolError(f"single-force seed must be >= 0, got {self.seed}")
        if not self.stretches:
            raise ProtocolError("protocol needs at least one stretch level")
        _check_levels(self.stretches, 1.0, "stretch")
        _check_levels(self.forces, 0.0, "force")
        if 0.0 not in self.forces:
            raise ProtocolError("force levels must include 0")

    @property
    def sample_count(self) -> int:
        return len(self.stretches) * 101 * len(self.forces) * self.reps_per_cell


@dataclass(frozen=True)
class TwoForceProtocol:
    """Replay of the two-force sweep over the 9-node wide-spacing grid.

    Nodes are the product node_axes x node_axes; every unordered pair of
    distinct nodes is combined with every (f1 > 0, f2 > 0) force pair at
    lambda = 1. The contact with the smaller node id is recorded first.
    """

    node_axes: tuple[int, ...] = (1, 6, 10)
    forces: tuple[float, ...] = PROTOCOL_FORCES
    reps: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ProtocolError("reps must be >= 1")
        if self.seed < 0:
            raise ProtocolError(f"two-force seed must be >= 0, got {self.seed}")
        _check_levels(self.forces, 0.0, "force")
        if not self.nonzero_forces():
            raise ProtocolError("two-force protocol needs a nonzero force level")
        for a in self.node_axes:
            if not 1 <= a <= 10:
                raise ProtocolError(f"node axis value {a} outside 1..10")
        if len(self.nodes()) < 2:
            raise ProtocolError("two-force protocol needs at least 2 grid nodes")

    def nodes(self) -> tuple[NodeCoord, ...]:
        """The grid nodes in node-id order (y-major, then x)."""
        axes = sorted(set(self.node_axes))
        return tuple(NodeCoord(x, y) for y in axes for x in axes)

    def nonzero_forces(self) -> tuple[float, ...]:
        return tuple(f for f in self.forces if f > 0)

    @property
    def sample_count(self) -> int:
        n = len(self.nodes())
        return (n * (n - 1) // 2) * len(self.nonzero_forces()) ** 2 * self.reps


def _grid(*levels) -> list[np.ndarray]:
    """Every combination of the levels, flattened, the first varying slowest."""
    return [a.ravel() for a in np.meshgrid(*levels, indexing="ij")]


def generate_single_force_dataset(
    model: SkinModel, protocol: SingleForceProtocol
) -> Dataset:
    """Deterministic sweep in stretch-major, then node, force, rep order."""
    stretch, nid, force, _ = _grid(
        np.array(protocol.stretches, dtype=float), np.arange(101),
        np.array(protocol.forces, dtype=float), np.arange(protocol.reps_per_cell),
    )
    contact = (nid > 0) & (force > 0)
    force = np.where(contact, force, 0.0)
    nx = np.where(contact, (nid - 1) % 10 + 1, 0)
    ny = np.where(contact, (nid - 1) // 10 + 1, 0)
    seeds = [derive_seed(protocol.seed, k) for k in range(len(stretch))]
    nodes = np.stack([nx, ny], axis=1)[:, None, :]
    x = _frames(model, stretch, nodes, force[:, None], seeds)
    labels = np.stack([force, nx, ny, stretch], axis=1)
    return Dataset(x=x, labels=labels, meta=_meta(model, protocol, "single"))


def generate_two_force_dataset(model: SkinModel, protocol: TwoForceProtocol) -> Dataset:
    """All node pairs x nonzero force pairs x reps, at lambda = 1."""
    grid = np.array([(n.x, n.y) for n in protocol.nodes()])
    i, j = np.triu_indices(len(grid), k=1)
    forces = np.array(protocol.nonzero_forces(), dtype=float)
    pair, f1, f2, _ = _grid(np.arange(len(i)), forces, forces, np.arange(protocol.reps))
    nodes = np.stack([grid[i[pair]], grid[j[pair]]], axis=1)
    seeds = [derive_seed(protocol.seed, k) for k in range(len(pair))]
    x = _frames(model, np.ones(len(pair)), nodes, np.stack([f1, f2], axis=1), seeds)
    labels = np.column_stack([f1, nodes[:, 0], f2, nodes[:, 1]])
    return Dataset(x=x, labels=labels, meta=_meta(model, protocol, "two"))


def _meta(model: SkinModel, protocol, schema: str) -> DatasetMeta:
    return DatasetMeta(
        seed=protocol.seed,
        schema=schema,
        generator_config_digest=config_digest(
            {"model": to_dict(model), "protocol": to_dict(protocol)}
        ),
    )
