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
        if self.baseline <= 0 or not math.isfinite(self.baseline):
            raise ValidationError("baseline must be finite and > 0")
        for name in ("stretch_gain_x", "stretch_gain_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.force_scale <= 0:
            raise ValidationError("force_scale must be > 0")
        if self.force_sat <= 0:
            raise ValidationError("force_sat must be > 0")
        if not 0.0 < self.neighbor_decay < 1.0:
            raise ValidationError("neighbor_decay must be in (0, 1)")
        if self.neighbor_reach < 0:
            raise ValidationError("neighbor_reach must be >= 0")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
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


def _axis_deltas(
    model: SkinModel, bumps: list[tuple[int, float, int]]
) -> np.ndarray:
    """Summed contact increments along one 10-terminal axis.

    Each bump is (center terminal, force, crossing coordinate); the crossing
    coordinate scales the whole bump by the anchored-edge taper.
    """
    delta = np.zeros(10)
    idx = np.arange(1, 11)
    for center, force, cross in bumps:
        amp = model.force_scale * (1.0 - math.exp(-force / model.force_sat))
        amp *= 1.0 - model.edge_taper * (cross - 1) / 9.0
        dist = np.abs(idx - center)
        mask = dist <= model.neighbor_reach
        delta[mask] += amp * model.neighbor_decay ** dist[mask]
    return delta


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
    nodes = [c.node for c in contacts]
    if len(nodes) == 2 and nodes[0] == nodes[1]:
        raise ValidationError("contact nodes must be distinct")

    rest = model.baseline
    cx = np.full(10, rest + model.stretch_gain_x * (stretch - 1.0))
    cy = np.full(10, rest + model.stretch_gain_y * (stretch - 1.0))
    cx += _axis_deltas(model, [(c.node.x, c.force, c.node.y) for c in contacts])
    cy += _axis_deltas(model, [(c.node.y, c.force, c.node.x) for c in contacts])

    if model.noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        noise = rng.normal(0.0, model.noise_sigma, 20)
        cx = cx + noise[:10]
        cy = cy + noise[10:]
    return CapacitanceFrame(cx=tuple(cx), cy=tuple(cy))


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
        if not self.stretches:
            raise ProtocolError("protocol needs at least one stretch level")
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
        for a in self.node_axes:
            if not 1 <= a <= 10:
                raise ProtocolError(f"node axis value {a} outside 1..10")
        if len(self.nodes()) < 2:
            raise ProtocolError("two-force protocol needs at least 2 grid nodes")

    def nodes(self) -> tuple[NodeCoord, ...]:
        grid = sorted(
            (NodeCoord(x, y) for x in set(self.node_axes) for y in set(self.node_axes)),
            key=lambda n: n.node_id,
        )
        return tuple(grid)

    def nonzero_forces(self) -> tuple[float, ...]:
        return tuple(f for f in self.forces if f > 0)

    @property
    def sample_count(self) -> int:
        n = len(self.nodes())
        return (n * (n - 1) // 2) * len(self.nonzero_forces()) ** 2 * self.reps


def generate_single_force_dataset(
    model: SkinModel, protocol: SingleForceProtocol
) -> Dataset:
    """Deterministic sweep in stretch-major, then node, force, rep order."""
    frames, labels = [], []
    k = 0
    for stretch in protocol.stretches:
        for nid in range(101):
            node = NodeCoord.from_node_id(nid)
            for force in protocol.forces:
                for _ in range(protocol.reps_per_cell):
                    contact = node.is_contact and force > 0
                    contacts = [Contact(node, force)] if contact else []
                    frame = simulate_frame(
                        model, stretch, contacts, derive_seed(protocol.seed, k)
                    )
                    frames.append(frame.cx + frame.cy)
                    if contact:
                        labels.append((force, node.x, node.y, stretch))
                    else:
                        labels.append((0.0, 0, 0, stretch))
                    k += 1
    return Dataset(x=frames, labels=labels, meta=_meta(model, protocol, "single"))


def generate_two_force_dataset(model: SkinModel, protocol: TwoForceProtocol) -> Dataset:
    """All node pairs x nonzero force pairs x reps, at lambda = 1."""
    nodes = protocol.nodes()
    forces = protocol.nonzero_forces()
    frames, labels = [], []
    k = 0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            n1, n2 = nodes[i], nodes[j]
            for f1 in forces:
                for f2 in forces:
                    for _ in range(protocol.reps):
                        frame = simulate_frame(
                            model,
                            1.0,
                            [Contact(n1, f1), Contact(n2, f2)],
                            derive_seed(protocol.seed, k),
                        )
                        frames.append(frame.cx + frame.cy)
                        labels.append((f1, n1.x, n1.y, f2, n2.x, n2.y))
                        k += 1
    return Dataset(x=frames, labels=labels, meta=_meta(model, protocol, "two"))


def _meta(model: SkinModel, protocol, schema: str) -> DatasetMeta:
    return DatasetMeta(
        seed=protocol.seed,
        schema=schema,
        generator_config_digest=config_digest(
            {"model": to_dict(model), "protocol": to_dict(protocol)}
        ),
    )
