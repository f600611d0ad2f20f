"""Forward model examples, randomized physics properties, and the protocol
generators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eskin import (
    Contact,
    NodeCoord,
    ProtocolError,
    SingleForceProtocol,
    SkinModel,
    TwoForceProtocol,
    ValidationError,
    derive_seed,
    generate_single_force_dataset,
    generate_two_force_dataset,
    simulate_frame,
)
from eskin.codec import from_dict, to_dict

from .oracles import frame_oracle

# the hand-evaluated examples below assume this parameterisation: spec-sheet
# stretch gain, no edge taper, no noise
ORACLE_MODEL = SkinModel(
    stretch_gain_x=0.30, stretch_gain_y=0.30, noise_sigma=0.0, edge_taper=0.0
)


def saturating_amp(force, scale=0.25, sat=2.0):
    return scale * (1.0 - math.exp(-force / sat))


class TestFrameExamples:
    def test_pure_stretch_closed_form(self):
        frame = simulate_frame(ORACLE_MODEL, 1.07921, [], rng_seed=0)
        expect = 1.0 + 0.30 * 0.07921
        assert np.allclose(frame.cx, expect, atol=1e-9)
        assert np.allclose(frame.cy, expect, atol=1e-9)
        assert frame.cx[0] == pytest.approx(1.0237630, abs=1e-7)

    def test_contact_spread_hand_values(self):
        frame = simulate_frame(
            ORACLE_MODEL, 1.0, [Contact(NodeCoord(5, 5), 1.2936)], rng_seed=0
        )
        incr = saturating_amp(1.2936)
        assert incr == pytest.approx(0.25 * (1 - math.exp(-0.6468)), abs=1e-12)
        for axis in (frame.cx, frame.cy):
            assert axis[4] == pytest.approx(1.0 + incr, abs=1e-12)
            assert axis[3] == pytest.approx(1.0 + 0.4 * incr, abs=1e-12)
            assert axis[5] == pytest.approx(1.0 + 0.4 * incr, abs=1e-12)
            assert axis[2] == pytest.approx(1.0 + 0.16 * incr, abs=1e-12)
            assert axis[6] == pytest.approx(1.0 + 0.16 * incr, abs=1e-12)
            for i in (0, 1, 7, 8, 9):
                assert axis[i] == pytest.approx(1.0, abs=1e-12)

    def test_shared_terminal_counted_twice(self):
        force = 3.2536
        contacts = [Contact(NodeCoord(1, 1), force), Contact(NodeCoord(1, 6), force)]
        frame = simulate_frame(ORACLE_MODEL, 1.0, contacts, rng_seed=0)
        single = simulate_frame(
            ORACLE_MODEL, 1.0, [Contact(NodeCoord(1, 1), force)], rng_seed=0
        )
        # both contacts sit on x terminal 1, so its increment doubles
        assert frame.cx[0] - 1.0 == pytest.approx(
            2.0 * (single.cx[0] - 1.0), abs=1e-12
        )
        # the y side keeps two separate bumps
        assert frame.cy[0] == pytest.approx(single.cy[0], abs=1e-12)
        assert frame.cy[5] == pytest.approx(single.cy[0], abs=1e-12)

    def test_edge_taper_scales_crossing_coordinate(self):
        model = SkinModel(noise_sigma=0.0)   # default taper 0.3
        force = 5.2136
        frame = simulate_frame(model, 1.0, [Contact(NodeCoord(5, 5), force)], 0)
        amp = saturating_amp(force)
        factor = 1.0 - 0.3 * (5 - 1) / 9.0
        assert frame.cx[4] == pytest.approx(1.0 + amp * factor, abs=1e-12)
        assert frame.cy[4] == pytest.approx(1.0 + amp * factor, abs=1e-12)
        # a contact on the near edge keeps the full x amplitude
        near = simulate_frame(model, 1.0, [Contact(NodeCoord(5, 1), force)], 0)
        assert near.cx[4] == pytest.approx(1.0 + amp, abs=1e-12)
        assert near.cy[0] == pytest.approx(1.0 + amp * factor, abs=1e-12)


class TestFrameValidation:
    def test_three_contacts_rejected(self):
        contacts = [Contact(NodeCoord(i, i), 1.0) for i in (1, 2, 3)]
        with pytest.raises(ValidationError):
            simulate_frame(ORACLE_MODEL, 1.0, contacts, 0)

    def test_duplicate_contact_nodes_rejected(self):
        contacts = [Contact(NodeCoord(4, 4), 1.0), Contact(NodeCoord(4, 4), 2.0)]
        with pytest.raises(ValidationError):
            simulate_frame(ORACLE_MODEL, 1.0, contacts, 0)

    def test_contact_at_node_zero_rejected(self):
        with pytest.raises(ValidationError):
            Contact(NodeCoord(0, 0), 1.0)

    def test_negative_force_rejected(self):
        with pytest.raises(ValidationError):
            Contact(NodeCoord(1, 1), -1.0)

    def test_stretch_below_rest_rejected(self):
        with pytest.raises(ValidationError):
            simulate_frame(ORACLE_MODEL, 0.9, [], 0)


class TestSkinModelValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"baseline": 0.0},
            {"force_scale": -1.0},
            {"force_sat": 0.0},
            {"neighbor_decay": 0.0},
            {"neighbor_decay": 1.0},
            {"neighbor_reach": -1},
            {"noise_sigma": -0.1},
            {"edge_taper": -0.1},
            {"edge_taper": 1.0},
            {"stretch_gain_x": math.inf},
            {"baseline": math.nan},
            {"force_scale": math.nan},
            {"force_scale": math.inf},
            {"force_sat": math.nan},
            {"noise_sigma": math.nan},
            {"noise_sigma": math.inf},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            SkinModel(**kwargs)

    def test_dict_round_trip(self):
        model = SkinModel(force_scale=0.3, edge_taper=0.25, neighbor_reach=3)
        assert from_dict(SkinModel, to_dict(model)) == model


def test_noise_draw_order_is_cx_then_cy():
    model = SkinModel(stretch_gain_x=0.0, stretch_gain_y=0.0)
    frame = simulate_frame(model, 1.0, [], rng_seed=42)
    noise = np.random.default_rng(42).normal(0.0, model.noise_sigma, 20)
    assert np.allclose(frame.cx, 1.0 + noise[:10], atol=0)
    assert np.allclose(frame.cy, 1.0 + noise[10:], atol=0)


def test_different_seeds_differ():
    model = SkinModel()
    a = simulate_frame(model, 1.0, [], rng_seed=1)
    b = simulate_frame(model, 1.0, [], rng_seed=2)
    assert a != b


def test_derive_seed_stable_and_path_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 0) != derive_seed(8, 0)


# --- randomized physics properties (noise 0) -------------------------------

models = st.builds(
    SkinModel,
    baseline=st.floats(0.5, 2.0),
    stretch_gain_x=st.floats(0.0, 5.0),
    stretch_gain_y=st.floats(0.0, 5.0),
    force_scale=st.floats(0.05, 0.5),
    force_sat=st.floats(0.5, 5.0),
    neighbor_decay=st.floats(0.1, 0.9),
    neighbor_reach=st.integers(0, 4),
    noise_sigma=st.just(0.0),
    edge_taper=st.floats(0.0, 0.8),
)
nodes = st.builds(
    NodeCoord, x=st.integers(1, 10), y=st.integers(1, 10)
)
forces = st.floats(0.0, 10.0)
stretches = st.floats(1.0, 1.2)


@given(model=models, stretch=stretches, node=nodes, force=forces)
def test_determinism(model, stretch, node, force):
    args = (model, stretch, [Contact(node, force)], 99)
    assert simulate_frame(*args) == simulate_frame(*args)


@given(model=models, stretch=stretches)
def test_stretch_linearity(model, stretch):
    rest = simulate_frame(model, 1.0, [], 0)
    pulled = simulate_frame(model, stretch, [], 0)
    dx = np.array(pulled.cx) - np.array(rest.cx)
    dy = np.array(pulled.cy) - np.array(rest.cy)
    assert np.allclose(dx, model.stretch_gain_x * (stretch - 1.0), atol=1e-9)
    assert np.allclose(dy, model.stretch_gain_y * (stretch - 1.0), atol=1e-9)


@given(model=models, node=nodes, f1=forces, extra=st.floats(0.1, 5.0))
def test_force_monotonicity(model, node, f1, extra):
    lo = simulate_frame(model, 1.0, [Contact(node, f1)], 0)
    hi = simulate_frame(model, 1.0, [Contact(node, f1 + extra)], 0)
    lo_v, hi_v = lo.as_vector(), hi.as_vector()
    assert np.all(hi_v >= lo_v - 1e-12)
    # the contact's own terminals respond strictly
    assert hi_v[node.x - 1] > lo_v[node.x - 1]
    assert hi_v[10 + node.y - 1] > lo_v[10 + node.y - 1]


@given(model=models, stretch=stretches, node=nodes, force=st.floats(0.1, 10.0))
def test_locality(model, stretch, node, force):
    rest = simulate_frame(model, stretch, [], 0)
    touched = simulate_frame(model, stretch, [Contact(node, force)], 0)
    for i in range(10):
        if abs((i + 1) - node.x) > model.neighbor_reach:
            assert touched.cx[i] == pytest.approx(rest.cx[i], abs=1e-12)
        if abs((i + 1) - node.y) > model.neighbor_reach:
            assert touched.cy[i] == pytest.approx(rest.cy[i], abs=1e-12)


@given(
    model=models,
    stretch=stretches,
    n1=nodes,
    n2=nodes,
    f1=forces,
    f2=forces,
)
def test_superposition(model, stretch, n1, n2, f1, f2):
    if n1 == n2:
        n2 = NodeCoord(n1.x % 10 + 1, n1.y)
    rest = simulate_frame(model, stretch, [], 0).as_vector()
    single1 = simulate_frame(model, stretch, [Contact(n1, f1)], 0).as_vector()
    single2 = simulate_frame(model, stretch, [Contact(n2, f2)], 0).as_vector()
    both = simulate_frame(
        model, stretch, [Contact(n1, f1), Contact(n2, f2)], 0
    ).as_vector()
    assert np.allclose(both, rest + (single1 - rest) + (single2 - rest), atol=1e-9)


# --- protocol generators ---------------------------------------------------


class TestSingleForceProtocol:
    def test_sample_counts(self):
        assert SingleForceProtocol().sample_count == 6060
        assert SingleForceProtocol(reps_per_cell=20).sample_count == 24240
        assert SingleForceProtocol(reps_per_cell=1).sample_count == 1212

    def test_generated_length_matches(self, small_single_ds):
        assert len(small_single_ds) == 1212

    def test_zero_force_rows_are_node_zero(self, small_single_ds):
        force = small_single_ds.label("force_n")
        assert np.array_equal(force == 0.0, small_single_ds.node_ids() == 0)

    def test_every_node_and_level_present(self, small_single_ds):
        ds = small_single_ds
        assert set(ds.node_ids().tolist()) == set(range(101))
        assert set(ds.label("lambda").tolist()) == {1.0, 1.07921, 1.15842}
        assert set(ds.label("force_n").tolist()) == {0.0, 1.2936, 3.2536, 5.2136}

    def test_generation_is_deterministic(self):
        proto = SingleForceProtocol(
            stretches=(1.0,), forces=(0.0, 1.2936), reps_per_cell=1
        )
        a = generate_single_force_dataset(SkinModel(), proto)
        b = generate_single_force_dataset(SkinModel(), proto)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)

    def test_seed_changes_frames(self):
        base = SingleForceProtocol(
            stretches=(1.0,), forces=(0.0, 1.2936), reps_per_cell=1
        )
        a = generate_single_force_dataset(SkinModel(), base)
        b = generate_single_force_dataset(
            SkinModel(), SingleForceProtocol(
                stretches=(1.0,), forces=(0.0, 1.2936), reps_per_cell=1, seed=1
            )
        )
        assert np.array_equal(a.labels, b.labels)
        assert np.any(np.abs(a.x - b.x) > 1e-12)

    def test_meta_digest_tracks_model(self):
        proto = SingleForceProtocol(stretches=(1.0,), forces=(0.0,), reps_per_cell=1)
        a = generate_single_force_dataset(SkinModel(), proto)
        b = generate_single_force_dataset(SkinModel(edge_taper=0.0), proto)
        assert a.meta.generator_config_digest != b.meta.generator_config_digest

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reps_per_cell": 0},
            {"stretches": ()},
            {"forces": (1.2936,)},
            {"stretches": (0.9,)},
            {"stretches": (1.0, math.nan)},
            {"stretches": (math.inf,)},
            {"forces": (0.0, -1.0)},
            {"forces": (0.0, math.nan)},
        ],
    )
    def test_invalid_protocol(self, kwargs):
        with pytest.raises(ProtocolError):
            SingleForceProtocol(**kwargs)


class TestTwoForceProtocol:
    def test_sample_count(self, two_ds):
        assert TwoForceProtocol().sample_count == 648
        assert len(two_ds) == 648

    def test_pairs_sorted_and_forces_positive(self, two_ds):
        assert np.all(two_ds.node_ids("x1", "y1") < two_ds.node_ids("x2", "y2"))
        assert np.all(two_ds.label("f1_n") > 0) and np.all(two_ds.label("f2_n") > 0)

    def test_grid_nodes(self):
        nodes = TwoForceProtocol().nodes()
        assert len(nodes) == 9
        assert [n.node_id for n in nodes] == sorted(n.node_id for n in nodes)
        assert {(n.x, n.y) for n in nodes} == {
            (x, y) for x in (1, 6, 10) for y in (1, 6, 10)
        }

    def test_pair_coverage(self, two_ds):
        pairs = set(zip(two_ds.node_ids("x1", "y1"), two_ds.node_ids("x2", "y2")))
        assert len(pairs) == 36

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reps": 0},
            {"node_axes": (0, 5)},
            {"node_axes": (11,)},
            {"node_axes": (4,)},
            {"forces": (0.0, -1.0)},
            {"forces": (0.0, math.nan)},
            {"forces": (0.0,)},
        ],
    )
    def test_invalid_protocol(self, kwargs):
        with pytest.raises(ProtocolError):
            TwoForceProtocol(**kwargs)

    def test_generation_is_deterministic(self):
        proto = TwoForceProtocol(node_axes=(1, 6), forces=(0.0, 1.2936), reps=1)
        a = generate_two_force_dataset(SkinModel(), proto)
        b = generate_two_force_dataset(SkinModel(), proto)
        assert len(a) == 6
        assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)


# --- bitwise guard: the array generators against the row-by-row oracle ------


def _random_model(rng):
    return SkinModel(
        baseline=float(rng.uniform(0.5, 2.0)),
        stretch_gain_x=float(rng.uniform(0.0, 5.0)),
        stretch_gain_y=float(rng.uniform(0.0, 5.0)),
        force_scale=float(rng.uniform(0.05, 0.5)),
        force_sat=float(rng.uniform(0.5, 5.0)),
        neighbor_decay=float(rng.uniform(0.1, 0.9)),
        neighbor_reach=int(rng.integers(0, 5)),
        noise_sigma=float(rng.choice([0.0, rng.uniform(0.001, 0.01)])),
        edge_taper=float(rng.choice([0.0, rng.uniform(0.0, 0.8)])),
    )


def _random_forces(rng, model, n):
    """Zero, two forces anywhere in 0.1..10 N and n below force_sat * ln 2,
    where exp(-f / force_sat) >= 0.5, so 1 - exp(...) is exact and any
    last-bit change in the exponential reaches the frame."""
    small = rng.uniform(0.05, model.force_sat * math.log(2.0), n)
    return (0.0,) + tuple(float(f) for f in rng.uniform(0.1, 10.0, 2)) + tuple(
        float(f) for f in small
    )


def test_single_generator_matches_oracle_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(16):
        model = _random_model(rng)
        proto = SingleForceProtocol(
            stretches=(1.0, float(rng.uniform(1.0, 1.2))),
            forces=_random_forces(rng, model, 6),
            reps_per_cell=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 2**31)),
        )
        frames, labels = [], []
        for stretch in proto.stretches:
            for nid in range(101):
                x, y = (nid - 1) % 10 + 1, (nid - 1) // 10 + 1
                for force in proto.forces:
                    for _ in range(proto.reps_per_cell):
                        contact = nid > 0 and force > 0
                        seed = derive_seed(proto.seed, len(frames))
                        contacts = [(x, y, force)] if contact else []
                        frames.append(frame_oracle(model, stretch, contacts, seed))
                        labels.append(
                            (force, x, y, stretch) if contact else (0.0, 0, 0, stretch)
                        )
        ds = generate_single_force_dataset(model, proto)
        assert np.array_equal(ds.x, np.array(frames))
        assert np.array_equal(ds.labels, np.array(labels, dtype=float))


def test_two_generator_matches_oracle_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(16):
        model = _random_model(rng)
        axes = rng.choice(np.arange(1, 11), size=int(rng.integers(2, 4)), replace=False)
        proto = TwoForceProtocol(
            node_axes=tuple(int(a) for a in axes),
            forces=_random_forces(rng, model, 4),
            reps=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 2**31)),
        )
        nodes = proto.nodes()
        frames, labels = [], []
        for i, n1 in enumerate(nodes):
            for n2 in nodes[i + 1:]:
                for f1 in proto.nonzero_forces():
                    for f2 in proto.nonzero_forces():
                        for _ in range(proto.reps):
                            seed = derive_seed(proto.seed, len(frames))
                            contacts = [(n1.x, n1.y, f1), (n2.x, n2.y, f2)]
                            frames.append(frame_oracle(model, 1.0, contacts, seed))
                            labels.append((f1, n1.x, n1.y, f2, n2.x, n2.y))
        ds = generate_two_force_dataset(model, proto)
        assert np.array_equal(ds.x, np.array(frames))
        assert np.array_equal(ds.labels, np.array(labels, dtype=float))


def test_simulate_frame_matches_oracle_bitwise():
    rng = np.random.default_rng(10)
    for _ in range(200):
        model = _random_model(rng)
        stretch = float(rng.uniform(1.0, 1.2))
        cells = rng.choice(100, size=int(rng.integers(0, 3)), replace=False)
        contacts = [
            Contact(NodeCoord(int(c) % 10 + 1, int(c) // 10 + 1), float(f))
            for c, f in zip(cells, rng.uniform(0.0, 10.0, len(cells)))
        ]
        seed = int(rng.integers(0, 2**31))
        frame = simulate_frame(model, stretch, contacts, seed).as_vector()
        expect = frame_oracle(
            model, stretch, [(c.node.x, c.node.y, c.force) for c in contacts], seed
        )
        assert np.array_equal(frame, expect)
