"""Domain types, node numbering, and the CSV interchange format."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eskin import (
    PROTOCOL_FORCES,
    PROTOCOL_STRETCHES,
    CapacitanceFrame,
    Dataset,
    DatasetMeta,
    NodeCoord,
    NODE_ZERO,
    ParseError,
    SchemaError,
    SingleContactSample,
    TwoContactSample,
    ValidationError,
    load_dataset,
    node_id,
    read_dataset,
    read_frames,
    save_dataset,
    write_dataset,
    write_frames,
)
from eskin.core import (
    FRAME_HEADER,
    SINGLE_HEADER,
    TWO_HEADER,
    atomic_write_text,
    config_digest,
    force_from_mass_kg,
    meta_path_for,
)


def frame_const(value=1.0):
    return CapacitanceFrame(cx=(value,) * 10, cy=(value,) * 10)


class TestNodeCoord:
    def test_node_id_row_major(self):
        assert NodeCoord(1, 1).node_id == 1
        assert NodeCoord(10, 1).node_id == 10
        assert NodeCoord(1, 2).node_id == 11
        assert NodeCoord(5, 5).node_id == 45
        assert NodeCoord(10, 10).node_id == 100
        assert NODE_ZERO.node_id == 0

    def test_round_trip_all_ids(self):
        for nid in range(101):
            assert NodeCoord.from_node_id(nid).node_id == nid

    def test_free_function_alias(self):
        assert node_id(NodeCoord(3, 7)) == 63

    @pytest.mark.parametrize("x,y", [(0, 5), (5, 0), (11, 1), (1, 11), (-1, 3)])
    def test_invalid_coordinates(self, x, y):
        with pytest.raises(ValidationError):
            NodeCoord(x, y)

    def test_from_node_id_out_of_range(self):
        with pytest.raises(ValidationError):
            NodeCoord.from_node_id(101)
        with pytest.raises(ValidationError):
            NodeCoord.from_node_id(-1)

    def test_is_contact(self):
        assert not NODE_ZERO.is_contact
        assert NodeCoord(1, 1).is_contact


def test_protocol_constants():
    assert PROTOCOL_STRETCHES == (1.0, 1.07921, 1.15842)
    assert PROTOCOL_FORCES == (0.0, 1.2936, 3.2536, 5.2136)
    # 132 g indenter plus 200 g steps at g = 9.8
    for i, f in enumerate(PROTOCOL_FORCES[1:]):
        assert force_from_mass_kg(0.132 + 0.2 * i) == pytest.approx(f, abs=1e-12)


class TestCapacitanceFrame:
    def test_vector_round_trip(self):
        vec = [1.0 + 0.01 * i for i in range(20)]
        f = CapacitanceFrame.from_vector(vec)
        assert np.allclose(f.as_vector(), vec)
        assert f.cx == tuple(vec[:10])
        assert f.cy == tuple(vec[10:])

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            CapacitanceFrame.from_vector([1.0] * 19)
        with pytest.raises(ValidationError):
            CapacitanceFrame(cx=(1.0,) * 9, cy=(1.0,) * 10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_or_nonfinite(self, bad):
        vec = [1.0] * 20
        vec[3] = bad
        with pytest.raises(ValidationError):
            CapacitanceFrame.from_vector(vec)


class TestSampleInvariants:
    def test_zero_force_requires_node_zero(self):
        with pytest.raises(ValidationError):
            SingleContactSample(
                frame=frame_const(), force=0.0, node=NodeCoord(1, 1), stretch=1.0
            )

    def test_positive_force_requires_contact_node(self):
        with pytest.raises(ValidationError):
            SingleContactSample(
                frame=frame_const(), force=1.0, node=NODE_ZERO, stretch=1.0
            )

    def test_valid_rest_sample(self):
        s = SingleContactSample(
            frame=frame_const(), force=0.0, node=NODE_ZERO, stretch=1.07921
        )
        assert len(s.row()) == 24

    def test_two_contact_nodes_distinct(self):
        with pytest.raises(ValidationError):
            TwoContactSample(
                frame=frame_const(),
                force1=1.0,
                node1=NodeCoord(2, 3),
                force2=2.0,
                node2=NodeCoord(2, 3),
            )

    def test_two_contact_row_width(self):
        s = TwoContactSample(
            frame=frame_const(),
            force1=1.0,
            node1=NodeCoord(1, 1),
            force2=2.0,
            node2=NodeCoord(6, 6),
        )
        assert len(s.row()) == 26

    def test_negative_force_rejected(self):
        with pytest.raises(ValidationError):
            SingleContactSample(
                frame=frame_const(), force=-0.5, node=NodeCoord(1, 1), stretch=1.0
            )

    def test_stretch_below_one_rejected(self):
        with pytest.raises(ValidationError):
            SingleContactSample(
                frame=frame_const(), force=0.0, node=NODE_ZERO, stretch=0.99
            )


class TestDataset:
    def test_mixed_schemas_rejected(self):
        single = SingleContactSample(
            frame=frame_const(), force=0.0, node=NODE_ZERO, stretch=1.0
        )
        two = TwoContactSample(
            frame=frame_const(),
            force1=1.0,
            node1=NodeCoord(1, 1),
            force2=1.0,
            node2=NodeCoord(2, 2),
        )
        with pytest.raises(SchemaError):
            Dataset(samples=(single, two))

    def test_meta_schema_must_match(self):
        single = SingleContactSample(
            frame=frame_const(), force=0.0, node=NODE_ZERO, stretch=1.0
        )
        meta = DatasetMeta(seed=0, schema="two", generator_config_digest="x")
        with pytest.raises(SchemaError):
            Dataset(samples=(single,), meta=meta)

    def test_empty_dataset_takes_meta_schema(self):
        meta = DatasetMeta(seed=0, schema="two", generator_config_digest="x")
        assert Dataset(samples=(), meta=meta).schema == "two"

    def test_features_shape(self, small_single_ds):
        x = small_single_ds.features()
        assert x.shape == (len(small_single_ds), 20)


class TestCsvRoundTrip:
    def test_single_round_trip(self, small_single_ds):
        buf = io.StringIO()
        write_dataset(small_single_ds, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(SINGLE_HEADER)
        back = read_dataset(io.StringIO(text))
        assert back.approx_equal(small_single_ds, tol=1e-9)

    def test_two_round_trip(self, small_two_ds):
        buf = io.StringIO()
        write_dataset(small_two_ds, buf)
        back = read_dataset(io.StringIO(buf.getvalue()))
        assert back.schema == "two"
        assert back.approx_equal(small_two_ds, tol=1e-9)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            read_dataset(io.StringIO("a,b,c\n1,2,3\n"))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            read_dataset(io.StringIO(""))

    def test_wrong_column_count_reports_line(self):
        text = ",".join(SINGLE_HEADER) + "\n1,2,3\n"
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(io.StringIO(text))

    def test_non_numeric_field_reports_line(self):
        row = ",".join(["1.0"] * 23 + ["oops"])
        text = ",".join(SINGLE_HEADER) + "\n" + row + "\n"
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(io.StringIO(text))

    def test_invariant_violation_reports_line(self):
        # force 5 at node 0 breaks the force<=>node invariant
        row = ",".join(["1.0"] * 20 + ["5.0", "0", "0", "1.0"])
        text = ",".join(SINGLE_HEADER) + "\n" + row + "\n"
        with pytest.raises(ValidationError, match="line 2"):
            read_dataset(io.StringIO(text))

    def test_fractional_coordinate_rejected(self):
        row = ",".join(["1.0"] * 20 + ["5.0", "1.5", "2", "1.0"])
        text = ",".join(SINGLE_HEADER) + "\n" + row + "\n"
        with pytest.raises(ValidationError):
            read_dataset(io.StringIO(text))

    def test_blank_lines_skipped(self):
        s = SingleContactSample(
            frame=frame_const(), force=0.0, node=NODE_ZERO, stretch=1.0
        )
        buf = io.StringIO()
        write_dataset(Dataset(samples=(s,)), buf)
        text = buf.getvalue() + "\n\n"
        assert len(read_dataset(io.StringIO(text))) == 1


class TestFrameFiles:
    def test_round_trip(self):
        frames = (frame_const(1.0), frame_const(1.25))
        buf = io.StringIO()
        write_frames(frames, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(FRAME_HEADER)
        back = read_frames(io.StringIO(text))
        assert back == frames

    def test_header_only(self):
        buf = io.StringIO()
        write_frames((), buf)
        assert read_frames(io.StringIO(buf.getvalue())) == ()

    def test_labelled_header_rejected(self):
        with pytest.raises(ParseError):
            read_frames(io.StringIO(",".join(SINGLE_HEADER) + "\n"))

    def test_bad_value_reports_line(self):
        text = ",".join(FRAME_HEADER) + "\n" + ",".join(["1.0"] * 19 + ["-1"]) + "\n"
        with pytest.raises(ValidationError, match="line 2"):
            read_frames(io.StringIO(text))


class TestFileHelpers:
    def test_save_load_with_sidecar(self, tmp_path, small_two_ds):
        path = tmp_path / "ds.csv"
        save_dataset(small_two_ds, path)
        assert meta_path_for(path).exists()
        back = load_dataset(path)
        assert back.meta == small_two_ds.meta
        assert back.approx_equal(small_two_ds)

    def test_load_without_sidecar(self, tmp_path, small_two_ds):
        path = tmp_path / "ds.csv"
        save_dataset(small_two_ds, path)
        meta_path_for(path).unlink()
        assert load_dataset(path).meta is None

    def test_atomic_write_no_leftover_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        atomic_write_text(path, "world\n")
        assert path.read_text() == "world\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_corrupt_sidecar(self, tmp_path, small_two_ds):
        path = tmp_path / "ds.csv"
        save_dataset(small_two_ds, path)
        meta_path_for(path).write_text("{not json")
        with pytest.raises(ParseError):
            load_dataset(path)


class TestConfigDigest:
    def test_stable_and_key_order_free(self):
        a = config_digest({"b": 1, "a": [1, 2]})
        b = config_digest({"a": [1, 2], "b": 1})
        assert a == b
        assert len(a) == 16

    def test_value_sensitivity(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})


@given(
    x=st.integers(min_value=1, max_value=10),
    y=st.integers(min_value=1, max_value=10),
)
def test_node_id_bijection(x, y):
    n = NodeCoord(x, y)
    assert 1 <= n.node_id <= 100
    assert NodeCoord.from_node_id(n.node_id) == n


def test_approx_equal_detects_drift(small_two_ds):
    other = Dataset(samples=small_two_ds.samples[:-1], meta=None)
    assert not small_two_ds.approx_equal(other)
