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
    ValidationError,
    load_dataset,
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


def one_row(labels, meta=None):
    """A one-sample dataset with a constant frame and the given labels."""
    return Dataset(x=np.ones((1, 20)), labels=[labels], meta=meta)


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
        with pytest.raises(ValidationError, match="node-0 invariant"):
            one_row([0.0, 1, 1, 1.0])

    def test_positive_force_requires_contact_node(self):
        with pytest.raises(ValidationError, match="node-0 invariant"):
            one_row([1.0, 0, 0, 1.0])

    def test_valid_rest_sample(self):
        ds = one_row([0.0, 0, 0, 1.07921])
        assert ds.schema == "single"
        assert ds.labels.shape == (1, 4)

    def test_two_contact_nodes_distinct(self):
        with pytest.raises(ValidationError, match=r"repeats node \(2, 3\)"):
            one_row([1.0, 2, 3, 2.0, 2, 3])

    def test_two_contact_row_width(self):
        ds = one_row([1.0, 1, 1, 2.0, 6, 6])
        assert ds.schema == "two"
        assert ds.labels.shape == (1, 6)

    def test_negative_force_rejected(self):
        with pytest.raises(ValidationError, match="force -0.5 must be finite"):
            one_row([-0.5, 1, 1, 1.0])

    def test_stretch_below_one_rejected(self):
        with pytest.raises(ValidationError, match="stretch ratio 0.99"):
            one_row([0.0, 0, 0, 0.99])

    @pytest.mark.parametrize(
        "x,y", [(0, 5), (11, 1), (-1, 3), (1.5, 2), (math.nan, 1), (1, math.inf)]
    )
    def test_off_grid_node_rejected(self, x, y):
        with pytest.raises(ValidationError, match=r"^row 0: node \(.*\) invalid"):
            one_row([1.0, x, y, 1.0])
        with pytest.raises(ValidationError, match=r"^row 0: node \(.*\) invalid"):
            one_row([1.0, 1, 1, 1.0, x, y])

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_bad_capacitance_rejected(self, bad):
        with pytest.raises(ValidationError, match="in cy must be finite"):
            Dataset(x=[[1.0] * 12 + [bad] * 8], labels=[[0.0, 0, 0, 1.0]])

    def test_first_offending_row_is_named(self):
        labels = [[0.0, 0, 0, 1.0]] * 3 + [[5.0, 0, 0, 1.0], [-1.0, 1, 1, 1.0]]
        with pytest.raises(ValidationError, match="^row 3: "):
            Dataset(x=np.ones((5, 20)), labels=labels)


class TestDataset:
    def test_label_width_must_name_a_schema(self):
        with pytest.raises(SchemaError):
            Dataset(x=np.ones((1, 20)), labels=np.zeros((1, 5)))
        with pytest.raises(SchemaError):
            Dataset(x=np.ones((2, 20)), labels=np.zeros((1, 4)))
        with pytest.raises(SchemaError):
            Dataset(x=np.ones((1, 19)), labels=np.zeros((1, 4)))

    def test_meta_schema_must_match(self):
        meta = DatasetMeta(seed=0, schema="two", generator_config_digest="x")
        with pytest.raises(SchemaError):
            one_row([0.0, 0, 0, 1.0], meta=meta)

    def test_empty_dataset_schema_follows_label_width(self):
        meta = DatasetMeta(seed=0, schema="two", generator_config_digest="x")
        empty = Dataset(x=np.empty((0, 20)), labels=np.empty((0, 6)), meta=meta)
        assert empty.schema == "two" and len(empty) == 0
        with pytest.raises(SchemaError):
            Dataset(x=np.empty((0, 20)), labels=np.empty((0, 4)), meta=meta)

    def test_features_shape(self, small_single_ds):
        x = small_single_ds.features()
        assert x.shape == (len(small_single_ds), 20)
        assert x.dtype == np.float64 and x.flags["C_CONTIGUOUS"]

    def test_arrays_are_private_read_only_copies(self):
        x, labels = np.ones((1, 20)), np.array([[0.0, 0, 0, 1.0]])
        ds = Dataset(x=x, labels=labels)
        x[0, 0] = -1.0
        assert ds.x[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.x[0, 0] = 2.0
        with pytest.raises(ValueError):
            ds.labels[0, 3] = 2.0

    def test_label_by_header_name(self, small_two_ds):
        assert np.array_equal(small_two_ds.label("y2"), small_two_ds.labels[:, 5])
        with pytest.raises(SchemaError):
            small_two_ds.label("lambda")

    def test_take_slices_both_arrays(self, small_two_ds):
        rows = np.array([5, 0, 7])
        part = small_two_ds.take(rows)
        assert np.array_equal(part.x, small_two_ds.x[rows])
        assert np.array_equal(part.labels, small_two_ds.labels[rows])
        assert part.meta == small_two_ds.meta


def assert_rows_close(a, b):
    """Frames and labels equal within the CSV round-trip tolerance."""
    for name in ("x", "labels"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-9)


class TestCsvRoundTrip:
    def test_single_round_trip(self, small_single_ds):
        buf = io.StringIO()
        write_dataset(small_single_ds, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(SINGLE_HEADER)
        back = read_dataset(io.StringIO(text))
        assert_rows_close(back, small_single_ds)

    def test_two_round_trip(self, small_two_ds):
        buf = io.StringIO()
        write_dataset(small_two_ds, buf)
        back = read_dataset(io.StringIO(buf.getvalue()))
        assert back.schema == "two"
        assert_rows_close(back, small_two_ds)

    @pytest.mark.parametrize("fixture", ["small_single_ds", "small_two_ds"])
    def test_generated_text_round_trips_byte_for_byte(self, fixture, request):
        buf = io.StringIO()
        write_dataset(request.getfixturevalue(fixture), buf)
        text = buf.getvalue()
        again = io.StringIO()
        write_dataset(read_dataset(io.StringIO(text)), again)
        assert again.getvalue() == text

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
        buf = io.StringIO()
        write_dataset(one_row([0.0, 0, 0, 1.0]), buf)
        text = buf.getvalue() + "\n\n"
        assert len(read_dataset(io.StringIO(text))) == 1

    @pytest.mark.parametrize(
        "header,good,bad",
        [
            (SINGLE_HEADER, ["0.0", "0", "0", "1.0"], ["0.0", "0", "0", "0.5"]),
            (TWO_HEADER, ["1", "1", "1", "1", "6", "6"], ["1", "1", "1"] * 2),
        ],
    )
    def test_bad_row_after_blank_line_reports_its_line(self, header, good, bad):
        frame = ["1.0"] * 20
        text = "\n".join(
            [",".join(header), ",".join(frame + good), "", "",
             ",".join(frame + good), ",".join(frame + bad)]
        ) + "\n"
        with pytest.raises(ValidationError, match="^line 6: "):
            read_dataset(io.StringIO(text))


class TestFrameFiles:
    def test_round_trip(self):
        frames = np.array([[1.0] * 20, [1.25] * 20])
        buf = io.StringIO()
        write_frames(frames, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(FRAME_HEADER)
        back = read_frames(io.StringIO(text))
        assert back.shape == (2, 20)
        assert np.array_equal(back, frames)

    def test_header_only(self):
        buf = io.StringIO()
        write_frames(np.empty((0, 20)), buf)
        assert read_frames(io.StringIO(buf.getvalue())).shape == (0, 20)

    def test_labelled_header_rejected(self):
        with pytest.raises(ParseError):
            read_frames(io.StringIO(",".join(SINGLE_HEADER) + "\n"))

    def test_bad_value_reports_line(self):
        bad = ",".join(["1.0"] * 19 + ["-1"])
        text = ",".join(FRAME_HEADER) + "\n\n" + bad + "\n"
        with pytest.raises(ValidationError, match="line 3"):
            read_frames(io.StringIO(text))


class TestFileHelpers:
    def test_save_load_with_sidecar(self, tmp_path, small_two_ds):
        path = tmp_path / "ds.csv"
        save_dataset(small_two_ds, path)
        assert meta_path_for(path).exists()
        back = load_dataset(path)
        assert back.meta == small_two_ds.meta
        assert_rows_close(back, small_two_ds)

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

