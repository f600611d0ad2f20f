"""Array payloads of serialised records, decoded and encoded by hand so a
test can edit the array a payload holds: ``{"data", "dtype", "shape"}``,
the base64 of the little-endian bytes in C order."""

import base64

import numpy as np

DTYPES = {"bool": "?", "int32": "<i4", "float64": "<f8"}


def array_of(payload: dict) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, DTYPES[payload["dtype"]]).reshape(payload["shape"]).copy()


def payload_of(arr, dtype: str) -> dict:
    arr = np.asarray(arr, DTYPES[dtype])
    return {
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        "dtype": dtype,
        "shape": list(arr.shape),
    }


def edit_array(record: dict, key: str, edit) -> None:
    """Replace ``record[key]`` by the payload of ``edit(array)``, or of the
    array itself when ``edit`` changes it in place and returns None."""
    arr = array_of(record[key])
    out = edit(arr)
    record[key] = payload_of(arr if out is None else out, record[key]["dtype"])
