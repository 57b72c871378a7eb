"""The JSON writer: numpy scalars in, strict JSON out, nothing partial."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenflow.jsonio import write_json

INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]
FLOAT_TYPES = [np.float16, np.float32, np.float64]

numpy_scalars = st.one_of(
    st.booleans().map(np.bool_),
    st.sampled_from(INT_TYPES).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)),
    st.sampled_from(FLOAT_TYPES).flatmap(
        lambda t: st.floats(width=np.finfo(t).bits).map(t)),
)

payloads = st.recursive(
    numpy_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


def _expected(obj):
    """The Python value a payload should read back as."""
    if isinstance(obj, dict):
        return {k: _expected(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_expected(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    value = float(obj)
    return value if math.isfinite(value) else None


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_numpy_payloads_round_trip(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        write_json(path, {"payload": payload})
        loaded = json.loads(path.read_text(), parse_constant=_reject)
    expected = {"payload": _expected(payload)}
    assert loaded == expected
    # bools stay bools, not the integers that compare equal to them
    assert json.dumps(loaded, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_unserializable_payload_leaves_no_file(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(TypeError):
        write_json(path, {"a": 1.0, "z": object()})
    assert not path.exists()
