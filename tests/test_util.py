"""Serialization and reduction helpers."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgrkit.util import (
    dumps_canonical,
    format_real,
    fsum,
    philox_generator,
    weighted_sum,
)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_real_round_trips(x):
    assert float(format_real(x)) == x


def test_format_real_rejects_non_finite():
    with pytest.raises(ValueError):
        format_real(math.nan)
    with pytest.raises(ValueError):
        format_real(math.inf)


def test_dumps_canonical_sorted_and_parseable():
    obj = {"b": [1, 2.5, None, True], "a": {"z": 0.1, "y": "s"}}
    text = dumps_canonical(obj)
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": [1, 2.5, None, True], "a": {"z": 0.1, "y": "s"}}


def test_dumps_canonical_numpy_scalars():
    text = dumps_canonical({"v": np.float64(0.25), "n": np.int64(3), "arr": np.arange(3)})
    assert json.loads(text) == {"v": 0.25, "n": 3, "arr": [0, 1, 2]}


def test_dumps_canonical_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_canonical({"x": object()})


def test_fsum_matches_math_fsum():
    gen = philox_generator(0)
    data = gen.random(1000) * 1e6
    assert fsum(data) == math.fsum(data.tolist())
    assert weighted_sum(data, np.ones(1000)) == math.fsum(data.tolist())


def test_philox_stream_reproducible():
    a = philox_generator(123).random(16)
    b = philox_generator(123).random(16)
    assert a.tobytes() == b.tobytes()
