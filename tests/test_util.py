"""Serialization and reduction helpers."""
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import philox
from wgrkit import cli
from wgrkit.util import (
    _csv_cell,
    dumps_canonical,
    format_real,
    fsum,
    philox_index,
    philox_uniforms,
    sha256_file,
    weighted_sum,
    write_csv,
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


def _write_csv_cell_by_cell(path, header, rows):
    """``write_csv`` with every cell through ``_csv_cell`` and one ``writerow`` per row."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


_CSV_ROWS = [
    (3, 0.1, np.float64(0.1), "a,b"),
    (-7, -0.0, np.float64(-2.5e-300), 'say "x"'),
    (np.int64(12), 1e300, np.float32(0.1), ""),
    (True, 5e-324, math.inf, None),
    (0, 123456789.123, -math.inf, "z"),
    (1, 2.0 / 3.0, math.nan, np.float64(math.inf)),
]

_CSV_GOLDEN = (
    b"i,x,y,s\r\n"
    b"3,0.10000000000000001,0.10000000000000001,\"a,b\"\r\n"
    b"-7,-0,-2.5e-300,\"say \"\"x\"\"\"\r\n"
    b"12,1.0000000000000001e+300,0.10000000149011612,\r\n"
    b"True,4.9406564584124654e-324,inf,\r\n"
    b"0,123456789.123,-inf,z\r\n"
    b"1,0.66666666666666663,nan,inf\r\n"
)


def test_write_csv_bytes_match_the_cell_by_cell_writer(tmp_path):
    write_csv(tmp_path / "fast.csv", ["i", "x", "y", "s"], _CSV_ROWS)
    _write_csv_cell_by_cell(tmp_path / "slow.csv", ["i", "x", "y", "s"], _CSV_ROWS)
    assert (tmp_path / "fast.csv").read_bytes() == _CSV_GOLDEN
    assert (tmp_path / "slow.csv").read_bytes() == _CSV_GOLDEN


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
    data = philox_uniforms(0, 1000) * 1e6
    assert fsum(data) == math.fsum(data.tolist())
    assert weighted_sum(data, np.ones(1000)) == math.fsum(data.tolist())


def test_philox_stream_reproducible():
    a = philox_uniforms(123, 16)
    b = philox_uniforms(123, 16)
    assert a.tobytes() == b.tobytes()


#: Philox keys across [0, 2**128), with the word boundaries drawn often
KEYS = st.one_of(
    st.integers(0, 2**128 - 1),
    st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128 - 1]),
)


@settings(max_examples=150, deadline=None)
@given(KEYS, st.integers(0, 1030))
@example(2**64 + 1, 1029)
@example(2**128 - 1, 1030)
@example(2**64 - 1, 3)
def test_philox_uniforms_match_numpy_bit_for_bit(seed, n):
    ours = philox_uniforms(seed, n)
    assert ours.dtype == np.float64 and ours.shape == (n,)
    assert ours.tobytes() == philox(seed).random(n).tobytes()


@settings(max_examples=150, deadline=None)
@given(KEYS, st.sampled_from([1, 2, 7, 2**31 + 11, 3 * 2**30, 2**32 - 1, 2**32]))
@example(339, 2**31 + 11)  # rejects 11 halves: more than the first batch of words holds
def test_philox_index_matches_numpy(seed, n):
    assert philox_index(seed, n) == philox(seed).integers(0, n)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_philox_rejects_the_keys_numpy_rejects(seed):
    with pytest.raises(ValueError):
        philox(seed)
    with pytest.raises(ValueError, match="Philox key"):
        philox_uniforms(seed, 4)
    with pytest.raises(ValueError, match="Philox key"):
        philox_index(seed, 4)


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_philox_index_takes_n_from_one_to_two_to_the_32(n):
    with pytest.raises(ValueError):
        philox_index(0, n)


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537])
def test_sha256_file_matches_hashlib(tmp_path, size):
    """Sizes straddle the 64 KiB read chunk."""
    data = bytes(i * 7 % 251 for i in range(size))
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_config_digest_matches_hashlib():
    cfg = {"seed": 3, "sigma": 1.5, "name": "smoke", "checks": [{"name": "gr", "params": {"p": 2.0}}]}
    text = '{"checks": [{"name": "gr", "params": {"p": 2}}], "name": "smoke", "seed": 3, "sigma": 1.5}'
    assert dumps_canonical(cfg) == text
    assert cli._config_digest(cfg) == hashlib.sha256(text.encode()).hexdigest()
