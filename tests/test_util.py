"""Serialization and reduction helpers."""
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import philox
from wgrkit import cli
from wgrkit.util import (
    _csv_cell,
    dumps_canonical,
    exact_prefix_sums,
    format_real,
    fsum,
    philox_index,
    philox_uniforms,
    sha256_file,
    span_max,
    span_sum,
    span_sums,
    weighted_sum,
    write_csv,
    write_json,
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


def _csv_writer_bytes(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes, reals at 17 significant digits and non-finite
    ones as "inf", "-inf", "nan", every other cell as given."""
    import csv

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g") if math.isfinite(v) else str(float(v))
        return v

    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


# text UTF-8 can encode: a lone surrogate raises UnicodeEncodeError in either writer
_CSV_TEXT = st.text(st.one_of(st.sampled_from(list(' \t,"\r\n\'ab;')),
                              st.characters(codec="utf-8")), max_size=6)
_CSV_CELLS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70), st.booleans(), st.none(), _CSV_TEXT,
    st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_CSV_TEXT, max_size=4), st.lists(st.lists(_CSV_CELLS, max_size=5), max_size=8))
@example(["a"], [[""], [None], [" lead"], ["\ttab"], ["x\r\ny"], ["say \"x\""], [], ["", ""],
                 [None, None], [",", None], ["\r"], ["\n"]])
@example([""], [[math.nan, -0.0, np.float32(0.1), np.int64(-3), True, None]])
def test_write_csv_is_csv_writer_byte_for_byte(header, rows):
    """Formatted in memory, the file holds what ``csv.writer`` writes cell by cell: a
    cell holding a comma, quote, CR or LF quoted with inner quotes doubled, a record
    whose one cell is empty written ``""``, leading spaces or tabs left as they are;
    it returns the bytes it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        written = write_csv(path, header, rows)
        data = path.read_bytes()
    assert data == written == _csv_writer_bytes(header, rows)


def test_write_json_returns_the_bytes_it_wrote(tmp_path):
    obj = {"b": [1, 2.5, None, True], "a": {"z": 0.1, "y": "s\u00e9"}}
    written = write_json(tmp_path / "t.json", obj)
    assert (tmp_path / "t.json").read_bytes() == written == (dumps_canonical(obj) + "\n").encode()


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


def _span_sums_match_fsum(values):
    """Every span of the exact prefix table has fsum's bits, or its OverflowError."""
    prefix, scale = exact_prefix_sums(values)
    for a in range(len(values) + 1):
        for b in range(a, len(values) + 1):
            try:
                expected = math.fsum(values[a:b]).hex()
            except OverflowError:
                expected = "OverflowError"
            try:
                got = ((prefix[b] - prefix[a]) / scale).hex()
            except OverflowError:
                got = "OverflowError"
            assert got == expected, (values[a:b], got, expected)


_MAX = 1.7976931348623157e308
_HALF_ULP_OF_MAX = 2.0**970

#: Pinned sums: zeros of both signs, subnormals and their carry into the
#: normal range, exact half-ulp ties that round down and up to even, and
#: sums at the largest double: below, at and past its rounding threshold.
_PINNED_SUMS = {
    "zeros": [0.0, -0.0, -0.0, 0.0],
    "subnormals": [5e-324, 5e-324, 2.0**-1073, 2.2250738585072009e-308, 5e-324],
    "tie-to-even-down": [1.0, 2.0**-53, 0.0],
    "tie-to-even-up": [1.0 + 2.0**-52, 2.0**-53],
    "tie-split-over-terms": [1.0, 2.0**-54, 2.0**-54, 2.0**-80],
    "below-the-largest-double": [_MAX, 2.0**969, 2.0**968],
    "the-largest-double-tie": [_MAX, _HALF_ULP_OF_MAX],
    "past-the-largest-double": [_MAX, _MAX, 1.0],
    "mixed-signs": [1e16, 1.0, -1e16, 3.0, -2.0**-60],
}


@pytest.mark.parametrize("values", list(_PINNED_SUMS.values()), ids=list(_PINNED_SUMS))
def test_exact_prefix_sums_equal_fsum_on_pinned_sums(values):
    _span_sums_match_fsum(values)


def test_exact_prefix_sums_of_nothing_and_of_zeros():
    assert exact_prefix_sums([]) == ([0], 1)
    prefix, scale = exact_prefix_sums([0.0, -0.0])
    assert prefix == [0, 0, 0] and (prefix[2] - prefix[0]) / scale == 0.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0**-53, _HALF_ULP_OF_MAX, _MAX]),
), max_size=10))
def test_exact_prefix_sums_equal_fsum_on_nonnegative_values(values):
    _span_sums_match_fsum(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=10))
def test_exact_prefix_sums_equal_fsum_on_mixed_signs_short_of_overflow(values):
    # fsum also raises when partial sums of mixed signs overflow; these cannot
    _span_sums_match_fsum(values)


@pytest.mark.parametrize("name", ["subnormals", "past-the-largest-double"])
def test_span_sums_are_span_sum_of_each_span(name):
    """The batch has each span's bits, or the OverflowError of its first span past the
    largest double, fsum's own."""
    values = _PINNED_SUMS[name]
    terms = np.array(values)
    prefix, scale = exact_prefix_sums(terms)
    spans = [(a, b) for a in range(len(values) + 1) for b in range(a, len(values) + 1)]
    lo, hi = (list(e) for e in zip(*spans))
    try:
        expected = [span_sum(prefix, scale, terms, a, b).hex() for a, b in spans]
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=f"^{exc}$"):
            span_sums(prefix, scale, terms, lo, hi)
    else:
        assert [x.hex() for x in span_sums(prefix, scale, terms, lo, hi)] == expected


@st.composite
def _spans(draw):
    """(lo, hi, values, n): spans of ``range(n)``, empty, single, whole and repeated
    ones among them, with values from 0.0 and a subnormal to 1e308 and inf."""
    n = draw(st.integers(1, 70))
    span = st.integers(0, n).flatmap(lambda a: st.tuples(st.just(a), st.integers(a, n)))
    special = st.sampled_from([(0, 0), (n, n), (0, 1), (n - 1, n), (0, n)])
    spans = draw(st.lists(st.one_of(span, special), max_size=40))
    spans += draw(st.lists(st.sampled_from(spans), max_size=5)) if spans else []
    value = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1e308, math.inf]),
                      st.floats(min_value=0.0, allow_nan=False))
    values = draw(st.lists(value, min_size=len(spans), max_size=len(spans)))
    lo, hi = (list(e) for e in zip(*spans)) if spans else ([], [])
    return lo, hi, values, n


@settings(max_examples=300, deadline=None)
@given(_spans())
def test_span_max_is_the_max_at_over_each_spans_ids(case):
    lo, hi, values, n = case
    expected = np.zeros(n)
    for a, b, v in zip(lo, hi, values):
        np.maximum.at(expected, np.arange(a, b), v)
    got = span_max(np.array(lo, dtype=int), np.array(hi, dtype=int), values, n)
    assert got.shape == (n,) and got.tobytes() == expected.tobytes()


def test_span_max_pinned_cases():
    assert span_max([], [], [], 1).tolist() == [0.0]
    assert span_max([0], [1], [5e-324], 1).tolist() == [5e-324]
    assert span_max([0, 2, 1, 1], [5, 2, 3, 3], [1.0, 9.0, 2.0, math.inf], 5).tolist() == [
        1.0, math.inf, math.inf, 1.0, 1.0]


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
