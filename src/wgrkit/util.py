"""Shared numeric and I/O helpers.

Summations that feed ratios and report values use ``math.fsum``, which
is correctly rounded: the order of the terms is free, and every result is
reproducible bit for bit. JSON and CSV emitters format reals with 17
significant digits, which round-trips IEEE doubles exactly.

Seeded draws come from numpy's Philox4x64-10 stream, reproduced here
with plain numpy arithmetic (``philox_uniforms``, ``philox_index``) so
that no process imports ``numpy.random``; tests pin both, bit for bit, to
``numpy.random.Generator(numpy.random.Philox(key=seed))``.
"""
from __future__ import annotations

import json
import math
import sys
from itertools import accumulate

import numpy as np


def fsum(values) -> float:
    """Compensated sum of an iterable or array (exact rounding)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)


def ball_sum(terms) -> float:
    """``math.fsum`` of a ball's terms, which are finite unless an elementwise
    product or power overflowed. Given an inf term ``fsum`` returns inf, so
    that sum raises the OverflowError ``fsum`` raises when finite partial sums
    pass the largest double."""
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise OverflowError("intermediate overflow in fsum")
    return total


def weighted_sum(values: np.ndarray, mass: np.ndarray) -> float:
    """Compensated sum of values*mass, elementwise products rounded once."""
    return ball_sum((np.asarray(values, dtype=float) * mass).tolist())


def exact_prefix_sums(values) -> tuple[list[int], int]:
    """Exact prefix sums of finite doubles: ints ``prefix`` and ``scale`` with
    ``sum(values[a:b]) == (prefix[b] - prefix[a]) / scale`` before rounding.
    Int true division rounds that quotient once, half to even, as ``fsum``
    rounds the sum, so the bits are ``fsum``'s; on nonnegative values both
    raise ``OverflowError`` past the largest double. (``fsum`` also raises
    when partial sums of mixed signs overflow.)"""
    mant, expo = np.frexp(np.asarray(values, dtype=float))
    low = min(int(expo.min()) - 53, 0) if expo.size else 0
    shifted = zip((mant * 2.0**53).astype(np.int64).tolist(), (expo - (53 + low)).tolist())
    return list(accumulate((m << s for m, s in shifted), initial=0)), 1 << -low


def span_sum(prefix: list[int], scale: int, terms, a: int, b: int) -> float:
    """``fsum(terms[a:b])`` from the :func:`exact_prefix_sums` of ``terms``, with its bits; past
    the largest double, ``fsum``'s own OverflowError, or inf when ``terms`` is None."""
    try:
        return (prefix[b] - prefix[a]) / scale
    except OverflowError:
        return math.inf if terms is None else math.fsum(terms[a:b].tolist())


def span_sums(prefix: list[int], scale: int, terms, lo: list[int], hi: list[int]) -> list[float]:
    """:func:`span_sum` of each span ``lo[k]..hi[k]-1``, with its bits and its errors."""
    try:
        return [(prefix[b] - prefix[a]) / scale for a, b in zip(lo, hi)]
    except OverflowError:
        return [span_sum(prefix, scale, terms, a, b) for a, b in zip(lo, hi)]


def span_max(lo, hi, values, n: int) -> np.ndarray:
    """Per point of ``range(n)``, the max of ``values[k]`` over the spans ``lo[k]..hi[k]-1``
    that hold it, and 0.0 where none does: ``np.maximum.at`` of each span's ids on zeros, bit
    for bit, since max is exact, in O(len(lo) + n log n) rather than O(total span length).
    A nonempty span of length L is two overlapping blocks of length 2^k, k = floor(log2 L),
    at its two ends; level k of a block table keeps, per start, the max of the blocks of that
    length, and each level from the top passes its maxima down to both halves of its blocks."""
    lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
    keep = hi > lo
    lo, hi, values = lo[keep], hi[keep], np.asarray(values, dtype=float)[keep]
    k = (np.frexp(hi - lo)[1] - 1).astype(np.intp)  # exact: every length is far below 2^53
    blocks = np.zeros((max(1, int(n).bit_length()), n))
    flat = blocks.reshape(-1)
    np.maximum.at(flat, k * n + lo, values)
    np.maximum.at(flat, k * n + hi - np.left_shift(1, k), values)
    for level in range(blocks.shape[0] - 1, 0, -1):
        half = 1 << (level - 1)
        np.maximum(blocks[level - 1], blocks[level], out=blocks[level - 1])
        np.maximum(blocks[level - 1, half:], blocks[level, :n - half],
                   out=blocks[level - 1, half:])
    return blocks[0].copy()  # not a view that keeps every level alive


def format_real(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite real in output: {x!r}")
    return format(float(x), ".17g")


def _emit_json(obj, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_real(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(seq):
            if i:
                out.append(", ")
            _emit_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, 17-digit reals, no whitespace drift."""
    out: list[str] = []
    _emit_json(obj, out)
    return "".join(out)


def _write(path, data: bytes) -> bytes:
    """Write ``data`` to ``path`` in one binary write, and return it."""
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def write_json(path, obj) -> bytes:
    """:func:`dumps_canonical` and a newline, in UTF-8; returns the bytes written."""
    return _write(path, (dumps_canonical(obj) + "\n").encode())


def _csv_cell(v) -> str:
    """A cell's text: None empty; reals at 17 significant digits, non-finite ones
    as "inf", "-inf", "nan", the JSON reports' encoding; anything else ``str``."""
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format_real(v) if math.isfinite(v) else str(float(v))
    return str(v)


def _csv_line(row) -> str:
    """One CSV record as ``csv.writer`` writes it with RFC 4180 minimal quoting: a cell
    holding a comma, a quote, CR or LF is quoted, inner quotes doubled, and a record
    whose one cell is empty is ``""``. A Python int or finite float is formatted inline."""
    cells = [str(v) if type(v) is int else format(v, ".17g")
             if type(v) is float and math.isfinite(v) else _csv_cell(v) for v in row]
    line = ",".join(cells)
    if line.count(",") >= len(cells) or '"' in line or "\r" in line or "\n" in line:
        line = ",".join('"' + c.replace('"', '""') + '"'
                        if any(ch in c for ch in ',"\r\n') else c for c in cells)
    return '""' if line == "" and len(cells) == 1 else line


def write_csv(path, header: list[str], rows) -> bytes:
    """RFC 4180 CSV with a header row and CRLF line ends, in UTF-8; returns the bytes written."""
    lines = [_csv_line(header), *map(_csv_line, rows), ""]
    return _write(path, "\r\n".join(lines).encode())


def sha256(data: bytes = b""):
    """A sha256 hash object over ``data``, from CPython's built-in module:
    ``hashlib`` would load OpenSSL. Imported on first use."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256 as new
        else:
            from _sha256 import sha256 as new
    except ImportError:  # an interpreter without them
        from hashlib import sha256 as new
    return new(data)


def sha256_file(path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Frozen:
    """A record whose ``__init__`` sets its fields once, through ``__dict__``;
    assigning or deleting one later raises AttributeError. Equality and
    hashing stay by identity."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


_M64 = (1 << 64) - 1


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a*b, from 32-bit limbs."""
    al, ah = a & 0xFFFFFFFF, a >> 32
    bl, bh = b & 0xFFFFFFFF, b >> 32
    lh, hl = al * bh, ah * bl
    mid = (al * bl >> 32) + (lh & 0xFFFFFFFF) + (hl & 0xFFFFFFFF)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32), a * b


def _philox_words(seed: int, n: int) -> np.ndarray:
    """First n uint64 outputs of numpy's Philox4x64-10 keyed by the seed."""
    seed = int(seed)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"Philox key must be in [0, 2**128), got {seed}")
    k0, k1 = seed & _M64, seed >> 64
    # numpy bumps the counter before it generates: block i runs counter i + 1
    c0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _M64, (k1 + 0xBB67AE8584CAA73B) & _M64
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, c0)
        hi1, lo1 = _mulhilo(0xCA5A826395121157, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return np.stack([c0, c1, c2, c3], axis=1).ravel()[:n]


def philox_uniforms(seed: int, n: int) -> np.ndarray:
    """``Generator(Philox(key=seed)).random(n)``: 53-bit doubles in [0, 1)."""
    return (_philox_words(seed, n) >> 11) * 2.0**-53


def philox_index(seed: int, n: int) -> int:
    """``Generator(Philox(key=seed)).integers(0, n)`` for 1 <= n <= 2**32.

    numpy splits each word into 32-bit halves, low half first, and applies
    Lemire's rejection; at n = 2**32 the threshold is 0 and the draw is raw.
    """
    if not 1 <= n <= 1 << 32:
        raise ValueError(f"philox_index needs 1 <= n <= 2**32, got {n}")
    threshold = ((1 << 32) - n) % n
    count = 4
    while True:
        words = _philox_words(seed, count)
        for u in np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel().tolist():
            if u * n & 0xFFFFFFFF >= threshold:
                return u * n >> 32
        count *= 2
