"""Shared numeric and I/O helpers.

Summations that feed ratios and report values use ``math.fsum``, which
is correctly rounded: the order of the terms is free, and every result is
reproducible bit for bit. JSON and CSV emitters format reals with 17
significant digits, which round-trips IEEE doubles exactly.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np


def fsum(values) -> float:
    """Compensated sum of an iterable or array (exact rounding)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)


def weighted_sum(values: np.ndarray, mass: np.ndarray) -> float:
    """Compensated sum of values*mass, elementwise products rounded once."""
    return math.fsum((np.asarray(values, dtype=float) * mass).tolist())


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


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        # non-finite reals as "inf", "-inf", "nan", the JSON reports' encoding
        return format_real(v) if math.isfinite(v) else str(float(v))
    return v


def write_csv(path, header: list[str], rows) -> None:
    """RFC 4180 CSV with a header row; reals at 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def sha256_file(path) -> str:
    import hashlib  # loads OpenSSL, so only when hashing

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def philox_generator(seed: int) -> np.random.Generator:
    """Counter-based RNG stream (Philox4x64-10) keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))
