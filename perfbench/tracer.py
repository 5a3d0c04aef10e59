"""In-process tracer for wgrkit, driven from the benchmark's own files.

Run as a script, it hosts one traced CLI invocation::

    python3 perfbench/tracer.py SPANS.json [--only NAME,...] -- run --config cfg.json --out out/

It imports ``wgrkit`` from ``src/``, wraps every public function of every
wgrkit module and every public method of ``FiniteMetricMeasureSpace``,
calls ``wgrkit.cli.main`` with the remaining arguments, and writes the
recorded spans to ``SPANS.json`` when the call returns. The exit code is
the CLI's. ``--only`` wraps just the named functions (``cli.main``,
``space.dist_row``, ...) and modules (``czdecomp``): few spans, so the wall time of such a run is
close to an untraced one and a layer's share of it can be measured.

Names a module imported with ``from .x import name`` are rebound in every
wgrkit module that holds them, so no call path escapes its span. A span is
``[name, start, end, parent, counts]``: ``parent`` is the index of the
enclosing span (-1 at the root) and ``counts`` holds the work counters
taken at that boundary. :func:`layer_metrics` turns spans into the
per-layer metrics named ``<module>.<function>.<stat>``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = ("space", "util", "weights", "balls", "czdecomp", "theorems", "examples", "cli")

FUNCTIONALS = (
    "wgr_epsilon",
    "wgr_minus_epsilon",
    "gr_epsilon",
    "weak_ainfty_beta",
    "sublevel_alpha",
    "rhi_constant",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dist_row_points(args, kwargs, result):
    # a table-backed space looks its rows up; only coordinate spaces compute them
    return {"points": 0 if args[0].metric_kind == "table" else int(result.size)}


def _ball_key(args, kwargs, result):
    return {"key": (int(_arg(args, kwargs, 1, "center")), float(_arg(args, kwargs, 2, "r")))}


def _report_counts(args, kwargs, result):
    return {"balls": result.n_balls, "skipped": result.n_skipped}


#: Work counters taken at span boundaries: span name -> f(args, kwargs, result).
COUNTERS = {
    "space.dist_row": _dist_row_points,
    "space.ball_members": _ball_key,
    "space.doubling_profile": lambda a, k, r: {"balls": len(_arg(a, k, 1, "ball_set"))},
    "util.weighted_sum": lambda a, k, r: {"terms": len(_arg(a, k, 0, "values"))},
    "util.write_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "theorems.build_ball_system": lambda a, k, r: {"measuring_balls": len(r.measuring)},
    "czdecomp.cz_decompose": lambda a, k, r: {"stopping_balls": len(r.balls)},
    "cli.run_check": lambda a, k, r: {"check": _arg(a, k, 0, "name")},
    **{f"weights.{name}": _report_counts for name in FUNCTIONALS},
}


class Tracer:
    """Records one span per wrapped call; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, only: set[str] | None = None) -> None:
        """Wrap every public wgrkit function and rebind it wherever it was imported.

        With ``only``, wrap just the functions of those names or modules.
        """
        modules = {name: importlib.import_module(f"wgrkit.{name}") for name in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                    and (only is None or short in only or f"{short}.{attr}" in only)
                ):
                    replaced[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        holders = [m for n, m in sys.modules.items() if n == "wgrkit" or n.startswith("wgrkit.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        space_cls = modules["space"].FiniteMetricMeasureSpace
        for attr, value in list(vars(space_cls).items()):
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and (only is None or "space" in only or f"space.{attr}" in only)
            ):
                setattr(space_cls, attr, self.wrap(f"space.{attr}", value))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from spans.

    Self time is a span's duration minus the time its child spans cover;
    calls on one thread nest, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    keys: dict[str, set] = defaultdict(set)
    for i, (name, start, end, parent, counts) in enumerate(spans):
        self_s = (end - start) - covered[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += self_s
        for stat, value in (counts or {}).items():
            if stat == "key":
                keys[name].add(tuple(value))
            elif stat == "check":
                out[f"{name}.s.{value}"] += self_s
            else:
                out[f"{name}.{stat}"] += value
    calls = out.get("space.ball_members.calls", 0)
    out["space.ball_members.distinct_ratio"] = (
        len(keys["space.ball_members"]) / calls if calls else 0.0
    )
    return dict(out)


def inclusive_times(spans) -> dict[str, float]:
    """Per function and per module, the time its outermost spans cover, children included."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, counts in spans:
        module = name.split(".")[0]
        ancestors = []
        while parent >= 0:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        if name not in ancestors:
            out[name] += end - start
        if all(a.split(".")[0] != module for a in ancestors):
            out[module] += end - start
    return dict(out)


def main(argv: list[str]) -> int:
    only = None
    if len(argv) > 2 and argv[1] == "--only":
        only = set(argv[2].split(","))
        argv = [argv[0], *argv[3:]]
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json [--only NAME,...] -- <wgrkit cli arguments>",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("wgrkit.cli")
    tracer = Tracer()
    tracer.install(only)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
