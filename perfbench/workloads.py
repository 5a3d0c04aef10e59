"""The benchmark's workloads: generated configs, predictions and result checks.

Each workload turns a seed into one wgrkit config and names the CLI
subcommand that runs it. The seed is the only source of variation: the
same seed gives the same config byte for byte.

``workloads.json`` beside this file records, per workload, the config for
:data:`DEFAULT_SEED`, its sizes, why it was chosen, the per-layer
predictions, and the reference result values. ``python3 perfbench/run.py
record`` writes it; only a change to the benchmark itself should do so.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import FUNCTIONALS

HERE = Path(__file__).resolve().parent
RECORD_PATH = HERE / "workloads.json"

DEFAULT_SEED = 1


# ---------------------------------------------------------------------------
# config generators: (seed, size) -> config
# ---------------------------------------------------------------------------


def _config(instance: dict, geometry: dict, checks, formats=("json", "csv"), **extra) -> dict:
    return {
        "instance": instance,
        "geometry": geometry,
        "checks": [{"name": name, "params": dict(params)} for name, params in checks],
        "output": {"directory": "out", "formats": list(formats)},
        "threads": 1,
        **extra,
    }


#: The six functionals, the four implication checkers and cavalieri.
F2D_CHECKS = (
    ("wgr", {}),
    ("wgr_minus", {}),
    ("gr", {}),
    ("weak_ainfty", {"alpha": 0.5}),
    ("sublevel", {"beta": 0.5}),
    ("rhi", {"p": 2.0}),
    ("superlevel_bound", {"lambda": 0.9}),
    ("osc_from_superlevel", {"alpha": 0.5}),
    ("sublevel_bound", {"lambda": 0.9}),
    ("neg_osc_from_sublevel", {"beta": 0.5}),
    ("cavalieri", {"p": 2.0}),
)

D1_CHECKS = (
    ("jn_decay", {"count": 20, "factor": 4.0}),
    ("osc_power_bound", {"p": 1.5}),
    ("weak_rhi", {"p": 1.5}),
    ("cover_rhi", {"p": 1.5}),
)


def functionals_2d(seed: int, side: int) -> dict:
    """Lognormal weight on a side x side Chebyshev grid; all functionals."""
    return _config(
        {
            "kind": "lognormal",
            "dimension": 2,
            "side": side,
            "cell": 1.0,
            "metric": "chebyshev",
            "params": {"geometry": "grid_nd", "mu": 0.0, "sigma": 0.25},
            "seed": seed,
        },
        {"sigma": 1.5, "eta": 1.0, "base_ball": {"center": "central", "radius": "auto"}},
        F2D_CHECKS,
    )


def decay_cover_1d(seed: int, n: int) -> dict:
    """Nearly constant lognormal weight on a 1-d grid; decay and cover checks."""
    return _config(
        {
            "kind": "lognormal",
            "interval": [0, n, n],
            "params": {"mu": 0.0, "sigma": 0.001},
            "seed": seed,
        },
        {"sigma": 1.25, "eta": 1.0, "base_ball": {"center": "central", "radius": "auto"}},
        D1_CHECKS,
    )


#: cz-nested-1d weight levels; a spike sits on one in every SPIKE_SPACING points.
CZ_LOW, CZ_HIGH, SPIKE_SPACING = 0.001, 60.0, 256


def cz_nested_1d(seed: int, n: int) -> dict:
    """Two-level weight on a 1-d grid with seeded spike positions inside B0.

    The spikes are placed by the benchmark, not drawn iid by wgrkit: with
    ``alpha`` about 164 on this geometry, the admissible level needs fewer
    than n/164 spikes in the hat and at least one inside B0, which iid
    draws at this size miss on some seeds.
    """
    center, radius = n // 2, n / 10
    inside = range(math.ceil(center + 0.5 - radius), math.floor(center + 0.5 + radius))
    spikes = set(random.Random(seed).sample(inside, max(1, n // SPIKE_SPACING)))
    space = {
        "points": [[i + 0.5] for i in range(n)],
        "distance_matrix": None,
        "mass": [1.0] * n,
        "metric_kind": "euclidean",
    }
    weight = [CZ_HIGH if i in spikes else CZ_LOW for i in range(n)]
    return _config(
        {"kind": "custom", "params": {"space": space, "weight": weight}},
        {"sigma": 1.0, "eta": 4.0, "base_ball": {"center": center, "radius": radius}},
        [],
        formats=("json",),
        cz={"level_fraction": 0.05, "level_fraction_hi": 0.5},
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: Per-layer metrics that every workload moves, and the end-to-end metric they feed.
_EVERY_WORKLOAD = {
    "space.ball_members.calls": "run_s",
    "space.ball_members.s": "run_s",
    "space.ball_members.distinct_ratio": "run_s",
    "space.dist_row.calls": "run_s",
    "space.dist_row.points": "run_s",
    "space.set_measure.calls": "run_s",
    "cli.load_config.s": "setup_s",
    "cli.validate_config.s": "setup_s",
    "examples.build_instance.s": "setup_s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]  # wgrkit subcommand words
    make_config: Callable[[int, int], dict]
    size: int  # measured size
    tiny: int  # smoke-test size
    #: per-layer metric -> end-to-end metric it should move; each is nonzero here
    predictions: dict[str, str]
    #: the layers ``why`` names; ``run.py record`` measures their share of run_s
    share_layers: tuple[str, ...]

    def config(self, seed: int, tiny: bool = False) -> dict:
        return self.make_config(seed, self.tiny if tiny else self.size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "functionals-2d",
            "The paper's cube geometry. Measured shares of run_s (workloads.json): "
            "Chebyshev distance rows 35%, the central base ball and the family that "
            "every check rebuilds 22%, all checks 52%, process start-up and imports 37%.",
            ("run",),
            functionals_2d,
            size=20,
            tiny=8,
            predictions={
                **_EVERY_WORKLOAD,
                "examples.random_weight.s": "setup_s",
                "space.min_positive_distance.calls": "run_s",
                "space.min_positive_distance.s": "run_s",
                **{f"weights.{f}.{stat}": "run_s" for f in FUNCTIONALS for stat in ("calls", "s", "balls")},
                "weights.as_values.calls": "run_s",
                "weights.as_values.s": "run_s",
                "util.parallel_map.s": "run_s",
                "util.write_csv.s": "run_s",
                "util.write_csv.bytes": "run_s",
                "util.write_json.s": "run_s",
                "balls.build_family.calls": "run_s",
                "balls.build_family.s": "run_s",
                **{f"theorems.check_{c}.s": "run_s" for c in (
                    "superlevel_bound", "osc_from_superlevel", "sublevel_bound",
                    "neg_osc_from_sublevel")},
                "theorems.cavalieri_check.s": "run_s",
                "cli.resolve_base_ball.calls": "run_s",
                "cli.resolve_base_ball.s": "run_s",
                **{f"cli.run_check.s.{c}": "run_s" for c, _ in F2D_CHECKS},
            },
            share_layers=("cli.run_check", "space.dist_row", "cli.resolve_base_ball",
                          "balls.build_family"),
        ),
        Workload(
            "decay-cover-1d",
            "The membership layer used differently: many small ball systems for the "
            "5r-cover pieces. Measured shares of run_s (workloads.json): wgr_epsilon over "
            "measuring sets 32%, ball membership 18%, ball systems 13%, doubling profiles "
            "9%, process start-up and imports 44%; jn_decay is vacuous here.",
            ("run",),
            decay_cover_1d,
            size=128,
            tiny=48,
            predictions={
                **_EVERY_WORKLOAD,
                "examples.random_weight.s": "setup_s",
                "space.doubling_profile.calls": "run_s",
                "space.doubling_profile.s": "run_s",
                "space.doubling_profile.balls": "run_s",
                "weights.wgr_epsilon.calls": "run_s",
                "weights.as_values.calls": "run_s",
                "weights.as_values.s": "run_s",
                "util.fsum.calls": "run_s",
                "util.weighted_sum.calls": "run_s",
                "util.weighted_sum.terms": "run_s",
                "balls.five_r_cover.s": "run_s",
                "balls.verify_cover.s": "run_s",
                "theorems.build_ball_system.calls": "run_s",
                "theorems.build_ball_system.s": "run_s",
                "theorems.build_ball_system.measuring_balls": "run_s",
                **{f"theorems.check_{c}.s": "run_s" for c, _ in D1_CHECKS},
                **{f"cli.run_check.s.{c}": "run_s" for c, _ in D1_CHECKS},
            },
            share_layers=("cli.run_check", "space.ball_members", "theorems.build_ball_system",
                          "weights.wgr_epsilon", "space.doubling_profile"),
        ),
        Workload(
            "cz-nested-1d",
            "Nested CZ decomposition. Measured shares of run_s (workloads.json): czdecomp "
            "59%, of which maximal_function (three passes) 28% and the closure doubling "
            "profile 24%; process start-up and imports 29%; no weight functional runs.",
            ("cz", "nested"),
            cz_nested_1d,
            size=1024,
            tiny=256,
            predictions={
                **_EVERY_WORKLOAD,
                "space.doubling_profile.calls": "run_s",
                "space.doubling_profile.s": "run_s",
                "space.doubling_profile.balls": "run_s",
                "util.fsum.calls": "run_s",
                "util.weighted_sum.calls": "run_s",
                "util.weighted_sum.terms": "run_s",
                "czdecomp.maximal_function.calls": "run_s",
                "czdecomp.maximal_function.s": "run_s",
                "czdecomp.closure_profile.s": "run_s",
                "czdecomp.cz_decompose.calls": "run_s",
                "czdecomp.cz_decompose.s": "run_s",
                "czdecomp.cz_decompose.stopping_balls": "run_s",
                "czdecomp.cz_nested.s": "run_s",
            },
            share_layers=("czdecomp", "czdecomp.maximal_function", "czdecomp.closure_profile",
                          "czdecomp.cz_nested"),
        ),
    )
}


# ---------------------------------------------------------------------------
# result values and their check
# ---------------------------------------------------------------------------


def _cz_level(doc: dict) -> dict:
    return {
        "level": doc["level"],
        "balls": [[b["center"], b["radius"]] for b in doc["balls"]],
    }


def result_values(workload: Workload, out: Path) -> dict:
    """The recorded result values of one operation's outputs.

    Functionals: sup value (``margin``) and witness. Checkers: ``passed``,
    ``vacuous``, ``margin`` and witness. CZ: levels, balls and the
    containment map. Report formats may change around these fields.
    """
    if workload.command[0] == "cz":
        doc = json.loads(out.read_text())
        return {
            "low": _cz_level(doc["low"]),
            "high": _cz_level(doc["high"]),
            "containment_map": doc["containment_map"],
        }
    values = {}
    for path in sorted(out.glob("check_*.json")):
        report = json.loads(path.read_text())
        values[report["name"]] = {
            key: report[key] for key in ("passed", "vacuous", "margin", "witness")
        }
    return values


def bits(obj):
    """Floats as their exact hex form, so equality is bit-for-bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    return obj


def output_digests(out: Path) -> dict[str, str]:
    files = [out] if out.is_file() else sorted(p for p in out.iterdir() if p.is_file())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def load_record() -> dict:
    return json.loads(RECORD_PATH.read_text())
