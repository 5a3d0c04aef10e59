"""Canonical instances and seeded random weights.

The strip instance pairs an indicator weight with a cube-metric grid: the
grid is shifted so the unit slab ``0 <= x_last <= 1`` is a union of whole
cells near the middle of the domain, which keeps every cube-vs-double-cube
weight ratio an exact rational. The exponential instance puts ``e^x`` on a
1-d grid. Random weights draw from a counter-based stream: numpy's
Philox4x64-10 keyed by the seed, reproduced in ``util`` and pinned by
tests to ``numpy.random``, with uniforms consumed in point-index order.
Identical seeds reproduce identical values byte for byte.
"""
from __future__ import annotations

import inspect

import numpy as np

from .balls import Ball
from .errors import AlignmentError, InvalidGeneratorError, WgrError
from .space import FiniteMetricMeasureSpace, _grid_coords, grid_1d
from .util import philox_index, philox_uniforms
from .weights import Weight

RNG_ALGORITHM = "philox4x64-10"

#: Power-law exponents are clamped to (-POWER_EXPONENT_CAP, POWER_EXPONENT_CAP).
POWER_EXPONENT_CAP = 8.0

INSTANCE_KINDS = ("sawyer_strip", "exponential", "power", "lognormal", "two_level", "custom")


def sawyer_strip(n_dim: int, side: int, cell: float) -> tuple[FiniteMetricMeasureSpace, Weight]:
    """Indicator of the unit slab on a centered cube-metric grid.

    ``cell`` must divide 1 so the slab is a union of whole cells. The grid
    is offset by ``-floor(side/2) * cell`` per axis, keeping cell edges on
    multiples of ``cell`` while placing the slab mid-domain so cubes and
    their doubles probe it from both sides.
    """
    if n_dim < 1 or side < 1 or not cell > 0:
        raise InvalidGeneratorError("sawyer_strip needs n_dim >= 1, side >= 1, cell > 0")
    ratio = 1.0 / cell
    if abs(ratio - round(ratio)) > 1e-12:
        raise AlignmentError(f"cell {cell} does not divide the unit slab thickness")
    offset = np.full(n_dim, -float(side // 2) * cell)
    coords = _grid_coords(n_dim, side, cell, offset)
    if not (coords[:, -1].min() < 0.0 < 1.0 < coords[:, -1].max() + cell):
        raise InvalidGeneratorError("grid too small to contain the unit slab; increase side")
    space = FiniteMetricMeasureSpace(
        np.full(side**n_dim, float(cell) ** n_dim), coords=coords, metric_kind="chebyshev"
    )
    inside = (coords[:, -1] > 0.0) & (coords[:, -1] < 1.0)
    return space, Weight(inside.astype(float))


def exponential_weight(a: float, b: float, n: int) -> tuple[FiniteMetricMeasureSpace, Weight]:
    """w(x) = e^x on the cell centers of a 1-d grid over [a, b]."""
    space = grid_1d(a, b, n)
    return space, Weight(np.exp(space.coords[:, 0]))


def _normal_quantiles(u: np.ndarray) -> np.ndarray:
    """``NormalDist().inv_cdf`` at each u in (0, 1), by the C routine it calls."""
    try:  # guarded as statistics.py guards it
        from _statistics import _normal_dist_inv_cdf
    except ImportError:  # statistics imports fractions and decimal, so only as a fallback
        from statistics import _normal_dist_inv_cdf
    return np.array([_normal_dist_inv_cdf(x, 0.0, 1.0) for x in u.tolist()])


def random_weight(space: FiniteMetricMeasureSpace, kind: str, params: dict, seed: int) -> Weight:
    """Seeded random weight; deterministic given (kind, params, seed).

    kinds:
      lognormal: exp(mu + sigma * z), z via inverse normal CDF of the
                 uniform stream; ``sigma = 0`` gives a constant.
      power:     (max(d(x, x0), half min distance))^exponent with x0 drawn
                 from the stream; |exponent| < POWER_EXPONENT_CAP.
      two_level: ``high`` with probability ``fraction`` else ``low``.
    """
    n = space.n_points
    if kind == "lognormal":
        mu = float(params.get("mu", 0.0))
        sig = float(params.get("sigma", params.get("variance", 0.0)))
        if sig < 0:
            raise WgrError(f"lognormal sigma must be >= 0, got {sig}")
        z = _normal_quantiles(np.clip(philox_uniforms(seed, n), 5e-17, 1.0 - 1e-16))
        return Weight(np.exp(mu + sig * z))
    if kind == "power":
        exponent = float(params["exponent"])
        if not -POWER_EXPONENT_CAP < exponent < POWER_EXPONENT_CAP:
            raise WgrError(f"power exponent must be in (-{POWER_EXPONENT_CAP}, {POWER_EXPONENT_CAP})")
        x0 = philox_index(seed, n)
        floor = space.min_positive_distance()
        floor = 1.0 if floor is None else 0.5 * floor
        dist = np.maximum(space.dist_row(x0), floor)
        return Weight(dist**exponent)
    if kind == "two_level":
        low = float(params.get("low", 1.0))
        high = float(params.get("high", 10.0))
        fraction = float(params.get("fraction", 0.5))
        if low < 0 or high < 0 or not 0.0 <= fraction <= 1.0:
            raise WgrError("two_level needs low, high >= 0 and fraction in [0,1]")
        u = philox_uniforms(seed, n)
        return Weight(np.where(u < fraction, high, low))
    raise WgrError(f"unknown random weight kind {kind!r}")


class InstanceSpec:
    """Declarative description of one (space, weight) instance; equal by value."""

    def __init__(self, kind: str, dimension: int = 1, side: int = 16, cell: float = 1.0,
                 metric: str = "chebyshev", interval: tuple[float, float, int] = (0.0, 16.0, 16),
                 params: dict | None = None, seed: int = 0):
        if kind not in INSTANCE_KINDS:
            raise WgrError(f"unknown instance kind {kind!r}")
        self.kind, self.dimension, self.side, self.cell = kind, dimension, side, cell
        self.metric, self.interval, self.seed = metric, interval, seed
        self.params = {} if params is None else params

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "side": self.side,
            "cell": self.cell,
            "metric": self.metric,
            "interval": list(self.interval),
            "params": dict(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InstanceSpec":
        extra = set(obj) - set(inspect.signature(cls).parameters)
        if extra:
            raise WgrError(f"unknown instance fields: {sorted(extra)}")
        kwargs = dict(obj)
        if "interval" in kwargs:
            a, b, n = kwargs["interval"]
            kwargs["interval"] = (float(a), float(b), int(n))
        return cls(**kwargs)


def build_instance(spec: InstanceSpec) -> tuple[FiniteMetricMeasureSpace, Weight]:
    """Materialize the (space, weight) pair an InstanceSpec describes."""
    if spec.kind == "sawyer_strip":
        return sawyer_strip(spec.dimension, spec.side, spec.cell)
    if spec.kind == "exponential":
        a, b, n = spec.interval
        return exponential_weight(a, b, n)
    if spec.kind == "custom":
        space = FiniteMetricMeasureSpace.from_json_obj(spec.params["space"])
        w = Weight(np.asarray(spec.params["weight"], dtype=float))
        if w.values.size != space.n_points:
            raise InvalidGeneratorError(f"custom weight has {w.values.size} values "
                                        f"for a space of {space.n_points} points")
        return space, w
    # random weights over a declared geometry
    if spec.params.get("geometry", "grid_1d") == "grid_nd":
        from .space import grid_nd

        space = grid_nd(spec.dimension, spec.side, spec.cell, spec.metric)
    else:
        a, b, n = spec.interval
        space = grid_1d(a, b, n)
    return space, random_weight(space, spec.kind, spec.params, spec.seed)


def list_instances() -> dict:
    """Instance kinds with their parameter schemas, for the CLI."""
    return {
        "sawyer_strip": {
            "description": "indicator of the unit slab on a centered cube-metric grid",
            "parameters": {"dimension": "int >= 1", "side": "int >= 1", "cell": "divides 1"},
        },
        "exponential": {
            "description": "e^x on a 1-d grid",
            "parameters": {"interval": "[a, b, n] with a < b, n >= 1"},
        },
        "lognormal": {
            "description": "iid exp(mu + sigma z) per point",
            "parameters": {
                "geometry": "grid_1d (interval) or grid_nd (dimension/side/cell/metric)",
                "mu": "real",
                "sigma": "real >= 0",
                "seed": "int",
            },
        },
        "power": {
            "description": "distance-to-a-random-point power law",
            "parameters": {
                "geometry": "grid_1d or grid_nd",
                "exponent": f"|exponent| < {POWER_EXPONENT_CAP}",
                "seed": "int",
            },
        },
        "two_level": {
            "description": "two-valued iid weight",
            "parameters": {
                "geometry": "grid_1d or grid_nd",
                "low": "real >= 0",
                "high": "real >= 0",
                "fraction": "[0, 1]",
                "seed": "int",
            },
        },
        "custom": {
            "description": "explicit space JSON and weight values",
            "parameters": {"space": "space JSON object", "weight": "list of reals"},
        },
        "rng": RNG_ALGORITHM,
    }


def untruncated_balls(
    space: FiniteMetricMeasureSpace, balls, factor: float
) -> list[Ball]:
    """Keep balls whose factor-dilate stays inside the populated region.

    Coordinate-backed spaces only: the dilate's bounding box must sit
    within the outer cell edges, so its member set is never cut by the
    domain boundary.
    """
    lo, hi = space.coordinate_bounds()
    kept = []
    tol = 1e-12
    for b in balls:
        c = space.coords[b.center]
        r = factor * b.radius
        if np.all(c - r >= lo - tol) and np.all(c + r <= hi + tol):
            kept.append(b)
    return kept


def strip_cube_family(
    space: FiniteMetricMeasureSpace, radii, sigma: float = 2.0
) -> list[Ball]:
    """Every (cell center, radius) cube whose sigma-dilate is untruncated."""
    candidates = [Ball(int(c), float(r)) for c in range(space.n_points) for r in radii]
    return untruncated_balls(space, candidates, sigma)
