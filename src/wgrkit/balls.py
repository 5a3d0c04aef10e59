"""Balls, dilation, center/radius families, and the greedy 5r cover.

A :class:`BallFamily` collects every ball whose center lies in a base ball
``B0`` and whose radius comes from a geometric grid anchored at
``eta * r(B0)`` with ratio 2, extended downward until it drops below the
smallest positive pairwise distance inside ``(1+eta) B0``. The grid
therefore contains singleton-scale balls, and every admissible power-of-two
dilate of a member radius is itself on the grid (or exceeds the anchor),
which is what makes stopping-time certificates checkable.
"""
from __future__ import annotations

import math
from functools import partial
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import EmptyBallError, InvalidDilationError, InvalidParameterError
from .space import FiniteMetricMeasureSpace
from .util import Frozen


class Ball(NamedTuple("Ball", [("center", int), ("radius", float)])):
    """Open ball given by a center point id and a positive radius.

    A ball is its ``(center, radius)`` key: it equals, hashes and sorts as
    that tuple, so it can look up a table keyed by pairs.
    """

    __slots__ = ()

    def __new__(cls, center: int, radius: float):
        if not radius > 0:
            raise InvalidParameterError(f"ball radius must be > 0, got {radius}")
        return tuple.__new__(cls, (center, radius))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks the radius too


#: A Ball from a ``(center, radius)`` pair whose radius is known to be positive, unchecked.
_ball = partial(tuple.__new__, Ball)


def dilate(b: Ball, lam: float) -> Ball:
    """Same center, radius scaled by lam > 0."""
    if not lam > 0:
        raise InvalidDilationError(f"dilation factor must be > 0, got {lam}")
    return Ball(b.center, lam * b.radius)


def radius_grid(space: FiniteMetricMeasureSpace, base_ball: Ball, eta: float) -> list[float]:
    """Geometric ratio-2 radius grid for a family over ``base_ball``.

    Anchored at ``eta * r0``, which must be finite, and descending; the last
    entry is the first value below the smallest positive pairwise distance
    inside ``(1+eta) B0`` (so singleton balls are representable), or the
    smallest positive double when that distance is itself the smallest
    positive double: halving it gives 0.0, and only distance 0 lies below
    it, so its balls are singletons already. A one-point region yields the
    single anchor radius.
    """
    if not eta > 0:
        raise InvalidParameterError(f"eta must be > 0, got {eta}")
    hat_members = space.ball_members(base_ball.center, (1.0 + eta) * base_ball.radius)
    return _grid(space, eta * base_ball.radius, hat_members)


def _grid(space: FiniteMetricMeasureSpace, top: float, hat_members: np.ndarray) -> list[float]:
    """:func:`radius_grid` from its anchor ``top`` and the ids of the hat."""
    if not math.isfinite(top):  # halving inf never ends
        raise InvalidParameterError(f"the radius grid needs a finite anchor eta * r0, got {top}")
    if hat_members.size == 0:
        raise EmptyBallError("base ball has an empty (1+eta)-dilate")
    min_dist = space.min_positive_distance(hat_members)
    if min_dist is None:
        return [top]
    grid = [top]
    while grid[-1] >= min_dist and grid[-1] / 2.0 > 0.0:
        grid.append(grid[-1] / 2.0)
    return sorted(grid)


def _members(centers: list[int], grid: list[float]) -> tuple[Ball, ...]:
    """Every center with every grid radius, center then radius ascending."""
    Ball(centers[0], grid[0])  # the smallest radius, checked once for every member
    return tuple(map(_ball, product(centers, grid)))


def ball_index(space: FiniteMetricMeasureSpace, centers, radii) -> list:
    """The points of each ``B(center, r)`` as an index into point arrays: on a
    line a slice of one :meth:`~FiniteMetricMeasureSpace.ball_spans` batch,
    elsewhere the ids of a :meth:`~FiniteMetricMeasureSpace.ball_members` query."""
    if space.is_line:
        return list(map(slice, *(e.tolist() for e in space.ball_spans(centers, radii))))
    return [space.ball_members(c, r) for c, r in zip(centers, radii)]


class BallFamily(Frozen):
    """All (center in B0) x (radius in grid) balls for one base ball.

    Members are listed canonically: center index ascending, then radius
    ascending. The caller declares that ``(1+eta) * sigma * r(B0)`` fits
    inside the populated region; the family itself does not re-check it.
    Equality and hashing are by identity, as for :class:`~wgrkit.weights.Weight`:
    a weight keys its CZ averages table by the family object.
    """

    def __init__(self, base_ball: Ball, eta: float, sigma: float,
                 radius_grid: tuple[float, ...], members: tuple[Ball, ...]):
        self.__dict__.update(base_ball=base_ball, eta=eta, sigma=sigma,
                             radius_grid=radius_grid, members=members)

    @property
    def hat_ball(self) -> Ball:
        """(1+eta) B0, the region where the family's maximal function lives."""
        return dilate(self.base_ball, 1.0 + self.eta)

    def to_json_obj(self) -> list[dict]:
        return [{"center": b.center, "radius": b.radius} for b in self.members]


def build_family(
    space: FiniteMetricMeasureSpace, base_ball: Ball, eta: float, sigma: float
) -> BallFamily:
    """Construct the family of balls centered in ``base_ball``.

    Radii follow :func:`radius_grid`; every center of ``base_ball`` appears
    with every grid radius.
    """
    if not sigma >= 1:
        raise InvalidParameterError(f"sigma must be >= 1, got {sigma}")
    centers = space.ball_members(base_ball.center, base_ball.radius)
    if centers.size == 0:
        raise EmptyBallError("base ball is empty")
    grid = radius_grid(space, base_ball, eta)
    return BallFamily(base_ball, float(eta), float(sigma), tuple(grid),
                      _members(centers.tolist(), grid))


def five_r_cover(
    space: FiniteMetricMeasureSpace, base_ball: Ball, sigma: float, eta: float
) -> list[Ball]:
    """Cover ``B0`` by balls of radius ``rho * r0``, ``rho = (sigma-1)/(sigma(1+eta))``.

    Greedy selection over the (1/5)-scaled balls in ascending center-index
    order: a center is selected when its fifth-ball is point-disjoint from
    all previously selected fifth-balls. The returned full-radius balls
    then satisfy, by construction:

    * their (1/5)-dilates are pairwise disjoint as point sets,
    * every point of ``B0`` lies in some returned ball,
    * ``sigma (1+eta) B_i`` has radius ``(sigma-1) r0`` and is contained in
      ``sigma B0`` as a point set.
    """
    if not sigma > 1:
        raise InvalidParameterError(f"five_r_cover needs sigma > 1, got {sigma}")
    if not eta > 0:
        raise InvalidParameterError(f"five_r_cover needs eta > 0, got {eta}")
    rho = (sigma - 1.0) / (sigma * (1.0 + eta))
    radius = rho * base_ball.radius
    fifth = radius / 5.0
    centers = space.ball_members(base_ball.center, base_ball.radius)
    if centers.size == 0:
        raise EmptyBallError("base ball is empty")
    claimed = np.zeros(space.n_points, dtype=bool)
    selected: list[Ball] = []
    for c, fifth_ball in zip(centers.tolist(), ball_index(space, centers, [fifth] * centers.size)):
        if not claimed[fifth_ball].any():
            selected.append(Ball(c, radius))
            claimed[fifth_ball] = True
    return selected


def verify_cover(
    space: FiniteMetricMeasureSpace,
    base_ball: Ball,
    cover: list[Ball],
    sigma: float,
    eta: float,
    profile=None,
) -> dict:
    """Re-check the cover postconditions by direct scan.

    Returns per-ball rows (center, radius, fifth_disjoint_ok, contained_ok)
    plus coverage fraction, the count N and, when a doubling profile is
    supplied, the bound ``c_mu^2 (10 sigma (1+eta)/(sigma-1) + 2)^D``.
    """
    base_members = space.ball_members(base_ball.center, base_ball.radius)
    sigma_base = space.ball_mask(base_ball.center, sigma * base_ball.radius)
    fifth = np.zeros((len(cover), space.n_points), dtype=bool)
    # the points that one, and two or more, fifth-balls hold: a count capped at 2
    once, twice = np.zeros((2, space.n_points), dtype=bool)
    covered = np.zeros(space.n_points, dtype=bool)
    # each ball's fifth, itself and its sigma (1+eta)-dilate, ball after ball: off a line
    # the three share their center's distance row
    index = ball_index(space, [b.center for b in cover for _ in range(3)], [
        r for b in cover for r in (b.radius / 5.0, b.radius, sigma * (1.0 + eta) * b.radius)])
    for i in range(len(cover)):
        fifth[i, index[3 * i]] = True
        twice |= once & fifth[i]
        once |= fifth[i]
        covered[index[3 * i + 1]] = True
    contained = [bool(sigma_base[hat].all()) for hat in index[2::3]]
    # a fifth-ball misses every other one iff none of its points lies in two of them
    disjoint = ~(fifth & twice).any(axis=1)
    rows = [
        {
            "center": ball.center,
            "radius": ball.radius,
            "fifth_disjoint_ok": bool(disjoint[i]),
            "contained_ok": contained[i],
        }
        for i, ball in enumerate(cover)
    ]
    n_covered = int(np.count_nonzero(covered[base_members]))
    report = {
        "rows": rows,
        "n_balls": len(cover),
        "coverage": n_covered / max(1, base_members.size),
        "all_fifth_disjoint": all(r["fifth_disjoint_ok"] for r in rows),
        "all_contained": all(r["contained_ok"] for r in rows),
    }
    if profile is not None:
        factor = 10.0 * sigma * (1.0 + eta) / (sigma - 1.0) + 2.0
        report["count_bound"] = profile.c_mu**2 * factor**profile.dimension_d
        report["count_ok"] = len(cover) <= report["count_bound"]
    return report
