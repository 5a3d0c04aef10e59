"""Finite metric measure spaces.

Points carry dense integer ids ``0..n-1``. A space stores either a
coordinate array with a standard metric (``euclidean`` or ``chebyshev``)
or a raw symmetric distance table, together with a strictly positive mass
per point. Every integral in the library is a mass-weighted sum over a
point subset, accumulated with ``math.fsum``. That sum is correctly
rounded, so the order of its terms is free and never changes a result.

Balls are open: ``B(x, r) = {y : d(x, y) < r}``. In particular a radius
equal to an existing pairwise distance excludes the points at exactly that
distance, and ``r = 0`` gives the empty set.

All distances come from one kernel, which :meth:`FiniteMetricMeasureSpace.dist_block`
applies to a block of rows and columns, :meth:`~FiniteMetricMeasureSpace.dist_row`
to one row; a block is bit-identical to its rows. Chebyshev distances take
the maximum axis by axis, exact in any order. Euclidean distances sum the
squared differences over the last axis, in the same order for one pair as
for a block. The central base ball's eccentricities, and the smallest
positive distance on a table, walk row blocks of at most
:data:`BLOCK_DISTANCES` distances, never an n x n matrix.

Ball queries read distance rows through a one-slot cache holding the row
of the most recently queried center, so a layer that walks its balls
center by center (every family, measuring set and closure set is listed
center-ascending) computes each row once per pass. The slot costs O(n)
memory per space; :meth:`FiniteMetricMeasureSpace.dist_row` itself stays
uncached. There are three ball queries:
:meth:`~FiniteMetricMeasureSpace.ball_members` computes one ball's ids in
ascending order, read-only, at every call; :meth:`~FiniteMetricMeasureSpace.ball_prefixes`
sorts the center's row once and returns that order with a count per
radius, so the nested balls at one center are prefixes of one array; on a
*line*, 1-d coordinates in id order, :meth:`~FiniteMetricMeasureSpace.ball_spans`
gives a batch of balls as id spans with no distance row; there the ball
pass (``weights._ball_map``), the CZ table and :func:`doubling_profile` read
it. The space keeps no ids: off a line, each weight's table keeps the ids
of the balls its last pass walked, for the next pass (``weights._BallSums``).
A memo maps ``(center, r)`` to the float mu(B), which every layer reads;
``ball_measure`` sums one ball on first use, from one query,
``ball_prefixes`` all the radii it sweeps, and ``ball_spans`` its batch. A
space freezes private copies of its arrays, so it cannot go stale. On a
space whose points share one mass m (every generated grid), k points
measure ``k * m`` with no sum: that product and ``fsum`` of k copies of m
are both the correctly rounded k*m, equal bit for bit. A product that
overflows falls back to ``fsum``, which raises as before. On a line,
unequal masses are read from one exact prefix table, with ``fsum``'s bits.

The doubling behaviour of a space is summarized by :func:`doubling_profile`,
the maximum of ``mu(2B)/mu(B)`` over a finite ball set. Because the maximum
runs over finitely many balls it is a *lower* bound for the doubling
constant of any continuum parent. The one override is
``build_ball_system(space, family, profile=...)``, whose system the decay
checkers read; reports always record the value they used.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyBallError,
    InvalidGeneratorError,
    TooLargeError,
    WgrError,
)
from .util import exact_prefix_sums, fsum, span_sum

METRIC_KINDS = ("euclidean", "chebyshev", "table")

#: Hard cap on generated grid sizes (points).
GRID_SIZE_CAP = 1_000_000

#: Spaces larger than this refuse the O(n^3) full metric validation.
VALIDATION_SIZE_CAP = 2048

#: A triangle fails only when d(i,j) exceeds d(i,k) + d(k,j) by more than this times the
#: sum: computed Euclidean distances round by about an ulp, so exact comparison fails them.
TRIANGLE_RTOL = 4.0 * np.finfo(float).eps

#: Upper bound on the distances one block of an all-pairs scan holds.
BLOCK_DISTANCES = 1 << 14


def row_slices(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive slices of ``range(n_rows)``, each a block of rows whose
    distances to ``n_cols`` columns number at most :data:`BLOCK_DISTANCES`."""
    step = max(1, BLOCK_DISTANCES // max(1, n_cols))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


class DoublingProfile(NamedTuple("DoublingProfile", [("c_mu", float), ("dimension_d", float)])):
    """Doubling constant measured over a finite ball set.

    ``dimension_d`` is exactly ``log2(c_mu)``.
    """

    __slots__ = ()

    @classmethod
    def from_c_mu(cls, c_mu: float) -> "DoublingProfile":
        if c_mu < 1.0:
            raise WgrError(f"doubling constant must be >= 1, got {c_mu}")
        return cls(float(c_mu), math.log2(c_mu))


class MetricViolation(NamedTuple("MetricViolation", [
        ("kind", str),  # "diagonal" | "negative" | "asymmetry" | "triangle"
        ("points", tuple), ("deficit", float)])):
    """One failed metric axiom; ``points`` names the offending tuple."""

    __slots__ = ()


class FiniteMetricMeasureSpace:
    """Finite point set with a validated metric and positive point masses.

    Exactly one of ``coords`` (with ``metric_kind`` in ``{"euclidean",
    "chebyshev"}``) or ``distance_matrix`` must be supplied. A space keeps
    frozen private copies of its arrays; the caller's stay writeable.
    """

    def __init__(self, mass, *, coords=None, metric_kind=None, distance_matrix=None):
        mass = np.array(mass, dtype=float)
        if mass.ndim != 1 or mass.size == 0:
            raise WgrError("mass must be a nonempty 1-d array")
        if not np.all(np.isfinite(mass)) or np.any(mass <= 0.0):
            raise WgrError("masses must be finite and strictly positive")
        self._mass = mass
        self._mass.setflags(write=False)
        self._common_mass = float(mass[0]) if np.all(mass == mass[0]) else None

        if (coords is None) == (distance_matrix is None):
            raise WgrError("exactly one of coords/distance_matrix is required")

        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != mass.size:
                raise WgrError("coords must be (n_points, dim)")
            if not np.all(np.isfinite(coords)):
                raise WgrError("coordinates must be finite")
            if metric_kind not in ("euclidean", "chebyshev"):
                raise WgrError(f"metric_kind must be euclidean or chebyshev, got {metric_kind!r}")
            self._coords = coords
            self._coords.setflags(write=False)
            self._dist = None
            self.metric_kind = metric_kind
        else:
            dist = np.array(distance_matrix, dtype=float)
            if dist.shape != (mass.size, mass.size):
                raise WgrError("distance_matrix must be square (n_points, n_points)")
            if not np.all(np.isfinite(dist)):
                raise WgrError("distances must be finite")
            self._coords = None
            self._dist = dist
            self._dist.setflags(write=False)
            self.metric_kind = "table"
        # a line, 1-d coordinates in id order, where every ball is an id span (see ball_spans)
        x = None if coords is None or coords.shape[1] != 1 else coords[:, 0]
        self.is_line = x is not None and bool((x[1:] >= x[:-1]).all())
        # (center, row) of the last ball query
        self._row_slot: tuple[int, np.ndarray] | None = None
        self._mu: dict[tuple[int, float], float] = {}  # (center, radius) -> mu(B)
        self._mass_sums = None  # exact_prefix_sums of unequal masses, made on first use

    # -- basic structure ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return self._mass.size

    @property
    def mass(self) -> np.ndarray:
        return self._mass

    @property
    def coords(self):
        return self._coords

    def dist_block(self, rows, cols=None) -> np.ndarray:
        """Distances from each point of ``rows`` to each point of ``cols``.

        ``rows`` and ``cols`` index the points (an id array or a slice);
        ``cols=None`` means every point. The result has shape
        ``(len(rows), len(cols))``.
        """
        if self._dist is not None:
            if cols is None:
                return self._dist[rows]
            ids = np.arange(self.n_points)
            return self._dist[ids[rows, None], ids[cols]]
        there = self._coords if cols is None else self._coords[cols]
        return self._distances(self._coords[rows][:, None, :], there)

    def _distances(self, here: np.ndarray, there: np.ndarray) -> np.ndarray:
        """The metric on coordinate arrays (axes last) whose other axes broadcast."""
        if self.metric_kind == "euclidean":
            diff = there - here
            np.multiply(diff, diff, out=diff)  # squared in place: no second (..., dim) array
            out = diff.sum(axis=-1)
            return np.sqrt(out, out=out)
        # the maximum axis by axis is exact in any order; with no axis, every distance is 0
        if not here.shape[-1]:
            return np.zeros(np.broadcast_shapes(here.shape, there.shape)[:-1])
        out = np.abs(there[..., 0] - here[..., 0])
        for k in range(1, here.shape[-1]):
            np.maximum(out, np.abs(there[..., k] - here[..., k]), out=out)
        return out

    def dist_row(self, center: int) -> np.ndarray:
        """Distances from ``center`` to every point."""
        return self.dist_block(slice(center, center + 1))[0]

    def distance(self, i: int, j: int) -> float:
        return float(self.dist_row(i)[j])

    # -- balls and measures ------------------------------------------------

    def _cached_row(self, center: int) -> np.ndarray:
        slot = self._row_slot
        if slot is not None and slot[0] == center:
            return slot[1]
        row = self.dist_row(center)
        self._row_slot = (center, row)
        return row

    def ball_mask(self, center: int, r: float) -> np.ndarray:
        if r < 0:
            raise WgrError("ball radius must be >= 0")
        return self._cached_row(center) < r

    def ball_members(self, center: int, r: float) -> np.ndarray:
        """Point ids strictly inside B(center, r), ascending, read-only."""
        ids = self.ball_mask(center, r).nonzero()[0]
        ids.setflags(False)  # write=False, passed positionally: the keyword costs a parse per call
        return ids

    def ball_prefixes(self, center: int, radii) -> tuple[np.ndarray, np.ndarray]:
        """Every point id in ascending distance from ``center`` (ties by id),
        and per radius the count of those strictly inside ``B(center, r)``.

        ``B(center, r)`` is ``order[:count]``, the set :meth:`ball_members`
        returns, in distance order. The memo gains each ball it lacks as
        :meth:`set_measure` sums it: ``count * m`` on a uniform mass m, else
        one ``fsum`` over a prefix of the masses in that order."""
        radii = np.asarray(radii, dtype=float)
        if not (radii >= 0.0).all():
            raise WgrError("ball radius must be >= 0")
        row = self._cached_row(center)
        order = np.argsort(row, kind="stable")
        counts = np.searchsorted(row[order], radii, side="left")
        memo, m = self._mu, self._common_mass
        masses = memoryview(self._mass[order]) if m is None else None
        for r, k in zip(radii.tolist(), counts.tolist()):
            if (center, r) not in memo:
                mu = math.fsum(masses[:k]) if m is None else k * m
                # where k * m overflows, set_measure's fsum raises OverflowError
                memo[(center, r)] = mu if mu != math.inf else self.set_measure(order[:k])
        return order, counts

    def ball_spans(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """On a line, the ends ``lo, hi`` of each ``B(center, r)``, whose ids are
        ``lo..hi-1``. ``searchsorted`` on ``nextafter``-padded bounds places each
        end, which then steps by the computed distance, monotone on each side of
        the center, until no end moves. The memo gains each mu(B) it lacks: ``k * m``
        on a uniform mass m, else a span of the masses' exact prefix table; one that
        overflows stays out, for :meth:`ball_measure` to raise."""
        if not self.is_line:
            raise WgrError("ball spans need 1-d coordinates in id order")
        c, r = np.asarray(centers, dtype=np.intp), np.asarray(radii, dtype=float)
        n, x, m = self.n_points, self._coords[:, 0], self._common_mass
        if not (r >= 0.0).all():
            raise WgrError("ball radius must be >= 0")
        if c.size and not 0 <= c.min() <= c.max() < n:
            raise IndexError("ball center outside the space")
        here = self._coords[c]

        def inside(ids):
            return self._distances(here, self._coords[ids.clip(0, n - 1)]) < r

        with np.errstate(over="ignore"):
            lo = np.searchsorted(x, np.nextafter(x[c] - r, -np.inf), "left").clip(0, c + 1)
            hi = np.searchsorted(x, np.nextafter(x[c] + r, np.inf), "right").clip(c, n)
            while True:  # lo stays in 0..c+1 and hi in c..n; B is empty where lo passes hi
                lo_step = ((lo <= c) & ~inside(lo)).astype(np.intp) - ((lo > 0) & inside(lo - 1))
                hi_step = ((hi < n) & inside(hi)).astype(np.intp) - ((hi > c) & ~inside(hi - 1))
                if not (lo_step.any() or hi_step.any()):
                    break
                lo, hi = lo + lo_step, hi + hi_step
            lo = np.minimum(lo, hi)
            if m is None and self._mass_sums is None:
                self._mass_sums = exact_prefix_sums(self._mass)
            # k * m in float64 is Python's k * m; a measure stored again has the same bits
            mus = ((hi - lo) * m).tolist() if m is not None else [
                span_sum(*self._mass_sums, None, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        self._mu.update({key: mu for key, mu in zip(zip(c.tolist(), r.tolist()), mus)
                         if mu != math.inf})
        return lo, hi

    def set_measure(self, members) -> float:
        """Total mass of a point subset; the empty set has measure 0.

        ``k * m`` for k points of a uniform mass m (see the module notes);
        ``fsum`` for unequal masses and when that product overflows, where
        ``fsum`` raises ``OverflowError``.
        """
        members = np.asarray(members)
        if members.size == 0:
            return 0.0
        if members.dtype == bool:
            members = np.flatnonzero(members)
        picked = self._mass[members]
        if self._common_mass is not None:
            mu = picked.size * self._common_mass
            if mu != math.inf:
                return mu
        return fsum(picked)

    def ball_measure(self, center: int, r: float, members=None) -> float:
        """mu(B(center, r)) from the memo, summed on first use; ``members``,
        the ball's ids when the caller holds them, spares the query."""
        mu = self._mu.get((center, r))
        if mu is None:
            if members is None:
                members = self.ball_members(center, r)
            mu = self._mu[(center, r)] = self.set_measure(members)
        return mu

    def min_positive_distance(self, members=None) -> float | None:
        """Smallest positive pairwise distance among ``members`` (default: all),
        None without two distinct points. A table is scanned in row blocks.
        Coordinates are sorted by the first axis, and each lag pairs every
        point with the one ``lag`` places on. A computed distance is at least
        the computed one along the first axis (a rounded sum of nonnegative
        terms is no smaller than any term), which grows with the lag: the
        sweep ends at the first lag whose bounds all exceed the best so far."""
        idx = None if members is None else np.asarray(members)
        size = self.n_points if idx is None else idx.size
        if size < 2:
            return None
        best = math.inf
        if self._coords is None or not self._coords.shape[1]:
            for part in row_slices(size, size):
                block = self.dist_block(part if idx is None else idx[part], idx)
                best = min(best, float(np.min(block, where=block > 0.0, initial=math.inf)))
        else:
            pts = self._coords if idx is None else self._coords[idx]
            if (pts[1:, 0] < pts[:-1, 0]).any():  # grids come sorted; ties may come in any order
                pts = pts[np.argsort(pts[:, 0])]
            for lag in range(1, size):
                if self._distances(pts[:-lag, :1], pts[lag:, :1]).min() > best:
                    break
                d = self._distances(pts[:-lag], pts[lag:])
                best = float(np.minimum.reduce(d, where=d > 0.0, initial=best))
        return None if best == math.inf else best

    def coordinate_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Outer bounds of the populated region (cell edges for grids)."""
        if self._coords is None:
            raise WgrError("coordinate bounds are only defined for coordinate-backed spaces")
        half = self.min_positive_distance()
        pad = 0.0 if half is None else 0.5 * half
        return self._coords.min(axis=0) - pad, self._coords.max(axis=0) + pad

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "points": None if self._coords is None else self._coords.tolist(),
            "distance_matrix": None if self._dist is None else self._dist.tolist(),
            "mass": self._mass.tolist(),
            "metric_kind": self.metric_kind,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FiniteMetricMeasureSpace":
        if obj.get("points") is not None:
            return cls(obj["mass"], coords=obj["points"], metric_kind=obj["metric_kind"])
        return cls(obj["mass"], distance_matrix=obj["distance_matrix"])


# -- validation --------------------------------------------------------------


def validate_metric(space: FiniteMetricMeasureSpace) -> list[MetricViolation]:
    """Check the metric axioms: diagonal, sign and symmetry exactly, the
    triangle inequality up to the rounding band :data:`TRIANGLE_RTOL`.

    Returns the violations as data; an empty list certifies the axioms.
    O(n^3) over the triangle inequality, so refuses very large spaces.
    """
    n = space.n_points
    if n > VALIDATION_SIZE_CAP:
        raise TooLargeError(f"metric validation is O(n^3); n={n} exceeds {VALIDATION_SIZE_CAP}")
    dist = np.vstack([space.dist_row(i) for i in range(n)])
    violations: list[MetricViolation] = []
    for i in range(n):
        if dist[i, i] != 0.0:
            violations.append(MetricViolation("diagonal", (i,), float(dist[i, i])))
    neg = np.argwhere(dist < 0.0)
    for i, j in neg:
        violations.append(MetricViolation("negative", (int(i), int(j)), float(-dist[i, j])))
    asym = np.argwhere(dist != dist.T)
    for i, j in asym:
        if i < j:
            violations.append(
                MetricViolation("asymmetry", (int(i), int(j)), float(abs(dist[i, j] - dist[j, i])))
            )
    for k in range(n):
        through = dist[:, k][:, None] + dist[k, :][None, :]
        bad = np.argwhere(dist - through > TRIANGLE_RTOL * through)
        for i, j in bad:
            violations.append(
                MetricViolation(
                    "triangle",
                    (int(i), int(k), int(j)),
                    float(dist[i, j] - through[i, j]),
                )
            )
    return violations


# -- generators ----------------------------------------------------------------


def _grid_coords(n_dim: int, side: int, cell: float, offset: np.ndarray) -> np.ndarray:
    axes = [offset[d] + (np.arange(side) + 0.5) * cell for d in range(n_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_1d(a: float, b: float, n: int) -> FiniteMetricMeasureSpace:
    """n equispaced cell centers on [a, b], each with mass (b-a)/n."""
    if n < 1:
        raise InvalidGeneratorError(f"grid_1d needs n >= 1, got {n}")
    if not a < b:
        raise InvalidGeneratorError(f"grid_1d needs a < b, got a={a}, b={b}")
    h = (b - a) / n
    coords = _grid_coords(1, n, h, np.array([a]))
    return FiniteMetricMeasureSpace(
        np.full(n, h), coords=coords, metric_kind="euclidean"
    )


def grid_nd(n_dim: int, side: int, cell: float, metric_kind: str) -> FiniteMetricMeasureSpace:
    """side^n_dim cell centers with origin at 0 and mass cell^n_dim each.

    Chebyshev balls on this grid are axis-aligned cubes.
    """
    if n_dim < 1 or side < 1:
        raise InvalidGeneratorError("grid_nd needs n_dim >= 1 and side >= 1")
    if not cell > 0:
        raise InvalidGeneratorError(f"grid_nd needs cell > 0, got {cell}")
    if metric_kind not in ("euclidean", "chebyshev"):
        raise InvalidGeneratorError(f"unsupported metric_kind {metric_kind!r}")
    n = side**n_dim
    if n > GRID_SIZE_CAP:
        raise TooLargeError(f"grid of {n} points exceeds cap {GRID_SIZE_CAP}")
    coords = _grid_coords(n_dim, side, cell, np.zeros(n_dim))
    return FiniteMetricMeasureSpace(
        np.full(n, float(cell) ** n_dim), coords=coords, metric_kind=metric_kind
    )


# -- doubling ------------------------------------------------------------------


def doubling_profile(space: FiniteMetricMeasureSpace, ball_set) -> DoublingProfile:
    """Max of mu(2B)/mu(B) over the supplied balls, floored at 1.

    A ball is a :class:`~wgrkit.balls.Ball` or its ``(center, radius)`` key.
    The profile is relative to the ball set: a richer set can only increase
    it. Every ball must be nonempty. Measures come from the space's memo,
    so on a ratio-2 chain the double of one ball, the next ball, is summed once.
    On a line, every ball and double the memo lacks is measured first, in one
    :meth:`~FiniteMetricMeasureSpace.ball_spans` call.
    """
    c_mu, memo, n = 1.0, space._mu, space.n_points  # read first, as ball_measure does
    keys = [ball if isinstance(ball, tuple) else (ball.center, ball.radius) for ball in ball_set]
    if space.is_line:  # a key that cannot be measured is left to ball_measure, to raise in turn
        lack = [(c, s * r) for c, r in keys if 0 <= c < n and r >= 0.0
                for s in (1.0, 2.0) if (c, s * r) not in memo]
        if lack:
            space.ball_spans(*zip(*lack))
    for c, r in keys:
        m1 = memo.get((c, r)) or space.ball_measure(c, r)
        if m1 == 0.0:  # masses are positive, so only an empty ball has measure 0
            raise EmptyBallError(f"ball (center={c}, radius={r}) is empty")
        c_mu = max(c_mu, (memo.get((c, 2.0 * r)) or space.ball_measure(c, 2.0 * r)) / m1)
    return DoublingProfile.from_c_mu(c_mu)
