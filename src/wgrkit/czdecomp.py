"""Discrete stopping-time (Calderon-Zygmund) decomposition.

Given a family over a base ball ``B0`` (dilate hat ``B0h = (1+eta) B0``),
the maximal function of a nonnegative ``f`` is the per-point supremum of
family-ball averages; the superlevel region ``E = {x in B0h : Mf(x) > lam}``
is then covered by disjoint stopping balls.

Stopping rule
-------------
For each family center ``y`` let ``R_y`` be the *largest* grid radius whose
ball average exceeds ``lam``. Since all larger radii at the same center are
exactly the power-of-two dilates on the grid, maximality certifies that
every admissible dilate ``tau B`` (``tau = 2, 4, 8, ...`` within the family)
has average at most ``lam``. A center is usable when ``R_y`` does not exceed
the cap ``eta r0 / (5 sigma)``; the admissibility precondition
``lam >= alpha * avg(f over B0h)`` with

    alpha = c_mu^2 (5 sigma)^D (1 + 1/eta)^D,   D = log2(c_mu)

guarantees the cap whenever ``c_mu`` was measured over a ball set closed
under the halving chains used here (see :func:`closure_keys`); an
understated profile surfaces as a loud construction error with a witness,
never as a silently wrong decomposition. Selection is Vitali-greedy in
decreasing radius (ties by center index), so unaccepted candidates meet an
accepted ball of at least their radius and land inside its 5-dilate.

Every returned decomposition is re-verified against its four advertised
properties before it escapes this module: the selected balls are pairwise
disjoint and sit inside ``E``, ``E`` sits inside their 5-dilates, radii
respect the cap, each average exceeds the level, and every certified
dilate average does not.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .balls import Ball, BallFamily
from .errors import CZConstructionError, CZPreconditionError, NestingError
from .space import DoublingProfile, FiniteMetricMeasureSpace, doubling_profile
from .util import ball_sum, span_max, span_sums
from .weights import _avg, _ball_average, _weight, as_values


class JNConstants(NamedTuple("JNConstants", [(k, float) for k in (
        "alpha", "a_const", "lambda0", "c0", "c_final", "eps")])):
    """Constant chain for the oscillation decay estimate.

    alpha    = c_mu^2 (5 sigma)^D (1 + 1/eta)^D
    a_const  = c_mu (5 sigma)^D e
    lambda0  = alpha c_mu sigma^D eps
    c0       = e^(1 + alpha / (5^D e))
    c_final  = c_mu^2 c0 / (alpha sigma^D)
    """

    __slots__ = ()


def jn_constants(profile: DoublingProfile, sigma: float, eta: float, eps: float) -> JNConstants:
    """Evaluate the decay-constant formulas exactly as written."""
    if not eps > 0:
        raise CZPreconditionError(f"eps must be > 0, got {eps}")
    if not sigma >= 1 or not eta > 0:
        raise CZPreconditionError("need sigma >= 1 and eta > 0")
    c_mu, d = profile.c_mu, profile.dimension_d
    alpha = c_mu**2 * (5.0 * sigma) ** d * (1.0 + 1.0 / eta) ** d
    a_const = c_mu * (5.0 * sigma) ** d * math.e
    lambda0 = alpha * c_mu * sigma**d * eps
    exponent = 1.0 + alpha / (5.0**d * math.e)
    # the formula can exceed float range on strongly doubling data; saturate
    c0 = math.exp(exponent) if exponent < 709.0 else math.inf
    c_final = c_mu**2 * c0 / (alpha * sigma**d)
    return JNConstants(alpha, a_const, lambda0, c0, c_final, float(eps))


def phi_sequence(a_const: float, eps: float, lambda0: float, m: int) -> list[float]:
    """Iterates of phi(d) = (A eps + 1) d + A eps starting at lambda0.

    Returns ``m + 1`` values; strictly increasing whenever ``A eps > 0``.
    """
    if m < 0:
        raise CZPreconditionError(f"m must be >= 0, got {m}")
    a_eps = a_const * eps
    seq = [float(lambda0)]
    for _ in range(m):
        seq.append((a_eps + 1.0) * seq[-1] + a_eps)
    return seq


def maximal_function(space: FiniteMetricMeasureSpace, f, family: BallFamily) -> np.ndarray:
    """Per point, the max of avg_B |f| over member balls containing it.

    Points in no member ball get 0; in particular the result vanishes
    outside ``(1+eta) B0``. The array is read-only: it is the averages
    table's, which the weight keeps (see :func:`_averages`). On a line it
    is one range maximum over the balls' id spans, O(|family| + n log n);
    elsewhere each ball is painted with its center's running maximum,
    O(sum of |B|). Max is exact, so both are the same bits.
    """
    return _averages(space, f, family).maximal


def level_set(mf: np.ndarray, lam: float, region: np.ndarray) -> np.ndarray:
    """Strict superlevel set {x in region : mf(x) > lam}."""
    region = np.asarray(region)
    return region[mf[region] > lam]


def closure_keys(family: BallFamily) -> list[tuple[int, float]]:
    """Family balls plus their power-of-two dilates up to twice the hat radius,
    as ``(center, radius)`` keys, center then radius ascending.

    Doubling ratios measured over this set dominate the halving chains that
    compare any family ball against the hat ball, which is what makes the
    admissibility constant ``alpha`` effective on discrete data.
    """
    top = 2.0 * (1.0 + family.eta) * family.base_ball.radius
    radii: set[float] = set()
    for r in family.radius_grid:
        rho = r
        while True:
            radii.add(rho)
            if rho >= top:
                break
            rho *= 2.0
    chain = sorted(radii)
    return [(c, rho) for c in sorted({b.center for b in family.members}) for rho in chain]


def closure_profile(space: FiniteMetricMeasureSpace, family: BallFamily) -> DoublingProfile:
    """:func:`doubling_profile` over :func:`closure_keys`."""
    return doubling_profile(space, closure_keys(family))


class BallCertificate(NamedTuple("BallCertificate", [
        ("ball", Ball), ("average", float), ("dilate_averages", dict)])):
    """Stopping certificate: the ball average and its in-family dilate averages."""

    __slots__ = ()


class CZDecomposition:
    """Disjoint stopping balls at one level with their certificates."""

    def __init__(self, level: float, balls: list[Ball], certificates: list[BallCertificate],
                 cap_radius: float):
        self.level, self.balls, self.certificates = level, balls, certificates
        self.cap_radius = cap_radius

    def to_json_obj(self, properties: dict | None = None) -> dict:
        obj = {
            "level": self.level,
            "balls": [
                {
                    "center": c.ball.center,
                    "radius": c.ball.radius,
                    "avg": c.average,
                    "doubled_avg": c.dilate_averages.get(2.0),
                }
                for c in self.certificates
            ],
        }
        if properties is not None:
            obj["properties"] = properties
        return obj


class _FamilyAverages:
    """The averages of |f| over a family's balls, as columns indexed by (center
    index, grid index): rows follow ``centers`` and columns the family's radius
    ``grid``, both ascending, since a family holds every center with every grid
    radius. ``avg`` holds each ball's average, NaN where the ball is empty;
    :meth:`members` gives a ball's points, :meth:`average` its average by key;
    ``maximal`` is the maximal function of |f| over the family (see
    :func:`maximal_function`).

    On a line with a prefix table of the products, one
    :meth:`~FiniteMetricMeasureSpace.ball_spans` batch gives every ball's ends
    ``lo`` and ``hi``, w(B) is a span of the weight's table, the one the ball
    pass reads, and ``maximal`` is one :func:`~wgrkit.util.span_max` over the
    spans: O(|family| + n log n). Elsewhere each ball is one
    :meth:`~FiniteMetricMeasureSpace.ball_members` query, kept in ``ids``, and
    w(B) an ``fsum`` over it, and ``maximal`` is painted ball by ball, each
    center's from the outermost radius in, with the running maximum: O(sum of
    |B|). Either w(B) has ``fsum``'s bits, mu(B) comes from the spans'
    measures on a line and the space's memo elsewhere, and numpy's division
    is Python's. The table holds no reference to its
    space or family, which key it weakly on the weight.
    """

    def __init__(self, space, f, family: BallFamily):
        self.values = np.abs(as_values(f))
        self.grid = family.radius_grid
        k = len(self.grid)
        self.centers = [c for c, _ in family.members[::k]]
        self.row = {c: i for i, c in enumerate(self.centers)}
        self.col = {r: j for j, r in enumerate(self.grid)}
        self.avg = np.full((len(self.centers), k), np.nan)
        self.ids = None
        table, memo = f._span_sums(space) if space.is_line else None, space._mu
        if table is not None:
            lo, hi = space.ball_spans(np.repeat(self.centers, k),
                                      np.tile(self.grid, len(self.centers)))
            w = span_sums(*table, lo.tolist(), hi.tolist())
            mu = space.span_measures(lo, hi)
            for x in np.flatnonzero(np.isinf(mu)).tolist():  # past the largest double: raises
                mu[x] = space.ball_measure(*family.members[x], range(lo[x], hi[x]))
            full = mu > 0.0
            with np.errstate(over="ignore"):  # an average past the largest double is inf
                np.divide(w, mu, out=self.avg.reshape(-1), where=full)
            self.lo, self.hi = lo.reshape(self.avg.shape), hi.reshape(self.avg.shape)
            self.maximal = span_max(lo[full], hi[full], self.avg.reshape(-1)[full], space.n_points)
        else:
            # w(B) sums the same once-rounded products as weights._induced
            products = self.values * space.mass
            self.ids = [[None] * k for _ in self.centers]
            self.maximal = np.zeros(space.n_points)
            for i, c in enumerate(self.centers):
                t = 0.0
                # a point takes the largest average over the balls that hold it: paint
                # the balls from the outermost in, each with the running maximum
                for j in reversed(range(k)):
                    r = self.grid[j]
                    members = self.ids[i][j] = space.ball_members(c, r)
                    w = ball_sum(products[members].tolist())
                    mu = memo.get((c, r)) or space.ball_measure(c, r, members)
                    if mu > 0.0:  # masses are positive, so only an empty ball has measure 0
                        avg = self.avg[i, j] = _avg(w, mu)
                        t = max(t, avg)
                        self.maximal[members] = np.maximum(self.maximal[members], t)
        self.maximal.setflags(write=False)

    def members(self, ball) -> slice | np.ndarray:
        """The points of a family ball: a slice on a line, else its ids."""
        i, j = self.row[ball[0]], self.col[ball[1]]
        if self.ids is not None:
            return self.ids[i][j]
        return slice(int(self.lo[i, j]), int(self.hi[i, j]))

    def average(self, center: int, radius: float) -> float | None:
        """The average over ``B(center, radius)``; None unless it is a nonempty family ball."""
        j = self.col.get(radius)
        a = math.nan if j is None else float(self.avg[self.row[center], j])
        return None if math.isnan(a) else a


def _averages(space: FiniteMetricMeasureSpace, f, family: BallFamily) -> _FamilyAverages:
    """The averages table of ``f`` over ``family``, built on first use and then
    kept by the weight's table on ``space``; a bare array gets a fresh one."""
    w = _weight(f)
    tables = w._sums(space).families
    table = tables.get(family)
    if table is None:
        table = tables[family] = _FamilyAverages(space, w, family)
    return table


def _candidates(table: _FamilyAverages, lam: float, cap: float):
    """Per-center maximal exceeding radii, split into usable/oversized."""
    exceeds = table.avg > lam  # NaN, an empty ball, exceeds nothing
    found = exceeds.any(axis=1)
    best = np.asarray(table.grid)[exceeds.shape[1] - 1 - exceeds[:, ::-1].argmax(axis=1)]
    fits = best <= cap * (1.0 + 1e-12)
    centers = np.asarray(table.centers)
    return [[Ball(c, r) for c, r in zip(centers[pick].tolist(), best[pick].tolist())]
            for pick in (found & fits, found & ~fits)]


def _greedy_disjoint(table: _FamilyAverages, candidates: list[Ball]) -> list[Ball]:
    order = sorted(candidates, key=lambda b: (-b.radius, b.center))
    claimed = np.zeros(table.values.size, dtype=bool)
    accepted: list[Ball] = []
    for ball in order:
        members = table.members(ball)
        if not claimed[members].any():
            accepted.append(ball)
            claimed[members] = True
    return accepted


def _certify(family, table: _FamilyAverages, accepted: list[Ball]) -> list[BallCertificate]:
    top = family.eta * family.base_ball.radius
    certs = []
    for ball in accepted:
        dil = {}
        tau = 2.0
        while ball.radius * tau <= top * (1.0 + 1e-12):
            a = table.average(ball.center, ball.radius * tau)
            if a is not None:
                dil[tau] = a
            tau *= 2.0
        certs.append(BallCertificate(ball, table.average(*ball), dil))
    return certs


def _verify(space, table: _FamilyAverages, lam: float, cap: float, dec: CZDecomposition,
            region: np.ndarray, mf: np.ndarray) -> None:
    claimed, ids = np.zeros(space.n_points, dtype=bool), np.arange(space.n_points)
    e_set = set(level_set(mf, lam, region).tolist())
    five = np.zeros(space.n_points, dtype=bool)
    for cert in dec.certificates:
        ball = cert.ball
        members = table.members(ball)
        if claimed[members].any():
            raise CZConstructionError("selected balls overlap", prop="disjoint", witness=ball)
        claimed[members] = True
        if not set(ids[members].tolist()) <= e_set:
            raise CZConstructionError(
                "selected ball leaves the superlevel region", prop="i", witness=ball
            )
        if ball.radius > cap * (1.0 + 1e-12):
            raise CZConstructionError("selected radius exceeds the cap", prop="ii", witness=ball)
        if not cert.average > lam:
            raise CZConstructionError("selected average at or below level", prop="iii", witness=ball)
        if any(a > lam for a in cert.dilate_averages.values()):
            raise CZConstructionError("dilate average above level", prop="iv", witness=ball)
        five |= space.ball_mask(ball.center, 5.0 * ball.radius)
    uncovered = [x for x in e_set if not five[x]]
    if uncovered:
        raise CZConstructionError(
            "superlevel point outside all 5-dilates", prop="cover", witness=uncovered[0]
        )


def cz_decompose(
    space: FiniteMetricMeasureSpace, f, lam: float, family: BallFamily, profile: DoublingProfile,
) -> CZDecomposition:
    """Stopping balls at level ``lam`` satisfying the four properties.

    Preconditions: the superlevel region is nonempty and
    ``lam >= alpha * avg(f over (1+eta) B0)``. Postconditions are verified
    before returning; a failure raises :class:`CZConstructionError` with
    the violated property and a witness.
    """
    return _decompose(space, f, lam, family, profile, None)


def _decompose(space, f, lam: float, family: BallFamily, profile: DoublingProfile,
               restrict_to: list[np.ndarray] | None) -> CZDecomposition:
    """The body of :func:`cz_decompose`. ``restrict_to``, unless None, holds
    point masks of coarse 5-dilates: only candidates inside one of them stay
    usable, and a superlevel point none of those covers raises
    :class:`NestingError`. :func:`cz_nested` builds its fine level here.
    """
    table = _averages(space, f, family)
    hat_members = space.ball_members(family.hat_ball.center, family.hat_ball.radius)
    f_hat = _ball_average(space, table.values, family.hat_ball, hat_members)
    alpha = jn_constants(profile, family.sigma, family.eta, 1.0).alpha
    if lam < alpha * f_hat:
        raise CZPreconditionError(
            f"level {lam} below admissible threshold alpha*f_hat = {alpha * f_hat}"
        )
    mf = table.maximal
    e_members = level_set(mf, lam, hat_members)
    if e_members.size == 0:
        raise CZPreconditionError("superlevel region is empty at this level")

    cap = family.eta * family.base_ball.radius / (5.0 * family.sigma)
    usable, oversized = _candidates(table, lam, cap)
    dropped = False
    if restrict_to is not None:
        keep = [ball for ball in usable if any(m[table.members(ball)].all() for m in restrict_to)]
        dropped = len(keep) < len(usable)
        usable = keep

    covered = np.zeros(space.n_points, dtype=bool)
    for ball in usable:
        covered[table.members(ball)] = True
    missing = [x for x in e_members.tolist() if not covered[x]]
    if missing:
        if dropped:
            raise NestingError(
                "no admissible candidate inside a coarse 5-dilate covers a superlevel point",
                witness=missing[0],
            )
        raise CZConstructionError(
            "superlevel point only reachable through an over-cap radius "
            "(admissibility constant understated by the supplied profile)",
            prop="ii",
            witness=(missing[0], oversized[:1]),
        )

    accepted = _greedy_disjoint(table, usable)
    dec = CZDecomposition(
        level=float(lam),
        balls=accepted,
        certificates=_certify(family, table, accepted),
        cap_radius=cap,
    )
    _verify(space, table, lam, cap, dec, hat_members, mf)
    return dec


def cz_nested(
    space: FiniteMetricMeasureSpace,
    f,
    lam_lo: float,
    lam_hi: float,
    family: BallFamily,
    profile: DoublingProfile,
) -> tuple[CZDecomposition, CZDecomposition, list[int]]:
    """Decompositions at two levels with each fine ball in a coarse 5-dilate.

    Builds the coarse (low) level with :func:`cz_decompose`, then the fine
    level with its candidates restricted to balls contained in some coarse
    5-dilate, and returns the containment map (index into the low-level
    balls, parallel to the high-level balls), checked once more as the
    nesting postcondition. Impossibility raises :class:`NestingError` with a
    witness. Both levels, and :func:`maximal_function`, read the one averages
    table that the weight keeps for ``family``; a bare array gets one for
    this call.
    """
    if not lam_lo <= lam_hi:
        raise CZPreconditionError("need lam_lo <= lam_hi")
    f = _weight(f)
    table = _averages(space, f, family)
    dec_lo = cz_decompose(space, f, lam_lo, family, profile)
    five_masks = [space.ball_mask(b.center, 5.0 * b.radius) for b in dec_lo.balls]
    dec_hi = _decompose(space, f, lam_hi, family, profile, five_masks)
    mapping: list[int] = []
    for ball in dec_hi.balls:
        members = table.members(ball)
        j = next((k for k, m in enumerate(five_masks) if m[members].all()), None)
        if j is None:
            raise NestingError("fine ball escaped every coarse 5-dilate", witness=ball)
        mapping.append(j)
    return dec_lo, dec_hi, mapping
