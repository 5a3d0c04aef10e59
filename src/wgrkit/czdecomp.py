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
from .util import span_sum
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
    table's, which the weight keeps (see :func:`_averages`).
    """
    return _averages(space, f, family).maximal


def level_set(mf: np.ndarray, lam: float, region: np.ndarray) -> np.ndarray:
    """Strict superlevel set {x in region : mf(x) > lam}."""
    region = np.asarray(region)
    return region[mf[region] > lam]


def _chain_radii(family: BallFamily) -> list[float]:
    """Ascending radii of the closure chains: each family radius and its
    power-of-two dilates up to twice the hat radius. They do not depend on
    the center."""
    top = 2.0 * (1.0 + family.eta) * family.base_ball.radius
    radii: set[float] = set()
    for r in family.radius_grid:
        rho = r
        while True:
            radii.add(rho)
            if rho >= top:
                break
            rho *= 2.0
    return sorted(radii)


def closure_keys(family: BallFamily) -> list[tuple[int, float]]:
    """Family balls plus their power-of-two dilates up to twice the hat radius,
    as ``(center, radius)`` keys, center then radius ascending.

    Doubling ratios measured over this set dominate the halving chains that
    compare any family ball against the hat ball, which is what makes the
    admissibility constant ``alpha`` effective on discrete data.
    """
    radii = _chain_radii(family)
    return [(c, rho) for c in sorted({b.center for b in family.members}) for rho in radii]


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
    """Per member ball: its points and, when nonempty, the average of |f|;
    and ``maximal``, the maximal function of |f| over the family (see
    :func:`maximal_function`).

    On a line with a prefix table of the products, one :meth:`~FiniteMetricMeasureSpace.ball_spans`
    batch finds and measures every family ball, closure ball and double:
    ``members`` is a ball's slice, w(B) a span of the weight's table, the one
    the ball pass reads. Elsewhere one :meth:`~FiniteMetricMeasureSpace.ball_prefixes`
    sweep per center, which measures its closure balls too, gives each ball
    as a prefix view of one distance order, and w(B) is an ``fsum`` over it.
    Either w(B) has ``fsum``'s bits, and :func:`closure_profile` reads only
    the memo. The table holds no reference to its space or family, which
    key it weakly on the weight.
    """

    def __init__(self, space, f, family: BallFamily):
        self.values = np.abs(as_values(f))
        self.grid = list(family.radius_grid)
        by_center: dict[int, list[float]] = {}
        for ball in family.members:
            by_center.setdefault(ball.center, []).append(ball.radius)
        self.centers = sorted(by_center)
        chain = _chain_radii(family)
        closure = {*chain, *(2.0 * rho for rho in chain)}
        # w(B) sums the same once-rounded products as weights._induced
        products = self.values * space.mass
        self.avg: dict[tuple[int, float], float] = {}
        self.members: dict[tuple[int, float], slice | np.ndarray] = {}
        self.maximal = np.zeros(space.n_points)
        table, memo = f._span_sums(space) if space.is_line else None, space._mu
        if table is not None:
            keys = [(c, r) for c, radii in by_center.items() for r in closure.union(radii)]
            spans = dict(zip(keys, zip(*(e.tolist() for e in space.ball_spans(*zip(*keys))))))
        for c, radii in by_center.items():
            ascending = sorted(radii)
            if table is not None:
                ends = [spans[(c, r)] for r in ascending]
                sums = [span_sum(*table, a, b) for a, b in ends]
                self.members.update({(c, r): slice(*ab) for r, ab in zip(ascending, ends)})
                outer = slice(*ends[-1])
            else:
                swept = sorted(closure.union(radii))
                order, counts = space.ball_prefixes(c, swept)
                count = dict(zip(swept, counts.tolist()))
                ends = [(0, count[r]) for r in ascending]
                # a copy, so the center's full order is not kept alive by the views
                outer = order[: ends[-1][1]].copy()
                p = memoryview(products[outer])
                sums = [math.fsum(p[:b]) for _, b in ends]
                self.members.update({(c, r): outer[:b] for r, (_, b) in zip(ascending, ends)})
            # a point takes the largest average over the balls that hold it: paint
            # the balls from the outermost in, each with the running maximum
            first, t = ends[-1][0], 0.0
            reach = np.empty(ends[-1][1] - first)
            for r, (a, b), w in zip(ascending[::-1], ends[::-1], sums[::-1]):
                if b > a:
                    avg = self.avg[(c, r)] = _avg(w, memo.get((c, r)) or space.ball_measure(c, r))
                    t = max(t, avg)
                reach[a - first:b - first] = t
            self.maximal[outer] = np.maximum(self.maximal[outer], reach)
        self.maximal.setflags(write=False)


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
    usable: list[Ball] = []
    oversized: list[Ball] = []
    tol = 1.0 + 1e-12
    for c in table.centers:
        best = None
        for r in table.grid:
            a = table.avg.get((c, r))
            if a is not None and a > lam:
                best = r
        if best is None:
            continue
        ball = Ball(c, best)
        if best <= cap * tol:
            usable.append(ball)
        else:
            oversized.append(ball)
    return usable, oversized


def _greedy_disjoint(table: _FamilyAverages, candidates: list[Ball]) -> list[Ball]:
    order = sorted(candidates, key=lambda b: (-b.radius, b.center))
    claimed = np.zeros(table.values.size, dtype=bool)
    accepted: list[Ball] = []
    for ball in order:
        members = table.members[ball]
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
            a = table.avg.get((ball.center, ball.radius * tau))
            if a is not None:
                dil[tau] = a
            tau *= 2.0
        certs.append(BallCertificate(ball, table.avg[ball], dil))
    return certs


def _verify(space, table: _FamilyAverages, lam: float, cap: float, dec: CZDecomposition,
            region: np.ndarray, mf: np.ndarray) -> None:
    claimed, ids = np.zeros(space.n_points, dtype=bool), np.arange(space.n_points)
    e_set = set(level_set(mf, lam, region).tolist())
    five = np.zeros(space.n_points, dtype=bool)
    for cert in dec.certificates:
        ball = cert.ball
        members = table.members[ball]
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
        keep = [ball for ball in usable if any(m[table.members[ball]].all() for m in restrict_to)]
        dropped = len(keep) < len(usable)
        usable = keep

    covered = np.zeros(space.n_points, dtype=bool)
    for ball in usable:
        covered[table.members[ball]] = True
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
        members = table.members[ball]
        j = next((k for k, m in enumerate(five_masks) if m[members].all()), None)
        if j is None:
            raise NestingError("fine ball escaped every coarse 5-dilate", witness=ball)
        mapping.append(j)
    return dec_lo, dec_hi, mapping
