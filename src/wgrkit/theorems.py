"""Numerical verifiers for the oscillation/decay inequality chain.

Every checker evaluates both sides of an inequality on a concrete
instance and reports the smallest signed gap (RHS - LHS) together with
the witness attaining it. Hypothesis constants (the oscillation constant
``eps``, superlevel constant ``beta``, sublevel constant ``alpha_m``) are
measured from the instance by default, as suprema over the supplied ball
system, and may instead be supplied explicitly; reports always record
which value was used and which doubling constant entered the formulas.

The implication checkers run over a ball family; the four decay checkers
take one :class:`BallSystem` from :func:`build_ball_system` as their only
geometry. The system takes B0, sigma and eta from its family, so none of
them can disagree with its measuring set or constants.

Margins are judged with a relative tolerance against the RHS scale;
margins within the tolerance band are flagged ``boundary``. A check whose
compared sets are all empty (nothing exceeds the level anywhere) passes
*vacuously* and says so: a vacuous pass is never presented as evidence.
"""
from __future__ import annotations

import math

import numpy as np

from .balls import (
    Ball, BallFamily, _ball, _grid, _members, ball_index, build_family, dilate, five_r_cover,
    verify_cover,
)
from .czdecomp import JNConstants, closure_keys, jn_constants
from .errors import (
    DegenerateWeightError,
    DomainError,
    InvalidExponentError,
    InvalidParameterError,
    ThresholdError,
)
from .space import DoublingProfile, FiniteMetricMeasureSpace, doubling_profile
from .util import exact_prefix_sums, fsum, span_sums, weighted_sum
from .weights import (
    _avg,
    _ball_average,
    _ball_map,
    _neg_terms,
    _pos_terms,
    _ratios,
    _resolve_sigma,
    _rhi,
    _sup,
    _weight,
    _sublevel,
    _weak_ainfty,
    _WGR,
    _WGR_MINUS,
    as_values,
    family_balls,
    Weight,
)

#: Relative tolerance for inequality margins, against the RHS scale.
MARGIN_RTOL = 1e-9


class CheckReport:
    """Outcome of one inequality check.

    ``margin`` is the smallest signed absolute gap RHS - LHS over all
    compared instances; ``margin_rel`` is that gap relative to the RHS
    scale at the witness. ``passed`` iff ``margin_rel >= -tolerance`` with
    the tolerance recorded in ``params``.
    """

    def __init__(self, name: str, passed: bool, margin: float, witness: object = None,
                 params: dict | None = None, vacuous: bool = False, boundary: bool = False,
                 margin_rel: float = math.inf, notes: str = "", table: list[tuple] | None = None):
        self.name, self.passed, self.margin, self.witness = name, passed, margin, witness
        self.params = {} if params is None else params
        self.vacuous, self.boundary, self.margin_rel = vacuous, boundary, margin_rel
        self.notes, self.table = notes, [] if table is None else table

    def to_json_obj(self) -> dict:
        witness = self.witness
        if isinstance(witness, Ball):
            witness = {"center": witness.center, "radius": witness.radius}
        return {
            "name": self.name,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "boundary": self.boundary,
            "margin": _finite_or_str(self.margin),
            "margin_rel": None if self.margin_rel == math.inf else _finite_or_str(self.margin_rel),
            "witness": witness,
            "params": _finite_or_str(self.params),
            "notes": self.notes,
        }


def _finite_or_str(obj):
    """Replace non-finite reals by their string form for serialization."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _finite_or_str(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_str(v) for v in obj]
    return obj


def _gap(lhs: float, rhs: float) -> tuple[float, float]:
    """RHS - LHS, and that gap relative to the larger side; -inf for both when a
    side is not finite: an infinite or NaN side is no evidence, so it never passes."""
    if math.isfinite(lhs) and math.isfinite(rhs):
        gap = rhs - lhs
        return gap, gap / max(abs(rhs), abs(lhs), 1e-300)
    return -math.inf, -math.inf


class _MarginTracker:
    """Accumulates per-instance gaps and produces the report skeleton."""

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = dict(params)
        self.params.setdefault("tolerance", MARGIN_RTOL)
        self.margin = math.inf
        self.margin_rel = math.inf
        self.witness = None
        self.n_compared = 0
        self.n_vacuous = 0

    def add(self, lhs: float, rhs: float, witness, vacuous: bool = False) -> float:
        """Record one comparison; returns its gap, -inf when a side is not finite."""
        self.n_compared += 1
        if vacuous:
            self.n_vacuous += 1
        gap, rel = _gap(lhs, rhs)
        if rel < self.margin_rel:
            self.margin_rel = rel
            self.margin = gap
            self.witness = witness
        return gap

    def report(self, notes: str = "", table=None) -> CheckReport:
        """The report so far; with nothing compared, a vacuous pass by construction."""
        tol = self.params["tolerance"]
        if self.n_compared:
            self.params.update(n_compared=self.n_compared, n_vacuous=self.n_vacuous)
        return CheckReport(
            self.name, passed=self.margin_rel >= -tol, margin=self.margin, witness=self.witness,
            params=self.params, vacuous=self.n_vacuous == self.n_compared,
            boundary=abs(self.margin_rel) <= tol, margin_rel=self.margin_rel, notes=notes,
            table=table or [],
        )


# ---------------------------------------------------------------------------
# superlevel / sublevel equivalences
# ---------------------------------------------------------------------------


def _implication(name, space, w, family, sigma, params: dict, key: str,
                 functional: tuple, kernel) -> CheckReport:
    """The body the four implication checkers share.

    ``params[key]`` is the hypothesis constant. When it is None it is
    measured as the sup over the balls of the ratio ``functional``, a
    ``(name, param, kernel)`` of the weights functional that defines it,
    read from the weight's ratio table on ``space`` as that functional
    reads it, with the ratios the table lacks evaluated in one pass. One
    :func:`~wgrkit.weights._ball_map` pass over B with the kernel
    ``kernel(constant)``, whose ``finish`` returns (lhs, rhs, vacuous), then
    feeds the tracker, reading the S side from that table. A checker with a
    ``lambda`` needs constant < lambda < 1, and is vacuous at 0.
    """
    balls, sigma, w = family_balls(family), _resolve_sigma(family, sigma), _weight(w)
    measured = params[key] is None
    if measured:
        params[key] = _measure(functional, space, w, balls, sigma)
    const = params[key]
    tracker = _MarginTracker(name, {"sigma": sigma, **params, f"{key}_measured": measured})
    lam = params.get("lambda")
    if lam is not None and const == 0.0:
        return tracker.report(notes="constant weight: oscillation constant is 0; vacuous")
    if lam is not None and not const < lam < 1.0:
        raise InvalidParameterError(f"need eps < lambda < 1, got eps={const}, lambda={lam}")
    per_ball = _ball_map(space, w, balls, sigma, kernel(const))
    for ball, (lhs, rhs, vacuous) in zip(balls, per_ball):
        tracker.add(lhs, rhs, ball, vacuous=vacuous)
    return tracker.report()


def check_superlevel_bound(
    space: FiniteMetricMeasureSpace, w, family, lam: float, eps: float | None = None,
    sigma: float | None = None,
) -> CheckReport:
    """Positive-part oscillation controls weighted superlevel sets.

    With S = sigma B and eps such that int_B (w - w_S)_+ dmu <= eps w(S)
    for all family balls (measured as the sup by default), verifies per
    ball, for eps < lam < 1:

        w(B n {(1 - eps/lam) w >= w_S}) <= lam w(S)
    """

    def kernel(eps):
        factor = 1.0 - eps / lam
        return (lambda v, m, c: (v * m * (level := factor * v >= c), level),
                lambda total, hit, w_s, mu_s, mu_b: (total, lam * w_s, not hit))

    return _implication("superlevel_bound", space, w, family, sigma,
                        {"lambda": lam, "eps": eps}, "eps", ("wgr_epsilon", None, _WGR), kernel)


def check_osc_from_superlevel(
    space: FiniteMetricMeasureSpace, w, family, alpha: float, beta: float | None = None,
    sigma: float | None = None,
) -> CheckReport:
    """Weighted superlevel bound controls positive-part oscillation.

    With S = sigma B and beta such that w(B n {alpha w >= w_S}) <= beta w(S)
    for all family balls (measured by default), verifies per ball:

        int_B (w - w_S)_+ dmu <= (1 - alpha (1 - beta)) w(S)
    """

    def kernel(beta):
        coeff = 1.0 - alpha * (1.0 - beta)
        return _pos_terms, lambda total, hit, w_s, mu_s, mu_b: (total, coeff * w_s, total == 0.0)

    return _implication("osc_from_superlevel", space, w, family, sigma,
                        {"alpha": alpha, "beta": beta}, "beta",
                        ("weak_ainfty_beta", alpha, _weak_ainfty(alpha)), kernel)


def check_sublevel_bound(
    space: FiniteMetricMeasureSpace, w, family, lam: float, eps: float | None = None,
    sigma: float | None = None,
) -> CheckReport:
    """Negative-part oscillation controls plain-measure sublevel sets.

    With S = sigma B and eps such that avg_B (w - w_S)_- <= eps w_S for all
    family balls (measured by default), verifies per ball, eps < lam < 1:

        mu(B n {w <= (1 - eps/lam) w_S}) <= lam mu(B)
    """

    def kernel(eps):
        factor = 1.0 - eps / lam
        return (lambda v, m, c: (m * (level := v <= factor * c), level),
                lambda total, hit, w_s, mu_s, mu_b: (total, lam * mu_b, not hit))

    return _implication("sublevel_bound", space, w, family, sigma,
                        {"lambda": lam, "eps": eps}, "eps",
                        ("wgr_minus_epsilon", None, _WGR_MINUS), kernel)


def check_neg_osc_from_sublevel(
    space: FiniteMetricMeasureSpace, w, family, beta: float, alpha_m: float | None = None,
    sigma: float | None = None,
) -> CheckReport:
    """Plain-measure sublevel bound controls negative-part oscillation.

    With S = sigma B and alpha_m such that mu(B n {w <= beta w_S}) <=
    alpha_m mu(B) for all family balls (measured by default), verifies:

        avg_B (w - w_S)_- <= (1 - (1 - alpha_m) beta) w_S
    """

    def kernel(alpha_m):
        coeff = 1.0 - (1.0 - alpha_m) * beta
        return _neg_terms, lambda total, hit, w_s, mu_s, mu_b: (
            lhs := _avg(total, mu_b), coeff * _avg(w_s, mu_s), lhs == 0.0)

    return _implication("neg_osc_from_sublevel", space, w, family, sigma,
                        {"beta": beta, "alpha": alpha_m}, "alpha",
                        ("sublevel_alpha", beta, _sublevel(beta)), kernel)


# ---------------------------------------------------------------------------
# decay geometry: base ball, measuring system, constants
# ---------------------------------------------------------------------------


class BallSystem:
    """All ball machinery for decay checks over one base ball B0, and the
    only geometry the decay checkers read: their space, and the family,
    whose B0, sigma and eta the system reports as its own.

    ``measuring`` holds the family members plus the hat ball and the
    5-dilates of small members -- every ball whose sigma-dilate stays
    (by center/radius arithmetic) inside ``sigma * hat``, i.e. everything
    the decay argument compares against. The doubling profile defaults to
    the complete ball set used by the run (measuring set plus the
    power-of-two halving chains).
    """

    def __init__(self, space: FiniteMetricMeasureSpace, family: BallFamily,
                 measuring: list[Ball], profile: DoublingProfile, base_members: np.ndarray,
                 hat_members: np.ndarray, sigma_hat_members: np.ndarray):
        self.space, self.family, self.measuring, self.profile = space, family, measuring, profile
        self.base_members, self.hat_members = base_members, hat_members
        self.sigma_hat_members = sigma_hat_members

    base_ball = property(lambda self: self.family.base_ball)
    sigma = property(lambda self: self.family.sigma)
    eta = property(lambda self: self.family.eta)


def build_ball_system(
    space: FiniteMetricMeasureSpace, family: BallFamily | Ball,
    sigma: float | None = None, eta: float | None = None, *, profile: DoublingProfile | None = None,
) -> BallSystem:
    """The decay ball system of ``family``, whose base ball, sigma and eta it takes;
    ``build_ball_system(space, base_ball, sigma, eta)`` builds that family first."""
    if isinstance(family, Ball):
        family = build_family(space, family, eta, sigma)
    elif (sigma, eta) != (None, None):
        raise TypeError("build_ball_system: a BallFamily carries its own sigma and eta")
    base_ball, sigma, eta = family.base_ball, family.sigma, family.eta
    measuring = _measuring(family.members, base_ball, sigma, eta)
    if profile is None:
        profile = doubling_profile(space, sorted(set(measuring).union(closure_keys(family))))
    return BallSystem(
        space=space,
        family=family,
        measuring=measuring,
        profile=profile,
        base_members=space.ball_members(base_ball.center, base_ball.radius),
        hat_members=space.ball_members(base_ball.center, (1.0 + eta) * base_ball.radius),
        sigma_hat_members=space.ball_members(
            base_ball.center, sigma * (1.0 + eta) * base_ball.radius
        ),
    )


def _measuring(members, base_ball: Ball, sigma: float, eta: float) -> list[Ball]:
    """The measuring set of a system over ``base_ball`` whose family has ``members``:
    the members, the hat ball and the 5-dilates of the members up to
    ``(sigma (1+eta) - 1) r0 / (5 sigma)``, sorted, each once."""
    lim = (sigma * (1.0 + eta) - 1.0) * base_ball.radius / (5.0 * sigma)
    return sorted({*members, dilate(base_ball, 1.0 + eta),
                   *(_ball((c, 5.0 * r)) for c, r in members if r <= lim)})


def _measure(functional: tuple, space: FiniteMetricMeasureSpace, w: Weight, balls,
             factor: float) -> float:
    """The sup over ``balls`` of the ratios of ``functional``, a ``(name, param, kernel)``
    of the weights functional that defines it, at S = factor B: read from the weight's
    ratio table on ``space``, which one pass fills with the ratios it lacks."""
    name, param, kernel = functional
    ratios = _ratios(name, param, space, w, balls, float(factor), kernel)
    return _sup([ratios[b] for b in balls])[0]


def _system_eps(system: BallSystem, w: Weight) -> float:
    """The oscillation constant eps of a system: the sup of the :func:`wgr_epsilon`
    ratios over its measuring balls."""
    return _measure(("wgr_epsilon", None, _WGR), system.space, w, system.measuring, system.sigma)


def _decay_inputs(name: str, system: BallSystem, w: Weight, eps: float | None, **params):
    """The reference average c, eps, the excess (w - c)_+ and the tracker of
    check ``name``, with the system's sigma and eta, ``params``, and the
    constants every decay checker records."""
    values = as_values(w)
    c = _reference_average(system.space, values, system.base_ball, system.sigma_hat_members,
                           system.sigma, system.eta)
    measured = eps is None
    if measured:
        eps = _system_eps(system, w)
    params = {"sigma": system.sigma, "eta": system.eta, **params,
              "c_mu": system.profile.c_mu, "D": system.profile.dimension_d,
              "eps": float(eps), "eps_measured": measured, "w_ref": c}
    return c, float(eps), np.maximum(values - c, 0.0), _MarginTracker(name, params)


def check_jn_decay(
    system: BallSystem, w, lambda_grid, eps: float | None = None,
) -> CheckReport:
    """Exponential decay of large positive oscillation.

    With c = avg of w over sigma*(1+eta)*B0 and constants A, C, lambda0
    from :func:`jn_constants` at the measured (or supplied) oscillation
    constant eps, verifies at every grid lambda >= lambda0:

        mu({x in B0 : (w - c)_+ > lambda c})
            <= (1/(1+lambda))^(1/(A eps)) * (C/(eps c)) * int_hat (w - c)_+ dmu

    Rows (lambda, lhs, rhs, margin, vacuous) are returned in the report
    table; a lambda whose superlevel set is empty is flagged vacuous.
    """
    c, eps, excess, tracker = _decay_inputs(
        "jn_decay", system, _weight(w), eps, n_measuring_balls=len(system.measuring)
    )
    if eps == 0.0:
        return tracker.report(notes="constant weight: oscillation constant is 0; vacuous")
    consts = jn_constants(system.profile, system.sigma, system.eta, eps)
    tracker.params.update(
        {
            "alpha": consts.alpha,
            "A": consts.a_const,
            "lambda0": consts.lambda0,
            "C0": consts.c0,
            "C": consts.c_final,
        }
    )
    hat_excess = weighted_sum(excess[system.hat_members], system.space.mass[system.hat_members])
    rows = []
    for lam in lambda_grid:
        if lam < consts.lambda0 * (1.0 - 1e-12):
            raise InvalidParameterError(
                f"lambda grid entry {lam} below lambda0 = {consts.lambda0}"
            )
        sel = system.base_members[excess[system.base_members] > lam * c]
        lhs = system.space.set_measure(sel)
        rhs = (1.0 / (1.0 + lam)) ** (1.0 / (consts.a_const * eps)) * (
            consts.c_final / (eps * c)
        ) * hat_excess
        vac = sel.size == 0
        gap = tracker.add(lhs, rhs, float(lam), vacuous=vac)
        rows.append((float(lam), lhs, rhs, gap, int(vac)))
    return tracker.report(table=rows)


def _power_bound_constant(consts: JNConstants, system: BallSystem, p: float, eps: float) -> float:
    """Self-improvement constant with the exact beta-function value.

    C(p) = p (alpha c_mu sigma^D)^(p-1)
         + p * B(p, 1/(A eps) - p) * eps^(-p) * C_decay
    """
    y = 1.0 / (consts.a_const * eps)
    exact_beta = beta_fn(p, y - p)
    lead = consts.alpha * system.profile.c_mu * system.sigma**system.profile.dimension_d
    return p * lead ** (p - 1.0) + p * exact_beta * eps ** (-p) * consts.c_final


def _weak_rhi_constant(consts: JNConstants, system: BallSystem, p: float, eps: float) -> float:
    """C with C^p = C_power * c_mu * ((1+eta) sigma)^D, the weak bound's constant."""
    c_power = _power_bound_constant(consts, system, p, eps)
    dilation = ((1.0 + system.eta) * system.sigma) ** system.profile.dimension_d
    return (c_power * system.profile.c_mu * dilation) ** (1.0 / p)


def _reference_average(space: FiniteMetricMeasureSpace, values, ball: Ball, members,
                       sigma: float, eta: float) -> float:
    """c, the average of w over the sigma-hat ball ``sigma (1+eta) ball``, whose ids
    ``members`` holds; the weak bound's right side is a multiple of it."""
    c = _ball_average(space, values, dilate(ball, sigma * (1.0 + eta)), members)
    if c <= 0.0:
        raise DegenerateWeightError("weight vanishes on the sigma-hat reference ball")
    return c


def _power_mean(space: FiniteMetricMeasureSpace, values, ball: Ball, members, p: float) -> float:
    """(avg over ``ball`` of w^p)^(1/p), from its ids ``members``: the weak bound's left side."""
    mu = space.ball_measure(ball.center, ball.radius, members)
    return (weighted_sum(values[members] ** p, space.mass[members]) / mu) ** (1.0 / p)


def _require_osc_range(consts: JNConstants, eps: float, p: float) -> None:
    if not eps < 1.0 / (2.0 * consts.a_const):
        raise ThresholdError(
            f"oscillation constant {eps} is not below 1/(2A) = {1.0 / (2.0 * consts.a_const)}"
        )
    if not 1.0 < p <= 1.0 / (2.0 * consts.a_const * eps):
        raise InvalidExponentError(
            f"need 1 < p <= 1/(2 A eps) = {1.0 / (2.0 * consts.a_const * eps)}, got {p}"
        )


def check_osc_power_bound(
    system: BallSystem, w, p: float, eps: float | None = None,
) -> CheckReport:
    """Self-improvement: p-th power of the positive oscillation.

    For measured eps < 1/(2A) and 1 < p <= 1/(2 A eps), with c the
    sigma-hat average, verifies

        int_B0 (w - c)_+^p dmu
            <= C(p) eps^(p-1) c^(p-1) int_hat (w - c)_+ dmu

    with the exact-beta constant of :func:`_power_bound_constant`.
    """
    c, eps, excess, tracker = _decay_inputs(
        "osc_power_bound", system, _weight(w), eps, p=p
    )
    if eps == 0.0:
        return tracker.report(notes="constant weight: oscillation constant is 0; vacuous")
    consts = jn_constants(system.profile, system.sigma, system.eta, eps)
    _require_osc_range(consts, eps, p)
    c_p = _power_bound_constant(consts, system, p, eps)
    tracker.params.update({"alpha": consts.alpha, "A": consts.a_const, "C": c_p})
    lhs = weighted_sum(
        excess[system.base_members] ** p, system.space.mass[system.base_members]
    )
    hat_excess = weighted_sum(excess[system.hat_members], system.space.mass[system.hat_members])
    rhs = c_p * eps ** (p - 1.0) * c ** (p - 1.0) * hat_excess
    tracker.add(lhs, rhs, system.base_ball, vacuous=lhs == 0.0)
    return tracker.report()


def check_weak_rhi(
    system: BallSystem, w, p: float, eps: float | None = None,
) -> CheckReport:
    """Weak reverse Holder bound against the sigma-hat reference ball.

    Under the same ranges as :func:`check_osc_power_bound`, with
    C^p = C_power * c_mu * ((1+eta) sigma)^D, verifies

        (avg_B0 w^p)^(1/p) <= (C eps + 1) * avg over sigma*(1+eta)*B0 of w
    """
    base_ball, sigma, eta, w = system.base_ball, system.sigma, system.eta, _weight(w)
    c, eps, _, tracker = _decay_inputs("weak_rhi", system, w, eps, p=p)
    lhs = _power_mean(system.space, w.values, base_ball, system.base_members, p)
    if eps == 0.0:
        tracker.add(lhs, c, base_ball)
        return tracker.report(notes="constant weight: bound reduces to the plain average")
    consts = jn_constants(system.profile, sigma, eta, eps)
    _require_osc_range(consts, eps, p)
    big_c = _weak_rhi_constant(consts, system, p, eps)
    tracker.params.update({"alpha": consts.alpha, "A": consts.a_const, "C": big_c})
    tracker.add(lhs, (big_c * eps + 1.0) * c, base_ball)
    return tracker.report()


def check_cover_rhi(
    system: BallSystem, w, p: float, eps: float | None = None,
) -> CheckReport:
    """Reverse Holder bound with the smaller sigma*B0 reference ball.

    Covers B0 with N balls of radius (sigma-1)/(sigma(1+eta)) * r0 via the
    greedy 5r construction, applies the weak bound on each piece with one
    shared oscillation constant (the max over the base system and every
    piece's system), and verifies the assembled inequality

        (avg_B0 w^p)^(1/p)
            <= (C eps + 1) c_mu^(2 + 1/p) (sigma/(sigma-1))^D N^(1/p)
               * avg over sigma*B0 of w

    The cover postconditions (full coverage, disjoint fifth-dilates,
    containment in sigma*B0, count bound) are re-verified and reported.
    A piece is the ids of its ball, hat and sigma-hat, from one
    :func:`~wgrkit.balls.ball_index` batch, and its family's measuring set:
    no family, system or report. One pass fills the ratios of every
    measuring set before each takes its sup. The weak bound's constants
    depend on the profile, sigma, eta, eps and p alone: they are evaluated once.
    """
    space, base_ball, sigma, eta = system.space, system.base_ball, system.sigma, system.eta
    if not sigma > 1.0:
        raise InvalidParameterError(f"cover bound needs sigma > 1, got {sigma}")
    w = _weight(w)
    values = as_values(w)
    cover = five_r_cover(space, base_ball, sigma, eta)
    cover_report = verify_cover(space, base_ball, cover, sigma, eta, system.profile)

    # each piece's ball, hat and sigma-hat, piece after piece: off a line they share a row
    index = ball_index(space, [b.center for b in cover for _ in range(3)], [r for b in cover for r in (
        b.radius, (1.0 + eta) * b.radius, sigma * (1.0 + eta) * b.radius)])
    ids, measurings = np.arange(space.n_points), [system.measuring]
    for b, own, hat in zip(cover, index[::3], index[1::3]):
        grid = _grid(space, eta * b.radius, ids[hat])
        measurings.append(_measuring(_members(ids[own].tolist(), grid), b, sigma, eta))
    measured = eps is None
    if measured:
        union = sorted({b for each in measurings for b in each})
        ratios = _ratios("wgr_epsilon", None, space, w, union, float(sigma), _WGR)
        eps = max(_sup([ratios[b] for b in each])[0] for each in measurings)
    params = {
        "sigma": sigma,
        "eta": eta,
        "p": p,
        "c_mu": system.profile.c_mu,
        "D": system.profile.dimension_d,
        "eps": eps,
        "eps_measured": measured,
        "n_cover": len(cover),
        "cover_coverage": cover_report["coverage"],
        "cover_fifth_disjoint": cover_report["all_fifth_disjoint"],
        "cover_contained": cover_report["all_contained"],
        "cover_count_bound": cover_report["count_bound"],
        "cover_count_ok": cover_report["count_ok"],
    }
    tracker = _MarginTracker("cover_rhi", params)
    lhs = _power_mean(space, values, base_ball, system.base_members, p)
    ref = _ball_average(space, values, dilate(base_ball, sigma))
    if eps == 0.0:
        tracker.add(lhs, ref, base_ball)
        return tracker.report(notes="constant weight: bound reduces to the plain average")

    consts = jn_constants(system.profile, sigma, eta, eps)
    _require_osc_range(consts, eps, p)
    # every piece must satisfy the weak bound (C eps + 1) c at the shared eps, as
    # check_weak_rhi judges it; C comes after the first piece's sides, as it did there
    scale = None
    for b, own, sigma_hat in zip(cover, index[::3], index[2::3]):
        c = _reference_average(space, values, b, ids[sigma_hat], sigma, eta)
        piece = _power_mean(space, values, b, ids[own], p)
        if scale is None:
            scale = _weak_rhi_constant(consts, system, p, eps) * eps + 1.0
        gap, rel = _gap(piece, scale * c)
        if not rel >= -MARGIN_RTOL:
            tracker.add(-gap, 0.0, b)
            return tracker.report(notes="a cover piece violates the weak bound")
    c_mu, dim = system.profile.c_mu, system.profile.dimension_d
    big_c = (
        scale * c_mu ** (2.0 + 1.0 / p) * (sigma / (sigma - 1.0)) ** dim * len(cover) ** (1.0 / p)
    )
    tracker.params["C"] = big_c
    tracker.add(lhs, big_c * ref, base_ball)
    ok_cover = (
        cover_report["coverage"] == 1.0
        and cover_report["all_fifth_disjoint"]
        and cover_report["all_contained"]
        and cover_report["count_ok"]
    )
    rep = tracker.report(notes="" if ok_cover else "cover postcondition failed")
    rep.passed = rep.passed and ok_cover
    return rep


def check_rhi_equivalence_observed(
    space: FiniteMetricMeasureSpace,
    w,
    family,
    alpha: float,
    beta: float,
    p_grid,
    sigma: float | None = None,
) -> CheckReport:
    """Observational log relating the superlevel condition to bounded RHI.

    Records whether the measured superlevel constant at ``alpha`` stays
    below ``beta`` with ``beta`` under the smallness threshold
    ``c_mu^(-floor(log2(5 sigma^2)) - 1)``, and the reverse Holder
    constants along ``p_grid``. Purely observational: always passes,
    both directions are logged for the reader. A ratio already held in the
    weight's table of ball sums is reused. An empty ``p_grid`` compares
    nothing and raises :class:`DomainError`.
    """
    p_grid = list(p_grid)
    if not p_grid:
        raise DomainError("p_grid is empty")
    balls, sigma = family_balls(family), _resolve_sigma(family, sigma)
    profile = doubling_profile(space, balls)  # from the space's memo: no ball is summed twice
    w = _weight(w)
    measured_beta = _measure(("weak_ainfty_beta", alpha, _weak_ainfty(alpha)), space, w, balls,
                             sigma)
    threshold = profile.c_mu ** (-(math.floor(math.log2(5.0 * sigma**2)) + 1.0))
    rhi_values = {}
    for p in p_grid:
        try:
            rhi_values[float(p)] = _measure(("rhi_constant", p, _rhi(p)), space, w, balls, sigma)
        except Exception as exc:  # degenerate instances logged, not raised
            rhi_values[float(p)] = f"error: {exc}"
    params = {
        "sigma": sigma,
        "alpha": alpha,
        "beta": beta,
        "c_mu": profile.c_mu,
        "beta_threshold": threshold,
        "beta_below_threshold": beta < threshold,
        "measured_beta": measured_beta,
        "superlevel_holds_at_beta": measured_beta <= beta,
        "rhi_values": rhi_values,
    }
    return CheckReport(
        name="rhi_equivalence_observed",
        passed=True,
        margin=beta - measured_beta,
        witness=None,
        params=params,
        notes="observational: no pass/fail claim",
    )


# ---------------------------------------------------------------------------
# special-function oracles
# ---------------------------------------------------------------------------


def beta_fn(p: float, q: float) -> float:
    """Euler beta via log-gamma: Gamma(p) Gamma(q) / Gamma(p + q)."""
    if not (p > 0 and q > 0):
        raise DomainError(f"beta function needs positive arguments, got ({p}, {q})")
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def beta_asymptotic_check(p: float, y_list) -> CheckReport:
    """Ratio B(p, y-p) y^p / Gamma(p) approaches 1 from above.

    Verifies the ratio exceeds 1, decreases along ``y_list`` (restricted
    to y >= 10 p), and reports the fitted constant K with
    |ratio - 1| <= K / y.
    """
    if not p > 0:
        raise DomainError(f"p must be positive, got {p}")
    ys = [float(y) for y in y_list]
    if not ys:
        raise DomainError("y_list is empty")
    if any(y <= p for y in ys):
        raise DomainError("need y > p for every entry")
    gamma_p = math.exp(math.lgamma(p))
    ratios = [beta_fn(p, y - p) * y**p / gamma_p for y in ys]
    fitted_k = max(abs(r - 1.0) * y for r, y in zip(ratios, ys))
    tail = [(y, r) for y, r in zip(ys, ratios) if y >= 10.0 * p]
    monotone = all(
        abs(tail[i + 1][1] - 1.0) < abs(tail[i][1] - 1.0) for i in range(len(tail) - 1)
    )
    passed = monotone and len(tail) >= 2 and abs(tail[-1][1] - 1.0) <= fitted_k / tail[-1][0]
    return CheckReport(
        name="beta_asymptotic",
        passed=passed,
        margin=min(abs(r - 1.0) for r in ratios),
        witness=ys[-1],
        params={"p": p, "fitted_K": fitted_k, "ratios": ratios, "y": ys},
        table=[(y, r) for y, r in zip(ys, ratios)],
    )


def cavalieri_check(
    space: FiniteMetricMeasureSpace, f, p: float, region=None
) -> CheckReport:
    """Layer-cake identity for p-th powers on a finite space.

    Compares int f^p dmu against the exact piecewise integral
    p * int_0^inf t^(p-1) mu({f > t}) dt = sum_k mu({f > l_k}) (l_{k+1}^p - l_k^p)
    over the sorted distinct levels l_k of f (with l_0 = 0).
    """
    if not p > 0:
        raise DomainError(f"p must be positive, got {p}")
    values = as_values(f)
    region = np.arange(space.n_points) if region is None else np.asarray(region)
    direct = weighted_sum(values[region] ** p, space.mass[region])
    order = region[np.argsort(values[region], kind="stable")]  # by ascending value
    ranked = values[order]
    fresh = np.ones(ranked.size, dtype=bool)
    fresh[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(fresh & (ranked > 0.0)).tolist()  # each distinct positive level
    # mu({f > t}) for t in [prev, level): the suffix of mass[order] from the level's first
    # index, from one exact prefix table, with the bits and the OverflowError of its fsum
    masses = space.mass[order]
    suffixes = span_sums(*exact_prefix_sums(masses), masses, starts, [order.size] * len(starts))
    pieces, prev = [], 0.0
    for i, mu in zip(starts, suffixes):
        level = ranked[i]  # a numpy float, so level**p stays the same operation
        pieces.append(mu * (level**p - prev**p))
        prev = level
    layered = fsum(pieces)
    scale = max(abs(direct), abs(layered), 1e-300)
    margin = (layered - direct) / scale
    return CheckReport(
        name="cavalieri",
        passed=abs(margin) <= 1e-9,
        margin=layered - direct,
        margin_rel=margin,
        witness=None,
        params={"p": p, "direct": direct, "layered": layered, "tolerance": 1e-9},
    )
