"""Inequality checkers, special-function oracles, constants chain."""
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.integrate import quad

import oracles
from conftest import philox, small_instance
from wgrkit import (
    Ball,
    DoublingProfile,
    Weight,
    average,
    build_family,
    gr_epsilon,
    grid_1d,
    grid_nd,
    jn_constants,
    rhi_constant,
    sublevel_alpha,
    weak_ainfty_beta,
    wgr_epsilon,
    wgr_minus_epsilon,
)
from wgrkit import theorems, util
from wgrkit.errors import (
    DomainError,
    InvalidExponentError,
    InvalidParameterError,
    NoDataError,
    ThresholdError,
    WgrError,
)
from wgrkit.examples import sawyer_strip
from wgrkit.space import FiniteMetricMeasureSpace


def sin_system(n=128, sigma=1.25, eta=1.0):
    space = grid_1d(0.0, float(n), n)
    base = Ball(n // 2, n / 4.0)
    w = 1.0 + 0.001 * np.sin(2 * np.pi * space.coords[:, 0] / n)
    system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    return space, base, w, system


# -- per-ball implication checkers ---------------------------------------------


def test_superlevel_bound_constant_weight_vacuous():
    space, family, _ = small_instance(0)
    rep = theorems.check_superlevel_bound(space, np.full(space.n_points, 2.0), family, lam=0.5)
    assert rep.passed and rep.vacuous
    assert "constant" in rep.notes
    # nothing compared: the tracker's start values, and no n_compared/n_vacuous
    obj = rep.to_json_obj()
    assert obj["params"].keys() == {"tolerance", "sigma", "lambda", "eps", "eps_measured"}
    assert (obj["boundary"], obj["margin"], obj["margin_rel"], obj["witness"]) == (
        False, "inf", None, None)


def test_superlevel_bound_random_instances():
    for seed in range(10):
        space, family, w = small_instance(seed)
        eps = wgr_epsilon(space, w, family).value
        rep = theorems.check_superlevel_bound(space, w, family, lam=(eps + 1.0) / 2.0)
        assert rep.passed, (seed, rep.margin_rel)
        assert rep.margin_rel >= -1e-9
        assert rep.params["eps_measured"]


def test_superlevel_bound_supplied_eps_range_error():
    space, family, w = small_instance(1)
    with pytest.raises(InvalidParameterError):
        theorems.check_superlevel_bound(space, w, family, lam=0.5, eps=0.9)


def test_osc_from_superlevel_random_instances():
    for seed in range(10):
        space, family, w = small_instance(seed)
        rep = theorems.check_osc_from_superlevel(space, w, family, alpha=0.5)
        assert rep.passed, (seed, rep.margin_rel)


def test_osc_from_superlevel_limit_coefficient():
    # alpha -> 1, beta -> 0 forces the bound coefficient to 0
    space, family, _ = small_instance(0)
    w = np.full(space.n_points, 3.0)
    rep = theorems.check_osc_from_superlevel(space, w, family, alpha=1.0 - 1e-9, beta=1e-12)
    assert rep.passed  # constant weight has zero oscillation against any bound


def test_sublevel_bound_random_instances():
    for seed in range(10):
        space, family, w = small_instance(seed)
        eps = wgr_minus_epsilon(space, w, family).value
        rep = theorems.check_sublevel_bound(space, w, family, lam=(eps + 1.0) / 2.0)
        assert rep.passed, (seed, rep.margin_rel)


def test_sublevel_bound_weight_above_reference_vacuous():
    space = grid_1d(0.0, 16.0, 16)
    family = build_family(space, Ball(8, 4.0), eta=1.0, sigma=1.0)
    w = np.ones(16)
    rep = theorems.check_sublevel_bound(space, w, family, lam=0.5, eps=0.25)
    assert rep.passed and rep.vacuous  # w >= w_S everywhere: sublevel sets empty


def test_neg_osc_from_sublevel_random_instances():
    for seed in range(10):
        space, family, w = small_instance(seed)
        rep = theorems.check_neg_osc_from_sublevel(space, w, family, beta=0.5)
        assert rep.passed, (seed, rep.margin_rel)


def test_composition_coefficient_identity():
    """Feeding the superlevel output into the oscillation bound:
    alpha = 1 - eps/lam, beta = lam gives 1 - (1 - eps/lam)(1 - lam)."""
    for eps, lam in ((0.05, 0.3), (0.2, 0.6), (0.4, 0.9)):
        alpha = 1.0 - eps / lam
        beta = lam
        coeff = 1.0 - alpha * (1.0 - beta)
        assert coeff == pytest.approx(1.0 - (1.0 - eps / lam) * (1.0 - lam), rel=1e-12)


# -- decay and self-improvement --------------------------------------------------


def test_jn_decay_constant_weight_note():
    space, base, _, system = sin_system()
    rep = theorems.check_jn_decay(system, np.full(space.n_points, 4.0), [])
    assert rep.passed and rep.vacuous
    assert "constant" in rep.notes


def test_jn_decay_near_constant_sin():
    space, base, w, system = sin_system()
    eps = wgr_epsilon(space, w, system.measuring, sigma=1.25).value
    assert eps < 1e-3  # near-constant: tiny measured constant
    consts = jn_constants(system.profile, 1.25, 1.0, eps)
    grid = (consts.lambda0 * np.geomspace(1.0, 4.0, 20)).tolist()
    rep = theorems.check_jn_decay(system, w, grid)
    assert rep.passed
    assert len(rep.table) == 20
    assert rep.params["lambda0"] == pytest.approx(consts.lambda0)
    # below-lambda0 grid entries are rejected
    with pytest.raises(InvalidParameterError):
        theorems.check_jn_decay(system, w, [consts.lambda0 * 0.5])


def test_jn_decay_lognormal_inequality_holds():
    space = grid_1d(0.0, 128.0, 128)
    base = Ball(64, 32.0)
    system = theorems.build_ball_system(space, build_family(space, base, 1.0, 1.25))
    gen = philox(17)
    from statistics import NormalDist

    z = np.array([NormalDist().inv_cdf(u) for u in np.clip(gen.random(128), 1e-16, 1 - 1e-16)])
    w = np.exp(0.05 * z)
    eps = wgr_epsilon(space, w, system.measuring, sigma=1.25).value
    consts = jn_constants(system.profile, 1.25, 1.0, eps)
    grid = (consts.lambda0 * np.geomspace(1.0, 3.0, 10)).tolist()
    rep = theorems.check_jn_decay(system, w, grid)
    assert rep.passed  # vacuous or not, the bound must hold with margin >= 0
    for lam, lhs, rhs, margin, vac in rep.table:
        assert margin >= -1e-9 * abs(rhs)


def test_osc_power_bound_and_weak_rhi_near_constant():
    space, base, w, system = sin_system()
    eps = wgr_epsilon(space, w, system.measuring, sigma=1.25).value
    consts = jn_constants(system.profile, 1.25, 1.0, eps)
    cap = 1.0 / (2.0 * consts.a_const * eps)
    for p in (1.5, 2.0, min(4.0, cap)):
        ro = theorems.check_osc_power_bound(system, w, p)
        assert ro.passed and ro.margin >= 0.0
        rw = theorems.check_weak_rhi(system, w, p)
        assert rw.passed and rw.margin >= 0.0


def test_weak_rhi_constant_weight():
    space, base, _, system = sin_system()
    w = np.full(space.n_points, 2.0)
    rep = theorems.check_weak_rhi(system, w, 2.0)
    assert rep.passed  # (avg w^p)^(1/p) = w_ref exactly


def test_osc_power_bound_p_limit_consistency():
    # p -> 1+ reduces to int (..)_+ <= C int (..)_+ with C >= 1
    space, base, w, system = sin_system()
    rep = theorems.check_osc_power_bound(system, w, 1.0 + 1e-9)
    assert rep.passed
    assert rep.params["C"] >= 1.0


def test_threshold_error_on_sawyer():
    space, w = sawyer_strip(2, 16, 1.0)
    center = int(np.argmin(np.abs(space.coords[:, 0] - 0.5) + np.abs(space.coords[:, 1] - 0.5)))
    base = Ball(center, 2.0)
    system = theorems.build_ball_system(space, build_family(space, base, 1.0, 2.0))
    with pytest.raises(ThresholdError):
        theorems.check_weak_rhi(system, w, 2.0)


def test_exponent_out_of_range():
    space, base, w, system = sin_system()
    with pytest.raises(InvalidExponentError):
        theorems.check_osc_power_bound(system, w, 1.0)
    with pytest.raises(InvalidExponentError):
        theorems.check_osc_power_bound(system, w, 1e9)


def test_cover_rhi_near_constant_chain():
    space, base, w, system = sin_system()
    rep = theorems.check_cover_rhi(system, w, 2.0)
    assert rep.passed and rep.margin >= 0.0
    assert rep.params["cover_coverage"] == 1.0
    assert rep.params["cover_fifth_disjoint"] and rep.params["cover_contained"]
    assert rep.params["cover_count_ok"]


def test_cover_rhi_constant_weight_degenerate():
    space, base, _, system = sin_system()
    rep = theorems.check_cover_rhi(system, np.full(space.n_points, 3.0), 2.0)
    assert rep.passed


def _cover_by_systems(system, values, p, eps):
    """check_cover_rhi's outcome with every piece a public family, system and
    weak bound: (eps, n_cover, passed, margin, witness, notes), or the error."""
    space, b0, sigma, eta = system.space, system.base_ball, system.sigma, system.eta
    w = Weight(values)
    cover = theorems.five_r_cover(space, b0, sigma, eta)
    report = theorems.verify_cover(space, b0, cover, sigma, eta, system.profile)
    pieces = [theorems.build_ball_system(space, build_family(space, b, eta, sigma),
                                         profile=system.profile) for b in cover]
    if eps is None:
        eps = max(wgr_epsilon(space, w, s.measuring, sigma=sigma).value for s in [system, *pieces])
    base = theorems.check_weak_rhi(system, w, p, eps)  # the constants' errors, in the cover's order
    if eps == 0.0:
        return None
    for sub in pieces:
        piece = theorems.check_weak_rhi(sub, w, p, eps)
        if not piece.passed:  # the cover reports the piece's own gap
            return eps, len(cover), False, piece.margin, sub.base_ball, \
                "a cover piece violates the weak bound"
    c_mu, dim = system.profile.c_mu, system.profile.dimension_d
    big_c = ((base.params["C"] * eps + 1.0) * c_mu ** (2.0 + 1.0 / p)
             * (sigma / (sigma - 1.0)) ** dim * len(cover) ** (1.0 / p))
    lhs = average(space, values ** p, system.base_members) ** (1.0 / p)
    rhs = big_c * average(space, values, space.ball_members(b0.center, sigma * b0.radius))
    margin = rhs - lhs if math.isfinite(lhs) and math.isfinite(rhs) else -math.inf
    ok = (report["coverage"] == 1.0 and report["all_fifth_disjoint"] and report["all_contained"]
          and report["count_ok"])
    passed = margin / max(abs(rhs), abs(lhs), 1e-300) >= -theorems.MARGIN_RTOL and ok
    return eps, len(cover), passed, margin, b0, "" if ok else "cover postcondition failed"


@st.composite
def _cover_lines(draw):
    """A line with tied coordinates and unequal masses, a nearly constant weight,
    maybe with a bump and zero on a stretch, and an eps measured or given: at a
    tiny given eps a piece fails at the bump, and a long zero stretch leaves a
    piece whose every ball is skipped."""
    n = draw(st.integers(48, 96))
    ties = draw(st.lists(st.integers(0, n - 1), max_size=6))
    points = sorted([*range(n - len(ties)), *ties])
    mass = draw(st.lists(st.sampled_from([1.0, 1.0 + 2.0**-20, 1.5]), min_size=n, max_size=n))
    values = philox(draw(st.integers(0, 2**16))).lognormal(
        0.0, draw(st.sampled_from([0.0005, 0.02])), size=n)
    if draw(st.booleans()):  # a bump in B0, which a piece fails at a tiny eps
        values[draw(st.integers(3 * n // 8, 5 * n // 8))] *= 1.5
    if draw(st.booleans()):
        start = draw(st.integers(n // 4, n // 2))
        values[start:start + draw(st.integers(n // 8, n // 2))] = 0.0
    space = FiniteMetricMeasureSpace(mass, coords=np.array(points, float)[:, None],
                                     metric_kind="euclidean")
    sigma, eta = draw(st.sampled_from([1.25, 1.5])), draw(st.sampled_from([1.0, 2.0]))
    base = Ball(n // 2, draw(st.sampled_from([0.2, 0.25])) * n)
    system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    eps = draw(st.sampled_from([None, 1e-12, 1e-12, 1e-6]))
    return system, values, draw(st.sampled_from([1.5, 2.0])), eps


@settings(max_examples=60, deadline=None)
@given(case=_cover_lines())
def test_cover_rhi_equals_its_pieces_built_as_systems_bit_for_bit(case):
    system, values, p, eps = case
    assert system.space.is_line
    try:
        expected = _cover_by_systems(system, values, p, eps)
    except (WgrError, OverflowError) as exc:
        event(type(exc).__name__)
        with pytest.raises(type(exc)) as got:
            theorems.check_cover_rhi(system, Weight(values), p, eps)
        assert str(got.value) == str(exc)
        return
    rep = theorems.check_cover_rhi(system, Weight(values), p, eps)
    event("constant" if expected is None else expected[5] or "assembled")
    if expected is None:
        assert rep.notes == "constant weight: bound reduces to the plain average"
        return
    got = (rep.params["eps"], rep.params["n_cover"], rep.passed, rep.margin, rep.witness,
           rep.notes)
    assert [v.hex() if isinstance(v, float) else v for v in got] == [
        v.hex() if isinstance(v, float) else v for v in expected]


def test_cover_rhi_draws_reach_each_outcome():
    """Lines like the generated ones pass, fail at a piece, and meet a piece whose
    every ball is skipped; the first two agree with their pieces built as systems."""
    def system(n, eta):
        space = FiniteMetricMeasureSpace([1.0, 1.5] * (n // 2), metric_kind="euclidean",
                                         coords=np.arange(float(n))[:, None])
        return theorems.build_ball_system(space, build_family(space, Ball(n // 2, n / 4), eta, 1.25))

    for sys_, values, eps, notes in (
            (system(64, 1.0), philox(5).lognormal(0.0, 0.0005, size=64), None, ""),
            (system(48, 2.0), philox(1).lognormal(0.0, 0.02, size=48), 1e-12,
             "a cover piece violates the weak bound")):
        rep = theorems.check_cover_rhi(sys_, values, 1.5, eps)
        assert (rep.passed, rep.notes) == (not notes, notes)
        assert _cover_by_systems(sys_, values, 1.5, eps)[3] == rep.margin
    assert rep.witness in theorems.five_r_cover(sys_.space, sys_.base_ball, 1.25, 2.0)
    values = philox(5).lognormal(0.0, 0.0005, size=64)
    values[20:44] = 0.0
    with pytest.raises(NoDataError, match="every ball was skipped"):
        theorems.check_cover_rhi(system(64, 1.0), values, 1.5)


def test_decay_checkers_take_their_geometry_from_the_system():
    from wgrkit.examples import random_weight

    space = grid_1d(0.0, 128.0, 128)
    w = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.001}, seed=1)
    system = theorems.build_ball_system(space, build_family(space, Ball(64, 24.0), 1.0, 1.5))
    eps = wgr_epsilon(space, w, system.measuring, sigma=1.5).value
    assert eps > 0.0
    lambda0 = jn_constants(system.profile, 1.5, 1.0, eps).lambda0
    reports = {
        "jn_decay": theorems.check_jn_decay(system, w, [lambda0, 2.0 * lambda0]),
        "osc_power_bound": theorems.check_osc_power_bound(system, w, 1.5),
        "weak_rhi": theorems.check_weak_rhi(system, w, 1.5),
        "cover_rhi": theorems.check_cover_rhi(system, w, 1.5),
    }
    for name, rep in reports.items():
        assert (rep.params["sigma"], rep.params["eta"]) == (1.5, 1.0), name
        assert rep.params["eps_measured"] is True, name
    for name in ("jn_decay", "osc_power_bound", "weak_rhi"):
        assert reports[name].params["eps"] == eps, name
        assert reports[name].params["w_ref"] == average(space, w, system.sigma_hat_members)
    assert reports["jn_decay"].params["lambda0"] == lambda0
    assert reports["osc_power_bound"].witness == system.base_ball
    assert reports["weak_rhi"].witness == system.base_ball
    # the cover's eps is the max over the base system and every piece system
    pieces = [theorems.build_ball_system(space, build_family(space, b, 1.0, 1.5),
                                         profile=system.profile)
              for b in theorems.five_r_cover(space, system.base_ball, 1.5, 1.0)]
    assert reports["cover_rhi"].params["eps"] == max(
        wgr_epsilon(space, w, s.measuring, sigma=1.5).value for s in [system, *pieces]
    ) >= eps


def test_rhi_equivalence_observed_cases():
    # constant weight: superlevel condition holds and RHI constants are 1
    space, family, _ = small_instance(0)
    w = np.full(space.n_points, 2.0)
    rep = theorems.check_rhi_equivalence_observed(space, w, family, 0.5, 0.01, [1.5, 2.0])
    assert rep.passed
    assert rep.params["measured_beta"] == 0.0
    assert all(v == pytest.approx(1.0) for v in rep.params["rhi_values"].values())

    # strip weight: the superlevel constant stays large at every small beta
    sspace, sw = sawyer_strip(2, 16, 1.0)
    from wgrkit.examples import strip_cube_family

    cubes = strip_cube_family(sspace, [1.0, 2.0], sigma=2.0)
    rep2 = theorems.check_rhi_equivalence_observed(
        sspace, sw, cubes, 0.5, 0.01, [2.0], sigma=2.0
    )
    assert rep2.params["measured_beta"] > rep2.params["beta"]
    assert not rep2.params["superlevel_holds_at_beta"]


#: The four implication checkers and the observation, each with its constant supplied.
_SUPPLIED = {
    "superlevel_bound": lambda sp, w, balls, **kw: theorems.check_superlevel_bound(
        sp, w, balls, lam=0.9, eps=0.1, **kw),
    "osc_from_superlevel": lambda sp, w, balls, **kw: theorems.check_osc_from_superlevel(
        sp, w, balls, alpha=0.5, beta=0.1, **kw),
    "sublevel_bound": lambda sp, w, balls, **kw: theorems.check_sublevel_bound(
        sp, w, balls, lam=0.9, eps=0.1, **kw),
    "neg_osc_from_sublevel": lambda sp, w, balls, **kw: theorems.check_neg_osc_from_sublevel(
        sp, w, balls, beta=0.5, alpha_m=0.1, **kw),
    "rhi_equivalence_observed": lambda sp, w, balls, **kw: (
        theorems.check_rhi_equivalence_observed(sp, w, balls, 0.5, 0.1, [2.0], **kw)),
}


@pytest.mark.parametrize("name", sorted(_SUPPLIED))
def test_checkers_resolve_sigma_like_the_functionals(name):
    space, family, w = small_instance(2)
    balls = list(family.members)
    check = _SUPPLIED[name]
    # a plain ball list carries no sigma, and a supplied constant measures nothing
    with pytest.raises(InvalidParameterError, match="sigma is required"):
        check(space, w, balls)
    with pytest.raises(InvalidParameterError, match="sigma must be >= 1"):
        check(space, w, family, sigma=0.5)
    with pytest.raises(InvalidParameterError, match="sigma must be >= 1"):
        wgr_epsilon(space, w, family, sigma=0.5)
    # given explicitly, the family's own sigma reports what the family reports
    explicit = check(space, w, balls, sigma=family.sigma).to_json_obj()
    assert explicit == check(space, w, family).to_json_obj()
    assert explicit["params"]["sigma"] == family.sigma


# -- special functions ------------------------------------------------------------


def test_beta_fn_exact_values():
    assert theorems.beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert theorems.beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_beta_fn_domain():
    with pytest.raises(DomainError):
        theorems.beta_fn(0.0, 1.0)
    with pytest.raises(DomainError):
        theorems.beta_fn(2.0, -1.0)


@pytest.mark.parametrize("p,y", [(2.0, 10.0), (3.0, 20.0)])
def test_beta_fn_matches_quadrature(p, y):
    integral, err = quad(lambda t: t ** (p - 1.0) * (1.0 + t) ** (-y), 0.0, np.inf)
    assert theorems.beta_fn(p, y - p) == pytest.approx(integral, rel=1e-6)


def test_beta_fn_accuracy_large_arguments():
    # closed form: B(2, q) = Gamma(2) Gamma(q) / Gamma(q+2) = 1/(q(q+1))
    for q in (10.0, 100.0, 5000.0):
        assert theorems.beta_fn(2.0, q) == pytest.approx(
            1.0 / (q * (q + 1.0)), rel=1e-10
        )


def test_beta_asymptotic_closed_form_p1():
    rep = theorems.beta_asymptotic_check(1.0, [10.0, 20.0, 40.0])
    for y, ratio in rep.table:
        assert ratio == pytest.approx(y / (y - 1.0), rel=1e-12)
    assert rep.passed


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_beta_asymptotic_monotone(p):
    y_list = [10.0 * p * 2**k for k in range(4)]
    rep = theorems.beta_asymptotic_check(p, y_list)
    assert rep.passed
    gaps = [abs(r - 1.0) for _, r in rep.table]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_cavalieri_indicator():
    space = grid_1d(0.0, 8.0, 8)
    f = np.zeros(8)
    f[2:5] = 1.0
    rep = theorems.cavalieri_check(space, f, 2.0)
    assert rep.passed
    assert rep.params["direct"] == pytest.approx(3.0)


def test_cavalieri_two_level_hand_case():
    space = grid_1d(0.0, 4.0, 4)
    f = np.array([0.0, 1.0, 3.0, 3.0])
    rep = theorems.cavalieri_check(space, f, 2.0)
    # direct: 1 + 9 + 9 = 19; layered: 3*(1-0) + 2*(9-1) = 19
    assert rep.params["direct"] == pytest.approx(19.0)
    assert rep.params["layered"] == pytest.approx(19.0)
    assert rep.passed


def test_cavalieri_p_one_layer_cake():
    space, _, w = small_instance(6)
    rep = theorems.cavalieri_check(space, w, 1.0)
    assert rep.passed


def test_cavalieri_random_weights():
    for seed in range(12):
        space, _, w = small_instance(seed)
        for p in (1.7, 2.0, 3.0):
            rep = theorems.cavalieri_check(space, w, p)
            assert rep.passed, (seed, p, rep.margin_rel)


def _layered_by_level_scan(space, values, p, region):
    """The layer-cake sum with one scan of the region per distinct positive level."""
    levels = sorted({v for v in values[region].tolist() if v > 0.0})
    pieces, prev = [], 0.0
    for level in np.array(levels):  # numpy floats, as the checker's levels are
        above = region[values[region] >= level]
        pieces.append(space.set_measure(above) * (level**p - prev**p))
        prev = level
    return math.fsum(pieces)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=12),
    uniform=st.booleans(),
    p=st.sampled_from([0.5, 1.0, 1.7, 2.0, 3.0]),
)
def test_cavalieri_sorted_suffixes_match_the_per_level_scan(data, n, uniform, p):
    """Ties, zeros, unequal masses and a region subset in any order: the
    layered sum is the per-level scan's, bit for bit."""
    mass = np.full(n, 0.75) if uniform else np.array(
        data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    space = FiniteMetricMeasureSpace(mass, coords=np.arange(n, dtype=float)[:, None],
                                     metric_kind="euclidean")
    values = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e-3, 7.0]) | st.floats(0.0, 50.0),
        min_size=n, max_size=n)))
    region = None
    if data.draw(st.booleans()):
        region = data.draw(st.permutations(range(n)).flatmap(
            lambda ids: st.integers(1, n).map(lambda k: ids[:k])))
    rep = theorems.cavalieri_check(space, values, p, region)
    ids = np.arange(n) if region is None else np.asarray(region)
    assert rep.params["layered"].hex() == _layered_by_level_scan(space, values, p, ids).hex()


# -- asymptotics -------------------------------------------------------------------


def test_exponent_cap_divergence():
    prof = DoublingProfile.from_c_mu(2.5)
    a_const = jn_constants(prof, 1.25, 1.0, 1.0).a_const
    caps = [1.0 / (2.0 * a_const * 2.0**-k) for k in range(3, 21)]
    for lo, hi in zip(caps, caps[1:]):
        assert hi == 2.0 * lo  # exact in IEEE arithmetic
    assert caps[-1] > caps[0] * 1e4


def test_report_json_shape():
    space, family, w = small_instance(2)
    eps = wgr_epsilon(space, w, family).value
    rep = theorems.check_superlevel_bound(space, w, family, lam=(eps + 1.0) / 2.0)
    obj = rep.to_json_obj()
    assert {"name", "passed", "vacuous", "margin", "witness", "params"} <= obj.keys()
    assert "tolerance" in obj["params"]


def test_jn_decay_rhs_formula_reconstruction():
    """Rebuild the decay bound from raw formulas, independent of jn_constants."""
    import math

    space, base, w, system = sin_system(n=256)
    sigma, eta = 1.25, 1.0
    eps = wgr_epsilon(space, w, system.measuring, sigma=sigma).value
    consts = jn_constants(system.profile, sigma, eta, eps)
    grid = (consts.lambda0 * np.geomspace(1.0, 3.0, 8)).tolist()
    rep = theorems.check_jn_decay(system, w, grid)

    c_mu = system.profile.c_mu
    d = math.log2(c_mu)
    alpha = c_mu**2 * (5 * sigma) ** d * (1 + 1 / eta) ** d
    a_const = c_mu * (5 * sigma) ** d * math.e
    c0 = math.exp(1 + alpha / (5**d * math.e))
    c_final = c_mu**2 * c0 / (alpha * sigma**d)
    assert rep.params["lambda0"] == pytest.approx(alpha * c_mu * sigma**d * eps, rel=1e-12)

    ref = average(space, w, system.sigma_hat_members)
    excess = np.maximum(np.asarray(w) - ref, 0.0)
    hat_excess = float(np.sum(excess[system.hat_members] * space.mass[system.hat_members]))
    for lam, lhs, rhs, margin, vac in rep.table:
        manual = (1.0 / (1.0 + lam)) ** (1.0 / (a_const * eps)) * (
            c_final / (eps * ref)
        ) * hat_excess
        assert rhs == pytest.approx(manual, rel=1e-9)
        manual_lhs = float(
            np.sum(space.mass[system.base_members][excess[system.base_members] > lam * ref])
        )
        assert lhs == pytest.approx(manual_lhs, rel=1e-12, abs=1e-300)


def test_superlevel_bound_on_strip_instance():
    space, w = sawyer_strip(2, 16, 1.0)
    from wgrkit.examples import strip_cube_family

    cubes = strip_cube_family(space, [1.0, 2.0], sigma=2.0)
    eps = wgr_epsilon(space, w, cubes, sigma=2.0).value
    assert eps <= 0.5 + 1e-12
    rep = theorems.check_superlevel_bound(
        space, w, cubes, lam=(eps + 1.0) / 2.0, sigma=2.0
    )
    assert rep.passed and rep.margin_rel >= -1e-9


def test_rhi_equivalence_strip_fails_every_alpha():
    # the slab indicator breaks the superlevel condition at every alpha for
    # any beta under the smallness threshold, once the family holds cubes
    # large enough that the reference average drops below alpha
    space, w = sawyer_strip(2, 32, 1.0)
    from wgrkit.examples import strip_cube_family

    cubes = strip_cube_family(space, [1.0, 2.0, 4.0], sigma=2.0)
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        rep = theorems.check_rhi_equivalence_observed(
            space, w, cubes, alpha, 0.01, [2.0], sigma=2.0
        )
        assert rep.params["measured_beta"] > rep.params["beta_threshold"]
        assert not rep.params["superlevel_holds_at_beta"]


def test_rhi_equivalence_small_variance_holds():
    space = grid_1d(0.0, 64.0, 64)
    from wgrkit.examples import random_weight

    w = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.01}, seed=3)
    family = build_family(space, Ball(32, 16.0), eta=1.0, sigma=2.0)
    rep = theorems.check_rhi_equivalence_observed(space, w, family, 0.5, 0.05, [1.5, 2.0])
    assert rep.params["measured_beta"] <= rep.params["beta"]
    assert rep.params["superlevel_holds_at_beta"]
    for v in rep.params["rhi_values"].values():
        assert isinstance(v, float) and v < 2.0


def test_rhi_equivalence_logs_what_the_functionals_give_or_raise():
    """``measured_beta`` is ``weak_ainfty_beta``'s value, and each p's entry is
    ``rhi_constant``'s value on the same balls, or ``"error: "`` and the text of what
    it raises, on a weight whose ratio tables are its own."""
    space = grid_1d(0.0, 64.0, 64)
    from wgrkit.examples import random_weight

    w, fresh = (random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.5}, seed=5)
                for _ in range(2))
    family = build_family(space, Ball(32, 16.0), eta=1.0, sigma=2.0)
    p_grid = [1, 0.5, 1.5, 3, 2.0]
    rep = theorems.check_rhi_equivalence_observed(space, w, family, 0.5, 0.05, p_grid)
    expected = {}
    for p in p_grid:
        try:
            expected[float(p)] = rhi_constant(space, fresh, family, p).value
        except InvalidExponentError as exc:
            expected[float(p)] = f"error: {exc}"
    assert rep.params["rhi_values"] == expected
    assert expected[1.0] == "error: reverse Holder exponent must be > 1, got 1"
    assert rep.params["measured_beta"] == weak_ainfty_beta(space, fresh, family, 0.5).value
    with pytest.raises(InvalidParameterError, match=r"alpha must be in \(0,1\), got 1.0"):
        theorems.check_rhi_equivalence_observed(space, w, family, 1.0, 0.05, p_grid)


# -- weight validation at the entry of every functional and checker -------------


def test_ball_system_takes_its_geometry_from_its_family():
    """A system reports its family's base ball, sigma and eta, so its measuring
    set and member arrays cannot belong to another geometry."""
    space = grid_1d(0.0, 64.0, 64)
    family = build_family(space, Ball(32, 8.0), eta=2.0, sigma=1.5)
    system = theorems.build_ball_system(space, family)
    assert system.family is family
    assert (system.base_ball, system.sigma, system.eta) == (Ball(32, 8.0), 1.5, 2.0)
    assert system.hat_members.tolist() == space.ball_members(32, 24.0).tolist()
    assert system.sigma_hat_members.tolist() == space.ball_members(32, 36.0).tolist()
    assert len(system.measuring) == 136  # 121 on the eta = 1 family


def test_ball_system_of_a_base_ball_is_the_system_of_its_family():
    """``build_ball_system(space, base_ball, sigma, eta)`` builds the family
    first; a family given with a sigma or eta, or a base ball without them,
    is refused."""
    space = grid_1d(0.0, 64.0, 64)
    family = build_family(space, Ball(32, 8.0), eta=2.0, sigma=1.5)
    by_family = theorems.build_ball_system(space, family)
    by_ball = theorems.build_ball_system(space, Ball(32, 8.0), 1.5, 2.0)
    assert (by_ball.base_ball, by_ball.sigma, by_ball.eta) == (Ball(32, 8.0), 1.5, 2.0)
    assert by_ball.family.members == family.members
    assert by_ball.measuring == by_family.measuring
    assert by_ball.profile.c_mu == by_family.profile.c_mu
    with pytest.raises(TypeError, match="carries its own"):
        theorems.build_ball_system(space, family, 1.5, 1.0)
    with pytest.raises(TypeError, match="carries its own"):
        theorems.build_ball_system(space, family, eta=1.0)
    with pytest.raises(TypeError):
        theorems.build_ball_system(space, Ball(32, 8.0), 1.5)


def decay_system(space, family):
    """The decay ball system on ``family``'s base ball, sigma and eta."""
    return theorems.build_ball_system(space, family)


#: name -> call(space, family, w); checkers get their constants supplied, so no
#: inner functional sees the weight before the checker itself does.
ENTRY_POINTS = {
    "wgr_epsilon": lambda sp, fam, w: wgr_epsilon(sp, w, fam),
    "wgr_minus_epsilon": lambda sp, fam, w: wgr_minus_epsilon(sp, w, fam),
    "gr_epsilon": lambda sp, fam, w: gr_epsilon(sp, w, fam),
    "weak_ainfty_beta": lambda sp, fam, w: weak_ainfty_beta(sp, w, fam, 0.5),
    "sublevel_alpha": lambda sp, fam, w: sublevel_alpha(sp, w, fam, 0.5),
    "rhi_constant": lambda sp, fam, w: rhi_constant(sp, w, fam, 2.0),
    "superlevel_bound": lambda sp, fam, w: theorems.check_superlevel_bound(
        sp, w, fam, 0.9, eps=0.1
    ),
    "osc_from_superlevel": lambda sp, fam, w: theorems.check_osc_from_superlevel(
        sp, w, fam, 0.5, beta=0.5
    ),
    "sublevel_bound": lambda sp, fam, w: theorems.check_sublevel_bound(
        sp, w, fam, 0.9, eps=0.1
    ),
    "neg_osc_from_sublevel": lambda sp, fam, w: theorems.check_neg_osc_from_sublevel(
        sp, w, fam, 0.5, alpha_m=0.5
    ),
    "jn_decay": lambda sp, fam, w: theorems.check_jn_decay(
        decay_system(sp, fam), w, [1e6], eps=1e-4
    ),
    "osc_power_bound": lambda sp, fam, w: theorems.check_osc_power_bound(
        decay_system(sp, fam), w, 1.5, eps=1e-4
    ),
    "weak_rhi": lambda sp, fam, w: theorems.check_weak_rhi(
        decay_system(sp, fam), w, 1.5, eps=1e-4
    ),
    "cover_rhi": lambda sp, fam, w: theorems.check_cover_rhi(
        decay_system(sp, fam), w, 1.5, eps=1e-4
    ),
    "rhi_equivalence_observed": lambda sp, fam, w: theorems.check_rhi_equivalence_observed(
        sp, w, fam, 0.5, 0.1, [2.0]
    ),
    "cavalieri": lambda sp, fam, w: theorems.cavalieri_check(sp, w, 2.0),
}


@pytest.mark.parametrize("bad", [np.nan, -1.0])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bare_array_with_bad_entry_rejected(name, bad):
    space = grid_1d(0.0, 32.0, 32)
    family = build_family(space, Ball(16, 8.0), eta=1.0, sigma=1.5)
    w = np.ones(32)
    w[16] = bad
    with pytest.raises(WgrError, match="finite and nonnegative"):
        ENTRY_POINTS[name](space, family, w)


# -- non-finite sides and the shared oscillation constant ---------------------


@pytest.mark.parametrize("lhs,rhs", [(1.0, np.inf), (np.nan, 1.0), (np.inf, np.inf)])
def test_non_finite_side_never_passes(lhs, rhs):
    tracker = theorems._MarginTracker("t", {})
    tracker.add(0.5, 1.0, "finite")
    tracker.add(lhs, rhs, "non-finite")
    tracker.add(0.25, 1.0, "later")
    rep = tracker.report()
    assert rep.passed is False and rep.boundary is False
    assert rep.margin_rel == -np.inf and rep.margin == -np.inf
    assert rep.witness == "non-finite"
    assert rep.to_json_obj()["margin_rel"] == "-inf"
    assert rep.to_json_obj()["margin"] == "-inf"  # never a large positive margin


def test_jn_decay_with_infinite_constant_is_no_evidence():
    from wgrkit.examples import random_weight

    space = grid_nd(2, 16, 1.0, "chebyshev")
    w = random_weight(space, "two_level", {"low": 1.0, "high": 10.0, "fraction": 0.3}, 5)
    base = Ball(136, 3.5)
    system = theorems.build_ball_system(space, build_family(space, base, 1.0, 1.5))
    eps = wgr_epsilon(space, w, system.measuring, sigma=1.5).value
    consts = jn_constants(system.profile, 1.5, 1.0, eps)
    assert system.profile.c_mu >= 9.0 and consts.c_final == np.inf  # the saturated constant
    grid = (consts.lambda0 * np.geomspace(1.0, 4.0, 5)).tolist()
    rep = theorems.check_jn_decay(system, w, grid)
    assert rep.passed is False  # a bound of inf proves nothing, vacuous or not
    assert rep.margin_rel == -np.inf and rep.margin == -np.inf


def test_measured_eps_follows_the_weight():
    from wgrkit import cli

    space, base, w, system = sin_system()
    values = np.array(w)

    def eps_of(vals, **kw):
        rep = theorems.check_jn_decay(system, vals, [], **kw)
        assert rep.params["eps_measured"] is True
        return rep.params["eps"]

    first = eps_of(values)
    assert first == wgr_epsilon(space, values, system.measuring, sigma=1.25).value
    assert eps_of(values.copy()) == first  # equal values: same constant
    shared = Weight(values)
    assert eps_of(shared) == eps_of(shared) == first  # the second reads the first's table
    values[base.center] *= 3.0  # the caller changes its own array in place
    changed = eps_of(values)  # a bare array is measured afresh
    assert changed == wgr_epsilon(space, values, system.measuring, sigma=1.25).value
    assert changed != first
    assert eps_of(shared) == first  # the Weight froze its own copy: its table is not stale
    assert eps_of(Weight(values)) == changed  # a new Weight has a table of its own

    # a run context holds one weight: contexts of two seeds get a table each
    cfg = {
        "instance": {"kind": "lognormal", "interval": [0, 64, 64],
                     "params": {"mu": 0.0, "sigma": 0.4}, "seed": 1},
        "geometry": {"sigma": 1.25, "eta": 1.0, "base_ball": {"center": "central"}},
        "checks": [],
        "output": {"directory": "out"},
    }
    cli.validate_config(cfg)
    ctxs = [cli.RunContext({**cfg, "instance": {**cfg["instance"], "seed": seed}})
            for seed in (1, 2)]
    measured = []
    for ctx in ctxs:
        rep, _ = cli.run_check("jn_decay", ctx, {"count": 3})
        assert rep.params["eps"] == wgr_epsilon(
            ctx.space, ctx.w, ctx.system.measuring, sigma=1.25).value
        measured.append(rep.params["eps"])
    assert [list(ctx.w._tables.keys()) for ctx in ctxs] == [[ctx.space] for ctx in ctxs]
    assert ctxs[0].base == ctxs[1].base and measured[0] != measured[1]


def _cavalieri_by_level(space, values, p):
    """``cavalieri_check``'s (direct, layered) with one ``set_measure`` per level."""
    direct = util.weighted_sum(values**p, space.mass)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    pieces, prev = [], 0.0
    for i in range(ranked.size):
        if ranked[i] > 0.0 and (i == 0 or ranked[i] != ranked[i - 1]):
            pieces.append(space.set_measure(order[i:]) * (ranked[i]**p - prev**p))
            prev = ranked[i]
    return direct, util.fsum(pieces)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    data=st.data(),
    masses=st.sampled_from(["uniform", "unequal", "overflowing", "uniform overflowing"]),
    p=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_cavalieri_suffix_measures_equal_the_per_level_set_measure(n, data, masses, p):
    """Each suffix measure comes from one exact prefix table over the sorted masses:
    the bits of the per-level ``set_measure``, with tied and zero values, unequal masses,
    and masses whose suffix sums pass the largest double, where both raise fsum's
    OverflowError. Values below 1 keep the direct integral finite, so the measures are
    reached."""
    mass = {
        "uniform": [2.5] * n,
        "unequal": data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)),
        "overflowing": data.draw(st.lists(st.floats(1e306, 1e308), min_size=n, max_size=n)),
        "uniform overflowing": [1e308] * n,
    }[masses]
    values = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.125, 0.25, 0.5]) | st.floats(0.0, 0.9), min_size=n, max_size=n)))
    space = FiniteMetricMeasureSpace(mass, coords=[[float(i)] for i in range(n)],
                                     metric_kind="euclidean")
    outcomes = []
    for run in (lambda: _cavalieri_by_level(space, values, p),
                lambda: (lambda r: (r.params["direct"], r.params["layered"]))(
                    theorems.cavalieri_check(space, values, p))):
        try:
            outcomes.append([np.float64(x).tobytes() for x in run()])
        except OverflowError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("mass", [[1e308] * 4, [1e308, 2e307, 9e307, 1.5e308]])
def test_cavalieri_raises_fsums_overflow_on_a_suffix_past_the_largest_double(mass):
    space = FiniteMetricMeasureSpace(mass, coords=[[0.0], [1.0], [2.0], [3.0]],
                                     metric_kind="euclidean")
    values = np.array([0.125, 0.25, 0.0, 0.125])
    assert math.isfinite(util.weighted_sum(values**3, space.mass))  # the direct side is not it
    for run in (_cavalieri_by_level, theorems.cavalieri_check):
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            run(space, values, 3.0)
