"""Acceptance criteria.

One test per criterion (criterion 6 is split so its two clauses report
independently); each prints a pass line with the measured quantities.
Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from conftest import philox, small_instance
from wgrkit import (
    Ball,
    FiniteMetricMeasureSpace,
    Weight,
    average,
    build_family,
    cz_decompose,
    cz_nested,
    gr_epsilon,
    grid_1d,
    jn_constants,
    maximal_function,
    rhi_constant,
    sublevel_alpha,
    weak_ainfty_beta,
    wgr_epsilon,
    wgr_minus_epsilon,
)
from wgrkit import theorems
from wgrkit.czdecomp import closure_profile
from wgrkit.errors import NestingError
from wgrkit.examples import random_weight, sawyer_strip, strip_cube_family
from wgrkit.weights import induced_measure


# -- criterion 1: strip cube bound ---------------------------------------------


def test_criterion_01_sawyer_cube_bound():
    t0 = time.monotonic()
    space, w = sawyer_strip(2, 64, 1.0)
    cubes = strip_cube_family(space, [1.0, 2.0, 4.0, 8.0], sigma=2.0)
    assert len(cubes) > 5000

    worst = 0.0
    for b in cubes:
        wq = induced_measure(space, w, space.ball_members(b.center, b.radius))
        w2q = induced_measure(space, w, space.ball_members(b.center, 2.0 * b.radius))
        if w2q > 0.0:
            assert 2.0 * wq <= w2q + 1e-12, (b, wq, w2q)
            worst = max(worst, wq / w2q)
        else:
            assert wq == 0.0

    eps = wgr_epsilon(space, w, cubes, sigma=2.0).value
    assert eps <= 0.5 + 1e-12
    # closed forms for an on-slab cube of radius m (cell counts):
    #   w(Q)/w(2Q) = (2m-1)/(4m-1), oscillation ratio (2m-1)(4m-2)/(4m-1)^2,
    # both increasing in m, so the sups sit at m = 8
    assert worst == pytest.approx(15.0 / 31.0, rel=1e-12)
    assert eps == pytest.approx(450.0 / 961.0, rel=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"[PASS] criterion 1: cube ratio sup {worst:.6f} = 15/31 <= 1/2, "
          f"wgr {eps:.6f} = 450/961 <= 1/2 over {len(cubes)} cubes in {elapsed:.1f}s")


# -- criterion 2: strip reverse Holder growth ------------------------------------


def test_criterion_02_sawyer_rhi_growth():
    values = []
    for side in (16, 32, 64):
        space, w = sawyer_strip(2, side, 1.0)
        center = int(
            np.argmin(np.abs(space.coords[:, 0] - 0.5) + np.abs(space.coords[:, 1] - 0.5))
        )
        family = build_family(space, Ball(center, side / 8.0), eta=1.0, sigma=2.0)
        values.append(rhi_constant(space, w, family, p=2.0).value)
    # on-slab cube of radius m: (avg_Q w^2)^(1/2) / avg_2Q w = (4m-1)/sqrt(2m-1),
    # maximized at the family's top radius m = side/8
    expected = [(4 * m - 1) / math.sqrt(2 * m - 1) for m in (2, 4, 8)]
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, rel=1e-12)
    assert values[1] >= 1.2 * values[0], values
    assert values[2] >= 1.2 * values[1], values
    print(f"[PASS] criterion 2: rhi(p=2) {values[0]:.3f} -> {values[1]:.3f} -> "
          f"{values[2]:.3f} (growth {values[1]/values[0]:.2f}x, {values[2]/values[1]:.2f}x)")


# -- criterion 3: per-ball implications on random instances -----------------------


def test_criterion_03_implication_checkers_zero_violations():
    t0 = time.monotonic()
    n_checks = 0
    for seed in range(200):
        space, family, w = small_instance(seed)
        assert space.n_points <= 150

        eps = wgr_epsilon(space, w, family).value
        rep = theorems.check_superlevel_bound(space, w, family, lam=(eps + 1.0) / 2.0)
        assert rep.passed and rep.margin_rel >= -1e-9, (seed, "superlevel")

        rep = theorems.check_osc_from_superlevel(space, w, family, alpha=0.5)
        assert rep.passed and rep.margin_rel >= -1e-9, (seed, "osc_from_superlevel")

        eps_m = wgr_minus_epsilon(space, w, family).value
        rep = theorems.check_sublevel_bound(space, w, family, lam=(eps_m + 1.0) / 2.0)
        assert rep.passed and rep.margin_rel >= -1e-9, (seed, "sublevel")

        rep = theorems.check_neg_osc_from_sublevel(space, w, family, beta=0.5)
        assert rep.passed and rep.margin_rel >= -1e-9, (seed, "neg_osc")
        n_checks += 4
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"[PASS] criterion 3: {n_checks} checks on 200 instances, "
          f"zero violations at 1e-9, {elapsed:.1f}s")


# -- criterion 4: inclusion identities ---------------------------------------------


def test_criterion_04_inclusion_identities():
    for seed in range(100):
        space, family, w = small_instance(seed)
        sigma = family.sigma
        values = w.values
        mass = space.mass
        for ball in family.members:
            ref = space.ball_members(ball.center, sigma * ball.radius)
            denom = float(np.sum(values[ref] * mass[ref]))
            if denom <= 0.0:
                continue
            c = denom / float(np.sum(mass[ref]))
            members = space.ball_members(ball.center, ball.radius)
            pos = float(np.sum(np.maximum(values[members] - c, 0.0) * mass[members]))
            half_abs = 0.5 * float(np.sum(np.abs(values[ref] - c) * mass[ref]))
            assert pos <= half_abs * (1 + 1e-12) + 1e-15, (seed, ball)

        balls = list(family.members)
        lhs = wgr_epsilon(space, w, balls, sigma=1.0).value
        rhs = gr_epsilon(space, w, balls).value
        assert lhs == pytest.approx(rhs / 2.0, rel=1e-12), seed
    print("[PASS] criterion 4: positive-part inclusion and sigma=1 half-identity "
          "on 100 instances at 1e-12")


# -- criterion 5: stopping-time decomposition ---------------------------------------


@lru_cache(maxsize=None)
def cz_geometry(n: int):
    space = grid_1d(0.0, float(n), n)
    base = Ball(n // 2, n / 10.0)
    family = build_family(space, base, eta=4.0, sigma=1.0)
    profile = closure_profile(space, family)
    return space, base, family, profile


def cz_instance(seed: int):
    n = 2048 if seed % 5 == 0 else 512
    space, base, family, profile = cz_geometry(n)
    gen = philox(1000 + seed)
    f = 0.001 * (1.0 + gen.random(n))
    b0 = space.ball_members(base.center, base.radius)
    if n == 2048:
        c1 = int(gen.choice(b0[5:-5]))
        f[c1 - 1 : c1 + 2] = 50.0 + 5.0 * gen.random(3)
        c2 = int(gen.choice(b0))
        f[c2] = 90.0
    else:
        spots = gen.choice(b0, size=2, replace=False)
        f[spots] = 40.0 + 20.0 * gen.random(2)
    return space, family, profile, f, gen


def test_criterion_05_cz_decomposition_oracle():
    t0 = time.monotonic()
    nested_failures = 0
    n_balls_total = 0
    for seed in range(50):
        space, family, profile, f, gen = cz_instance(seed)
        hat = space.ball_members(family.hat_ball.center, family.hat_ball.radius)
        f_hat = average(space, f, hat)
        alpha = jn_constants(profile, family.sigma, family.eta, 1.0).alpha
        mf_max = float(maximal_function(space, f, family).max())
        lo_edge, hi_edge = alpha * f_hat, mf_max
        assert lo_edge < hi_edge, seed

        lam = lo_edge + (hi_edge - lo_edge) * (0.05 + 0.85 * float(gen.random()))
        dec = cz_decompose(space, f, lam, family, profile)
        n_balls_total += len(dec.balls)
        props = oracles.matrix_cz_scan(space, f, lam, family, dec)
        assert all(props.values()), (seed, props)

        lam_lo = lo_edge + 0.02 * (hi_edge - lo_edge)
        try:
            dec_lo, dec_hi, mapping = cz_nested(space, f, lam_lo, lam, family, profile)
        except NestingError:
            nested_failures += 1
            continue
        for ball, j in zip(dec_hi.balls, mapping):
            members = set(space.ball_members(ball.center, ball.radius).tolist())
            coarse = dec_lo.balls[j]
            five = set(space.ball_members(coarse.center, 5.0 * coarse.radius).tolist())
            assert members <= five, (seed, ball)
    assert nested_failures == 0
    elapsed = time.monotonic() - t0
    print(f"[PASS] criterion 5: 50 decompositions re-verified "
          f"({n_balls_total} stopping balls), nested failures {nested_failures}, "
          f"{elapsed:.1f}s")


# -- criterion 6: decay estimate ------------------------------------------------------


def decay_setup(weight_kind: str):
    n = 512
    space = grid_1d(0.0, float(n), n)
    base = Ball(n // 2, n / 4.0)
    sigma, eta = 1.25, 1.0
    system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    if weight_kind == "sin":
        w = Weight(1.0 + 0.001 * np.sin(2.0 * np.pi * space.coords[:, 0] / n))
    else:
        w = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.05}, seed=606)
    eps = wgr_epsilon(space, w, system.measuring, sigma=sigma).value
    consts = jn_constants(system.profile, sigma, eta, eps)
    c = average(space, w, system.sigma_hat_members)
    # largest relative excess over B0, the set whose measure the check reports
    lam_max = float((np.max(w.values[system.base_members]) - c) / c)
    # 20 admissible points, spread from lambda0 toward the largest excess
    top = max(4.0 * consts.lambda0, 1.5 * lam_max, consts.lambda0 * 1.0001)
    grid = np.geomspace(consts.lambda0, top, 20).tolist()
    report = theorems.check_jn_decay(system, w, grid)
    return report, consts, lam_max, system, w


def raw_lambda0(c_mu: float, sigma: float, eta: float, eps: float) -> float:
    """lambda0 = alpha c_mu sigma^D eps from the raw formulas, without jn_constants."""
    d = math.log2(c_mu)
    alpha = c_mu**2 * (5.0 * sigma) ** d * (1.0 + 1.0 / eta) ** d
    return alpha * c_mu * sigma**d * eps


def oracle_excess(space, values, base: Ball, sigma: float, eta: float):
    """(c, B0 points, largest relative excess over B0), by brute force."""
    ref = oracles.ball(space, base.center, sigma * (1.0 + eta) * base.radius)
    c = oracles.avg(space, values, ref)
    b0 = oracles.ball(space, base.center, base.radius)
    return c, b0, max((float(values[j]) - c) / c for j in b0)


def test_criterion_06_decay_inequality_holds():
    t0 = time.monotonic()
    for kind in ("sin", "lognormal"):
        report, consts, lam_max, _, _ = decay_setup(kind)
        assert report.passed, kind
        assert len(report.table) == 20
        for lam, lhs, rhs, margin, vac in report.table:
            assert margin >= -1e-9 * abs(rhs), (kind, lam)
        n_vac = sum(int(row[4]) for row in report.table)
        print(f"[PASS] criterion 6 (inequality, {kind}): 20 points >= lambda0="
              f"{consts.lambda0:.3g}, nonneg margins, {n_vac} vacuous, "
              f"eps={consts.eps:.3g}, max excess {lam_max:.3g}")
    assert time.monotonic() - t0 < 60.0


def test_criterion_06_lognormal_nonvacuous_points():
    """Non-vacuous decay points: none can exist for the iid lognormal
    weight, and at least 3 are found on a weight that reaches lambda0.

    The decay estimate applies only at levels lambda >= lambda0 =
    alpha c_mu sigma^D eps, and the superlevel set
    {x in B0 : (w - c)_+ > lambda c} is empty for every lambda at or above
    the largest relative excess max_B0 (w - c)/c. On the lognormal instance
    (1-d grid n=512, B0 = Ball(256, 128), sigma=1.25, eta=1, sigma_ln=0.05,
    seed 606) that excess is about 0.10 while the measured eps is 1/32 and
    lambda0 is about 65.8, so every admissible row is empty by arithmetic
    alone: the check must flag all 20 rows vacuous, and it does. No
    constant of the lemma's form could change this. Since sigma >= 1 and
    1 + 1/eta >= 1, alpha >= c_mu^2 5^D, so lambda0 >= c_mu^3 5^D eps;
    even at c_mu = 2 (D = 1, the doubling constant of the line) this is
    40 eps, about 1.25, still twelve times the excess.

    A non-vacuous point needs lambda0 below the excess. A single spike
    does this: on a 1-d grid n=1024 with B0 = Ball(512, 32), sigma=1,
    eta=15 and w = 1 except w = 1001 at point 512, eps is about 0.94,
    lambda0 about 360 and the excess about 505. A geometric grid of 20
    points from lambda0 to the excess gives 19 rows whose superlevel set
    holds the spike; each lhs must equal the brute-force mass and each
    margin must be non-negative.
    """
    # the lognormal instance: provably vacuous
    report, _, _, system, w = decay_setup("lognormal")
    space, base = system.space, system.base_ball
    eps = report.params["eps"]
    lam0 = raw_lambda0(system.profile.c_mu, system.sigma, system.eta, eps)
    assert report.params["lambda0"] == pytest.approx(lam0, rel=1e-12)
    _, _, excess = oracle_excess(space, w.values, base, system.sigma, system.eta)
    assert lam0 > excess, (lam0, excess)
    assert 40.0 * eps > excess, (eps, excess)  # the most favourable constants
    assert len(report.table) == 20
    for lam, lhs, rhs, margin, vac in report.table:
        assert lam >= lam0 * (1.0 - 1e-12) and vac == 1 and lhs == 0.0, lam
    assert report.passed and report.vacuous
    print(f"[PASS] criterion 6 (lognormal vacuous): lambda0={lam0:.4g} exceeds "
          f"the largest excess {excess:.4g} by {lam0 / excess:.0f}x, 20 of 20 "
          f"rows flagged vacuous")

    # a single spike: lambda0 sits below the excess
    n, sigma, eta = 1024, 1.0, 15.0
    space = grid_1d(0.0, float(n), n)
    base = Ball(n // 2, 32.0)
    system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    values = np.ones(n)
    values[n // 2] = 1001.0
    w = Weight(values)
    eps = wgr_epsilon(space, w, system.measuring, sigma=sigma).value
    lam0 = raw_lambda0(system.profile.c_mu, sigma, eta, eps)
    c, b0, excess = oracle_excess(space, values, base, sigma, eta)
    assert lam0 < excess, (lam0, excess)
    grid = np.geomspace(lam0, excess, 20).tolist()
    report = theorems.check_jn_decay(system, w, grid)
    assert report.params["lambda0"] == pytest.approx(lam0, rel=1e-12)
    assert len(report.table) == 20
    for lam, lhs, rhs, margin, vac in report.table:
        mass = oracles.measure(space, [j for j in b0 if values[j] - c > lam * c])
        assert lhs == pytest.approx(mass, rel=1e-12, abs=1e-300), lam
        assert vac == int(mass == 0.0), lam
        assert margin >= -1e-9 * abs(rhs), lam
    non_vacuous = sum(1 for row in report.table if not row[4])
    assert non_vacuous >= 3, non_vacuous
    assert report.passed and not report.vacuous
    print(f"[PASS] criterion 6 (spike non-vacuous): {non_vacuous} of 20 points "
          f"non-vacuous, lambda0={lam0:.4g} < excess {excess:.4g}, eps={eps:.3g}")


# -- criterion 7: self-improvement chain -----------------------------------------------


def test_criterion_07_power_bound_chain():
    n = 512
    space = grid_1d(0.0, float(n), n)
    base = Ball(n // 2, n / 4.0)
    sigma, eta = 1.25, 1.0
    system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    w = 1.0 + 0.001 * np.sin(2.0 * np.pi * space.coords[:, 0] / n)
    eps = wgr_epsilon(space, w, system.measuring, sigma=sigma).value
    consts = jn_constants(system.profile, sigma, eta, eps)
    cap = 1.0 / (2.0 * consts.a_const * eps)
    assert eps < 1.0 / (2.0 * consts.a_const)
    exponents = [1.5, 2.0, min(4.0, cap)]

    for p in exponents:
        rep_power = theorems.check_osc_power_bound(system, w, p)
        assert rep_power.passed and rep_power.margin >= 0.0, p
        rep_weak = theorems.check_weak_rhi(system, w, p)
        assert rep_weak.passed and rep_weak.margin >= 0.0, p
        rep_cover = theorems.check_cover_rhi(system, w, p)
        assert rep_cover.passed and rep_cover.margin >= 0.0, p
        assert rep_cover.params["cover_coverage"] == 1.0
        assert rep_cover.params["cover_fifth_disjoint"]
        assert rep_cover.params["cover_contained"]
        assert rep_cover.params["cover_count_ok"]
    print(f"[PASS] criterion 7: power/weak/cover bounds hold for p in "
          f"{[round(p, 3) for p in exponents]} (eps={eps:.3g}, cap={cap:.1f})")


# -- criterion 8: special-function oracles ------------------------------------------------


def test_criterion_08_beta_and_cavalieri_oracles():
    for p, y in ((2.0, 10.0), (3.0, 20.0)):
        integral, _ = quad(lambda t: t ** (p - 1.0) * (1.0 + t) ** (-y), 0.0, np.inf)
        assert theorems.beta_fn(p, y - p) == pytest.approx(integral, rel=1e-6)

    for seed in range(50):
        space, _, w = small_instance(seed)
        rep = theorems.cavalieri_check(space, w, 1.0 + 0.5 * (seed % 5))
        assert rep.passed and abs(rep.margin_rel) <= 1e-9, seed

    for p in (1.0, 2.0, 3.0):
        y_list = [10.0 * p * 2**k for k in range(5)]
        rep = theorems.beta_asymptotic_check(p, y_list)
        assert rep.passed, p
        gaps = [abs(r - 1.0) for _, r in rep.table]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), p
    print("[PASS] criterion 8: beta vs quadrature 1e-6, layer cake 1e-9 on 50 "
          "weights, asymptotic ratio monotone to 1 for p in {1,2,3}")


# -- criterion 9: homogeneity and determinism ----------------------------------------------


def test_criterion_09_homogeneity_and_thread_determinism(tmp_path):
    space, family, w = small_instance(8)
    balls = list(family.members)
    sigma = family.sigma

    def functionals(sp, weight):
        return np.array(
            [
                wgr_epsilon(sp, weight, balls, sigma=sigma).value,
                wgr_minus_epsilon(sp, weight, balls, sigma=sigma).value,
                gr_epsilon(sp, weight, balls).value,
                weak_ainfty_beta(sp, weight, balls, 0.5, sigma=sigma).value,
                sublevel_alpha(sp, weight, balls, 0.5, sigma=sigma).value,
                rhi_constant(sp, weight, balls, 2.0, sigma=sigma).value,
            ]
        )

    baseline = functionals(space, w)
    for c in (1e-6, 1e6):
        scaled_w = Weight(w.values * c)
        scaled_space = FiniteMetricMeasureSpace(
            space.mass * c, coords=space.coords, metric_kind=space.metric_kind
        )
        for variant in (functionals(space, scaled_w), functionals(scaled_space, w)):
            assert np.allclose(variant, baseline, rtol=1e-12, atol=0.0)

    # CLI determinism across worker counts
    from wgrkit.cli import main
    from wgrkit.util import dumps_canonical

    cfg = {
        "instance": {
            "kind": "lognormal",
            "interval": [0.0, 48.0, 48],
            "params": {"mu": 0.0, "sigma": 0.3},
            "seed": 7,
        },
        "geometry": {"sigma": 1.5, "eta": 1.0,
                     "base_ball": {"center": "central", "radius": "auto"}},
        "checks": [
            {"name": "wgr", "params": {}},
            {"name": "superlevel_bound", "params": {"lambda": 0.9}},
            {"name": "cavalieri", "params": {"p": 2.0}},
        ],
        "output": {"directory": str(tmp_path / "out"), "formats": ["json", "csv"]},
        "rng": {"algorithm": "philox4x64-10", "seed": 7},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps_canonical(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t1"),
                 "--threads", "1"]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t8"),
                 "--threads", "8"]) == 0
    names = sorted(p.name for p in (tmp_path / "t1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "t8").iterdir())
    for name in names:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t8" / name).read_bytes()
    print("[PASS] criterion 9: functionals invariant under w->cw and mass->c*mass "
          "(1e-12); thread counts 1 and 8 byte-identical")


# -- criterion 10: exponent cap asymptotics ---------------------------------------------------


def test_criterion_10_exponent_cap_doubles():
    from wgrkit.space import DoublingProfile

    profile = DoublingProfile.from_c_mu(3.0)
    caps = []
    for k in range(3, 21):
        eps = 2.0**-k
        consts = jn_constants(profile, 1.25, 1.0, eps)
        caps.append(1.0 / (2.0 * consts.a_const * eps))
    for lo, hi in zip(caps, caps[1:]):
        assert hi == 2.0 * lo  # exact: eps halves are exact powers of two
    assert caps[-1] / caps[0] == 2.0 ** (len(caps) - 1)
    print(f"[PASS] criterion 10: exponent cap doubles exactly per halving of eps "
          f"({caps[0]:.3g} -> {caps[-1]:.3g} over k=3..20)")
