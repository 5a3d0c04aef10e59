"""Maximal function, stopping-time decomposition, constants, recursion."""
import math

import numpy as np
import pytest

import oracles
from conftest import philox
from wgrkit import (
    Ball,
    FiniteMetricMeasureSpace,
    DoublingProfile,
    build_family,
    cz_decompose,
    cz_nested,
    doubling_profile,
    grid_1d,
    grid_nd,
    jn_constants,
    level_set,
    maximal_function,
    phi_sequence,
    wgr_epsilon,
)
from wgrkit import czdecomp
from wgrkit.czdecomp import closure_keys, closure_profile
from wgrkit.errors import CZConstructionError, CZPreconditionError, NestingError
from wgrkit.weights import Weight, _ball_average, average


def spike_instance(seed: int, n: int = 512, n_spikes: int = 2):
    """(space, family, profile, f) with an admissible level window."""
    space = grid_1d(0.0, float(n), n)
    base = Ball(n // 2, n / 10.0)
    family = build_family(space, base, eta=4.0, sigma=1.0)
    profile = closure_profile(space, family)
    gen = philox(seed)
    f = 0.001 * (1.0 + gen.random(n))
    b0 = space.ball_members(base.center, base.radius)
    spots = gen.choice(b0, size=n_spikes, replace=False)
    f[spots] = 40.0 + 20.0 * gen.random(n_spikes)
    return space, family, profile, f


def level_window(space, family, profile, f):
    hat = space.ball_members(family.hat_ball.center, family.hat_ball.radius)
    f_hat = average(space, f, hat)
    alpha = jn_constants(profile, family.sigma, family.eta, 1.0).alpha
    mf = maximal_function(space, f, family)
    return alpha * f_hat, float(mf.max())


# -- constants ---------------------------------------------------------------


def test_jn_constants_hand_values():
    prof = DoublingProfile.from_c_mu(2.0)  # D = 1
    consts = jn_constants(prof, sigma=1.0, eta=1.0, eps=0.01)
    assert consts.alpha == pytest.approx(4.0 * 5.0 * 2.0)  # 40
    assert consts.a_const == pytest.approx(2.0 * 5.0 * math.e)  # 10 e
    assert consts.lambda0 == pytest.approx(40.0 * 2.0 * 1.0 * 0.01)
    assert consts.c0 == pytest.approx(math.exp(1.0 + 40.0 / (5.0 * math.e)))
    assert consts.c_final == pytest.approx(4.0 * consts.c0 / 40.0)


def test_jn_constants_lambda0_linear_in_eps():
    prof = DoublingProfile.from_c_mu(3.0)
    a = jn_constants(prof, 1.5, 2.0, 0.004)
    b = jn_constants(prof, 1.5, 2.0, 0.008)
    assert b.lambda0 == pytest.approx(2.0 * a.lambda0, rel=1e-15)


def test_jn_constants_monotone_in_c_mu():
    """lambda0 grows and the exponent cap 1/(2 A eps) shrinks with c_mu."""
    eps = 0.01
    lam0, caps = [], []
    for c_mu in (1.5, 2.0, 2.5, 3.0, 4.0):
        consts = jn_constants(DoublingProfile.from_c_mu(c_mu), 1.25, 1.0, eps)
        lam0.append(consts.lambda0)
        caps.append(1.0 / (2.0 * consts.a_const * eps))
    assert all(a < b for a, b in zip(lam0, lam0[1:]))
    assert all(a > b for a, b in zip(caps, caps[1:]))


def test_phi_sequence_basics():
    # A*eps = 0 limit: constant sequence
    assert phi_sequence(0.0, 1.0, 2.0, 3) == [2.0, 2.0, 2.0, 2.0]
    # one step by hand: phi(l0) = (A eps + 1) l0 + A eps
    seq = phi_sequence(10.0, 0.1, 0.5, 1)
    assert seq == [0.5, pytest.approx(2.0 * 0.5 + 1.0)]
    assert len(phi_sequence(10.0, 0.1, 0.5, 7)) == 8


def test_phi_sequence_closed_form():
    a_const, eps, lam0 = 7.0, 0.03, 0.9
    seq = phi_sequence(a_const, eps, lam0, 12)
    a_eps = a_const * eps
    for m, lam in enumerate(seq):
        closed = (1.0 + lam0) * (1.0 + a_eps) ** m - 1.0
        assert lam == pytest.approx(closed, rel=1e-12)
    assert all(a < b for a, b in zip(seq, seq[1:]))


def test_phi_sequence_ratio_consistency():
    """(1/(1+l_k))^(1/(A eps)) = (A eps + 1)^(1/(A eps)) (1/(1+l_{k+1}))^(1/(A eps))."""
    a_const, eps, lam0 = 5.0, 0.02, 0.4
    seq = phi_sequence(a_const, eps, lam0, 10)
    a_eps = a_const * eps
    e1 = 1.0 / a_eps
    for lo, hi in zip(seq, seq[1:]):
        lhs = (1.0 / (1.0 + lo)) ** e1
        rhs = (a_eps + 1.0) ** e1 * (1.0 / (1.0 + hi)) ** e1
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert (a_eps + 1.0) ** e1 <= math.e * (1 + 1e-12)


# -- maximal function ----------------------------------------------------------


def test_maximal_function_constant():
    space = grid_1d(0.0, 16.0, 16)
    family = build_family(space, Ball(8, 4.0), eta=1.0, sigma=1.0)
    mf = maximal_function(space, np.full(16, 3.0), family)
    covered = np.zeros(16, dtype=bool)
    for b in family.members:
        covered[space.ball_members(b.center, b.radius)] = True
    assert covered.any()
    assert np.allclose(mf[covered], 3.0)
    assert np.all(mf[~covered] == 0.0)


def test_maximal_function_zero_outside_hat():
    space = grid_1d(0.0, 32.0, 32)
    family = build_family(space, Ball(16, 4.0), eta=1.0, sigma=1.0)
    mf = maximal_function(space, np.ones(32), family)
    hat = set(space.ball_members(16, 8.0).tolist())
    for x in range(32):
        if x not in hat:
            assert mf[x] == 0.0


def test_maximal_function_five_point_brute():
    space = grid_1d(0.0, 5.0, 5)
    family = build_family(space, Ball(2, 2.0), eta=1.0, sigma=1.0)
    gen = philox(9)
    f = gen.random(5)
    mf = maximal_function(space, f, family)
    assert np.allclose(mf, oracles.maximal_function(space, f, family.members))


def test_maximal_dominates_pointwise():
    # singleton-scale balls exist at every family center, so domination
    # |f(x)| <= Mf(x) holds on the base-ball members
    space = grid_1d(0.0, 64.0, 64)
    family = build_family(space, Ball(32, 16.0), eta=1.0, sigma=1.0)
    gen = philox(3)
    f = gen.random(64)
    mf = maximal_function(space, f, family)
    centers = space.ball_members(32, 16.0)
    assert np.all(mf[centers] >= np.abs(f[centers]) - 1e-15)


def test_maximal_sublinear():
    space = grid_1d(0.0, 48.0, 48)
    family = build_family(space, Ball(24, 12.0), eta=1.0, sigma=1.0)
    gen = philox(4)
    f, g = gen.random(48), gen.random(48)
    mfg = maximal_function(space, f + g, family)
    bound = maximal_function(space, f, family) + maximal_function(space, g, family)
    assert np.all(mfg <= bound * (1 + 1e-12) + 1e-15)


def test_level_set_cases():
    mf = np.array([0.0, 1.0, 2.0, 3.0])
    region = np.arange(4)
    assert level_set(mf, 3.0, region).size == 0  # lam >= max
    assert level_set(mf, -1.0, region).size == 4  # f >= 0
    assert level_set(mf, 1.5, region).tolist() == [2, 3]


# -- decomposition -------------------------------------------------------------


def test_cz_constant_function_errors():
    space = grid_1d(0.0, 64.0, 64)
    family = build_family(space, Ball(32, 8.0), eta=1.0, sigma=1.0)
    profile = closure_profile(space, family)
    alpha = jn_constants(profile, 1.0, 1.0, 1.0).alpha
    # lam >= alpha * c makes the superlevel set empty for constant f
    with pytest.raises(CZPreconditionError):
        cz_decompose(space, np.full(64, 2.0), alpha * 2.0, family, profile)


def test_cz_below_threshold_errors():
    space, family, profile, f = spike_instance(0)
    lo, hi = level_window(space, family, profile, f)
    with pytest.raises(CZPreconditionError):
        cz_decompose(space, f, 0.5 * lo, family, profile)


def test_cz_single_spike_hand_trace():
    space, family, profile, f = spike_instance(11, n_spikes=1)
    lo, hi = level_window(space, family, profile, f)
    lam = 0.5 * (lo + hi)
    dec = cz_decompose(space, f, lam, family, profile)
    # one spike above the level: a single singleton-scale ball through it
    assert len(dec.balls) == 1
    spike = int(np.argmax(f))
    members = space.ball_members(dec.balls[0].center, dec.balls[0].radius)
    assert members.tolist() == [spike]
    assert dec.certificates[0].average > lam
    assert all(v <= lam for v in dec.certificates[0].dilate_averages.values())


def test_cz_properties_oracle_rescan():
    for seed in range(4):
        space, family, profile, f = spike_instance(seed)
        lo, hi = level_window(space, family, profile, f)
        assert lo < hi
        gen = philox(1000 + seed)
        lam = lo + (hi - lo) * (0.05 + 0.9 * gen.random())
        dec = cz_decompose(space, f, lam, family, profile)
        props = oracles.cz_properties(space, f, lam, family, dec)
        assert all(props.values()), props


def test_cz_nested_equal_levels_identity_compatible():
    space, family, profile, f = spike_instance(5)
    lo, hi = level_window(space, family, profile, f)
    lam = 0.5 * (lo + hi)
    dec_lo, dec_hi, mapping = cz_nested(space, f, lam, lam, family, profile)
    assert dec_lo.balls == dec_hi.balls
    for i, j in enumerate(mapping):
        members = set(space.ball_members(dec_hi.balls[i].center, dec_hi.balls[i].radius).tolist())
        five = set(
            space.ball_members(dec_lo.balls[j].center, 5.0 * dec_lo.balls[j].radius).tolist()
        )
        assert members <= five


def test_cz_nested_two_levels_containment_oracle():
    for seed in (1, 2, 3):
        space, family, profile, f = spike_instance(seed, n_spikes=3)
        lo_edge, hi_edge = level_window(space, family, profile, f)
        if lo_edge >= hi_edge:
            continue
        lam_lo = lo_edge + 0.05 * (hi_edge - lo_edge)
        lam_hi = lo_edge + 0.6 * (hi_edge - lo_edge)
        dec_lo, dec_hi, mapping = cz_nested(space, f, lam_lo, lam_hi, family, profile)
        assert len(mapping) == len(dec_hi.balls)
        for ball, j in zip(dec_hi.balls, mapping):
            members = set(oracles.ball(space, ball.center, ball.radius))
            coarse = dec_lo.balls[j]
            five = set(oracles.ball(space, coarse.center, 5.0 * coarse.radius))
            assert members <= five
        # both levels valid decompositions on their own
        for dec, lam in ((dec_lo, lam_lo), (dec_hi, lam_hi)):
            props = oracles.cz_properties(space, f, lam, family, dec)
            assert all(props.values()), props


def test_cz_contraction_between_levels():
    """Sum of fine-ball measures is controlled by coarse-ball measures.

    For nested levels delta < lam (in units of the reference average) and
    the measured positive-part constant eps:
        sum mu(B_lam) <= [c_mu (5 sigma)^D eps (1 + delta) / (lam - delta)] sum mu(B_delta)
    """
    from wgrkit.theorems import build_ball_system

    space = grid_1d(0.0, 512.0, 512)
    base = Ball(256, 51.0)
    sigma, eta = 1.0, 4.0
    system = build_ball_system(space, build_family(space, base, eta, sigma))
    family, profile = system.family, system.profile

    gen = philox(21)
    w = 1.0 + 0.002 * gen.random(512)
    b0 = space.ball_members(base.center, base.radius)
    spots = gen.choice(b0, size=2, replace=False)
    w[spots] = 60.0

    c = average(space, w, system.sigma_hat_members)
    eps = wgr_epsilon(space, w, system.measuring, sigma=sigma).value
    f = np.maximum(w - c, 0.0)

    lo_edge, hi_edge = level_window(space, family, profile, f)
    assert lo_edge < hi_edge
    delta_abs = lo_edge * 1.01
    lam_abs = lo_edge + 0.5 * (hi_edge - lo_edge)
    dec_lo, dec_hi, _ = cz_nested(space, f, delta_abs, lam_abs, family, profile)

    sum_lo = math.fsum(space.set_measure(space.ball_members(b.center, b.radius))
                       for b in dec_lo.balls)
    sum_hi = math.fsum(space.set_measure(space.ball_members(b.center, b.radius))
                       for b in dec_hi.balls)
    delta, lam = delta_abs / c, lam_abs / c
    bound = (
        profile.c_mu
        * (5.0 * sigma) ** profile.dimension_d
        * eps
        * (1.0 + delta)
        / (lam - delta)
    )
    assert sum_hi <= bound * sum_lo * (1 + 1e-9)


def test_cz_json_shape():
    space, family, profile, f = spike_instance(7)
    lo, hi = level_window(space, family, profile, f)
    dec = cz_decompose(space, f, 0.5 * (lo + hi), family, profile)
    obj = dec.to_json_obj({"i": "pass", "ii": "pass", "iii": "pass", "iv": "pass"})
    assert obj.keys() == {"level", "balls", "properties"}
    assert obj["balls"][0].keys() == {"center", "radius", "avg", "doubled_avg"}


# -- error paths: every failure raises with its property and witness ---------


def _over_cap_instance():
    """(space, family, profile, f, lam): the profile understates c_mu as 1, so
    the level lies below the true threshold and the points around the spike
    at 28 are reachable only through radii over the cap."""
    space = grid_1d(0.0, 64.0, 64)
    family = build_family(space, Ball(32, 8.0), eta=1.0, sigma=1.0)
    f = np.ones(64)
    f[28] = 5.0
    f_hat = average(space, f, space.ball_members(32, 16.0))
    lam = f_hat + 0.01 * (maximal_function(space, f, family).max() - f_hat)
    return space, family, DoublingProfile.from_c_mu(1.0), f, lam


def _spike_level():
    """(space, family, profile, f, lam) with lam inside the admissible window."""
    space, family, profile, f = spike_instance(7)
    lo, hi = level_window(space, family, profile, f)
    return space, family, profile, f, 0.5 * (lo + hi)


def _superlevel(space, family, f, lam) -> set[int]:
    hat = space.ball_members(family.hat_ball.center, family.hat_ball.radius)
    return set(level_set(maximal_function(space, f, family), lam, hat).tolist())


def _cap(family) -> float:
    return family.eta * family.base_ball.radius / (5.0 * family.sigma)


def test_over_cap_candidate_raises_with_its_witness():
    space, family, profile, f, lam = _over_cap_instance()
    with pytest.raises(CZConstructionError) as err:
        cz_decompose(space, f, lam, family, profile)
    assert err.value.prop == "ii"
    assert err.value.witness == (18, [Ball(25, 8.0)])
    assert 18 in _superlevel(space, family, f, lam) and 8.0 > _cap(family)


def test_restricted_level_without_a_candidate_raises_nesting_error():
    space, family, profile, f, lam = _spike_level()
    with pytest.raises(NestingError) as err:
        czdecomp._decompose(space, f, lam, family, profile, [np.zeros(space.n_points, dtype=bool)])
    assert err.value.witness == min(_superlevel(space, family, f, lam))


def _break(prop, step, family, lam):
    """A stand-in for the construction step ``step`` that breaks ``prop``."""
    if prop == "disjoint":  # the first accepted ball twice
        return lambda *args: step(*args)[:1] * 2
    if prop == "i":  # the widest family ball at B0's center, which leaves E
        return lambda *args: [Ball(family.base_ball.center, family.radius_grid[-1])]
    if prop == "cover":  # no ball, so no 5-dilate covers E
        return lambda *args: []
    if prop == "ii":  # the over-cap candidates counted as usable
        return lambda *args: (sum(step(*args), []), [])
    if prop == "iii":  # each average lowered to the level
        return lambda *args: [c._replace(average=lam) for c in step(*args)]
    return lambda *args: [  # "iv": a dilate average above the level
        c._replace(dilate_averages={2.0: 2.0 * lam}) for c in step(*args)]


@pytest.mark.parametrize("prop,step", [
    ("disjoint", "_greedy_disjoint"), ("i", "_greedy_disjoint"), ("cover", "_greedy_disjoint"),
    ("ii", "_candidates"), ("iii", "_certify"), ("iv", "_certify"),
])
def test_verify_catches_each_broken_property(prop, step, monkeypatch):
    """A construction broken on purpose never escapes: the re-verification
    raises with the broken property and a witness."""
    space, family, profile, f, lam = _over_cap_instance() if prop == "ii" else _spike_level()
    monkeypatch.setattr(czdecomp, step, _break(prop, getattr(czdecomp, step), family, lam))
    with pytest.raises(CZConstructionError) as err:
        cz_decompose(space, f, lam, family, profile)
    e_set, witness = _superlevel(space, family, f, lam), err.value.witness
    assert err.value.prop == prop
    if prop == "cover":  # the witness is a superlevel point outside every 5-dilate
        assert witness in e_set
        return
    inside = set(space.ball_members(witness.center, witness.radius).tolist()) <= e_set
    assert inside == (prop != "i")
    if prop == "ii":
        assert witness.radius > _cap(family)


# -- the weight keeps its CZ tables ---------------------------------------------


def test_maximal_function_is_each_weights_own():
    """Two weights on one family each get their own table and maximal function."""
    space = grid_1d(0.0, 64.0, 64)
    family = build_family(space, Ball(32, 8.0), eta=1.0, sigma=1.5)
    g_values = np.ones(64)
    g_values[30] = 50.0
    f, g = Weight(np.ones(64)), Weight(g_values)
    mf, mg = maximal_function(space, f, family), maximal_function(space, g, family)
    assert (mf.max(), mg.max()) == (1.0, 50.0)
    assert mf.tolist() == oracles.maximal_function(space, f.values, family.members)
    assert mg.tolist() == oracles.maximal_function(space, g_values, family.members)
    assert not mg.flags.writeable  # the table's own array: no caller can corrupt it


def test_one_weight_shares_one_table_across_the_cz_layer(monkeypatch):
    space, family, profile, f = spike_instance(7)
    lo, hi = level_window(space, family, profile, f)
    builds = []
    original = czdecomp._FamilyAverages.__init__

    def counting(self, *args):
        builds.append(args)
        original(self, *args)

    monkeypatch.setattr(czdecomp._FamilyAverages, "__init__", counting)
    w = Weight(f)
    mf = maximal_function(space, w, family)
    cz_decompose(space, w, 0.5 * (lo + hi), family, profile)
    cz_nested(space, w, lo * 1.01, 0.5 * (lo + hi), family, profile)
    assert len(builds) == 1
    assert maximal_function(space, w, family) is mf
    # a bare array gets a table of its own per call, shared by both nested levels
    cz_nested(space, f, lo * 1.01, 0.5 * (lo + hi), family, profile)
    assert len(builds) == 2


from hypothesis import assume, given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(
    a_const=st.floats(min_value=1.0, max_value=500.0),
    eps=st.floats(min_value=1e-6, max_value=0.5),
    lam0=st.floats(min_value=1e-3, max_value=50.0),
    m=st.integers(min_value=0, max_value=15),
)
def test_phi_sequence_closed_form_property(a_const, eps, lam0, m):
    seq = phi_sequence(a_const, eps, lam0, m)
    a_eps = a_const * eps
    assert len(seq) == m + 1
    for k, lam in enumerate(seq):
        assert lam == pytest.approx((1.0 + lam0) * (1.0 + a_eps) ** k - 1.0, rel=1e-12)


def _closure_reference(family):
    """The per-center construction: every chain per center, deduplicated and sorted."""
    top = 2.0 * (1.0 + family.eta) * family.base_ball.radius
    keys = []
    for c in sorted({b.center for b in family.members}):
        for r in family.radius_grid:
            rho = r
            while True:
                keys.append((c, rho))
                if rho >= top:
                    break
                rho *= 2.0
    return sorted(set(keys))


@pytest.mark.parametrize(
    "space,base,eta,sigma",
    [
        (grid_1d(0.0, 64.0, 64), Ball(32, 8.0), 1.0, 1.5),
        (grid_1d(0.0, 512.0, 512), Ball(256, 51.2), 4.0, 1.0),
        (grid_1d(0.0, 3.0, 40), Ball(7, 0.3), 0.7, 1.25),
        (grid_nd(2, 9, 1.0, "chebyshev"), Ball(40, 2.5), 1.0, 2.0),
        (grid_nd(2, 7, 0.5, "euclidean"), Ball(24, 1.1), 2.5, 1.0),
    ],
)
def test_closure_ball_set_matches_per_center_construction(space, base, eta, sigma):
    """:func:`closure_keys` lists the closure ball set in the per-center order."""
    family = build_family(space, base, eta=eta, sigma=sigma)
    assert closure_keys(family) == _closure_reference(family)


@pytest.mark.parametrize("table_first", [True, False])
@pytest.mark.parametrize("mass", [None, [1.0, 1.01, 1.02]], ids=["uniform", "unequal"])
def test_closure_profile_is_the_profile_of_the_closure_balls(mass, table_first):
    grid = grid_1d(0.0, 96.0, 96)
    space, fresh = (FiniteMetricMeasureSpace(np.resize(mass, 96) if mass else grid.mass,
                                             coords=grid.coords, metric_kind="euclidean")
                    for _ in range(2))
    family = build_family(space, Ball(40, 9.6), eta=4.0, sigma=1.0)
    if table_first:
        maximal_function(space, np.ones(96), family)
    expected = doubling_profile(fresh, [Ball(c, r) for c, r in closure_keys(family)])
    assert closure_profile(space, family).c_mu.hex() == expected.c_mu.hex()


# -- the family sweep against the per-ball path -------------------------------


@st.composite
def _small_spaces(draw):
    """(mass, geometry keywords, f >= 0): a small space with tied distances.
    A line, sorted 1-d coordinates with duplicates, takes unequal masses."""
    kind = draw(st.sampled_from(["euclidean", "chebyshev", "table", "line"]))
    if kind == "table":
        # shortest paths over integer edge lengths: a metric full of ties
        n = draw(st.integers(3, 10))
        d = np.array(draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n)), float)
        d = d.reshape(n, n)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
        geometry = {"distance_matrix": d}
    elif kind == "line":
        xs = sorted(draw(st.lists(st.integers(0, 11), min_size=3, max_size=12)))
        n = len(xs)
        geometry = {"coords": [[x] for x in xs],
                    "metric_kind": draw(st.sampled_from(["euclidean", "chebyshev"]))}
    else:
        dim, side = draw(st.sampled_from([(1, 12), (2, 4)]))
        point = st.tuples(*[st.integers(0, side - 1)] * dim)
        coords = draw(st.lists(point, min_size=3, max_size=12, unique=True))
        n = len(coords)
        geometry = {"coords": coords, "metric_kind": kind}
    if kind != "line" and draw(st.booleans()):
        mass = [1.0 / 3.0] * n
    else:
        masses = st.sampled_from([0.1, 0.25, 1.0 / 3.0, 1.0, 3.0])
        mass = draw(st.lists(masses, min_size=n, max_size=n))
    f = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    return mass, geometry, f


@settings(max_examples=80, deadline=None)
@given(
    instance=_small_spaces(),
    center=st.integers(0, 11),
    radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    eta=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_family_sweep_matches_the_per_ball_path(instance, center, radius, eta):
    mass, geometry, f = instance
    swept, per_ball = (FiniteMetricMeasureSpace(mass, **geometry) for _ in range(2))
    family = build_family(swept, Ball(center % swept.n_points, radius), eta=eta, sigma=1.0)
    table = czdecomp._averages(swept, f, family)
    # a line takes the span path, its members slices; every other space the sweep
    assert all(isinstance(v, slice) == swept.is_line for v in table.members.values())

    values = np.asarray(f)
    members, avg = {}, {}
    for ball in family.members:
        key = (ball.center, ball.radius)
        ids = per_ball.ball_members(ball.center, ball.radius)
        members[key] = set(ids.tolist())
        if ids.size:
            avg[key] = _ball_average(per_ball, values, ball, ids).hex()
    mf = np.zeros(per_ball.n_points)
    for key, a in avg.items():
        np.maximum.at(mf, list(members[key]), float.fromhex(a))

    ids = np.arange(swept.n_points)
    assert {k: set(ids[v].tolist()) for k, v in table.members.items()} == members
    assert {k: v.hex() for k, v in table.avg.items()} == avg
    assert table.maximal.tobytes() == mf.tobytes()
    assert table.maximal.tolist() == oracles.maximal_function(per_ball, f, family.members)
    # every measure the sweep stored is the per-ball measure, closure balls included
    closure = closure_keys(family)
    assert {(c, r) for c, rho in closure for r in (rho, 2.0 * rho)} <= swept._mu.keys()
    assert {k: mu.hex() for k, mu in swept._mu.items()} == {
        k: per_ball.ball_measure(*k).hex() for k in swept._mu
    }


@st.composite
def _line_and_shuffle(draw):
    """A line with unequal masses, a weight, and a permutation that unsorts it."""
    xs = sorted(draw(st.lists(st.integers(0, 15), min_size=3, max_size=14)))
    n = len(xs)
    assume(xs[0] < xs[-1])
    perm = draw(st.permutations(range(n)))
    assume(any(xs[a] > xs[b] for a, b in zip(perm, perm[1:])))
    mass = draw(st.lists(st.sampled_from([0.1, 0.25, 1.0 / 3.0, 1.0, 3.0]), min_size=n, max_size=n))
    f = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    return np.array(xs, float), np.array(mass), np.array(f), np.array(perm)


@settings(max_examples=80, deadline=None)
@given(
    case=_line_and_shuffle(),
    kind=st.sampled_from(["euclidean", "chebyshev"]),
    center=st.integers(0, 13),
    radius=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    eta=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_line_spans_and_the_sweep_of_its_shuffle_agree_bit_for_bit(case, kind, center, radius, eta):
    """Point ``i`` of the shuffled space is point ``perm[i]`` of the line: the
    line's tables, taken through the spans, and the shuffle's, through the
    sweep, are the same up to that relabelling."""
    xs, mass, f, perm = case
    inv = np.argsort(perm)
    line = FiniteMetricMeasureSpace(mass, coords=xs[:, None], metric_kind=kind)
    shuffled = FiniteMetricMeasureSpace(mass[perm], coords=xs[perm][:, None], metric_kind=kind)
    assert line.is_line and not shuffled.is_line
    c = center % line.n_points
    spans = czdecomp._averages(line, f, build_family(line, Ball(c, radius), eta=eta, sigma=1.0))
    shuffled_family = build_family(shuffled, Ball(int(inv[c]), radius), eta=eta, sigma=1.0)
    sweep = czdecomp._averages(shuffled, f[perm], shuffled_family)
    assert all(isinstance(v, slice) for v in spans.members.values())
    assert not any(isinstance(v, slice) for v in sweep.members.values())

    def relabel(table):
        return {(int(inv[c]), r): v for (c, r), v in table.items()}

    assert {k: v.hex() for k, v in relabel(spans.avg).items()} == {
        k: v.hex() for k, v in sweep.avg.items()
    }
    assert {k: sorted(inv[v].tolist()) for k, v in relabel(spans.members).items()} == {
        k: sorted(v.tolist()) for k, v in sweep.members.items()
    }
    assert spans.maximal[perm].tobytes() == sweep.maximal.tobytes()
    assert {k: v.hex() for k, v in relabel(line._mu).items()} == {
        k: v.hex() for k, v in shuffled._mu.items()
    }
