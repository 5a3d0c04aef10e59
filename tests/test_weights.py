"""Averages, oscillations, and the condition functionals."""
import math

import numpy as np
import pytest

import oracles
from conftest import small_instance
from wgrkit import (
    Ball,
    Weight,
    average,
    build_family,
    gr_epsilon,
    grid_1d,
    neg_oscillation_avg,
    pos_oscillation,
    rhi_constant,
    sublevel_alpha,
    weak_ainfty_beta,
    wgr_epsilon,
    wgr_minus_epsilon,
)
from wgrkit.errors import (
    EmptyAverageError,
    InvalidExponentError,
    InvalidParameterError,
    NoDataError,
    WgrError,
)
from wgrkit.space import FiniteMetricMeasureSpace


def test_weight_rejects_negative():
    with pytest.raises(WgrError):
        Weight(np.array([1.0, -0.1]))


def test_weights_compare_and_hash_by_identity():
    a, b = Weight([1.0, 2.0]), Weight([1.0, 2.0])
    assert a == a and a != b
    assert len({a, b, a}) == 2
    table = {a: "a", b: "b"}
    assert (table[a], table[b]) == ("a", "b")


def test_average_constant_and_indicator():
    sp = grid_1d(0.0, 4.0, 4)
    assert average(sp, np.full(4, 3.0), [0, 2, 3]) == 3.0
    # indicator of half the mass
    assert average(sp, np.array([1.0, 1.0, 0.0, 0.0]), range(4)) == 0.5


def test_average_hand_case():
    sp = grid_1d(0.0, 2.0, 2)
    assert average(sp, np.array([1.0, 3.0]), [0, 1]) == pytest.approx(2.0)


def test_average_empty_error():
    sp = grid_1d(0.0, 2.0, 2)
    with pytest.raises(EmptyAverageError):
        average(sp, np.ones(2), [])


def test_pos_oscillation_constant_zero():
    sp = grid_1d(0.0, 8.0, 8)
    assert pos_oscillation(sp, np.full(8, 2.5), Ball(4, 2.0), 1.5) == 0.0


def test_pos_oscillation_below_average_zero():
    sp = grid_1d(0.0, 8.0, 8)
    w = np.ones(8)
    w[0] = 9.0  # inflates the sigma-ball average above every point of B
    ball = Ball(4, 1.2)
    assert pos_oscillation(sp, w, ball, 5.0) == 0.0


def test_oscillations_hand_sum_two_points():
    sp = FiniteMetricMeasureSpace(
        [1.0, 2.0], distance_matrix=[[0.0, 1.0], [1.0, 0.0]]
    )
    w = np.array([4.0, 1.0])
    ball = Ball(0, 0.5)  # B = {p0}, sigma=4 ball = both points
    c = (4.0 * 1.0 + 1.0 * 2.0) / 3.0  # = 2
    assert pos_oscillation(sp, w, ball, 4.0) == pytest.approx((4.0 - c) * 1.0)
    assert neg_oscillation_avg(sp, w, Ball(1, 0.5), 4.0) == pytest.approx(c - 1.0)


def test_wgr_constant_weight_zero():
    sp = grid_1d(0.0, 16.0, 16)
    fam = build_family(sp, Ball(8, 4.0), eta=1.0, sigma=2.0)
    assert wgr_epsilon(sp, np.full(16, 7.0), fam).value == 0.0


def test_wgr_three_point_exhaustive():
    sp = FiniteMetricMeasureSpace(
        [1.0, 1.0, 1.0],
        distance_matrix=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
    )
    w = np.array([1.0, 2.0, 4.0])
    balls = [Ball(c, r) for c in range(3) for r in (0.5, 1.5, 2.5)]
    sigma = 1.5
    rep = wgr_epsilon(sp, w, balls, sigma=sigma)
    assert rep.value == pytest.approx(oracles.wgr_sup(sp, w, balls, sigma), rel=1e-12)
    assert rep.witness_ball in balls
    assert rep.value == max(r for _, r in rep.per_ball)


def test_gr_identity_at_sigma_one():
    """Positive-part sup at sigma=1 is exactly half the absolute-oscillation sup."""
    for seed in range(8):
        space, family, w = small_instance(seed)
        balls = list(family.members)
        lhs = wgr_epsilon(space, w, balls, sigma=1.0).value
        rhs = gr_epsilon(space, w, balls).value
        assert lhs == pytest.approx(rhs / 2.0, rel=1e-12)


def test_mean_zero_split_exact():
    """int (w - w_B)_+ over B equals half of int |w - w_B| over B."""
    for seed in range(6):
        space, family, w = small_instance(seed)
        for ball in list(family.members)[::7]:
            members = space.ball_members(ball.center, ball.radius)
            pos = pos_oscillation(space, w, ball, 1.0)
            half_abs = 0.5 * oracles.abs_osc(space, w, ball.center, ball.radius)
            assert pos == pytest.approx(half_abs, rel=1e-12, abs=1e-15)


def test_pos_oscillation_inclusion_bound():
    """int_B (w - w_S)_+ <= half int_S |w - w_S| for S = sigma B."""
    for seed in range(8):
        space, family, w = small_instance(seed)
        sigma = family.sigma
        for ball in list(family.members)[::5]:
            lhs = pos_oscillation(space, w, ball, sigma)
            rhs = 0.5 * oracles.abs_osc(space, w, ball.center, sigma * ball.radius)
            assert lhs <= rhs * (1 + 1e-12) + 1e-15


def test_weak_ainfty_constant_empty_superlevel():
    sp = grid_1d(0.0, 16.0, 16)
    fam = build_family(sp, Ball(8, 4.0), eta=1.0, sigma=1.5)
    assert weak_ainfty_beta(sp, np.full(16, 3.0), fam, alpha=0.7).value == 0.0


def test_weak_ainfty_indicator_direct():
    sp = grid_1d(0.0, 8.0, 8)
    w = np.zeros(8)
    w[3] = 1.0
    ball = Ball(3, 1.5)
    sigma = 2.0
    rep = weak_ainfty_beta(sp, w, [ball], alpha=0.5, sigma=sigma)
    ref = oracles.ball(sp, 3, sigma * 1.5)
    c = oracles.avg(sp, w, ref)
    level = [j for j in oracles.ball(sp, 3, 1.5) if 0.5 * w[j] >= c]
    assert rep.value == pytest.approx(
        oracles.w_measure(sp, w, level) / oracles.w_measure(sp, w, ref)
    )


def test_weak_ainfty_monotone_in_alpha():
    # {alpha w >= w_S} grows with alpha, so the sup ratio is nondecreasing
    space, family, w = small_instance(4)
    values = [weak_ainfty_beta(space, w, family, a).value for a in (0.2, 0.5, 0.8)]
    assert values[0] <= values[1] <= values[2]


def test_sublevel_constant_zero_and_inclusion():
    sp = grid_1d(0.0, 16.0, 16)
    fam = build_family(sp, Ball(8, 4.0), eta=1.0, sigma=1.5)
    assert sublevel_alpha(sp, np.full(16, 3.0), fam, beta=0.9).value == 0.0
    space, family, w = small_instance(2)
    lo = sublevel_alpha(space, w, family, beta=0.3).value
    hi = sublevel_alpha(space, w, family, beta=0.97).value
    assert lo <= hi  # sublevel sets grow with beta


def test_sublevel_hand_case():
    sp = grid_1d(0.0, 4.0, 4)
    w = np.array([1.0, 1.0, 10.0, 10.0])
    ball = Ball(1, 1.5)  # B = {0,1,2}
    sigma = 2.0
    rep = sublevel_alpha(sp, w, [ball], beta=0.5, sigma=sigma)
    ref = oracles.ball(sp, 1, 3.0)
    c = oracles.avg(sp, w, ref)
    expected = len([j for j in (0, 1, 2) if w[j] <= 0.5 * c]) / 3.0
    assert rep.value == pytest.approx(expected)


def test_rhi_constant_weight_is_one():
    sp = grid_1d(0.0, 16.0, 16)
    fam = build_family(sp, Ball(8, 4.0), eta=1.0, sigma=1.5)
    for p in (1.5, 2.0, 4.0):
        assert rhi_constant(sp, np.full(16, 5.0), fam, p).value == pytest.approx(1.0)


def test_rhi_monotone_in_p():
    space, family, w = small_instance(0)
    v = [rhi_constant(space, w, family, p).value for p in (1.5, 2.0, 3.0)]
    assert v[0] <= v[1] * (1 + 1e-12) and v[1] <= v[2] * (1 + 1e-12)


def test_rhi_at_sigma_one_at_least_one():
    for seed in range(6):
        space, family, w = small_instance(seed)
        balls = list(family.members)
        assert rhi_constant(space, w, balls, 2.0, sigma=1.0).value >= 1.0 - 1e-12


def test_rhi_indicator_closed_form():
    sp = grid_1d(0.0, 8.0, 8)
    w = np.zeros(8)
    w[3] = 1.0
    w[4] = 1.0
    ball = Ball(3, 2.5)  # 5 cells, 2 carrying weight
    rep = rhi_constant(sp, w, [ball], p=2.0, sigma=1.0)
    # ((2/5)^(1/2)) / (2/5) = (5/2)^(1/2)
    assert rep.value == pytest.approx(math.sqrt(5.0 / 2.0))


def test_rhi_invalid_exponent():
    space, family, w = small_instance(0)
    with pytest.raises(InvalidExponentError):
        rhi_constant(space, w, family, 1.0)


@pytest.mark.parametrize("eta", [-0.5, 0.0, math.nan])
def test_rhi_sigma_hat_rejects_a_nonpositive_eta(eta):
    space = grid_1d(0.0, 32.0, 32)
    family = build_family(space, Ball(16, 8.0), eta=1.0, sigma=1.5)
    w = 1.0 + np.arange(32.0) % 5
    with pytest.raises(InvalidParameterError, match="eta must be > 0"):
        rhi_constant(space, w, family, 2.0, rhs_ball="sigma_hat", eta=eta)


def test_zero_denominator_skip_policy():
    sp = grid_1d(0.0, 8.0, 8)
    w = np.zeros(8)
    w[7] = 1.0
    balls = [Ball(0, 1.2), Ball(7, 1.2)]  # first has w == 0 on its dilate
    rep = wgr_epsilon(sp, w, balls, sigma=1.5)
    assert len(rep.skipped) == 1 and rep.skipped[0] == balls[0]
    assert rep.per_ball[0][1] == 0.0


def test_all_skipped_raises():
    sp = grid_1d(0.0, 8.0, 8)
    with pytest.raises(NoDataError):
        wgr_epsilon(sp, np.zeros(8), [Ball(2, 1.2)], sigma=1.5)


def test_invalid_alpha_beta():
    space, family, w = small_instance(0)
    with pytest.raises(InvalidParameterError):
        weak_ainfty_beta(space, w, family, alpha=1.0)
    with pytest.raises(InvalidParameterError):
        sublevel_alpha(space, w, family, beta=0.0)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_homogeneity_all_functionals(c):
    space, family, w = small_instance(1)
    values = w.values

    scaled_w = Weight(values * c)
    scaled_space = FiniteMetricMeasureSpace(
        space.mass * c, coords=space.coords, metric_kind=space.metric_kind
    )

    def functionals(sp, weight):
        balls = list(family.members)
        return [
            wgr_epsilon(sp, weight, balls, sigma=family.sigma).value,
            wgr_minus_epsilon(sp, weight, balls, sigma=family.sigma).value,
            gr_epsilon(sp, weight, balls).value,
            weak_ainfty_beta(sp, weight, balls, 0.5, sigma=family.sigma).value,
            sublevel_alpha(sp, weight, balls, 0.5, sigma=family.sigma).value,
            rhi_constant(sp, weight, balls, 2.0, sigma=family.sigma).value,
        ]

    baseline = functionals(space, w)
    for variant in (functionals(space, scaled_w), functionals(scaled_space, w)):
        for a, b in zip(baseline, variant):
            assert b == pytest.approx(a, rel=1e-12)


def test_report_csv_and_summary():
    space, family, w = small_instance(3)
    rep = wgr_epsilon(space, w, family)
    rows = rep.csv_rows()
    assert len(rows) == rep.n_balls
    assert all(len(r) == 4 for r in rows)
    summary = rep.summary_obj()
    assert summary.keys() == {"value", "witness", "n_balls", "n_skipped"}
    assert summary["value"] == rep.value


def test_per_ball_matches_oracle():
    space, family, w = small_instance(5)
    rep = wgr_epsilon(space, w, family)
    for ball, ratio in rep.per_ball[::9]:
        denom = oracles.w_measure(
            space, w, oracles.ball(space, ball.center, family.sigma * ball.radius)
        )
        if denom > 0:
            expected = oracles.pos_osc(space, w, ball.center, ball.radius, family.sigma) / denom
            assert ratio == pytest.approx(expected, rel=1e-12, abs=1e-15)


from hypothesis import given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=4, max_size=24),
    sigma=st.floats(min_value=1.0, max_value=3.0),
)
def test_wgr_dominated_by_one_property(values, sigma):
    """The positive-part ratio never reaches 1 on a positive reference ball."""
    n = len(values)
    sp = grid_1d(0.0, float(n), n)
    balls = [Ball(c, r) for c in range(n) for r in (1.2, 2.5)]
    try:
        rep = wgr_epsilon(sp, np.array(values), balls, sigma=sigma)
    except NoDataError:
        return
    assert rep.value <= 1.0
    for ball, ratio in rep.per_ball:
        assert 0.0 <= ratio <= 1.0


@pytest.mark.parametrize(
    "functional",
    [
        wgr_epsilon,
        wgr_minus_epsilon,
        gr_epsilon,
        lambda sp, w, fam: weak_ainfty_beta(sp, w, fam, 0.5),
        lambda sp, w, fam: sublevel_alpha(sp, w, fam, 0.5),
        lambda sp, w, fam: rhi_constant(sp, w, fam, 2.0),
    ],
)
def test_functional_leaves_the_callers_array_writeable(functional):
    space = grid_1d(0.0, 32.0, 32)
    family = build_family(space, Ball(16, 8.0), eta=1.0, sigma=1.5)
    arr = 1.0 + np.arange(32.0) % 5
    functional(space, arr, family)
    assert arr.flags.writeable
    arr[0] = 5.0
    assert arr[0] == 5.0
