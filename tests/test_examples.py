"""Canonical instances: strip, exponential, seeded random weights."""
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import philox
from wgrkit import Ball, build_family, gr_epsilon, grid_1d, rhi_constant, wgr_epsilon
from wgrkit.errors import AlignmentError, WgrError
from wgrkit.examples import (
    InstanceSpec,
    _normal_quantiles,
    build_instance,
    exponential_weight,
    list_instances,
    random_weight,
    sawyer_strip,
    strip_cube_family,
    untruncated_balls,
)


def strip_cube_ratio_sup(space, w, cubes):
    best = 0.0
    for b in cubes:
        wq = oracles.w_measure(space, w, oracles.ball(space, b.center, b.radius))
        w2q = oracles.w_measure(space, w, oracles.ball(space, b.center, 2.0 * b.radius))
        if w2q > 0:
            best = max(best, wq / w2q)
    return best


def test_sawyer_strip_alignment_error():
    with pytest.raises(AlignmentError):
        sawyer_strip(2, 8, 0.3)


def test_sawyer_strip_is_whole_cells():
    space, w = sawyer_strip(2, 8, 0.5)
    strip = np.flatnonzero(w.values)
    # two rows of cells tile the unit slab exactly
    assert set(np.round(space.coords[strip, -1], 12).tolist()) == {0.25, 0.75}
    assert oracles.w_measure(space, w, strip.tolist()) == pytest.approx(8 * 0.5 * 1.0)


def test_sawyer_strip_1d_vacuous_bound():
    # one dimension: the cube bound degenerates to 2^0 = 1
    space, w = sawyer_strip(1, 16, 1.0)
    cubes = strip_cube_family(space, [1.0, 2.0, 4.0], sigma=2.0)
    assert strip_cube_ratio_sup(space, w, cubes) <= 1.0
    assert wgr_epsilon(space, w, cubes, sigma=2.0).value <= 1.0


def test_sawyer_strip_2d_half_bound_small():
    space, w = sawyer_strip(2, 16, 1.0)
    cubes = strip_cube_family(space, [1.0, 2.0, 4.0], sigma=2.0)
    assert cubes
    assert strip_cube_ratio_sup(space, w, cubes) <= 0.5 + 1e-12
    assert wgr_epsilon(space, w, cubes, sigma=2.0).value <= 0.5 + 1e-12


def test_sawyer_strip_3d_quarter_bound_coarse():
    space, w = sawyer_strip(3, 8, 1.0)
    cubes = strip_cube_family(space, [1.0, 2.0], sigma=2.0)
    assert cubes
    assert strip_cube_ratio_sup(space, w, cubes) <= 0.25 + 1e-12
    assert wgr_epsilon(space, w, cubes, sigma=2.0).value <= 0.25 + 1e-12


def test_untruncated_filter():
    space, _ = sawyer_strip(2, 8, 1.0)
    balls = [Ball(c, 1.0) for c in range(space.n_points)]
    kept = untruncated_balls(space, balls, factor=2.0)
    assert kept and len(kept) < len(balls)
    lo, hi = space.coordinate_bounds()
    for b in kept:
        c = space.coords[b.center]
        assert np.all(c - 2.0 >= lo - 1e-12) and np.all(c + 2.0 <= hi + 1e-12)


def test_exponential_weight_wgr_below_gr():
    space, w = exponential_weight(0.0, 24.0, 96)
    base = Ball(48, 6.0)
    fam = build_family(space, base, eta=1.0, sigma=2.0)
    gr = gr_epsilon(space, w, list(fam.members)).value
    wgr = wgr_epsilon(space, w, fam).value
    assert 0.0 < wgr < gr
    assert gr > 0.1  # absolute oscillation stays bounded away from zero


def test_exponential_translation_invariance():
    # per-interval absolute-oscillation ratio depends only on the radius
    space, w = exponential_weight(0.0, 32.0, 128)
    r = 4.0
    balls = [Ball(40, r), Ball(80, r)]
    rep = gr_epsilon(space, w, balls)
    ratios = [ratio for _, ratio in rep.per_ball]
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)


def test_exponential_near_constant_limit():
    space, w = exponential_weight(0.0, 1e-8, 16)
    base = Ball(8, 2.5e-9)
    fam = build_family(space, base, eta=1.0, sigma=2.0)
    assert wgr_epsilon(space, w, fam).value == pytest.approx(0.0, abs=1e-7)
    assert gr_epsilon(space, w, list(fam.members)).value == pytest.approx(0.0, abs=1e-7)


def test_random_weight_determinism():
    space = grid_1d(0.0, 32.0, 32)
    a = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.4}, seed=9)
    b = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.4}, seed=9)
    assert a.values.tobytes() == b.values.tobytes()
    c = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.4}, seed=10)
    assert a.values.tobytes() != c.values.tobytes()


def test_random_weight_zero_variance_constant():
    space = grid_1d(0.0, 16.0, 16)
    w = random_weight(space, "lognormal", {"mu": 0.3, "sigma": 0.0}, seed=1)
    assert np.allclose(w.values, math.exp(0.3))


def test_two_level_closed_form_average():
    space = grid_1d(0.0, 64.0, 64)
    w = random_weight(space, "two_level", {"low": 1.0, "high": 10.0, "fraction": 0.5}, seed=2)
    n_hi = int(np.count_nonzero(w.values == 10.0))
    n_lo = 64 - n_hi
    expected = (10.0 * n_hi + 1.0 * n_lo) / 64.0
    from wgrkit import average

    assert average(space, w, np.arange(64)) == pytest.approx(expected, rel=1e-12)


def test_power_weight_domain():
    space = grid_1d(0.0, 16.0, 16)
    with pytest.raises(WgrError):
        random_weight(space, "power", {"exponent": 9.0}, seed=0)
    w = random_weight(space, "power", {"exponent": -1.5}, seed=0)
    assert np.all(np.isfinite(w.values)) and np.all(w.values > 0)


#: the clip bounds of the lognormal draw, both sides of |p - 0.5| = 0.425
#: and of sqrt(-log r) = 5, where the inverse CDF switches branches
_TAIL = math.exp(-25.0)
INV_CDF_EDGES = [5e-17, 1.0 - 1e-16] + [
    q for p in (0.075, 0.925, _TAIL, 1.0 - _TAIL)
    for q in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0))
]


@settings(max_examples=300, deadline=None)
@given(st.floats(5e-17, 1.0 - 1e-16))
def test_normal_quantiles_match_normal_dist_inv_cdf(p):
    ps = np.array([p, *INV_CDF_EDGES])
    oracle = [NormalDist().inv_cdf(q) for q in ps.tolist()]
    assert _normal_quantiles(ps).tolist() == oracle


@pytest.mark.parametrize("seed", [0, 5, 2**64 + 3, 2**128 - 1])
def test_random_weights_match_the_numpy_and_statistics_oracle(seed):
    space = grid_1d(0.0, 37.0, 37)
    u = philox(seed).random(37)
    z = np.array([NormalDist().inv_cdf(x) for x in np.clip(u, 5e-17, 1.0 - 1e-16).tolist()])
    lognormal = random_weight(space, "lognormal", {"mu": 0.2, "sigma": 0.7}, seed)
    assert lognormal.values.tobytes() == np.exp(0.2 + 0.7 * z).tobytes()
    two_level = random_weight(space, "two_level", {"low": 1.0, "high": 4.0, "fraction": 0.3}, seed)
    assert two_level.values.tobytes() == np.where(u < 0.3, 4.0, 1.0).tobytes()
    x0 = int(philox(seed).integers(0, 37))
    power = random_weight(space, "power", {"exponent": -1.5}, seed)
    assert power.values.tobytes() == (np.maximum(space.dist_row(x0), 0.5) ** -1.5).tobytes()


def test_unknown_kind_rejected():
    space = grid_1d(0.0, 4.0, 4)
    with pytest.raises(WgrError):
        random_weight(space, "cauchy", {}, seed=0)
    with pytest.raises(WgrError):
        InstanceSpec(kind="nope")


def test_instance_spec_round_trip():
    spec = InstanceSpec(
        kind="lognormal", interval=(0.0, 64.0, 64), params={"mu": 0.0, "sigma": 0.3}, seed=5
    )
    obj = spec.to_json_obj()
    back = InstanceSpec.from_json_obj(obj)
    assert back == spec
    space, w = build_instance(back)
    assert space.n_points == 64 and w.values.shape == (64,)


def test_build_instance_each_kind():
    for spec in (
        InstanceSpec(kind="sawyer_strip", dimension=2, side=8, cell=1.0),
        InstanceSpec(kind="exponential", interval=(0.0, 4.0, 16)),
        InstanceSpec(kind="two_level", interval=(0.0, 8.0, 8), params={"fraction": 0.25}),
        InstanceSpec(
            kind="power",
            dimension=2,
            side=4,
            metric="chebyshev",
            params={"geometry": "grid_nd", "exponent": 1.0},
        ),
    ):
        space, w = build_instance(spec)
        assert space.n_points == w.values.size


def test_list_instances_covers_kinds():
    listing = list_instances()
    for kind in ("sawyer_strip", "exponential", "power", "lognormal", "two_level", "custom"):
        assert kind in listing
        assert "parameters" in listing[kind]
    assert listing["rng"] == "philox4x64-10"


def test_strip_rhi_growth_with_extent():
    values = []
    for side in (16, 32, 64):
        space, w = sawyer_strip(2, side, 1.0)
        center = int(
            np.argmin(np.abs(space.coords[:, 0] - 0.5) + np.abs(space.coords[:, 1] - 0.5))
        )
        fam = build_family(space, Ball(center, side / 8.0), eta=1.0, sigma=2.0)
        values.append(rhi_constant(space, w, fam, p=2.0).value)
    assert values[1] >= 1.2 * values[0]
    assert values[2] >= 1.2 * values[1]
