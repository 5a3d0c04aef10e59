"""Ball dilation, families, and the greedy 5r cover."""
import gc
import math
import weakref

import numpy as np
import pytest

import oracles
from wgrkit import Ball, Weight, build_family, dilate, five_r_cover, grid_1d, verify_cover
from wgrkit.balls import radius_grid
from wgrkit.czdecomp import closure_profile
from wgrkit.errors import EmptyBallError, InvalidDilationError, InvalidParameterError
from wgrkit.space import FiniteMetricMeasureSpace, grid_nd


def test_dilate_identity_and_scaling():
    b = Ball(3, 2.0)
    assert dilate(b, 1.0) == b
    assert dilate(b, 2.5) == Ball(3, 5.0)
    assert dilate(dilate(b, 2.0), 0.5) == b


def test_dilate_rejects_nonpositive():
    with pytest.raises(InvalidDilationError):
        dilate(Ball(0, 1.0), 0.0)
    with pytest.raises(InvalidDilationError):
        dilate(Ball(0, 1.0), -2.0)


def test_ball_radius_positive():
    for make in (lambda: Ball(0, 0.0), lambda: Ball(0, 1.0)._replace(radius=0.0)):
        with pytest.raises(InvalidParameterError):
            make()


def test_build_family_grid_structure():
    sp = grid_1d(0.0, 10.0, 10)
    center = 5  # coordinate 5.5
    fam = build_family(sp, Ball(center, 2.0), eta=1.0, sigma=2.0)
    centers = {b.center for b in fam.members}
    assert centers == set(sp.ball_members(center, 2.0).tolist())
    # coordinates strictly inside (3.5, 7.5)
    assert sorted(sp.coords[sorted(centers), 0].tolist()) == [4.5, 5.5, 6.5]
    # ratio-2 grid anchored at eta*r0 = 2, descending below the cell size 1
    assert fam.radius_grid == (0.5, 1.0, 2.0)
    assert len(fam.members) == len(centers) * len(fam.radius_grid)


def test_family_radii_capped_by_eta():
    sp = grid_1d(0.0, 16.0, 16)
    fam = build_family(sp, Ball(8, 4.0), eta=0.7, sigma=1.0)
    assert max(fam.radius_grid) == pytest.approx(0.7 * 4.0)
    assert all(b.radius <= 0.7 * 4.0 for b in fam.members)


def test_family_minimum_radius_below_min_distance():
    sp = grid_1d(0.0, 16.0, 16)
    fam = build_family(sp, Ball(8, 4.0), eta=1.0, sigma=1.0)
    assert min(fam.radius_grid) < 1.0
    # ratio-2 chain
    grid = list(fam.radius_grid)
    for lo, hi in zip(grid, grid[1:]):
        assert hi == pytest.approx(2.0 * lo)


def test_family_grid_ends_at_the_smallest_subnormal():
    """When the hat's smallest positive distance is the smallest subnormal, the
    grid ends there: halving it once more gives 0.0, which is no radius, and only
    distance 0 lies below it, so B(c, 5e-324) is already the singleton scale."""
    sp = FiniteMetricMeasureSpace([1.0] * 3, coords=[[0.0], [5e-324], [1.0]],
                                  metric_kind="chebyshev")
    fam = build_family(sp, Ball(0, 2.0), eta=1.0, sigma=1.0)
    assert fam.radius_grid == tuple(2.0**k for k in range(-1074, 2))  # 1,076 radii
    assert len(fam.members) == 3 * len(fam.radius_grid)
    assert [sp.ball_members(c, 5e-324).tolist() for c in range(3)] == [[0], [1], [2]]


def test_family_checks_its_smallest_radius_with_balls_error():
    sp = grid_1d(0.0, 4.0, 4)
    with pytest.raises(InvalidParameterError, match=r"^ball radius must be > 0, got 0.0$"):
        build_family(sp, Ball(1, 5e-324), eta=0.5, sigma=1.0)  # eta * r0 rounds to 0.0


def test_family_rejects_an_infinite_grid_anchor():
    """Halving an infinite anchor eta * r0 never ends: the grid refuses it."""
    with pytest.raises(InvalidParameterError, match=r"^the radius grid needs a finite anchor"):
        build_family(grid_1d(0.0, 8.0, 8), Ball(4, math.inf), 1.0, 1.0)
    with pytest.raises(InvalidParameterError, match=r"got inf$"):
        radius_grid(grid_1d(0.0, 8.0, 8), Ball(4, 1e300), 1e300)


def test_family_one_point_space():
    sp = grid_nd(1, 1, 1.0, "euclidean")
    fam = build_family(sp, Ball(0, 3.0), eta=1.0, sigma=1.0)
    assert len(fam.members) == 1
    assert fam.members[0] == Ball(0, 3.0)


def test_family_empty_base_error():
    from types import SimpleNamespace

    sp = grid_1d(0.0, 4.0, 4)
    with pytest.raises(EmptyBallError):
        build_family(sp, SimpleNamespace(center=0, radius=0.0), eta=1.0, sigma=1.0)


def test_family_serialization():
    sp = grid_1d(0.0, 8.0, 8)
    fam = build_family(sp, Ball(4, 2.0), eta=1.0, sigma=1.0)
    obj = fam.to_json_obj()
    assert obj[0].keys() == {"center", "radius"}
    assert len(obj) == len(fam.members)


def test_five_r_cover_single_point():
    sp = grid_nd(1, 1, 1.0, "euclidean")
    cover = five_r_cover(sp, Ball(0, 1.0), sigma=2.0, eta=1.0)
    assert len(cover) == 1


def test_five_r_cover_requires_sigma_above_one():
    sp = grid_1d(0.0, 8.0, 8)
    with pytest.raises(InvalidParameterError):
        five_r_cover(sp, Ball(4, 2.0), sigma=1.0, eta=1.0)


def test_five_r_cover_postconditions_oracle():
    sp = grid_1d(0.0, 16.0, 16)
    base = Ball(8, 6.0)
    sigma, eta = 2.0, 1.0
    cover = five_r_cover(sp, base, sigma, eta)
    rho = (sigma - 1.0) / (sigma * (1.0 + eta))
    assert all(b.radius == pytest.approx(rho * base.radius) for b in cover)

    # disjoint fifth-dilates, exhaustive pairwise
    fifths = [set(oracles.ball(sp, b.center, b.radius / 5.0)) for b in cover]
    for i in range(len(fifths)):
        for j in range(i + 1, len(fifths)):
            assert not fifths[i] & fifths[j]

    # coverage of the base ball
    covered = set()
    for b in cover:
        covered |= set(oracles.ball(sp, b.center, b.radius))
    assert set(oracles.ball(sp, base.center, base.radius)) <= covered

    # sigma-hat containment in sigma*B0 as point sets
    sigma_base = set(oracles.ball(sp, base.center, sigma * base.radius))
    for b in cover:
        hat = set(oracles.ball(sp, b.center, sigma * (1 + eta) * b.radius))
        assert hat <= sigma_base

    # containment radius arithmetic: sigma(1+eta)*rho*r0 = (sigma-1)*r0
    assert sigma * (1 + eta) * rho * base.radius == pytest.approx((sigma - 1) * base.radius)


def test_verify_cover_report_fields():
    sp = grid_1d(0.0, 16.0, 16)
    base = Ball(8, 6.0)
    fam = build_family(sp, base, eta=1.0, sigma=2.0)
    prof = closure_profile(sp, fam)
    cover = five_r_cover(sp, base, 2.0, 1.0)
    report = verify_cover(sp, base, cover, 2.0, 1.0, prof)
    assert report["coverage"] == 1.0
    assert report["all_fifth_disjoint"] and report["all_contained"]
    assert report["count_ok"] and report["n_balls"] <= report["count_bound"]
    assert report["rows"][0].keys() == {"center", "radius", "fifth_disjoint_ok", "contained_ok"}


@pytest.mark.parametrize("seed", range(3))
def test_family_centers_inside_base(seed):
    from conftest import small_instance

    space, family, _ = small_instance(seed)
    base_members = set(
        space.ball_members(family.base_ball.center, family.base_ball.radius).tolist()
    )
    assert {b.center for b in family.members} == base_members


def _pairwise_verify_cover(space, base_ball, cover, sigma, eta):
    """The cover rows and flags by the pairwise scan: every pair of fifth-balls
    is intersected, and containment is a set inclusion."""
    base_members = space.ball_members(base_ball.center, base_ball.radius)
    sigma_base = set(space.ball_members(base_ball.center, sigma * base_ball.radius).tolist())
    fifth_masks = [space.ball_mask(b.center, b.radius / 5.0) for b in cover]
    covered = np.zeros(space.n_points, dtype=bool)
    rows = []
    for i, ball in enumerate(cover):
        covered |= space.ball_mask(ball.center, ball.radius)
        disjoint = all(
            not np.any(fifth_masks[i] & fifth_masks[j]) for j in range(len(cover)) if j != i
        )
        hat_members = space.ball_members(ball.center, sigma * (1.0 + eta) * ball.radius)
        contained = set(hat_members.tolist()) <= sigma_base
        rows.append({"center": ball.center, "radius": ball.radius,
                     "fifth_disjoint_ok": disjoint, "contained_ok": contained})
    return {
        "rows": rows,
        "n_balls": len(cover),
        "coverage": int(np.count_nonzero(covered[base_members])) / max(1, base_members.size),
        "all_fifth_disjoint": all(r["fifth_disjoint_ok"] for r in rows),
        "all_contained": all(r["contained_ok"] for r in rows),
    }


#: (cover, fifth_disjoint_ok per ball, contained_ok per ball) on 16 unit cells
#: with B0 = B(8, 3), sigma = 2 and eta = 1, so sigma*B0 holds the cells 3..13.
_HAND_MADE_COVERS = [
    # the fifth-balls of 1 and 2 share cells 1 and 2; the hats of 1, 2 and 12 leave sigma*B0
    ([Ball(1, 6.0), Ball(2, 6.0), Ball(9, 1.0), Ball(12, 1.0)],
     [False, False, True, True], [False, False, True, False]),
    # three fifth-balls share cell 7; only the small middle piece has its hat inside
    ([Ball(6, 10.0), Ball(7, 1.0), Ball(8, 10.0)], [False, False, False], [False, True, False]),
    # a repeated ball overlaps its copy; the cover misses part of B0
    ([Ball(8, 0.5), Ball(8, 0.5)], [False, False], [True, True]),
    ([Ball(8, 0.5)], [True], [True]),
    ([], [], []),
]


@pytest.mark.parametrize("cover, disjoint, contained", _HAND_MADE_COVERS,
                         ids=lambda x: str(x) if x and isinstance(x[0], Ball) else None)
def test_verify_cover_matches_the_pairwise_scan_on_hand_made_covers(cover, disjoint, contained):
    sp = grid_1d(0.0, 16.0, 16)
    base, sigma, eta = Ball(8, 3.0), 2.0, 1.0
    report = verify_cover(sp, base, cover, sigma, eta)
    assert report == _pairwise_verify_cover(sp, base, cover, sigma, eta)
    assert [r["fifth_disjoint_ok"] for r in report["rows"]] == disjoint
    assert [r["contained_ok"] for r in report["rows"]] == contained


@pytest.mark.parametrize(
    "space, sigma, eta",
    [
        (grid_1d(0.0, 64.0, 64), 1.25, 1.0),
        (grid_nd(2, 13, 1.0, "chebyshev"), 1.5, 1.0),
        (grid_nd(2, 13, 1.0, "euclidean"), 2.0, 0.5),
    ],
    ids=["1d", "2d-chebyshev", "2d-euclidean"],
)
def test_verify_cover_matches_the_pairwise_scan_on_greedy_covers(space, sigma, eta):
    base = Ball(space.n_points // 2, space.n_points ** (1.0 / space.coords.shape[1]) / 2.5)
    cover = five_r_cover(space, base, sigma, eta)
    assert len(cover) > 2
    report = verify_cover(space, base, cover, sigma, eta)
    assert report == _pairwise_verify_cover(space, base, cover, sigma, eta)
    assert report["all_fifth_disjoint"]
    # a copy of one piece overlaps that piece and no other
    extra = Ball(cover[1].center, cover[1].radius)
    report = verify_cover(space, base, [*cover, extra], sigma, eta)
    assert report == _pairwise_verify_cover(space, base, [*cover, extra], sigma, eta)
    assert [i for i, r in enumerate(report["rows"]) if not r["fifth_disjoint_ok"]] == [
        1, len(cover)]


def test_records_are_frozen_and_weights_and_families_are_keys_by_identity():
    space = grid_1d(0.0, 16.0, 16)
    family = build_family(space, Ball(8, 4.0), eta=1.0, sigma=1.5)
    w = Weight(np.ones(16))
    fields = [(w, "values"), (Ball(1, 1.0), "radius")]
    fields += [(family, f) for f in ("base_ball", "eta", "sigma", "radius_grid", "members")]
    for obj, name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    twin_w, twin_family = Weight(np.ones(16)), build_family(space, Ball(8, 4.0), eta=1.0, sigma=1.5)
    assert w == w and w != twin_w and family == family and family != twin_family
    table = weakref.WeakKeyDictionary({w: 1, twin_w: 2, family: 3, twin_family: 4})
    assert [table[k] for k in (w, twin_w, family, twin_family)] == [1, 2, 3, 4]
    del twin_w, twin_family
    gc.collect()
    assert len(table) == 2


def test_balls_sort_by_center_then_radius():
    balls = [Ball(2, 1.0), Ball(1, 3.0), Ball(2, 0.5), Ball(1, 1.0)]
    assert sorted(balls) == [Ball(1, 1.0), Ball(1, 3.0), Ball(2, 0.5), Ball(2, 1.0)]
    assert sorted(balls) == sorted(balls, key=lambda b: (b.center, b.radius))
