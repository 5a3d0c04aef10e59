"""Space construction, balls, measures, doubling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wgrkit import (
    Ball,
    FiniteMetricMeasureSpace,
    doubling_profile,
    grid_1d,
    grid_nd,
    validate_metric,
)
from wgrkit import space as space_module
from wgrkit.cli import resolve_base_ball
from wgrkit.errors import EmptyBallError, InvalidGeneratorError, TooLargeError, WgrError


def test_grid_1d_cell_centers():
    sp = grid_1d(0.0, 1.0, 2)
    assert sp.coords[:, 0].tolist() == [0.25, 0.75]
    assert sp.mass.tolist() == [0.5, 0.5]


def test_grid_1d_single_cell():
    sp = grid_1d(0.0, 1.0, 1)
    assert sp.coords[:, 0].tolist() == [0.5]
    assert sp.mass.tolist() == [1.0]


def test_grid_1d_unit_cells():
    sp = grid_1d(0.0, 4.0, 4)
    assert sp.coords[:, 0].tolist() == [0.5, 1.5, 2.5, 3.5]
    assert sp.mass.tolist() == [1.0] * 4


def test_grid_1d_invalid():
    with pytest.raises(InvalidGeneratorError):
        grid_1d(0.0, 1.0, 0)
    with pytest.raises(InvalidGeneratorError):
        grid_1d(1.0, 1.0, 4)


def test_grid_nd_matches_grid_1d():
    a = grid_nd(1, 4, 1.0, "euclidean")
    b = grid_1d(0.0, 4.0, 4)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.mass, b.mass)


def test_grid_nd_2x2_chebyshev_distances():
    sp = grid_nd(2, 2, 1.0, "chebyshev")
    dists = {round(sp.distance(i, j), 12) for i in range(4) for j in range(4) if i != j}
    assert dists == {1.0}  # edges and the diagonal all at max-coordinate 1
    assert sp.n_points == 4 and sp.mass.tolist() == [1.0] * 4


def test_grid_nd_single_point():
    sp = grid_nd(2, 1, 1.0, "chebyshev")
    assert sp.n_points == 1 and sp.mass.tolist() == [1.0]


def test_grid_nd_size_cap():
    with pytest.raises(TooLargeError):
        grid_nd(4, 100, 1.0, "euclidean")


def test_ball_strictness_zero_radius():
    sp = grid_1d(0.0, 4.0, 4)
    assert sp.ball_members(1, 0.0).size == 0


def test_ball_all_points_beyond_diameter():
    sp = grid_1d(0.0, 4.0, 4)
    assert sp.ball_members(0, 3.0 + 0.5).size == 4


def test_ball_members_interval():
    sp = grid_1d(0.0, 4.0, 4)
    members = sp.ball_members(1, 1.01)  # center at coordinate 1.5
    assert sp.coords[members, 0].tolist() == [0.5, 1.5, 2.5]


def test_ball_excludes_exact_distance():
    sp = grid_1d(0.0, 8.0, 8)
    for center in range(8):
        for r in (1.0, 2.0, 3.0):
            members = set(sp.ball_members(center, r).tolist())
            for j in range(8):
                if sp.distance(center, j) == r:
                    assert j not in members


@settings(max_examples=25, deadline=None)
@given(
    center=st.integers(min_value=0, max_value=11),
    r1=st.floats(min_value=0.0, max_value=6.0),
    r2=st.floats(min_value=0.0, max_value=6.0),
)
def test_ball_monotone_in_radius(center, r1, r2):
    sp = grid_1d(0.0, 12.0, 12)
    lo, hi = sorted((r1, r2))
    assert set(sp.ball_members(center, lo).tolist()) <= set(sp.ball_members(center, hi).tolist())


@pytest.mark.parametrize(
    "space",
    [
        grid_1d(0.0, 9.0, 9),
        grid_nd(2, 5, 1.0, "chebyshev"),
        FiniteMetricMeasureSpace([1.0, 0.5, 2.0, 0.25, 3.0], coords=[[0], [2], [1], [3], [2]],
                                 metric_kind="euclidean"),
        # ids out of distance order, with masses whose sums round
        *(FiniteMetricMeasureSpace(np.resize(m, 45), coords=((np.arange(45) * 7) % 45)[:, None] / 4,
                                   metric_kind="euclidean") for m in ([0.1], [1.0, 1.01, 1.02])),
    ],
)
def test_ball_prefixes_lists_each_ball_as_a_prefix_of_one_distance_order(space):
    center = 2
    radii = [0.0, 0.5, 1.0, 1.5, 2.0, 10.0]
    order, counts = space.ball_prefixes(center, radii)
    row = space.dist_row(center)
    assert order.tolist() == sorted(range(space.n_points), key=lambda j: (row[j], j))
    for r, k in zip(radii, counts.tolist()):
        members = space.ball_members(center, r)
        assert sorted(order[:k].tolist()) == members.tolist()
        assert space._mu[(center, r)].hex() == space.set_measure(members).hex()
        assert space._mu[(center, r)].hex() == math.fsum(space.mass[members].tolist()).hex()
    with pytest.raises(WgrError):
        space.ball_prefixes(center, [1.0, -0.5])


@pytest.mark.parametrize("masses", [[1e308], [1e308, 1.01e308]], ids=["uniform", "unequal"])
def test_ball_prefixes_raises_overflow_where_set_measure_does(masses):
    space = FiniteMetricMeasureSpace(np.resize(masses, 4), coords=np.arange(4.0)[:, None],
                                     metric_kind="euclidean")
    order, _ = space.ball_prefixes(0, [0.5])  # one point: no overflow
    assert space._mu[(0, 0.5)] == space.mass[0]
    with pytest.raises(OverflowError):
        space.set_measure(order[:2])
    with pytest.raises(OverflowError):
        space.ball_prefixes(0, [0.5, 1.5])


@pytest.mark.parametrize("kind", ["chebyshev", "table"])
def test_space_keeps_frozen_private_copies_of_its_arrays(kind):
    base = np.array([1.0, 1.0, 2.0, 4.0])
    pts = np.arange(4.0)[:, None]
    table = np.abs(pts - pts.T)
    geometry = ({"coords": pts[:], "metric_kind": kind} if kind != "table"
                else {"distance_matrix": table[:]})
    space = FiniteMetricMeasureSpace(base[:], **geometry)  # views of the caller's arrays
    assert space.ball_measure(3, 1.5) == 6.0
    # the caller's arrays stay writeable, and writing them changes nothing in the space
    assert base.flags.writeable and pts.flags.writeable and table.flags.writeable
    base[:], pts[:], table[:] = 100.0, 0.0, 0.0
    members = space.ball_members(3, 1.5)
    assert members.tolist() == [2, 3]
    assert space.set_measure(members) == space.ball_measure(3, 1.5) == 6.0
    assert space.mass.tolist() == [1.0, 1.0, 2.0, 4.0]
    frozen = space.dist_block(slice(0, 4)) if kind == "table" else space.coords
    assert not space.mass.flags.writeable and not frozen.flags.writeable


def test_set_measure_empty_and_full():
    sp = grid_1d(0.0, 1.0, 2)
    assert sp.set_measure([]) == 0.0
    assert sp.set_measure([0, 1]) == 1.0
    sp2 = grid_nd(2, 2, 1.0, "chebyshev")
    assert sp2.set_measure([2]) == 1.0


def test_set_measure_additive_disjoint():
    sp = grid_1d(0.0, 7.0, 7)
    a, b = [0, 2, 4], [1, 5]
    assert sp.set_measure(a) + sp.set_measure(b) == pytest.approx(
        sp.set_measure(a + b), rel=1e-12
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1 / 3, 0.1, 1.0, 5e-324, 2.0**-1060, 1e308, 8.9e307]),
    st.integers(min_value=1, max_value=40),
    st.data(),
)
def test_set_measure_on_a_uniform_space_is_the_fsum_of_its_masses(m, n, data):
    sp = FiniteMetricMeasureSpace(np.full(n, m), coords=np.arange(n, dtype=float)[:, None],
                                  metric_kind="euclidean")
    if data.draw(st.booleans()):
        members = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
    else:
        members = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    try:
        expected = math.fsum(sp.mass[members].tolist())
    except OverflowError:
        with pytest.raises(OverflowError):
            sp.set_measure(members)
        return
    got = sp.set_measure(members)
    assert type(got) is float
    assert got == expected


def test_set_measure_on_a_uniform_space_keeps_the_fsum_errors():
    big = FiniteMetricMeasureSpace([1e308, 1e308], coords=[[0.0], [1.0]], metric_kind="euclidean")
    assert big.set_measure([0]) == 1e308
    with pytest.raises(OverflowError):
        big.set_measure([0, 1])
    with pytest.raises(IndexError):
        big.set_measure([2])


def test_set_measure_sums_unequal_masses(monkeypatch):
    calls = []

    def counting_fsum(values):
        calls.append(len(values))
        return math.fsum(values.tolist())

    monkeypatch.setattr(space_module, "fsum", counting_fsum)
    m = 1 / 3
    sp = FiniteMetricMeasureSpace([m, m, math.nextafter(m, 1.0)], coords=[[0.0], [1.0], [2.0]],
                                  metric_kind="euclidean")
    assert sp.set_measure([0, 1, 2]) == math.fsum([m, m, math.nextafter(m, 1.0)])
    assert calls == [3]
    uniform = FiniteMetricMeasureSpace([m] * 3, coords=[[0.0], [1.0], [2.0]],
                                       metric_kind="euclidean")
    assert uniform.set_measure([0, 1, 2]) == math.fsum([m] * 3)
    assert calls == [3]


def test_validate_metric_clean_generators():
    assert validate_metric(grid_1d(0.0, 5.0, 5)) == []
    assert validate_metric(grid_nd(2, 3, 0.5, "chebyshev")) == []


def test_validate_metric_single_point_table():
    sp = FiniteMetricMeasureSpace([1.0], distance_matrix=[[0.0]])
    assert validate_metric(sp) == []


def test_validate_metric_symmetric_pair():
    sp = FiniteMetricMeasureSpace([1.0, 1.0], distance_matrix=[[0.0, 1.0], [1.0, 0.0]])
    assert validate_metric(sp) == []


def test_validate_metric_triangle_violation():
    d = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    sp = FiniteMetricMeasureSpace([1.0, 1.0, 1.0], distance_matrix=d)
    violations = validate_metric(sp)
    triangles = [v for v in violations if v.kind == "triangle"]
    assert triangles
    deficits = {v.deficit for v in triangles}
    assert 3.0 in deficits  # d(a,c)=5 against d(a,b)+d(b,c)=2


@pytest.mark.parametrize("n_dim,side", [(2, 10), (3, 6)])
def test_validate_metric_euclidean_grid_rounding_is_no_violation(n_dim, side):
    # an exact comparison finds hundreds of triangles off by about one ulp here
    assert validate_metric(grid_nd(n_dim, side, 1.0, "euclidean")) == []


def test_validate_metric_random_euclidean_points_clean():
    coords = np.random.default_rng(5).normal(size=(60, 1))
    space = FiniteMetricMeasureSpace(np.ones(60), coords=coords, metric_kind="euclidean")
    assert validate_metric(space) == []


def test_validate_metric_triangle_rounding_band():
    def triangles(d_ac):
        d = [[0.0, 1.0, d_ac], [1.0, 0.0, 1.0], [d_ac, 1.0, 0.0]]
        sp = FiniteMetricMeasureSpace([1.0, 1.0, 1.0], distance_matrix=d)
        return [v for v in validate_metric(sp) if v.kind == "triangle"]

    # one ulp above d(a,b) + d(b,c) = 2 is rounding; 1e-12 above is a violation
    assert triangles(np.nextafter(2.0, 3.0)) == []
    assert triangles(2.0 * (1.0 + 2.0 * space_module.TRIANGLE_RTOL))
    assert {v.deficit for v in triangles(2.0 + 1e-12)} == {2.0 + 1e-12 - 2.0}


def test_space_requires_positive_mass():
    with pytest.raises(Exception):
        FiniteMetricMeasureSpace([1.0, 0.0], distance_matrix=[[0, 1], [1, 0]])


def test_doubling_profile_one_point():
    sp = grid_nd(1, 1, 1.0, "euclidean")
    prof = doubling_profile(sp, [Ball(0, 1.0)])
    assert prof.c_mu == 1.0 and prof.dimension_d == 0.0


def test_doubling_profile_two_point_ratio():
    sp = FiniteMetricMeasureSpace([1.0, 1.0], distance_matrix=[[0.0, 1.0], [1.0, 0.0]])
    # radius 0.75: the ball is {p0}; its double (radius 1.5) captures both
    prof = doubling_profile(sp, [Ball(0, 0.75)])
    assert prof.c_mu == 2.0
    assert prof.dimension_d == math.log2(2.0)


def test_doubling_profile_exhaustive_scan():
    sp = grid_1d(0.0, 8.0, 8)
    balls = [Ball(c, 1.5) for c in range(8)]
    prof = doubling_profile(sp, balls)
    expected = max(
        oracles.measure(sp, oracles.ball(sp, c, 3.0))
        / oracles.measure(sp, oracles.ball(sp, c, 1.5))
        for c in range(8)
    )
    assert prof.c_mu == pytest.approx(expected, rel=1e-12)


def test_doubling_profile_empty_ball_error():
    # a Ball always contains its center, so an empty ball only arises from
    # duck-typed input with radius 0
    from types import SimpleNamespace

    sp = FiniteMetricMeasureSpace([1.0, 1.0], distance_matrix=[[0.0, 5.0], [5.0, 0.0]])
    with pytest.raises(EmptyBallError):
        doubling_profile(sp, [SimpleNamespace(center=0, radius=0.0), Ball(1, 1.0)])


def test_doubling_profile_takes_center_radius_pairs_as_balls():
    sp = grid_1d(0.0, 16.0, 16)
    balls = [Ball(c, r) for c in (0, 5, 15) for r in (0.5, 1.5, 2.5, 6.0)]
    pairs = [(b.center, b.radius) for b in balls]
    assert doubling_profile(sp, pairs) == doubling_profile(sp, balls)
    table = FiniteMetricMeasureSpace([1.0, 1.0], distance_matrix=[[0.0, 5.0], [5.0, 0.0]])
    with pytest.raises(EmptyBallError, match=r"^ball \(center=0, radius=0.0\) is empty$"):
        doubling_profile(table, [(1, 1.0), (0, 0.0), (1, 0.0)])


def test_measure_ratio_bound_closed_ball_set():
    """mu(B(x,R))/mu(B(y,r)) <= c_mu^2 (R/r)^D over a halving-closed set."""
    sp = grid_1d(0.0, 32.0, 32)
    radii = [16.0 / 2**k for k in range(6)]  # 16 .. 0.5, plus the doubles below
    ball_set = [Ball(c, r) for c in range(32) for r in radii]
    prof = doubling_profile(sp, ball_set)
    c2 = prof.c_mu**2
    for x in range(0, 32, 5):
        for big_r in radii:
            big = set(sp.ball_members(x, big_r).tolist())
            mu_big = sp.set_measure(sorted(big))
            for y in sorted(big):
                for r in radii:
                    if r > big_r:
                        continue
                    mu_small = sp.set_measure(sp.ball_members(y, r))
                    bound = c2 * (big_r / r) ** prof.dimension_d
                    assert mu_big / mu_small <= bound * (1 + 1e-12)


def test_serialization_round_trip():
    sp = grid_nd(2, 3, 0.5, "chebyshev")
    obj = sp.to_json_obj()
    assert obj["distance_matrix"] is None and obj["metric_kind"] == "chebyshev"
    back = FiniteMetricMeasureSpace.from_json_obj(obj)
    assert np.array_equal(back.coords, sp.coords)
    assert np.array_equal(back.mass, sp.mass)

    table = FiniteMetricMeasureSpace([1.0, 2.0], distance_matrix=[[0.0, 1.0], [1.0, 0.0]])
    back2 = FiniteMetricMeasureSpace.from_json_obj(table.to_json_obj())
    assert back2.distance(0, 1) == 1.0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
    st.data(),
)
def test_set_measure_additivity_property(masses, data):
    n = len(masses)
    dist = np.abs(np.subtract.outer(np.arange(n, dtype=float), np.arange(n, dtype=float)))
    sp = FiniteMetricMeasureSpace(masses, distance_matrix=dist)
    subset = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
    split = data.draw(st.integers(min_value=0, max_value=len(subset)))
    a, b = subset[:split], subset[split:]
    assert sp.set_measure(a) + sp.set_measure(b) == pytest.approx(
        sp.set_measure(subset), rel=1e-12, abs=1e-300
    )


@st.composite
def _space_and_queries(draw):
    """A small space with repeated distances, and ball queries over few centers.

    Integer coordinates make distances exact and frequently tied; every other
    radius is an exact pairwise distance, which the open ball must exclude.
    """
    kind = draw(st.sampled_from(["euclidean", "chebyshev", "table"]))
    n = draw(st.integers(min_value=1, max_value=9))
    coords = draw(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
            min_size=n,
            max_size=n,
        )
    )
    mass = np.ones(n)
    if kind == "table":
        pts = np.asarray(coords, dtype=float)
        table = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        space = FiniteMetricMeasureSpace(mass, distance_matrix=table)
    else:
        space = FiniteMetricMeasureSpace(mass, coords=coords, metric_kind=kind)
    pool = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        center = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            r = oracles.distance(space, center, draw(st.integers(min_value=0, max_value=n - 1)))
        else:
            r = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.5, 10.0]))
        queries.append((center, r))
    return space, queries


@settings(max_examples=80, deadline=None)
@given(_space_and_queries())
def test_ball_queries_interleaved_match_oracle(case):
    # alternating and repeated centers would expose a stale distance row
    space, queries = case
    for center, r in queries:
        expected = oracles.ball(space, center, r)
        ids = space.ball_members(center, r)
        assert ids.tolist() == expected and not ids.flags.writeable
        mask = space.ball_mask(center, r)
        assert np.flatnonzero(mask).tolist() == expected
        assert space.ball_measure(center, r) == oracles.measure(space, expected)


@st.composite
def _space_and_balls(draw):
    """A small space and a ball list with ratio-2 chains and exact-distance radii.

    Chains make the double of one ball another listed ball. Table spaces
    may raise some diagonal entries (the space does not require a metric),
    so a ball around such a center can be empty.
    """
    kind = draw(st.sampled_from(["euclidean", "chebyshev", "table"]))
    n = draw(st.integers(min_value=1, max_value=8))
    coords = draw(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
            min_size=n,
            max_size=n,
        )
    )
    mass = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n))
    if kind == "table":
        pts = np.asarray(coords, dtype=float)
        table = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        raised = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
        table[raised, raised] = 2.5
        space = FiniteMetricMeasureSpace(mass, distance_matrix=table)
    else:
        space = FiniteMetricMeasureSpace(mass, coords=coords, metric_kind=kind)
    balls = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        center = draw(st.integers(min_value=0, max_value=n - 1))
        if draw(st.booleans()):
            r = oracles.distance(space, center, draw(st.integers(min_value=0, max_value=n - 1)))
        else:
            r = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
        if r <= 0.0:
            r = 0.5
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            balls.append(Ball(center, r))
            r *= 2.0
    return space, balls


@settings(max_examples=80, deadline=None)
@given(_space_and_balls())
def test_doubling_profile_matches_brute_force(case):
    space, balls = case
    ratios = []
    for b in balls:
        m1 = oracles.measure(space, oracles.ball(space, b.center, b.radius))
        if m1 == 0.0:
            # the first empty ball in list order is the one reported
            with pytest.raises(EmptyBallError) as err:
                doubling_profile(space, balls)
            assert str(err.value) == f"ball (center={b.center}, radius={b.radius}) is empty"
            return
        ratios.append(oracles.measure(space, oracles.ball(space, b.center, 2.0 * b.radius)) / m1)
    assert doubling_profile(space, balls).c_mu == max([1.0, *ratios])


# -- distance blocks ------------------------------------------------------------


@st.composite
def _block_case(draw):
    """A space with duplicate points, row and column index sets, a block size.

    Coordinates are multiples of 1/4 in [-4, 4], so every squared difference
    and every partial sum of them is exact: the oracle's sequential sum then
    agrees bit for bit with any summation order, in any dimension.
    """
    kind = draw(st.sampled_from(["euclidean", "chebyshev", "table"]))
    dim = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=1, max_value=10))
    point = st.lists(st.integers(min_value=-16, max_value=16), min_size=dim, max_size=dim)
    distinct = draw(st.lists(point, min_size=1, max_size=n))
    coords = np.asarray([draw(st.sampled_from(distinct)) for _ in range(n)], dtype=float) / 4.0
    mass = np.ones(n)
    if kind == "table":
        # an asymmetric table with a nonzero diagonal entry: no metric is needed
        table = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        table[0, -1] += 0.5
        table[-1, -1] = 0.25
        space = FiniteMetricMeasureSpace(mass, distance_matrix=table)
    else:
        space = FiniteMetricMeasureSpace(mass, coords=coords, metric_kind=kind)
    ids = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n)
    start = draw(st.integers(min_value=0, max_value=n))
    rows = draw(st.one_of(ids, st.just(slice(start, draw(st.integers(start, n))))))
    cols = draw(st.one_of(st.none(), ids))
    block = draw(st.sampled_from([1, 3, 7, 1 << 16]))
    return space, rows, cols, block


def _expected_block(space, rows, cols) -> np.ndarray:
    """The oracle distance of every (row, column) pair; a table's own entries."""
    row_ids = list(range(space.n_points))[rows] if isinstance(rows, slice) else list(rows)
    col_ids = list(range(space.n_points)) if cols is None else list(cols)
    if space.metric_kind == "table":
        table = space.to_json_obj()["distance_matrix"]
        return np.array([[table[i][j] for j in col_ids] for i in row_ids]).reshape(
            len(row_ids), len(col_ids))
    return np.array([[oracles.distance(space, i, j) for j in col_ids] for i in row_ids]).reshape(
        len(row_ids), len(col_ids))


@settings(max_examples=150, deadline=None)
@given(_block_case())
def test_dist_block_matches_the_oracle_bit_for_bit(case):
    space, rows, cols, _ = case
    block = space.dist_block(np.asarray(rows, dtype=int) if isinstance(rows, list) else rows,
                             None if cols is None else np.asarray(cols, dtype=int))
    expected = _expected_block(space, rows, cols)
    assert block.shape == expected.shape
    assert block.tobytes() == expected.tobytes()
    for i in range(space.n_points):
        assert space.dist_row(i).tobytes() == _expected_block(space, [i], None).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["euclidean", "chebyshev"]),
)
def test_dist_block_rows_equal_the_single_row_formula(dim, seed, kind):
    # real coordinates: the squared differences round, so the order of the sum matters
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(12, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(12, dim))
    coords[5] = coords[2]
    space = FiniteMetricMeasureSpace(np.ones(12), coords=coords, metric_kind=kind)
    block = space.dist_block(slice(None))
    for i in range(12):
        diff = coords - coords[i]
        oracle = np.array([oracles.distance(space, i, j) for j in range(12)])
        if kind == "chebyshev":
            row = np.abs(diff).max(axis=1)
            assert row.tobytes() == oracle.tobytes()
        else:
            row = np.sqrt((diff * diff).sum(axis=1))
            # numpy's reduction and the oracle's sequential sum differ in the
            # last bits from three axes on; the row formula is the reference
            np.testing.assert_allclose(row, oracle, rtol=1e-14, atol=0.0)
        assert block[i].tobytes() == row.tobytes()
        assert space.dist_row(i).tobytes() == row.tobytes()


@settings(max_examples=120, deadline=None)
@given(_block_case(), st.data())
def test_min_positive_distance_and_eccentricity_match_a_brute_force_scan(case, data):
    space, _, _, block = case
    n = space.n_points
    members = data.draw(st.one_of(st.none(), st.lists(
        st.integers(min_value=0, max_value=n - 1), unique=True)))
    ids = list(range(n)) if members is None else members
    dist = _expected_block(space, slice(None), None)
    positive = [dist[i, j] for i in ids for j in ids if dist[i, j] > 0.0]
    ecc = [max(dist[i]) for i in range(n)]
    center = ecc.index(min(ecc))  # the first minimum: ties go to the lowest id
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "BLOCK_DISTANCES", block)
        got = space.min_positive_distance(None if members is None else np.asarray(members, int))
        base = resolve_base_ball(space, {"eta": 1.0, "sigma": 1.5})
    assert got == (min(positive) if len(ids) >= 2 and positive else None)
    assert base.center == center
    assert base.radius == (ecc[center] / 3.0 if ecc[center] > 0.0 else 1.0)


@pytest.mark.parametrize("kind", ["euclidean", "chebyshev"])
def test_dist_block_without_coordinate_axes_is_zero(kind):
    space = FiniteMetricMeasureSpace(np.ones(3), coords=np.zeros((3, 0)), metric_kind=kind)
    block = space.dist_block(slice(None), np.array([2, 0]))
    assert block.shape == (3, 2) and block.dtype == float and not block.any()
    assert space.dist_row(1).tolist() == [0.0, 0.0, 0.0]
    assert space.min_positive_distance() is None
    assert validate_metric(space) == []


def _all_pairs_min_positive_distance(space, members=None):
    """The all-pairs scan in row blocks that coordinate spaces used before the sweep."""
    idx = None if members is None else np.asarray(members, dtype=int)
    size = space.n_points if idx is None else idx.size
    best = math.inf
    for part in space_module.row_slices(size, size):
        block = space.dist_block(part if idx is None else idx[part], idx)
        best = min(best, float(np.min(block, where=block > 0.0, initial=math.inf)))
    return None if size < 2 or best == math.inf else best


#: Lattice spacings: plain, tiny, ones whose squares are subnormal (where a
#: rounded square root drifts from the gap), subnormal gaps, and huge gaps
#: whose squares overflow.
_SWEEP_SCALES = [1.0, 0.3, 1e-3, 1.5e-162, 2.3e-162, 1e-160, 5e-324, 3e-322, 1e-310, 1e154]


@st.composite
def _sweep_case(draw):
    """Points on a small lattice (duplicates and tied gaps), some jittered."""
    kind = draw(st.sampled_from(["euclidean", "chebyshev"]))
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=30))
    scale = draw(st.sampled_from(_SWEEP_SCALES))
    lattice = st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim)
    jitter = st.sampled_from([0.0, 0.0, 0.25, 1.0 / 3.0, 0.1, 0.7071])
    coords = [[scale * (k + draw(jitter)) for k in draw(lattice)] for _ in range(n)]
    space = FiniteMetricMeasureSpace(np.ones(n), coords=np.reshape(coords, (n, dim)),
                                     metric_kind=kind)
    members = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), max_size=n)))
    return space, members


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(_sweep_case())
def test_closest_pair_sweep_matches_the_all_pairs_scan_bit_for_bit(case):
    space, members = case
    got = space.min_positive_distance(None if members is None else np.asarray(members, int))
    expected = _all_pairs_min_positive_distance(space, members)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.hex() == expected.hex()


def test_closest_pair_sweep_finds_a_pair_below_its_first_axis_gap():
    # a gap of 2.3e-162 squares to a subnormal that rounds down, so that pair's
    # computed distance is below its gap; it is two places apart in x order
    coords = [[0.0, 0.0], [1e-162, 1.0], [2.3e-162, 0.0]]
    space = FiniteMetricMeasureSpace(np.ones(3), coords=coords, metric_kind="euclidean")
    got = space.min_positive_distance()
    assert got == space.distance(0, 2) < 2.3e-162
    assert got == _all_pairs_min_positive_distance(space)


# -- line spaces -----------------------------------------------------------------


def _spans_match_rows(space, centers, radii):
    """Every span of ``ball_spans`` is the strict comparison of its center's row."""
    lo, hi = space.ball_spans(centers, radii)
    for c, r, a, b in zip(centers, radii, lo.tolist(), hi.tolist()):
        assert list(range(a, b)) == np.flatnonzero(space.dist_row(c) < r).tolist(), (c, r)


def _every_ball(space):
    """Each center with radius 0, inf, each computed distance from it and the
    doubles next to that distance on either side."""
    centers, radii = [], []
    for c in range(space.n_points):
        row = space.dist_row(c).tolist()
        for d in {0.0, math.inf, *row}:
            for r in {d, math.nextafter(d, math.inf), math.nextafter(d, 0.0)}:
                centers.append(c)
                radii.append(r)
    return centers, radii


#: Pinned line spaces: duplicates, negative and huge coordinates, subnormal
#: gaps, gaps whose squares underflow to zero or overflow to inf, and
#: differences beyond the largest double.
_LINES = {
    "duplicates": [-1.0, 0.0, 0.0, 0.0, 2.0, 2.0, 3.5],
    "negative-and-huge": [-1e300, -3.0, -2.5, 7.0, 1e300],
    "subnormal-gaps": [0.0, 5e-324, 1e-323, 1e-323, 2.5e-323, 1e-310],
    "squares-underflow": [0.0, 1e-170, 1.5e-162, 2.3e-162, 1e-160],
    "squares-overflow": [-1e154, 0.0, 1e154, 1.5e154, 1e155],
    "past-the-largest-double": [-1.7e308, -1.0, 0.0, 1e308, 1.7e308],
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("xs", list(_LINES.values()), ids=list(_LINES))
def test_ball_spans_match_the_rows_on_pinned_lines(xs, kind):
    space = FiniteMetricMeasureSpace(np.ones(len(xs)), coords=np.array(xs)[:, None],
                                     metric_kind=kind)
    assert space.is_line
    _spans_match_rows(space, *_every_ball(space))


def test_ball_spans_on_duplicates_radius_zero_and_an_exact_distance():
    space = FiniteMetricMeasureSpace(np.ones(6), coords=[[0.0], [1.0], [1.0], [1.0], [2.0], [3.0]],
                                     metric_kind="euclidean")
    lo, hi = space.ball_spans([2, 2, 2, 0], [0.0, 5e-324, 1.0, 2.0])
    # r = 0 is empty; the smallest radius holds the duplicates; the open ball
    # excludes the points at exactly its radius
    assert list(zip(lo.tolist(), hi.tolist())) == [(2, 2), (1, 4), (1, 4), (0, 4)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["euclidean", "chebyshev"]),
    st.sampled_from([1.0, 0.1, 1.0 / 3.0, 5e-324, 1e-310, 1.5e-162, 1e154, 4e307]),
    st.sampled_from([0.0, -7.25, 1e6, -1e300]),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=12),
)
def test_ball_spans_match_the_rows_on_lines(kind, scale, offset, ks):
    xs = [offset + scale * k for k in sorted(ks)]  # rounding is monotone: still sorted
    space = FiniteMetricMeasureSpace(np.ones(len(xs)), coords=np.array(xs)[:, None],
                                     metric_kind=kind)
    assert space.is_line
    _spans_match_rows(space, *_every_ball(space))


def test_ball_spans_need_a_line_a_valid_center_and_nonnegative_radii():
    line = grid_1d(0.0, 4.0, 4)
    assert line.is_line
    unsorted = FiniteMetricMeasureSpace(np.ones(3), coords=[[0.0], [2.0], [1.0]],
                                        metric_kind="euclidean")
    table = FiniteMetricMeasureSpace([1.0, 1.0], distance_matrix=[[0.0, 1.0], [1.0, 0.0]])
    for space in (unsorted, table, grid_nd(2, 2, 1.0, "chebyshev")):
        assert not space.is_line
        with pytest.raises(WgrError):
            space.ball_spans([0], [1.0])
    with pytest.raises(WgrError):
        line.ball_spans([0, 1], [1.0, -0.5])
    for center in (-1, 4):
        with pytest.raises(IndexError):
            line.ball_spans([center], [1.0])
    lo, hi = line.ball_spans([], [])
    assert lo.size == hi.size == 0


@st.composite
def _line_and_balls(draw):
    """A line with duplicates and unequal masses, and balls in ratio-2 chains."""
    n = draw(st.integers(min_value=1, max_value=10))
    xs = sorted(draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n)))
    masses = st.sampled_from([0.1, 1.0 / 3.0, 1.0, 3.0])
    mass = draw(st.one_of(st.just([0.1] * n), st.lists(masses, min_size=n, max_size=n)))
    space = FiniteMetricMeasureSpace(mass, coords=np.array(xs, float)[:, None],
                                     metric_kind=draw(st.sampled_from(["euclidean", "chebyshev"])))
    balls = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        center = draw(st.integers(min_value=0, max_value=n - 1))
        r = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            balls.append((center, r))
            r *= 2.0
    return space, balls


@settings(max_examples=150, deadline=None)
@given(_line_and_balls())
def test_doubling_profile_on_a_line_measures_in_one_batch_with_the_fsum_bits(case):
    space, balls = case
    spans = []
    with pytest.MonkeyPatch.context() as patch:
        original = FiniteMetricMeasureSpace.ball_spans
        patch.setattr(FiniteMetricMeasureSpace, "ball_spans",
                      lambda sp, c, r: spans.append(list(zip(c, r))) or original(sp, c, r))
        try:
            c_mu = doubling_profile(space, balls).c_mu
        except EmptyBallError:
            c_mu = None
    ratios = []
    for c, r in balls:
        m1 = oracles.measure(space, oracles.ball(space, c, r))
        if m1 == 0.0:
            break
        ratios.append(oracles.measure(space, oracles.ball(space, c, 2.0 * r)) / m1)
    assert c_mu == (None if len(ratios) < len(balls) else max([1.0, *ratios]))
    # one batch of every ball and double
    assert len(spans) == 1
    assert set(spans[0]) == {k for c, r in balls for k in ((c, r), (c, 2.0 * r))}
    for (c, r), mu in space._mu.items():
        ids = np.flatnonzero(space.dist_row(c) < r)
        assert mu.hex() == math.fsum(space.mass[ids].tolist()).hex()


@pytest.mark.parametrize("masses", [[1e308], [1e308, 1.01e308]], ids=["uniform", "unequal"])
def test_doubling_profile_on_a_line_raises_overflow_where_set_measure_does(masses):
    space = FiniteMetricMeasureSpace(np.resize(masses, 4), coords=np.arange(4.0)[:, None],
                                     metric_kind="euclidean")
    with pytest.raises(OverflowError):
        doubling_profile(space, [(0, 1.0)])  # one point, and two in its double
    assert (0, 1.0) in space._mu and (0, 2.0) not in space._mu


def test_doubling_profile_on_a_line_batches_only_what_the_memo_lacks(monkeypatch):
    """Every ball and double the memo lacks is measured in one batch before the
    loop; a held one is not measured again, and a key that cannot be measured
    is left to the loop, so errors come in list order."""
    space = grid_1d(0.0, 8.0, 8)
    space.ball_measure(2, 1.0)
    spans = []
    original = FiniteMetricMeasureSpace.ball_spans
    monkeypatch.setattr(FiniteMetricMeasureSpace, "ball_spans",
                        lambda sp, c, r: spans.append(list(zip(c, r))) or original(sp, c, r))
    assert doubling_profile(space, [(2, 1.0), (5, 1.0)]).c_mu == 3.0
    assert spans == [[(2, 2.0), (5, 1.0), (5, 2.0)]]
    for keys, error, match in (
        ([(2, 1.0), (9, 1.0), (3, 0.0)], IndexError, None),
        ([(2, 1.0), (3, 0.0), (9, 1.0)], EmptyBallError, "empty"),
        ([(4, -1.0), (3, 0.0)], WgrError, "radius must be >= 0"),
    ):
        with pytest.raises(error, match=match):
            doubling_profile(space, keys)
