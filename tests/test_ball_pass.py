"""The per-ball pass against the brute-force oracles.

The six functionals and the four implication checkers all read w(B),
mu(B), w(S) and mu(S) from one per-ball pass. Calls given the same Weight
share its table of ball sums on the space, as a run does; a bare array
starts with an empty table. Every per-ball ratio and every per-ball side
must equal the value recomputed from raw coordinates by
``tests/oracles.py``, with and without a shared table, in either order.
"""
import gc
import importlib
import inspect
import math
import tracemalloc
import weakref
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wgrkit import Ball, build_family, maximal_function, theorems, weights
from wgrkit.errors import EmptyAverageError, InvalidParameterError, NoDataError, WgrError
from wgrkit.examples import random_weight
from wgrkit.balls import five_r_cover
from wgrkit.space import FiniteMetricMeasureSpace, grid_1d
from wgrkit.weights import (
    Weight,
    gr_epsilon,
    neg_oscillation_avg,
    pos_oscillation,
    rhi_constant,
    sublevel_alpha,
    weak_ainfty_beta,
    wgr_epsilon,
    wgr_minus_epsilon,
)


@st.composite
def _instance(draw):
    """Integer coordinates (many tied distances), some zero weights, and
    balls whose radii are often exactly a pairwise distance."""
    kind = draw(st.sampled_from(["euclidean", "chebyshev", "table"]))
    n = draw(st.integers(min_value=2, max_value=9))
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
        space = FiniteMetricMeasureSpace(mass, distance_matrix=table)
    else:
        space = FiniteMetricMeasureSpace(mass, coords=coords, metric_kind=kind)
    values = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=20.0)),
                min_size=n,
                max_size=n,
            )
        )
    )
    balls = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        center = draw(st.integers(min_value=0, max_value=n - 1))
        r = 0.0
        if draw(st.booleans()):
            r = oracles.distance(space, center, draw(st.integers(min_value=0, max_value=n - 1)))
        if r <= 0.0:
            r = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
        balls.append(Ball(center, r))
    sigma = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return space, values, balls, sigma


@st.composite
def _line_instance(draw):
    """A line, 1-d coordinates in id order: duplicate coordinates, unequal masses,
    some zero weights, and radii often exactly a pairwise distance."""
    n = draw(st.integers(min_value=2, max_value=12))
    coords = sorted(draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)))
    mass = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n))
    space = FiniteMetricMeasureSpace(mass, coords=[[x] for x in coords],
                                     metric_kind=draw(st.sampled_from(["euclidean", "chebyshev"])))
    values = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=20.0)), min_size=n, max_size=n)))
    balls = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        center = draw(st.integers(min_value=0, max_value=n - 1))
        r = oracles.distance(space, center, draw(st.integers(min_value=0, max_value=n - 1)))
        if r <= 0.0 or draw(st.booleans()):
            r = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
        balls.append(Ball(center, r))
    sigma = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return space, values, balls, sigma


# ---------------------------------------------------------------------------
# oracle ratios: (ratio, skipped) per ball, from raw coordinates
# ---------------------------------------------------------------------------


def _ref(space, vals, ball, factor):
    s = oracles.ball(space, ball.center, factor * ball.radius)
    return oracles.w_measure(space, vals, s), oracles.measure(space, s)


def _o_wgr(space, vals, ball, sigma):
    w_s, _ = _ref(space, vals, ball, sigma)
    if w_s <= 0.0:
        return 0.0, True
    return oracles.pos_osc(space, vals, ball.center, ball.radius, sigma) / w_s, False


def _o_wgr_minus(space, vals, ball, sigma):
    c = oracles.avg(space, vals, oracles.ball(space, ball.center, sigma * ball.radius))
    if c <= 0.0:
        return 0.0, True
    return oracles.neg_osc_avg(space, vals, ball.center, ball.radius, sigma) / c, False


def _o_gr(space, vals, ball, _):
    w_b, _ = _ref(space, vals, ball, 1.0)
    if w_b <= 0.0:
        return 0.0, True
    return oracles.abs_osc(space, vals, ball.center, ball.radius) / w_b, False


def _o_weak_ainfty(alpha):
    def ratio(space, vals, ball, sigma):
        w_s, mu_s = _ref(space, vals, ball, sigma)
        if w_s <= 0.0:
            return 0.0, True
        members = oracles.ball(space, ball.center, ball.radius)
        level = [j for j in members if alpha * vals[j] >= w_s / mu_s]
        return oracles.w_measure(space, vals, level) / w_s, False

    return ratio


def _o_sublevel(beta):
    def ratio(space, vals, ball, sigma):
        w_s, mu_s = _ref(space, vals, ball, sigma)
        if w_s <= 0.0:
            return 0.0, True
        members = oracles.ball(space, ball.center, ball.radius)
        level = [j for j in members if vals[j] <= beta * (w_s / mu_s)]
        return oracles.measure(space, level) / oracles.measure(space, members), False

    return ratio


def _o_rhi(p, factor):
    def ratio(space, vals, ball, _):
        w_r, mu_r = _ref(space, vals, ball, factor)
        if w_r <= 0.0:
            return 0.0, True
        members = oracles.ball(space, ball.center, ball.radius)
        mean_p = math.fsum(
            float(vals[j]) ** p * float(space.mass[j]) for j in members
        ) / oracles.measure(space, members)
        return mean_p ** (1.0 / p) / (w_r / mu_r), False

    return ratio


def _o_sup(space, vals, balls, sigma, ratio):
    """Per-ball (ball, ratio), skipped balls, sup and first attaining ball; None if
    every ball is skipped."""
    rows = [ratio(space, vals, b, sigma) for b in balls]
    if all(skip for _, skip in rows):
        return None
    value, witness = -math.inf, None
    for b, (r, _) in zip(balls, rows):
        if r > value:
            value, witness = r, b
    per_ball = [(b, r) for b, (r, _) in zip(balls, rows)]
    return per_ball, [b for b, (_, skip) in zip(balls, rows) if skip], value, witness


# ---------------------------------------------------------------------------
# oracle checker sides: (lhs, rhs, vacuous) per ball
# ---------------------------------------------------------------------------


def _o_superlevel_sides(lam, eps):
    factor = 1.0 - eps / lam

    def sides(space, vals, ball, sigma):
        w_s, mu_s = _ref(space, vals, ball, sigma)
        members = oracles.ball(space, ball.center, ball.radius)
        level = [j for j in members if factor * vals[j] >= w_s / mu_s]
        return oracles.w_measure(space, vals, level), lam * w_s, not level

    return sides


def _o_osc_from_superlevel_sides(alpha, beta):
    coeff = 1.0 - alpha * (1.0 - beta)

    def sides(space, vals, ball, sigma):
        w_s, _ = _ref(space, vals, ball, sigma)
        lhs = oracles.pos_osc(space, vals, ball.center, ball.radius, sigma)
        return lhs, coeff * w_s, lhs == 0.0

    return sides


def _o_sublevel_sides(lam, eps):
    factor = 1.0 - eps / lam

    def sides(space, vals, ball, sigma):
        w_s, mu_s = _ref(space, vals, ball, sigma)
        members = oracles.ball(space, ball.center, ball.radius)
        level = [j for j in members if vals[j] <= factor * (w_s / mu_s)]
        return oracles.measure(space, level), lam * oracles.measure(space, members), not level

    return sides


def _o_neg_osc_sides(beta, alpha_m):
    coeff = 1.0 - (1.0 - alpha_m) * beta

    def sides(space, vals, ball, sigma):
        w_s, mu_s = _ref(space, vals, ball, sigma)
        lhs = oracles.neg_osc_avg(space, vals, ball.center, ball.radius, sigma)
        return lhs, coeff * (w_s / mu_s), lhs == 0.0

    return sides


@contextmanager
def _recorded_sides():
    """Every (witness, lhs, rhs, vacuous) the checkers hand their margin tracker."""
    sides = []
    original = theorems._MarginTracker.add

    def add(self, lhs, rhs, witness, vacuous=False):
        sides.append((witness, lhs, rhs, vacuous))
        return original(self, lhs, rhs, witness, vacuous)

    theorems._MarginTracker.add = add
    try:
        yield sides
    finally:
        theorems._MarginTracker.add = original


def _outcome(call):
    try:
        return "ok", call()
    except (InvalidParameterError, NoDataError) as exc:
        return "raise", type(exc)


@settings(max_examples=150, deadline=None)
@given(
    case=_instance(),
    alpha=st.sampled_from([0.25, 0.5, 0.75]),
    beta=st.sampled_from([0.25, 0.5, 0.75]),
    p=st.sampled_from([1.5, 3.0]),
    rhs_hat=st.booleans(),
    u=st.floats(min_value=0.05, max_value=0.95),
    supplied=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.9)),
    shared=st.booleans(),
    checkers_first=st.booleans(),
)
def test_functionals_and_checkers_match_oracles(
    case, alpha, beta, p, rhs_hat, u, supplied, shared, checkers_first
):
    space, vals, balls, sigma = case
    w = Weight(vals) if shared else vals  # one table for every call, or a fresh one each
    eta = 1.0
    factor = sigma * (1.0 + eta) if rhs_hat else sigma

    functionals = {
        "wgr": (lambda: wgr_epsilon(space, w, balls, sigma=sigma), _o_wgr),
        "wgr_minus": (lambda: wgr_minus_epsilon(space, w, balls, sigma=sigma),
                      _o_wgr_minus),
        "gr": (lambda: gr_epsilon(space, w, balls), _o_gr),
        "weak_ainfty": (lambda: weak_ainfty_beta(space, w, balls, alpha, sigma=sigma),
                        _o_weak_ainfty(alpha)),
        "sublevel": (lambda: sublevel_alpha(space, w, balls, beta, sigma=sigma),
                     _o_sublevel(beta)),
        "rhi": (lambda: rhi_constant(space, w, balls, p,
                                     rhs_ball="sigma_hat" if rhs_hat else "sigma_dilate",
                                     sigma=sigma, eta=eta), _o_rhi(p, factor)),
    }

    def oracle_constant(ratio):
        found = _o_sup(space, vals, balls, sigma, ratio)
        return None if found is None else found[2]

    def lam_above(eps):
        return eps + (1.0 - eps) * u

    # checker name -> (call, oracle constant, oracle sides given the constant, lambda)
    def checker_cases():
        eps_plus = supplied if supplied is not None else oracle_constant(_o_wgr)
        eps_minus = supplied if supplied is not None else oracle_constant(_o_wgr_minus)
        beta_m = supplied if supplied is not None else oracle_constant(_o_weak_ainfty(alpha))
        alpha_m = supplied if supplied is not None else oracle_constant(_o_sublevel(beta))
        lam_plus = lam_above(eps_plus or 0.0)
        lam_minus = lam_above(eps_minus or 0.0)
        return {
            "superlevel_bound": (
                lambda: theorems.check_superlevel_bound(
                    space, w, balls, lam_plus, eps=supplied, sigma=sigma),
                eps_plus, lambda c: _o_superlevel_sides(lam_plus, c), lam_plus),
            "osc_from_superlevel": (
                lambda: theorems.check_osc_from_superlevel(
                    space, w, balls, alpha, beta=supplied, sigma=sigma),
                beta_m, lambda c: _o_osc_from_superlevel_sides(alpha, c), None),
            "sublevel_bound": (
                lambda: theorems.check_sublevel_bound(
                    space, w, balls, lam_minus, eps=supplied, sigma=sigma),
                eps_minus, lambda c: _o_sublevel_sides(lam_minus, c), lam_minus),
            "neg_osc_from_sublevel": (
                lambda: theorems.check_neg_osc_from_sublevel(
                    space, w, balls, beta, alpha_m=supplied, sigma=sigma),
                alpha_m, lambda c: _o_neg_osc_sides(beta, c), None),
        }

    def run_functionals():
        for name, (call, ratio) in functionals.items():
            expected = _o_sup(space, vals, balls, sigma, ratio)
            kind, rep = _outcome(call)
            if expected is None:
                assert (kind, rep) == ("raise", NoDataError), name
                continue
            assert kind == "ok", (name, rep)
            per_ball, skipped, value, witness = expected
            assert [b for b, _ in rep.per_ball] == [b for b, _ in per_ball]
            assert rep.skipped == skipped, name
            if name == "rhi":  # numpy's and Python's powers may differ in the last bit
                got = [r for _, r in rep.per_ball]
                assert got == pytest.approx([r for _, r in per_ball], rel=1e-12, abs=1e-300)
                assert rep.value == pytest.approx(value, rel=1e-12)
                assert ratio(space, vals, rep.witness_ball, sigma)[0] == pytest.approx(
                    value, rel=1e-12)
            else:
                assert rep.per_ball == per_ball, name
                assert rep.value == value, name
                assert rep.witness_ball == witness, name

    def run_checkers():
        for name, (call, constant, oracle_sides, lam) in checker_cases().items():
            with _recorded_sides() as sides:
                kind, rep = _outcome(call)
            if constant is None:  # every ball skipped while measuring the constant
                assert (kind, rep) == ("raise", NoDataError), name
                continue
            eps_like = name in ("superlevel_bound", "sublevel_bound")
            if eps_like and constant != 0.0 and not constant < lam < 1.0:
                assert (kind, rep) == ("raise", InvalidParameterError), name
                continue
            assert kind == "ok", (name, rep)
            measured_key = [k for k in rep.params if k.endswith("_measured")][0]
            assert rep.params[measured_key] is (supplied is None)
            if eps_like and constant == 0.0:
                assert sides == [] and rep.vacuous, name
                continue
            expected = [(b, *oracle_sides(constant)(space, vals, b, sigma)) for b in balls]
            assert sides == expected, name

    if checkers_first:
        run_checkers()
        run_functionals()
    else:
        run_functionals()
        run_checkers()


def _o_rhi_numpy_power(vals, p, factor):
    """``_o_rhi`` with w^p from numpy's elementwise power, the pass's own
    operation: numpy's power and the C library's may differ in the last bit."""
    powers = np.asarray(vals, dtype=float) ** p

    def ratio(space, _, ball, __):
        w_r, mu_r = _ref(space, vals, ball, factor)
        if w_r <= 0.0:
            return 0.0, True
        members = oracles.ball(space, ball.center, ball.radius)
        mean_p = math.fsum(
            float(powers[j]) * float(space.mass[j]) for j in members
        ) / oracles.measure(space, members)
        return mean_p ** (1.0 / p) / (w_r / mu_r), False

    return ratio


@settings(max_examples=150, deadline=None)
@given(
    case=_instance(),
    zeros=st.tuples(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=5)),
    block=st.sampled_from([1, 2, 3, 5, 8, weights.BLOCK_MEMBERS]),
    alpha=st.sampled_from([0.25, 0.5, 0.75]),
    beta=st.sampled_from([0.25, 0.5, 0.75]),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    const=st.floats(min_value=0.01, max_value=0.9),
    u=st.floats(min_value=0.05, max_value=0.95),
)
def test_array_pass_matches_the_oracles_bit_for_bit(case, zeros, block, alpha, beta, p, const, u):
    """Every per-ball ratio of the six functionals, ``pos_oscillation``,
    ``neg_oscillation_avg`` and every side of the four implication checkers
    equals the oracle's bit for bit, with a zero-weight stretch and with
    blocks small enough that one ball list spans several."""
    space, vals, balls, sigma = case
    assert not space.is_line  # two axes or a table: each ball's ids are queried
    _assert_array_pass_matches_the_oracles(
        space, _zeroed(vals, zeros), balls, sigma, block, alpha, beta, p, const, u)


@settings(max_examples=150, deadline=None)
@given(
    case=_line_instance(),
    zeros=st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=6)),
    block=st.sampled_from([1, 2, 3, 5, 8, weights.BLOCK_MEMBERS]),
    alpha=st.sampled_from([0.25, 0.5, 0.75]),
    beta=st.sampled_from([0.25, 0.5, 0.75]),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    const=st.floats(min_value=0.01, max_value=0.9),
    u=st.floats(min_value=0.05, max_value=0.95),
)
def test_line_pass_matches_the_oracles_bit_for_bit(case, zeros, block, alpha, beta, p, const, u):
    """The same on a line, where every pass gathers B and S as id spans and reads
    w(S) from the weight's prefix table: no ball's ids are queried, and each
    block's balls are spans."""
    space, vals, balls, sigma = case
    assert space.is_line
    queried = []
    original = FiniteMetricMeasureSpace.ball_members

    def query(self, center, r):
        queried.append((center, r))
        return original(self, center, r)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiniteMetricMeasureSpace, "ball_members", query)
        blocks = _assert_array_pass_matches_the_oracles(
            space, _zeroed(vals, zeros), balls, sigma, block, alpha, beta, p, const, u)
    assert blocks and all(isinstance(m, range) for each in blocks for m, *_ in each)
    assert queried == []


def _zeroed(vals, zeros):
    """A copy of ``vals`` with the stretch ``zeros = (start, length)`` set to 0: some
    dilates weigh nothing."""
    start, length = zeros
    vals = vals.copy()
    vals[start:start + length] = 0.0
    return vals


def _assert_array_pass_matches_the_oracles(space, w, balls, sigma, block, alpha, beta, p,
                                           const, u):
    """The body of the tests above and below, for a Weight or a bare array ``w``;
    returns the blocks of every pass."""
    vals = weights.as_values(w)
    lam = const + (1.0 - const) * u
    ratios = {
        "wgr": (lambda: wgr_epsilon(space, w, balls, sigma=sigma), _o_wgr),
        "wgr_minus": (lambda: wgr_minus_epsilon(space, w, balls, sigma=sigma), _o_wgr_minus),
        "gr": (lambda: gr_epsilon(space, w, balls), _o_gr),
        "weak_ainfty": (lambda: weak_ainfty_beta(space, w, balls, alpha, sigma=sigma),
                        _o_weak_ainfty(alpha)),
        "sublevel": (lambda: sublevel_alpha(space, w, balls, beta, sigma=sigma),
                     _o_sublevel(beta)),
        "rhi": (lambda: rhi_constant(space, w, balls, p, sigma=sigma),
                _o_rhi_numpy_power(vals, p, sigma)),
    }
    checkers = {
        "superlevel_bound": (lambda: theorems.check_superlevel_bound(
            space, w, balls, lam, eps=const, sigma=sigma), _o_superlevel_sides(lam, const)),
        "osc_from_superlevel": (lambda: theorems.check_osc_from_superlevel(
            space, w, balls, alpha, beta=const, sigma=sigma),
            _o_osc_from_superlevel_sides(alpha, const)),
        "sublevel_bound": (lambda: theorems.check_sublevel_bound(
            space, w, balls, lam, eps=const, sigma=sigma), _o_sublevel_sides(lam, const)),
        "neg_osc_from_sublevel": (lambda: theorems.check_neg_osc_from_sublevel(
            space, w, balls, beta, alpha_m=const, sigma=sigma), _o_neg_osc_sides(beta, const)),
    }
    blocks = []
    original_block = weights._block

    def counting(*args):
        blocks.append(args[3])
        return original_block(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "BLOCK_MEMBERS", block)
        patch.setattr(weights, "_block", counting)
        for name, (call, ratio) in ratios.items():
            rows = [ratio(space, vals, b, sigma) for b in balls]
            if all(skip for _, skip in rows):
                with pytest.raises(NoDataError):
                    call()
                continue
            rep = call()
            assert rep.per_ball == [(b, r) for b, (r, _) in zip(balls, rows)], name
            assert rep.skipped == [b for b, (_, skip) in zip(balls, rows) if skip], name
        for ball in balls:
            assert pos_oscillation(space, w, ball, sigma) == oracles.pos_osc(
                space, vals, ball.center, ball.radius, sigma)
            assert neg_oscillation_avg(space, w, ball, sigma) == oracles.neg_osc_avg(
                space, vals, ball.center, ball.radius, sigma)
        for name, (call, oracle_sides) in checkers.items():
            with _recorded_sides() as sides:
                call()
            assert sides == [(b, *oracle_sides(space, vals, b, sigma)) for b in balls], name
    # a block holds at most ``block`` ids unless one ball alone holds more
    assert all(len(each) == 1 or sum(len(m) for m, *_ in each) <= block for each in blocks)
    if block == 1:
        assert all(len(each) == 1 for each in blocks)
    return blocks


@settings(max_examples=100, deadline=None)
@given(
    case=_instance(),
    data=st.data(),
    block=st.sampled_from([1, 3, weights.BLOCK_MEMBERS]),
    room=st.sampled_from([0, 1, 3]),
    alpha=st.sampled_from([0.25, 0.75]),
    beta=st.sampled_from([0.25, 0.75]),
    p=st.sampled_from([1.5, 3.0]),
    const=st.floats(min_value=0.01, max_value=0.9),
    u=st.floats(min_value=0.05, max_value=0.95),
)
def test_the_last_pass_ids_serve_the_next_pass_within_their_bound(
        case, data, block, room, alpha, beta, p, const, u):
    """Off a line a weight keeps the ids of the balls its last pass walked, up to
    ``PASS_IDS``, here room for ``room`` balls. Over one ball list, another, then
    the first again, one Weight's ratios and sides equal the oracles' bit for bit;
    each pass queries exactly the balls the pass before it did not keep, and the
    dilates whose w(S) the weight lacks; the table holds the oracle's ids, read-only,
    for the longest run of the pass's balls that fits the bound, and the bytes it
    holds, measured by tracemalloc, stay within the bound."""
    space, vals, first, sigma = case
    assert not space.is_line
    n = space.n_points
    second = data.draw(st.lists(
        st.builds(Ball, st.integers(min_value=0, max_value=n - 1),
                  st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])), min_size=1, max_size=6))
    bound = room * (weights._ENTRY_IDS + n)
    w = Weight(vals)
    sums = w._sums(space)
    original_map, original_query = weights._ball_map, FiniteMetricMeasureSpace.ball_members
    queries = []

    def query(self, center, r):
        queries.append((center, r))
        return original_query(self, center, r)

    def recording(space_, w_, balls, factor, kernel):
        assert (space_, w_) == (space, w)
        table, summed = sums.ids, set(sums.balls)
        kept = set(table)
        queries.clear()
        out = original_map(space_, w_, balls, factor, kernel)
        expected = Counter((c, r) for c, r in balls if (c, r) not in kept)
        expected.update({(c, factor * r) for c, r in balls if factor != 1.0} - summed)
        assert Counter(queries) == expected
        if balls:
            charged = accumulate(len(oracles.ball(space, c, r)) + weights._ENTRY_IDS
                                 for c, r in balls)
            assert set(sums.ids) == {b for b, total in zip(balls, charged) if total <= bound}
        else:  # an empty pass leaves the table as it was
            assert sums.ids is table and set(table) == kept
        for (c, r), ids in sums.ids.items():
            assert ids.tolist() == oracles.ball(space, c, r) and not ids.flags.writeable
        return out

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(weights, "PASS_IDS", bound)
            patch.setattr(weights, "_ball_map", recording)
            patch.setattr(theorems, "_ball_map", recording)
            patch.setattr(FiniteMetricMeasureSpace, "ball_members", query)
            for balls in (first, second, first):
                _assert_array_pass_matches_the_oracles(
                    space, w, balls, sigma, block, alpha, beta, p, const, u)
        held = tracemalloc.get_traced_memory()[0]
        sums.ids = {}  # what dropping the table frees, over an empty one
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= bound * np.dtype(np.intp).itemsize


def test_line_dilate_sums_keep_the_sign_of_fsum():
    """w(S) on a line has ``fsum``'s bits, the sign of a zero too: a weight with
    -0.0 values, whose ``fsum`` over them is -0.0, gets no prefix table."""
    space = grid_1d(0.0, 12.0, 12)
    for zero in (0.0, -0.0):
        vals = np.array([2.0] * 4 + [zero] * 6 + [1.0] * 2)
        w = Weight(vals)
        wgr_epsilon(space, w, [Ball(c, 1.0) for c in range(12)], sigma=2.0)
        assert (w._span_sums(space) is None) is (math.copysign(1.0, zero) < 0)
        for (c, r), w_s in w._sums(space).balls.items():
            ids = oracles.ball(space, c, r)
            assert np.float64(w_s).tobytes() == np.float64(
                math.fsum(vals[j] * space.mass[j] for j in ids)).tobytes()


def test_a_cover_piece_whose_balls_are_all_skipped_raises_no_data():
    """The cover's one ratio pass fills every system's balls, but each eps is the
    sup over its own system: a piece on a zero stretch has none, and the check
    raises as each system's own pass would."""
    space, sigma, eta = grid_1d(0.0, 64.0, 64), 1.25, 1.0
    base = Ball(32, 20.0)
    piece = five_r_cover(space, base, sigma, eta)[0]
    vals = np.ones(64)
    vals[max(0, piece.center - 10):piece.center + 11] = 0.0
    system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    w = Weight(vals)
    assert wgr_epsilon(space, w, system.measuring, sigma=sigma).n_skipped < len(system.measuring)
    with pytest.raises(NoDataError):
        wgr_epsilon(space, Weight(vals), theorems.build_ball_system(
            space, build_family(space, piece, eta, sigma), profile=system.profile).measuring,
            sigma=sigma)
    with pytest.raises(NoDataError):
        theorems.check_cover_rhi(system, w, 1.5)


def test_a_superlevel_on_zero_values_alone_is_not_vacuous():
    """A dilate of zero weight puts every point of B on the superlevel set;
    with B's values all zero the left side is 0 and the ball is no vacuous pass."""
    space = grid_1d(0.0, 8.0, 8)
    vals = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 2.0])
    balls = [Ball(1, 1.0), Ball(6, 2.0)]
    with _recorded_sides() as sides:
        theorems.check_superlevel_bound(space, vals, balls, 0.9, eps=0.5, sigma=2.0)
    assert sides[0] == (balls[0], 0.0, 0.0, False)
    assert sides == [(b, *_o_superlevel_sides(0.9, 0.5)(space, vals, b, 2.0)) for b in balls]
    with _recorded_sides() as sides:
        theorems.check_sublevel_bound(space, vals, balls, 0.9, eps=0.5, sigma=2.0)
    assert sides == [(b, *_o_sublevel_sides(0.9, 0.5)(space, vals, b, 2.0)) for b in balls]
    assert sides[0][1:] == (1.0, 0.9, False)  # B(1, 1) is its center alone


def test_an_empty_ball_is_a_vacuous_comparison():
    """On a distance table whose diagonal is not 0 a ball can miss its center
    and be empty, with an empty dilate: its sides are zero and vacuous, and
    an average over it still raises."""
    table = [[5.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    space = FiniteMetricMeasureSpace([1.0, 1.0, 1.0], distance_matrix=table)
    vals = np.array([1.0, 2.0, 3.0])
    balls = [Ball(0, 0.5), Ball(1, 1.5)]
    assert pos_oscillation(space, vals, balls[0], 2.0) == 0.0
    with pytest.raises(EmptyAverageError):
        neg_oscillation_avg(space, vals, balls[0], 2.0)
    assert wgr_epsilon(space, vals, balls, sigma=2.0).skipped == [balls[0]]
    for check in (theorems.check_superlevel_bound, theorems.check_sublevel_bound):
        with _recorded_sides() as sides:
            check(space, vals, balls, 0.9, eps=0.5, sigma=2.0)
        assert sides[0] == (balls[0], 0.0, 0.0, True)


def test_shared_table_reuses_a_measured_constant(monkeypatch):
    space = FiniteMetricMeasureSpace(np.ones(6), coords=np.arange(6.0)[:, None],
                                     metric_kind="euclidean")
    vals = np.array([1.0, 4.0, 0.5, 2.0, 3.0, 1.5])
    balls = [Ball(c, 1.5) for c in range(6)]
    fresh_head = wgr_epsilon(space, vals, balls[:3], sigma=2.0)
    evaluated: list[Ball] = []
    original = weights._ball_map

    def recording(space, w, listed, factor, ratio, **kwargs):
        evaluated.extend(listed)
        return original(space, w, listed, factor, ratio, **kwargs)

    monkeypatch.setattr(weights, "_ball_map", recording)
    w = Weight(vals)
    eps = wgr_epsilon(space, w, balls, sigma=2.0).value
    assert evaluated == balls
    evaluated.clear()
    rep = theorems.check_superlevel_bound(space, w, balls, 0.99, sigma=2.0)
    assert rep.params["eps"] == eps and rep.params["eps_measured"] is True
    assert evaluated == []  # the constant comes from the ratios the table holds
    # a sub-list reads its ratios and takes the sup over its own balls
    head = wgr_epsilon(space, w, balls[:3], sigma=2.0)
    assert (head.value, head.witness_ball, head.per_ball) == (
        fresh_head.value, fresh_head.witness_ball, fresh_head.per_ball)
    assert evaluated == []
    # another sigma or parameter is another ratio: every ball is evaluated
    wgr_epsilon(space, w, balls, sigma=1.5)
    assert evaluated == balls
    weak_ainfty_beta(space, w, balls, 0.5, sigma=2.0)
    assert evaluated == balls + balls
    # a bare array or a new Weight of the same values starts with an empty table
    evaluated.clear()
    assert wgr_epsilon(space, vals, balls, sigma=2.0).value == eps
    assert evaluated == balls
    assert wgr_epsilon(space, Weight(vals), balls, sigma=2.0).value == eps
    assert evaluated == balls + balls
    # a checker given a bare array measures its constant afresh
    evaluated.clear()
    rep = theorems.check_superlevel_bound(space, vals, balls, 0.99, sigma=2.0)
    assert rep.params["eps"] == eps and evaluated == balls


@settings(max_examples=200, deadline=None)
@given(
    case=_instance(),
    eta=st.sampled_from([0.5, 1.0, 2.0]),
    p=st.sampled_from([1.1, 1.5, 2.0]),
    supplied=st.one_of(st.none(), st.just(1e-4)),
)
def test_decay_checkers_report_the_same_with_a_filled_table(case, eta, p, supplied):
    """A table filled by a run's functionals changes no byte of any decay
    checker's or ``rhi_equivalence_observed``'s report."""
    space, vals, balls, sigma = case
    base = balls[0]
    try:
        system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    except WgrError:
        return  # no family on this base ball: nothing to compare
    family = system.family
    grid = [1e3, 1e6]
    checks = {
        "jn_decay": lambda w: theorems.check_jn_decay(system, w, grid, eps=supplied),
        "osc_power_bound": lambda w: theorems.check_osc_power_bound(system, w, p, eps=supplied),
        "weak_rhi": lambda w: theorems.check_weak_rhi(system, w, p, eps=supplied),
        "cover_rhi": lambda w: theorems.check_cover_rhi(system, w, p, eps=supplied),
        "rhi_equivalence_observed": lambda w: theorems.check_rhi_equivalence_observed(
            space, w, family, 0.5, 0.1, [1.5, p]),
    }

    def outcome(call):
        try:
            return call().to_json_obj()
        except WgrError as exc:
            return type(exc).__name__, str(exc)

    fresh = {name: outcome(lambda: check(vals)) for name, check in checks.items()}
    w = Weight(vals)
    for fill in (
        lambda: wgr_epsilon(space, w, family),
        lambda: wgr_epsilon(space, w, system.measuring, sigma=sigma),
        lambda: wgr_minus_epsilon(space, w, family),
        lambda: gr_epsilon(space, w, family),
        lambda: weak_ainfty_beta(space, w, family, 0.5),
        lambda: sublevel_alpha(space, w, family, 0.5),
        lambda: rhi_constant(space, w, family, p),
        lambda: rhi_constant(space, w, family, 1.5, rhs_ball="sigma_hat"),
    ):
        try:
            fill()
        except WgrError:
            pass  # a functional that raises records no supremum
    assert w._tables[space].balls  # the table holds sums before the checkers run
    shared = {name: outcome(lambda: check(w)) for name, check in checks.items()}
    assert shared == fresh


def test_one_weight_keeps_a_table_per_space():
    """Two spaces with the same coordinates and different masses give one
    Weight two tables; each supremum is that space's own, and a space's
    table goes with the space."""
    coords = np.arange(8.0)[:, None]
    uniform = FiniteMetricMeasureSpace(np.ones(8), coords=coords, metric_kind="euclidean")
    alternating = FiniteMetricMeasureSpace(np.tile([1.0, 3.0], 4), coords=coords,
                                           metric_kind="euclidean")
    vals = np.array([1.0, 4.0, 0.5, 2.0, 3.0, 1.5, 0.25, 5.0])
    balls = [Ball(c, 2.5) for c in range(8)]
    w = Weight(vals)
    calls = {
        "wgr": lambda sp, wt: wgr_epsilon(sp, wt, balls, sigma=2.0),
        "wgr_minus": lambda sp, wt: wgr_minus_epsilon(sp, wt, balls, sigma=2.0),
        "gr": lambda sp, wt: gr_epsilon(sp, wt, balls),
        "weak_ainfty": lambda sp, wt: weak_ainfty_beta(sp, wt, balls, 0.5, sigma=2.0),
        "sublevel": lambda sp, wt: sublevel_alpha(sp, wt, balls, 0.5, sigma=2.0),
        "rhi": lambda sp, wt: rhi_constant(sp, wt, balls, 2.0, sigma=2.0),
    }
    seen = {}
    for space in (uniform, alternating, uniform, alternating):  # each call reads its own space's table
        for name, call in calls.items():
            got, fresh = call(space, w), call(space, vals)
            assert (got.value, got.witness_ball, got.per_ball, got.skipped) == (
                fresh.value, fresh.witness_ball, fresh.per_ball, fresh.skipped), name
            seen.setdefault(name, set()).add(got.value)
        rep = theorems.check_superlevel_bound(space, w, balls, 0.99, sigma=2.0)
        assert rep.params["eps"] == wgr_epsilon(space, vals, balls, sigma=2.0).value
    assert all(len(values) == 2 for values in seen.values())  # the spaces disagree
    assert len(w._tables) == 2
    # another weight on a space this one filled reads a table of its own
    other = Weight(vals[::-1])
    assert wgr_epsilon(uniform, other, balls, sigma=2.0).value == wgr_epsilon(
        uniform, vals[::-1], balls, sigma=2.0).value
    # a CZ averages table keeps neither its space nor its family alive: the
    # alternating space goes though its family stays, and uniform's family goes
    spaces = (uniform, alternating)
    families = [build_family(sp, Ball(4, 2.0), eta=1.0, sigma=1.0) for sp in spaces]
    assert [maximal_function(sp, w, fam).tolist() for sp, fam in zip(spaces, families)] == [
        maximal_function(sp, vals, fam).tolist() for sp, fam in zip(spaces, families)]
    assert [len(w._tables[sp].families) for sp in spaces] == [1, 1]
    kept, dropped = families[1], weakref.ref(families[0])
    del space, alternating, spaces, families
    gc.collect()
    assert list(w._tables.keys()) == [uniform]
    assert dropped() is None and len(w._tables[uniform].families) == 0
    assert kept.members  # still alive


def test_no_public_function_takes_a_private_keyword():
    """No public function or method takes a private keyword through which a
    table or geometry built elsewhere could be passed in unchecked; none is
    left, ``cz_nested`` builds its fine level through ``czdecomp._decompose``."""
    private = set()
    for name in ("space", "util", "weights", "balls", "czdecomp", "theorems", "examples", "cli"):
        module = importlib.import_module(f"wgrkit.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                routines = {f"{attr}.{k}": getattr(obj, k) for k in vars(obj)
                            if not k.startswith("_") or k == "__init__"}
            else:
                routines = {attr: obj}
            for qualname, fn in routines.items():
                if inspect.isfunction(fn) or inspect.ismethod(fn):
                    private |= {(f"{name}.{qualname}", param)
                                for param in inspect.signature(fn).parameters
                                if param.startswith("_")}
    assert private == set()


def test_a_checker_given_a_bare_array_reads_one_table(monkeypatch):
    """``check_cover_rhi`` measures eps over the base and every piece system;
    given a bare array it still evaluates each shared measuring ball once."""
    space = grid_1d(0.0, 64.0, 64)
    vals = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.001}, 1).values
    system = theorems.build_ball_system(space, build_family(space, Ball(32, 14.0), 1.0, 1.25))
    evaluated: list[tuple] = []
    original = weights._ball_map

    def recording(space, w, listed, factor, ratio, **kwargs):
        evaluated.extend((b.center, b.radius, factor) for b in listed)
        return original(space, w, listed, factor, ratio, **kwargs)

    monkeypatch.setattr(weights, "_ball_map", recording)
    rep = theorems.check_cover_rhi(system, vals, 1.5)
    assert rep.params["eps_measured"] is True and rep.params["n_cover"] > 1
    assert evaluated and len(evaluated) == len(set(evaluated))
