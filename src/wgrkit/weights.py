"""Weights, integral averages, oscillations, and condition functionals.

A weight is a nonnegative function on the points; ``w(A)`` denotes the
measure it induces, i.e. the mass-weighted sum of its values over ``A``.
The condition functionals all have the same shape: a supremum of per-ball
ratios over a ball family, where the ball ``B`` is compared against its
``sigma``-dilate ``S = sigma B``:

* positive-part oscillation ratio   int_B (w - w_S)_+ dmu / w(S)
* negative-part oscillation ratio   avg_B (w - w_S)_- / w_S
* absolute oscillation ratio        int_B |w - w_B| dmu / w(B)
* superlevel mass ratio             w(B n {alpha w >= w_S}) / w(S)
* sublevel measure ratio            mu(B n {w <= beta w_S}) / mu(B)
* reverse Holder ratio              (avg_B w^p)^(1/p) / avg_S w

Zero denominators are never dropped silently: a ball whose reference
average vanishes while the numerator also vanishes is recorded in
``skipped`` (contributing ratio 0); a positive numerator over a zero
reference is impossible because the numerator is dominated by ``w(S)``.
All ratios accumulate through compensated summation and are homogeneous
under ``w -> c w`` and ``mass -> c mass``.

Each functional and implication checker is one array pass of a kernel over
its balls: elementwise terms, an ``fsum`` and a ``finish`` per ball, with
the bits of a ball-by-ball evaluation (see :func:`_ball_map`). On a line a
pass takes B and S as id spans and w(S) from the weight's exact prefix table
of ``values * mass``, which the CZ averages table reads too.
"""
from __future__ import annotations

import math
import weakref
from itertools import accumulate

import numpy as np

from .balls import Ball, BallFamily
from .errors import (
    EmptyAverageError,
    InvalidExponentError,
    InvalidParameterError,
    NoDataError,
    WgrError,
)
from .space import FiniteMetricMeasureSpace
from .util import Frozen, ball_sum, exact_prefix_sums, span_sum, weighted_sum


class Weight(Frozen):
    """Nonnegative values per point, sharing the space's index set.

    A weight keeps one table of ball sums per space it is measured on,
    which also keeps its CZ averages table per family, so every call given
    the same Weight shares them; a space's table goes with the space.
    Values and masses are frozen, so no table goes stale.
    Equality and hashing are by identity, as the tables are.
    """

    def __init__(self, values):
        # freeze a private copy: the caller's array stays writeable
        values = np.array(values, dtype=float)
        if values.ndim != 1:
            raise WgrError("weight values must be a 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise WgrError("weight values must be finite and nonnegative")
        values.setflags(write=False)
        self.__dict__.update(values=values, _tables=weakref.WeakKeyDictionary())

    def _sums(self, space: FiniteMetricMeasureSpace) -> _BallSums:
        """This weight's table of ball sums on ``space``, made on first use."""
        return self._tables.setdefault(space, _BallSums())

    def _span_sums(self, space: FiniteMetricMeasureSpace):
        """``(prefix, scale, products)`` for :func:`~wgrkit.util.span_sum`, the products ``values *
        mass`` on ``space``; made once, None where one is not finite, or -0.0, which fsum keeps."""
        sums = self._sums(space)
        if sums.prefix is None:
            with np.errstate(over="ignore"):  # an overflow means no table, and no warning
                products = self.values * space.mass
            ok = np.isfinite(products).all() and not np.signbit(products).any()
            sums.prefix = (*exact_prefix_sums(products), products) if ok else ()
        return sums.prefix or None


def _weight(w) -> Weight:
    """A Weight as given; a bare array becomes a new Weight with empty tables."""
    return w if isinstance(w, Weight) else Weight(w)


def as_values(w) -> np.ndarray:
    """Accept a Weight or a bare array."""
    return _weight(w).values


# Per-ball helpers. They take a validated Weight or its values; public entry
# points turn a bare array into a Weight once and hand it down, so no weight
# is re-validated per ball and one call shares one table of ball sums.


def _induced(space: FiniteMetricMeasureSpace, values: np.ndarray, members: np.ndarray) -> float:
    if members.size == 0:
        return 0.0
    return weighted_sum(values[members], space.mass[members])


def _avg(w: float, mu: float) -> float:
    """The average of a set with induced measure ``w`` and measure ``mu``."""
    if mu <= 0.0:
        raise EmptyAverageError("average over a set of zero measure")
    return w / mu


def _ball_average(space: FiniteMetricMeasureSpace, values: np.ndarray, ball: Ball,
                  members: np.ndarray | None = None) -> float:
    """The average over ``ball``, whose ids ``members`` holds when given."""
    c, r = ball.center, ball.radius
    members = space.ball_members(c, r) if members is None else members
    return _avg(_induced(space, values, members), space.ball_measure(c, r, members))


class _BallSums:
    """Ball sums of one weight on one space, kept by the :class:`Weight`.

    ``balls`` maps a ball ``(center, radius)`` to w(B) only; mu(B) lives in
    the space's memo. A ball B and its dilate S = factor * B are plain
    entries, so each dilation factor fills keys of its own. ``ratios`` maps
    (functional, parameter, factor) to a dict from ``(center, radius)`` to the
    ball's (ratio, skipped), so a ball that several ball lists share is
    evaluated once, and a functional run again over balls it has seen
    evaluates none. ``ids`` holds the read-only ids of each ball B, never a
    dilate, that the last :func:`_ball_map` pass off a line walked, up to
    :data:`PASS_IDS`, for the next pass: lists that alternate query again.
    ``families`` maps a :class:`BallFamily`, weakly, to the weight's CZ
    averages table over it (``czdecomp._averages``), so a family's table
    goes with the family; ``prefix`` is :meth:`Weight._span_sums`'s table, or ``()``.
    """

    def __init__(self):
        self.balls: dict[tuple[int, float], float] = {}
        self.ratios: dict[tuple, dict[tuple[int, float], tuple[float, bool]]] = {}
        self.ids: dict[tuple[int, float], np.ndarray] = {}
        self.families: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.prefix = None


#: Upper bound on the member ids one block of a ball pass holds, B's and S's together.
BLOCK_MEMBERS = 1 << 14

#: Upper bound on the ids a weight keeps from its last pass; each kept ball is charged its ids
#: and ``_ENTRY_IDS`` more, 512 bytes, which cover its array headers, key and table slot.
PASS_IDS, _ENTRY_IDS = 1 << 17, 64


def _ball_map(
    space: FiniteMetricMeasureSpace, w: Weight, balls: list[Ball], factor: float, kernel,
) -> list:
    """``finish(total, hit, w(S), mu(S), mu(B))`` for each ball B in order, S = factor * B.

    ``kernel`` is ``(terms, finish)``. Blocks of balls hold at most
    :data:`BLOCK_MEMBERS` ids, or one ball. ``terms(v, m, c)`` is elementwise
    over the values and masses of a block's points, ball after ball, with
    c = w(S)/mu(S) of each point's ball; it returns the term array and a
    boolean level, or None. ``total`` is the ``fsum`` of a ball's terms,
    ``hit`` whether its level holds at any of its points. w(S) comes from
    the weight's table on ``space``, else is summed once per dilate and
    stored; mu(S) and mu(B) come from the space's memo, on a line from the
    span measures of the pass's batch. The bits are those
    of a ball-by-ball pass: each term is the same IEEE operation on the
    same operands, numpy's float division is Python's, and ``fsum`` is
    correctly rounded, so neither term order nor +0.0 terms change a sum.
    B and S are id arrays from ``ball_members``, or B's from the last pass
    (``_BallSums.ids``), but on a line with a prefix table (:meth:`Weight._span_sums`)
    spans from one ``ball_spans`` call over every S and B, and a block's ids one
    expression over its B's, with no array per ball.
    """
    sums, memo, out = w._sums(space), space._mu, []
    if not balls:
        return out
    table = w._span_sums(space) if space.is_line else None
    if table is not None:
        keys_s = [(c, factor * r) for c, r in balls]
        lo, hi = space.ball_spans(*zip(*keys_s, *balls))
        mus = space.span_measures(lo, hi).tolist()
        lo, hi = lo.tolist(), hi.tolist()
        for key_s, a, b in zip(keys_s, lo, hi):
            if key_s not in sums.balls:
                sums.balls[key_s] = span_sum(*table, a, b)
        spans = zip(map(range, lo[len(balls):], hi[len(balls):]), mus, mus[len(balls):])
    else:
        last, sums.ids, room = sums.ids, {}, PASS_IDS
    block, pending, held = [], {}, 0
    for c, r in balls:
        key_s, s_ids = (c, factor * r), None
        if table is not None:
            members, mu_s, mu_b = next(spans)
        else:
            members = last[(c, r)] if (c, r) in last else space.ball_members(c, r)
            if (room := room - len(members) - _ENTRY_IDS) >= 0:
                sums.ids[(c, r)] = members
            if key_s not in pending and key_s not in sums.balls:
                s_ids = members if key_s == (c, r) else space.ball_members(*key_s)
        size = len(members) + (0 if s_ids is None else len(s_ids))
        if block and held + size > BLOCK_MEMBERS:
            out += _block(space, w.values, sums, block, pending, kernel)
            block, pending, held = [], {}, 0
        if s_ids is not None:
            pending[key_s] = s_ids
        if table is None:  # read first, as doubling_profile does: no call per hit
            mu_s = memo.get(key_s) or space.ball_measure(*key_s, members=s_ids)
            mu_b = memo.get((c, r)) or space.ball_measure(c, r, members=members)
        elif math.inf in (mu_s, mu_b):  # past the largest double: ball_measure raises
            mu_s, mu_b = space.ball_measure(*key_s), space.ball_measure(c, r)
        block.append((members, key_s, mu_s, mu_b))
        held += size
    if block:
        out += _block(space, w.values, sums, block, pending, kernel)
    return out


def _fsums(terms: np.ndarray, sizes) -> list[float]:
    """The ``fsum`` of each consecutive run of ``sizes`` entries of ``terms``."""
    view, bounds = memoryview(terms), [0, *accumulate(sizes)]
    return [ball_sum(view[a:b]) for a, b in zip(bounds, bounds[1:])]


def _block(space, values, sums: _BallSums, block: list, pending: dict, kernel) -> list:
    """One block of :func:`_ball_map`: the pending w(S) into the table, then
    each ball's total and hit, handed to ``finish``."""
    terms, finish = kernel
    s_sizes, sizes = [len(s) for s in pending.values()], [len(b[0]) for b in block]
    if isinstance(block[0][0], range):  # spans, with no S pending: no id array per ball
        ids = np.repeat(np.subtract([b[0].start for b in block], np.cumsum(sizes) - sizes),
                        sizes) + np.arange(sum(sizes))
    else:
        ids = np.concatenate([*pending.values(), *(b[0] for b in block)])
    v, m, cut = values[ids], space.mass[ids], sum(s_sizes)
    sums.balls.update(zip(pending, _fsums(v[:cut] * m[:cut], s_sizes)))
    w_s = [sums.balls[key_s] for _, key_s, _, _ in block]
    # mu(S) = 0 only for an empty S, whose B inside it is empty too: no term reads c
    c = [ws / mu_s if mu_s > 0.0 else math.nan for ws, (_, _, mu_s, _) in zip(w_s, block)]
    t, level = terms(v[cut:], m[cut:], np.repeat(c, sizes))
    hits = [None] * len(block)
    if level is not None:  # a ball hits iff the count of level points grows across it
        seen = np.concatenate(([0], np.cumsum(level)))[[0, *accumulate(sizes)]]
        hits = (seen[1:] > seen[:-1]).tolist()
    return [finish(total, hit, ws, mu_s, mu_b)
            for total, hit, ws, (_, _, mu_s, mu_b) in zip(_fsums(t, sizes), hits, w_s, block)]


def _pos_terms(v, m, c):  # int_B (w - c)_+ dmu
    return np.maximum(v - c, 0.0) * m, None


def _neg_terms(v, m, c):  # int_B (w - c)_- dmu
    return np.maximum(c - v, 0.0) * m, None


def _over_w_s(total, _, w_s, mu_s, mu_b):  # a ball of w(S) = 0 is skipped
    return (0.0, True) if w_s <= 0.0 else (total / w_s, False)


def induced_measure(space: FiniteMetricMeasureSpace, w, members) -> float:
    """w(A) = sum over A of w * mass."""
    return _induced(space, as_values(w), np.asarray(members))


def average(space: FiniteMetricMeasureSpace, w, members) -> float:
    """Integral average of w over a set of positive measure."""
    members = np.asarray(members)
    return _avg(_induced(space, as_values(w), members), space.set_measure(members))


def pos_oscillation(space: FiniteMetricMeasureSpace, w, ball: Ball, sigma: float) -> float:
    """int_B (w - w_S)_+ dmu with S = sigma B."""
    return _ball_map(space, _weight(w), [ball], sigma, (_pos_terms, lambda total, *_: total))[0]


def neg_oscillation_avg(space: FiniteMetricMeasureSpace, w, ball: Ball, sigma: float) -> float:
    """avg_B (w - w_S)_- with S = sigma B."""
    return _ball_map(
        space, _weight(w), [ball], sigma,
        (_neg_terms, lambda total, hit, w_s, mu_s, mu_b: _avg(total, mu_b)),
    )[0]


class ConditionReport:
    """Supremum of per-ball ratios with the attaining witness.

    ``per_ball`` keeps every evaluated (ball, ratio) pair in canonical
    order; ``skipped`` lists zero-denominator balls (their ratio is 0).
    """

    def __init__(self, value: float, witness_ball: Ball | None,
                 per_ball: list[tuple[Ball, float]], skipped: list[Ball]):
        self.value, self.witness_ball = value, witness_ball
        self.per_ball, self.skipped = per_ball, skipped

    @property
    def n_balls(self) -> int:
        return len(self.per_ball)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)

    def summary_obj(self) -> dict:
        return {
            "value": self.value,
            "witness": None
            if self.witness_ball is None
            else {"center": self.witness_ball.center, "radius": self.witness_ball.radius},
            "n_balls": self.n_balls,
            "n_skipped": self.n_skipped,
        }

    def csv_rows(self) -> list[tuple]:
        skipset = set(self.skipped)
        return [(b.center, b.radius, ratio, int(b in skipset)) for b, ratio in self.per_ball]


def family_balls(family) -> list[Ball]:
    """The balls of a BallFamily or of a plain ball iterable, as a list."""
    return list(family.members if isinstance(family, BallFamily) else family)


def _resolve_sigma(family, sigma) -> float:
    """``sigma``, else the family's; validated."""
    if sigma is None:
        if not isinstance(family, BallFamily):
            raise InvalidParameterError("sigma is required for a plain ball list")
        sigma = family.sigma
    if not sigma >= 1:
        raise InvalidParameterError(f"sigma must be >= 1, got {sigma}")
    return float(sigma)


def _sup(results: list[tuple[float, bool]]) -> tuple[float, int | None]:
    """The sup of the ratios of ``(ratio, skipped)`` results and the index of the
    first ball attaining it: a ball wins only with a ratio strictly above every
    earlier one, so a NaN ratio never wins, and with no ratio above -inf there
    is no witness. Every ball skipped raises NoDataError."""
    value, at, n_skipped = -math.inf, None, 0
    for i, (ratio, skip) in enumerate(results):
        n_skipped += skip
        if ratio > value:
            value, at = ratio, i
    if n_skipped == len(results):
        raise NoDataError("every ball was skipped; the supremum is undefined")
    return value, at


def _functional(
    name: str, param, space, w, family, sigma, kernel, *, factor: float | None = None,
) -> ConditionReport:
    """The sup report of ``kernel`` over one pass, with S = sigma B unless ``factor``.

    The kernel's ``finish`` returns ``(ratio, skipped)``.
    """
    balls = family_balls(family)
    factor = _resolve_sigma(family, sigma) if factor is None else factor
    memo = _ratios(name, param, space, _weight(w), balls, factor, kernel)
    results = [memo[b] for b in balls]
    value, at = _sup(results)
    return ConditionReport(value=value, witness_ball=None if at is None else balls[at],
                           per_ball=[(b, ratio) for b, (ratio, _) in zip(balls, results)],
                           skipped=[b for b, (_, skip) in zip(balls, results) if skip])


def _ratios(name: str, param, space, w: Weight, balls, factor: float, kernel) -> dict:
    """The weight's ratios on ``space`` for ``(name, param, factor)``, holding every ball of
    ``balls``: each distinct ball it lacks is evaluated once, in one pass, and recorded."""
    memo = w._sums(space).ratios.setdefault((name, param, factor), {})
    missing = list(dict.fromkeys(b for b in balls if b not in memo))
    memo.update(zip(missing, _ball_map(space, w, missing, factor, kernel)))
    return memo


# The kernels of the functionals whose ratios the checkers also read through _ratios.
_WGR = (_pos_terms, _over_w_s)


def _wgr_minus_finish(total, _, w_s, mu_s, mu_b):
    c = _avg(w_s, mu_s)
    return (0.0, True) if c <= 0.0 else (_avg(total, mu_b) / c, False)


_WGR_MINUS = (_neg_terms, _wgr_minus_finish)


def _weak_ainfty(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0,1), got {alpha}")
    return (lambda v, m, c: (v * m * (alpha * v >= c), None)), _over_w_s


def _rhi(p: float):
    if not p > 1:
        raise InvalidExponentError(f"reverse Holder exponent must be > 1, got {p}")

    def finish(total, _, w_r, mu_r, mu_b):
        if w_r <= 0.0:
            return 0.0, True
        return (total / mu_b) ** (1.0 / p) / (w_r / mu_r), False

    return (lambda v, m, c: (v**p * m, None)), finish


def _sublevel(beta: float):
    if not 0.0 < beta < 1.0:
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")
    return (lambda v, m, c: (m * (v <= beta * c), None)), (
        lambda total, _, w_s, mu_s, mu_b: (0.0, True) if w_s <= 0.0 else (total / mu_b, False))



def wgr_epsilon(
    space: FiniteMetricMeasureSpace, w, family, sigma: float | None = None,
) -> ConditionReport:
    """sup_B int_B (w - w_S)_+ dmu / w(S), the positive-part condition.

    Every functional reads and fills the table of ball sums that ``w`` keeps
    for ``space``; a bare array starts with an empty one.
    """
    return _functional("wgr_epsilon", None, space, w, family, sigma, _WGR)


def wgr_minus_epsilon(
    space: FiniteMetricMeasureSpace, w, family, sigma: float | None = None,
) -> ConditionReport:
    """sup_B avg_B (w - w_S)_- / w_S, the negative-part condition."""
    return _functional("wgr_minus_epsilon", None, space, w, family, sigma, _WGR_MINUS)


def gr_epsilon(
    space: FiniteMetricMeasureSpace, w, ball_set,
) -> ConditionReport:
    """sup_B int_B |w - w_B| dmu / w(B), the absolute-oscillation condition."""
    return _functional(  # factor 1: the reference ball is B, and c is w_B
        "gr_epsilon", None, space, w, ball_set, None,
        (lambda v, m, c: (np.abs(v - c) * m, None), _over_w_s), factor=1.0,
    )


def weak_ainfty_beta(
    space: FiniteMetricMeasureSpace, w, family, alpha: float, sigma: float | None = None,
) -> ConditionReport:
    """sup_B w(B n {alpha w >= w_S}) / w(S) for a fixed alpha in (0, 1)."""
    return _functional("weak_ainfty_beta", alpha, space, w, family, sigma, _weak_ainfty(alpha))


def sublevel_alpha(
    space: FiniteMetricMeasureSpace, w, family, beta: float, sigma: float | None = None,
) -> ConditionReport:
    """sup_B mu(B n {w <= beta w_S}) / mu(B) for a fixed beta in (0, 1)."""
    return _functional("sublevel_alpha", beta, space, w, family, sigma, _sublevel(beta))


def rhi_constant(
    space: FiniteMetricMeasureSpace, w, family, p: float, rhs_ball: str = "sigma_dilate",
    sigma: float | None = None, eta: float | None = None,
) -> ConditionReport:
    """sup_B (avg_B w^p)^(1/p) / avg_R w with R the reference dilate.

    ``rhs_ball = "sigma_dilate"`` references ``sigma B``; ``"sigma_hat"``
    references ``sigma (1+eta) B`` and needs ``eta``.
    """
    kernel = _rhi(p)
    factor = _resolve_sigma(family, sigma)
    if rhs_ball == "sigma_hat":
        if eta is None:
            if not isinstance(family, BallFamily):
                raise InvalidParameterError("sigma_hat reference needs eta")
            eta = family.eta
        if not eta > 0:
            raise InvalidParameterError(f"eta must be > 0, got {eta}")
        factor = factor * (1.0 + eta)
    elif rhs_ball != "sigma_dilate":
        raise InvalidParameterError(f"unknown rhs_ball {rhs_ball!r}")
    return _functional("rhi_constant", p, space, w, family, None, kernel, factor=factor)
