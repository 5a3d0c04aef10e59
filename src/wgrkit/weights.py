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
"""
from __future__ import annotations

import weakref

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
from .util import Frozen, fsum, weighted_sum


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


def _pos_part(v: np.ndarray, m: np.ndarray, c: float) -> float:
    """int_B (w - c)_+ dmu from B's values ``v`` and masses ``m``."""
    return weighted_sum(np.maximum(v - c, 0.0), m)


def _neg_part_avg(v: np.ndarray, m: np.ndarray, c: float, mu_b: float) -> float:
    """avg_B (w - c)_- from B's values, masses and measure."""
    if mu_b <= 0.0:
        raise EmptyAverageError("negative oscillation over an empty ball")
    return weighted_sum(np.maximum(c - v, 0.0), m) / mu_b


class _BallSums:
    """Ball sums of one weight on one space, kept by the :class:`Weight`.

    ``balls`` maps a ball ``(center, radius)`` to w(B) only; mu(B) lives in
    the space's memo. A ball B and its dilate S = factor * B are plain
    entries, so each dilation factor fills keys of its own. ``ratios`` maps
    (functional, parameter, factor) to a dict from ``(center, radius)`` to the
    ball's (ratio, skipped), so a ball that several ball lists share is
    evaluated once, and a functional run again over balls it has seen
    evaluates none. These hold floats only, never member arrays.
    ``families`` maps a :class:`BallFamily`, weakly, to the weight's CZ
    averages table over it (``czdecomp._averages``), so a family's table
    goes with the family.
    """

    def __init__(self):
        self.balls: dict[tuple[int, float], float] = {}
        self.ratios: dict[tuple, dict[tuple[int, float], tuple[float, bool]]] = {}
        self.families: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _ball_map(
    space: FiniteMetricMeasureSpace, w: Weight, balls: list[Ball], factor: float, ratio,
) -> list:
    """``ratio(v, m, w(S), mu(S), mu(B))`` for each ball B in order, S = factor * B.

    ``v`` and ``m`` are the values and masses of B's points in index order.
    w(S) comes from the weight's table on ``space`` when an earlier ball
    stored it; otherwise it is summed here, once, and stored at once. mu(S)
    and mu(B) are read from the space's memo.
    """
    values, sums = w.values, w._sums(space)
    out = []
    for ball in balls:
        key_b, key_s = (ball.center, ball.radius), (ball.center, factor * ball.radius)
        members = space.ball_members(*key_b)
        w_s, s_members = sums.balls.get(key_s), None
        if w_s is None:
            s_members = members if key_s == key_b else space.ball_members(*key_s)
            w_s = sums.balls[key_s] = _induced(space, values, s_members)
        mu_s = space.ball_measure(*key_s, members=s_members)
        mu_b = space.ball_measure(*key_b, members=members)
        out.append(ratio(values[members], space.mass[members], w_s, mu_s, mu_b))
    return out


def induced_measure(space: FiniteMetricMeasureSpace, w, members) -> float:
    """w(A) = sum over A of w * mass."""
    return _induced(space, as_values(w), np.asarray(members))


def average(space: FiniteMetricMeasureSpace, w, members) -> float:
    """Integral average of w over a set of positive measure."""
    members = np.asarray(members)
    return _avg(_induced(space, as_values(w), members), space.set_measure(members))


def pos_oscillation(space: FiniteMetricMeasureSpace, w, ball: Ball, sigma: float) -> float:
    """int_B (w - w_S)_+ dmu with S = sigma B."""
    return _ball_map(
        space, _weight(w), [ball], sigma,
        lambda v, m, w_s, mu_s, _: _pos_part(v, m, _avg(w_s, mu_s)),
    )[0]


def neg_oscillation_avg(space: FiniteMetricMeasureSpace, w, ball: Ball, sigma: float) -> float:
    """avg_B (w - w_S)_- with S = sigma B."""
    return _ball_map(
        space, _weight(w), [ball], sigma,
        lambda v, m, w_s, mu_s, mu_b: _neg_part_avg(v, m, _avg(w_s, mu_s), mu_b),
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


def _sup_report(balls: list[Ball], results: list[tuple[float, bool]]) -> ConditionReport:
    per_ball: list[tuple[Ball, float]] = []
    skipped: list[Ball] = []
    value = -np.inf
    witness = None
    for ball, (ratio, skip) in zip(balls, results):
        per_ball.append((ball, ratio))
        if skip:
            skipped.append(ball)
        if ratio > value:
            value = ratio
            witness = ball
    if len(skipped) == len(balls):
        raise NoDataError("every ball was skipped; the supremum is undefined")
    return ConditionReport(value=value, witness_ball=witness, per_ball=per_ball, skipped=skipped)


def _functional(
    name: str, param, space, w, family, sigma, ratio, *, factor: float | None = None,
) -> ConditionReport:
    """The sup report of ``ratio`` over one pass, with S = sigma B unless ``factor``.

    A ratio returns ``(ratio, skipped)``. Each distinct ball is evaluated
    once, and only if the weight's table on ``space`` holds no ratio for it;
    the new ratios are recorded there.
    """
    balls = family_balls(family)
    factor = _resolve_sigma(family, sigma) if factor is None else factor
    w = _weight(w)
    memo = w._sums(space).ratios.setdefault((name, param, factor), {})
    missing = list(dict.fromkeys(b for b in balls if b not in memo))
    memo.update(zip(missing, _ball_map(space, w, missing, factor, ratio)))
    results = [memo[b] for b in balls]
    return _sup_report(balls, results)


def wgr_epsilon(
    space: FiniteMetricMeasureSpace, w, family, sigma: float | None = None,
) -> ConditionReport:
    """sup_B int_B (w - w_S)_+ dmu / w(S), the positive-part condition.

    Every functional reads and fills the table of ball sums that ``w`` keeps
    for ``space``; a bare array starts with an empty one.
    """

    def ratio(v, m, w_s, mu_s, _):
        return (0.0, True) if w_s <= 0.0 else (_pos_part(v, m, _avg(w_s, mu_s)) / w_s, False)

    return _functional(
        "wgr_epsilon", None, space, w, family, sigma, ratio
    )


def wgr_minus_epsilon(
    space: FiniteMetricMeasureSpace, w, family, sigma: float | None = None,
) -> ConditionReport:
    """sup_B avg_B (w - w_S)_- / w_S, the negative-part condition."""

    def ratio(v, m, w_s, mu_s, mu_b):
        c = _avg(w_s, mu_s)
        return (0.0, True) if c <= 0.0 else (_neg_part_avg(v, m, c, mu_b) / c, False)

    return _functional(
        "wgr_minus_epsilon", None, space, w, family, sigma, ratio
    )


def gr_epsilon(
    space: FiniteMetricMeasureSpace, w, ball_set,
) -> ConditionReport:
    """sup_B int_B |w - w_B| dmu / w(B), the absolute-oscillation condition."""

    def ratio(v, m, w_b, mu_b, _):  # factor 1: the reference ball is B
        if w_b <= 0.0:
            return 0.0, True
        return weighted_sum(np.abs(v - w_b / mu_b), m) / w_b, False

    return _functional(
        "gr_epsilon", None, space, w, ball_set, None, ratio,
        factor=1.0,
    )


def weak_ainfty_beta(
    space: FiniteMetricMeasureSpace, w, family, alpha: float, sigma: float | None = None,
) -> ConditionReport:
    """sup_B w(B n {alpha w >= w_S}) / w(S) for a fixed alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0,1), got {alpha}")

    def ratio(v, m, w_s, mu_s, _):
        if w_s <= 0.0:
            return 0.0, True
        level = alpha * v >= w_s / mu_s
        return weighted_sum(v[level], m[level]) / w_s, False

    return _functional(
        "weak_ainfty_beta", alpha, space, w, family, sigma, ratio
    )


def sublevel_alpha(
    space: FiniteMetricMeasureSpace, w, family, beta: float, sigma: float | None = None,
) -> ConditionReport:
    """sup_B mu(B n {w <= beta w_S}) / mu(B) for a fixed beta in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")

    def ratio(v, m, w_s, mu_s, mu_b):
        if w_s <= 0.0:
            return 0.0, True
        return fsum(m[v <= beta * (w_s / mu_s)]) / mu_b, False

    return _functional(
        "sublevel_alpha", beta, space, w, family, sigma, ratio
    )


def rhi_constant(
    space: FiniteMetricMeasureSpace, w, family, p: float, rhs_ball: str = "sigma_dilate",
    sigma: float | None = None, eta: float | None = None,
) -> ConditionReport:
    """sup_B (avg_B w^p)^(1/p) / avg_R w with R the reference dilate.

    ``rhs_ball = "sigma_dilate"`` references ``sigma B``; ``"sigma_hat"``
    references ``sigma (1+eta) B`` and needs ``eta``.
    """
    if not p > 1:
        raise InvalidExponentError(f"reverse Holder exponent must be > 1, got {p}")
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

    def ratio(v, m, w_r, mu_r, mu_b):
        if w_r <= 0.0:
            return 0.0, True
        return (weighted_sum(v**p, m) / mu_b) ** (1.0 / p) / (w_r / mu_r), False

    return _functional(
        "rhi_constant", p, space, w, family, None, ratio,
        factor=factor,
    )
