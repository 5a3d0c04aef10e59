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

from dataclasses import dataclass, field

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
from .util import parallel_map, weighted_sum


@dataclass(frozen=True)
class Weight:
    """Nonnegative values per point, sharing the space's index set."""

    values: np.ndarray

    def __post_init__(self):
        # freeze a private copy: the caller's array stays writeable
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise WgrError("weight values must be a 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise WgrError("weight values must be finite and nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def as_values(w) -> np.ndarray:
    """Accept a Weight or a bare array."""
    if isinstance(w, Weight):
        return w.values
    return Weight(w).values


# Per-ball helpers. They take values already validated by ``as_values`` and
# member arrays from ``ball_members``; public entry points validate once and
# hand the array down, so no weight is re-validated per ball.


def _induced(space: FiniteMetricMeasureSpace, values: np.ndarray, members: np.ndarray) -> float:
    if members.size == 0:
        return 0.0
    return weighted_sum(values[members], space.mass[members])


def _average(space: FiniteMetricMeasureSpace, values: np.ndarray, members: np.ndarray) -> float:
    mu = space.set_measure(members)
    if mu <= 0.0:
        raise EmptyAverageError("average over a set of zero measure")
    return _induced(space, values, members) / mu


def _pos_osc(
    space: FiniteMetricMeasureSpace, values: np.ndarray, ball: Ball, sigma: float
) -> float:
    c = _average(space, values, space.ball_members(ball.center, sigma * ball.radius))
    members = space.ball_members(ball.center, ball.radius)
    return weighted_sum(np.maximum(values[members] - c, 0.0), space.mass[members])


def _neg_osc_avg(
    space: FiniteMetricMeasureSpace, values: np.ndarray, ball: Ball, sigma: float
) -> float:
    c = _average(space, values, space.ball_members(ball.center, sigma * ball.radius))
    members = space.ball_members(ball.center, ball.radius)
    mu = space.set_measure(members)
    if mu <= 0.0:
        raise EmptyAverageError("negative oscillation over an empty ball")
    return weighted_sum(np.maximum(c - values[members], 0.0), space.mass[members]) / mu


def induced_measure(space: FiniteMetricMeasureSpace, w, members) -> float:
    """w(A) = sum over A of w * mass."""
    return _induced(space, as_values(w), np.asarray(members))


def average(space: FiniteMetricMeasureSpace, w, members) -> float:
    """Integral average of w over a set of positive measure."""
    return _average(space, as_values(w), np.asarray(members))


def pos_oscillation(space: FiniteMetricMeasureSpace, w, ball: Ball, sigma: float) -> float:
    """int_B (w - w_S)_+ dmu with S = sigma B."""
    return _pos_osc(space, as_values(w), ball, sigma)


def neg_oscillation_avg(space: FiniteMetricMeasureSpace, w, ball: Ball, sigma: float) -> float:
    """avg_B (w - w_S)_- with S = sigma B."""
    return _neg_osc_avg(space, as_values(w), ball, sigma)


@dataclass
class ConditionReport:
    """Supremum of per-ball ratios with the attaining witness.

    ``per_ball`` keeps every evaluated (ball, ratio) pair in canonical
    order; ``skipped`` lists zero-denominator balls (their ratio is 0).
    """

    value: float
    witness_ball: Ball | None
    per_ball: list[tuple[Ball, float]] = field(default_factory=list)
    skipped: list[Ball] = field(default_factory=list)

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
        skipset = {(b.center, b.radius) for b in self.skipped}
        return [
            (b.center, b.radius, ratio, int((b.center, b.radius) in skipset))
            for b, ratio in self.per_ball
        ]


def family_balls(family) -> tuple[list[Ball], float | None]:
    """Normalize a BallFamily or plain ball iterable to (balls, sigma)."""
    if isinstance(family, BallFamily):
        return list(family.members), family.sigma
    return list(family), None


def _resolve_sigma(family, sigma) -> float:
    if sigma is None:
        if isinstance(family, BallFamily):
            return family.sigma
        raise InvalidParameterError("sigma is required for a plain ball list")
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


def wgr_epsilon(
    space: FiniteMetricMeasureSpace, w, family, sigma: float | None = None, threads: int = 1
) -> ConditionReport:
    """sup_B int_B (w - w_S)_+ dmu / w(S), the positive-part condition."""
    balls, fam_sigma = family_balls(family)
    sigma = _resolve_sigma(family, sigma if sigma is not None else fam_sigma)
    values = as_values(w)

    def one(ball: Ball) -> tuple[float, bool]:
        denom = _induced(space, values, space.ball_members(ball.center, sigma * ball.radius))
        if denom <= 0.0:
            return 0.0, True
        return _pos_osc(space, values, ball, sigma) / denom, False

    return _sup_report(balls, parallel_map(one, balls, threads))


def wgr_minus_epsilon(
    space: FiniteMetricMeasureSpace, w, family, sigma: float | None = None, threads: int = 1
) -> ConditionReport:
    """sup_B avg_B (w - w_S)_- / w_S, the negative-part condition."""
    balls, fam_sigma = family_balls(family)
    sigma = _resolve_sigma(family, sigma if sigma is not None else fam_sigma)
    values = as_values(w)

    def one(ball: Ball) -> tuple[float, bool]:
        denom = _average(space, values, space.ball_members(ball.center, sigma * ball.radius))
        if denom <= 0.0:
            return 0.0, True
        return _neg_osc_avg(space, values, ball, sigma) / denom, False

    return _sup_report(balls, parallel_map(one, balls, threads))


def gr_epsilon(space: FiniteMetricMeasureSpace, w, ball_set, threads: int = 1) -> ConditionReport:
    """sup_B int_B |w - w_B| dmu / w(B), the absolute-oscillation condition."""
    balls, _ = family_balls(ball_set)
    values = as_values(w)

    def one(ball: Ball) -> tuple[float, bool]:
        members = space.ball_members(ball.center, ball.radius)
        denom = _induced(space, values, members)
        if denom <= 0.0:
            return 0.0, True
        c = denom / space.set_measure(members)
        num = weighted_sum(np.abs(values[members] - c), space.mass[members])
        return num / denom, False

    return _sup_report(balls, parallel_map(one, balls, threads))


def weak_ainfty_beta(
    space: FiniteMetricMeasureSpace,
    w,
    family,
    alpha: float,
    sigma: float | None = None,
    threads: int = 1,
) -> ConditionReport:
    """sup_B w(B n {alpha w >= w_S}) / w(S) for a fixed alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0,1), got {alpha}")
    balls, fam_sigma = family_balls(family)
    sigma = _resolve_sigma(family, sigma if sigma is not None else fam_sigma)
    values = as_values(w)

    def one(ball: Ball) -> tuple[float, bool]:
        ref = space.ball_members(ball.center, sigma * ball.radius)
        denom = _induced(space, values, ref)
        if denom <= 0.0:
            return 0.0, True
        c = denom / space.set_measure(ref)
        members = space.ball_members(ball.center, ball.radius)
        level = members[alpha * values[members] >= c]
        return _induced(space, values, level) / denom, False

    return _sup_report(balls, parallel_map(one, balls, threads))


def sublevel_alpha(
    space: FiniteMetricMeasureSpace,
    w,
    family,
    beta: float,
    sigma: float | None = None,
    threads: int = 1,
) -> ConditionReport:
    """sup_B mu(B n {w <= beta w_S}) / mu(B) for a fixed beta in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")
    balls, fam_sigma = family_balls(family)
    sigma = _resolve_sigma(family, sigma if sigma is not None else fam_sigma)
    values = as_values(w)

    def one(ball: Ball) -> tuple[float, bool]:
        ref = space.ball_members(ball.center, sigma * ball.radius)
        denom_w = _induced(space, values, ref)
        if denom_w <= 0.0:
            return 0.0, True
        c = denom_w / space.set_measure(ref)
        members = space.ball_members(ball.center, ball.radius)
        level = members[values[members] <= beta * c]
        return space.set_measure(level) / space.set_measure(members), False

    return _sup_report(balls, parallel_map(one, balls, threads))


def rhi_constant(
    space: FiniteMetricMeasureSpace,
    w,
    family,
    p: float,
    rhs_ball: str = "sigma_dilate",
    sigma: float | None = None,
    eta: float | None = None,
    threads: int = 1,
) -> ConditionReport:
    """sup_B (avg_B w^p)^(1/p) / avg_R w with R the reference dilate.

    ``rhs_ball = "sigma_dilate"`` references ``sigma B``; ``"sigma_hat"``
    references ``sigma (1+eta) B`` and needs ``eta``.
    """
    if not p > 1:
        raise InvalidExponentError(f"reverse Holder exponent must be > 1, got {p}")
    balls, fam_sigma = family_balls(family)
    sigma = _resolve_sigma(family, sigma if sigma is not None else fam_sigma)
    if rhs_ball == "sigma_dilate":
        factor = sigma
    elif rhs_ball == "sigma_hat":
        if eta is None:
            if isinstance(family, BallFamily):
                eta = family.eta
            else:
                raise InvalidParameterError("sigma_hat reference needs eta")
        factor = sigma * (1.0 + eta)
    else:
        raise InvalidParameterError(f"unknown rhs_ball {rhs_ball!r}")
    values = as_values(w)

    def one(ball: Ball) -> tuple[float, bool]:
        ref = space.ball_members(ball.center, factor * ball.radius)
        denom_w = _induced(space, values, ref)
        if denom_w <= 0.0:
            return 0.0, True
        rhs = denom_w / space.set_measure(ref)
        members = space.ball_members(ball.center, ball.radius)
        mean_p = weighted_sum(values[members] ** p, space.mass[members]) / space.set_measure(
            members
        )
        return mean_p ** (1.0 / p) / rhs, False

    return _sup_report(balls, parallel_map(one, balls, threads))
