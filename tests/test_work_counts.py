"""Work counters: distance rows and run geometry are computed once, not per ball or per check.

The counts are exact and deterministic, so these tests guard the
shared-membership and run-context design against regressions.
"""
from collections import Counter
from pathlib import Path

import pytest

from wgrkit import Ball, build_family, cli
from wgrkit.examples import random_weight
from wgrkit.space import FiniteMetricMeasureSpace, grid_nd
from wgrkit.weights import (
    gr_epsilon,
    rhi_constant,
    sublevel_alpha,
    weak_ainfty_beta,
    wgr_epsilon,
    wgr_minus_epsilon,
)

SMOKE = Path(__file__).parent.parent / "configs" / "smoke.json"


@pytest.fixture
def row_calls(monkeypatch):
    """Centers of every FiniteMetricMeasureSpace.dist_row call, in call order."""
    calls: list[int] = []
    original = FiniteMetricMeasureSpace.dist_row

    def counting(self, center):
        calls.append(int(center))
        return original(self, center)

    monkeypatch.setattr(FiniteMetricMeasureSpace, "dist_row", counting)
    return calls


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
def test_functional_pass_computes_each_row_once(functional, row_calls):
    space = grid_nd(2, 12, 1.0, "chebyshev")
    family = build_family(space, Ball(78, 3.0), eta=1.0, sigma=1.5)
    w = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.4}, 3)
    row_calls.clear()
    functional(space, w, family)
    centers = {b.center for b in family.members}
    assert set(row_calls) <= centers
    assert max(Counter(row_calls).values()) == 1


def test_run_resolves_base_ball_once_and_never_repeats_a_row(row_calls, monkeypatch, tmp_path):
    resolved = []
    original = cli.resolve_base_ball

    def counting(space, geometry):
        resolved.append(geometry)
        return original(space, geometry)

    monkeypatch.setattr(cli, "resolve_base_ball", counting)
    cfg = cli.load_config(str(SMOKE))
    assert len(cfg["checks"]) > 1
    assert cli.cmd_run(cfg, tmp_path / "out", 1) == 0
    assert len(resolved) == 1
    # every pass walks its balls center by center, so a row computed twice in
    # a row means it was computed per ball instead of once per center
    repeats = [c for prev, c in zip(row_calls, row_calls[1:]) if c == prev]
    assert repeats == []
