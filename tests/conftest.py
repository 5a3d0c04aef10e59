import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wgrkit import Ball, build_family, grid_1d
from wgrkit.examples import random_weight
from wgrkit.space import grid_nd


def small_instance(seed: int):
    """Seeded (space, family, weight) triple on a small grid."""
    kinds = ("lognormal", "two_level", "power")
    kind = kinds[seed % 3]
    if seed % 2 == 0:
        n = 24 + 8 * (seed % 4)
        space = grid_1d(0.0, float(n), n)
        base = Ball(n // 2, n / 4.0)
    else:
        side = 5 + seed % 3
        space = grid_nd(2, side, 1.0, "chebyshev")
        base = Ball(space.n_points // 2, side / 4.0)
    sigma = (1.0, 1.5, 2.0)[seed % 3]
    family = build_family(space, base, eta=1.0, sigma=sigma)
    params = {
        "lognormal": {"mu": 0.0, "sigma": 0.4},
        "two_level": {"low": 1.0, "high": 10.0, "fraction": 0.5},
        "power": {"exponent": (-1.5, 1.0, 2.0)[seed % 3]},
    }[kind]
    w = random_weight(space, kind, params, seed)
    return space, family, w


def philox(seed: int) -> np.random.Generator:
    """numpy's Philox4x64-10 stream keyed by the seed, the stream wgrkit reproduces."""
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.fixture
def rng():
    return philox(123)
