"""Work counters: repeated work is done once, not per ball, per check or per level.

Distance rows (all-pairs scans read row blocks, never one row per
point), run geometry, the base family, the CZ family table, the measure
of each ball, the oscillation constant of a ball system and the ratio of a
ball that several measuring sets share are each computed once. The
counts are exact and deterministic, so these tests guard the design
against regressions.
"""
import argparse
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import philox
from wgrkit import Ball, build_family, cli, czdecomp, theorems, weights
from wgrkit.balls import five_r_cover
from wgrkit.examples import random_weight
from wgrkit.space import (
    BLOCK_DISTANCES,
    FiniteMetricMeasureSpace,
    doubling_profile,
    grid_1d,
    grid_nd,
)
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


def test_a_second_functional_over_a_family_computes_no_row(row_calls):
    """The first pass keeps B's ids in the weight's table; later passes over
    the same family read B from it, and w(S) from the weight's sums."""
    space = grid_nd(2, 12, 1.0, "chebyshev")
    family = build_family(space, Ball(78, 3.0), eta=1.0, sigma=1.5)
    w = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.4}, 3)
    row_calls.clear()
    wgr_epsilon(space, w, family)
    assert set(row_calls) == {b.center for b in family.members}
    row_calls.clear()
    wgr_minus_epsilon(space, w, family)
    gr_epsilon(space, w, family)
    sublevel_alpha(space, w, family, 0.5)
    rhi_constant(space, w, family, 2.0)
    weak_ainfty_beta(space, w, family, 0.5)
    assert row_calls == []


def test_min_positive_distance_reads_row_blocks_not_rows(row_calls, monkeypatch):
    grid = grid_nd(2, 20, 1.0, "chebyshev")
    # a table space scans all pairs; a coordinate space sweeps (see the next test)
    space = FiniteMetricMeasureSpace(grid.mass, distance_matrix=grid.dist_block(slice(None)))
    block_shapes = []
    original = FiniteMetricMeasureSpace.dist_block

    def counting(self, rows, cols=None):
        out = original(self, rows, cols)
        block_shapes.append(out.shape)
        return out

    monkeypatch.setattr(FiniteMetricMeasureSpace, "dist_block", counting)
    assert space.min_positive_distance() == 1.0
    assert space.min_positive_distance(np.arange(0, 400, 7)) == 1.0
    assert row_calls == []
    # 400 x 400 distances in blocks of at most 2^14: ten blocks, then one
    assert block_shapes == [(40, 400)] * 10 + [(58, 58)]
    assert max(r * c for r, c in block_shapes) <= BLOCK_DISTANCES


def test_closest_pair_sweep_reads_two_lags_of_a_1d_grid_not_all_pairs(row_calls, monkeypatch):
    space = grid_1d(0.0, 4096.0, 4096)
    sizes = []
    original = FiniteMetricMeasureSpace._distances

    def counting(self, here, there):
        out = original(self, here, there)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(FiniteMetricMeasureSpace, "_distances", counting)
    assert space.min_positive_distance() == 1.0
    assert row_calls == []
    # lag 1: first-axis bounds, then distances; at lag 2 every bound exceeds 1
    assert sizes == [4095, 4095, 4094]


def test_run_resolves_base_ball_once_and_never_repeats_a_row(row_calls, monkeypatch, tmp_path):
    resolved = []
    original = cli.resolve_base_ball

    def counting(space, geometry):
        resolved.append(geometry)
        return original(space, geometry)

    monkeypatch.setattr(cli, "resolve_base_ball", counting)
    cfg = cli.load_config(str(SMOKE))
    assert len(cfg["checks"]) > 1
    assert cli.cmd_run(cli.RunContext(cfg), tmp_path / "out") == 0
    assert len(resolved) == 1
    # every pass walks its balls center by center, so a row computed twice in
    # a row means it was computed per ball instead of once per center
    repeats = [c for prev, c in zip(row_calls, row_calls[1:]) if c == prev]
    assert repeats == []


def _counting(monkeypatch, owner, name, calls):
    """Replace ``owner.name`` by a wrapper that appends its arguments to ``calls``."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.fixture
def evaluated(monkeypatch):
    """The balls each functional pass evaluates, one list per pass, each
    ball as (center, radius, factor); a ratio the table holds is not listed."""
    passes: list[list[tuple]] = []
    original = weights._ball_map

    def recording(space, values, balls, factor, ratio, **kwargs):
        passes.append([(b.center, b.radius, factor) for b in balls])
        return original(space, values, balls, factor, ratio, **kwargs)

    monkeypatch.setattr(weights, "_ball_map", recording)
    return passes


def _cz_config(tmp_path) -> dict:
    """A schema-valid config: a 1-d spike instance with an admissible CZ level window."""
    space = grid_1d(0.0, 256.0, 256)
    f = 0.001 * (1.0 + philox(3).random(256))
    f[128] = 60.0
    cfg = {
        "instance": {"kind": "custom", "params": {"space": space.to_json_obj(), "weight": f.tolist()}},
        "geometry": {"sigma": 1.0, "eta": 4.0, "base_ball": {"center": 128, "radius": 25.5}},
        "checks": [],
        "output": {"directory": str(tmp_path / "out")},
        "cz": {"level_fraction": 0.1, "level_fraction_hi": 0.6},
    }
    cli.validate_config(cfg)
    return cfg


@pytest.mark.parametrize("nested", [True, False])
def test_cz_builds_one_family_table_and_one_maximal_function(nested, monkeypatch, tmp_path):
    cfg = _cz_config(tmp_path)
    tables, maximal = [], []
    _counting(monkeypatch, czdecomp._FamilyAverages, "__init__", tables)
    _counting(monkeypatch, czdecomp, "maximal_function", maximal)
    assert cli.cmd_cz(cli.RunContext(cfg), tmp_path / "cz_out.json", nested=nested) == 0
    assert len(tables) == 1
    assert len(maximal) == 1


@pytest.mark.parametrize("nested", [True, False])
def test_cz_sweeps_each_family_center_once(nested, monkeypatch, tmp_path, row_calls):
    """On a 2-d grid the averages table sweeps each family center once, and
    the closure profile reads the measures that sweep stored. On a line the
    table takes every family and closure ball as a span: no sweep, no ball
    query and no distance row for any of them."""
    grid = grid_nd(2, 12, 1.0, "chebyshev")
    grid_family = build_family(grid, Ball(78, 2.5), eta=1.0, sigma=1.0)
    cfg = _cz_config(tmp_path)
    ctx = cli.RunContext(cfg)
    family_keys = {(b.center, b.radius) for b in ctx.family.members}
    sweeps: list[tuple] = []
    queries: list[tuple] = []
    _counting(monkeypatch, FiniteMetricMeasureSpace, "ball_prefixes", sweeps)
    _counting(monkeypatch, FiniteMetricMeasureSpace, "ball_members", queries)

    w = random_weight(grid, "lognormal", {"mu": 0.0, "sigma": 0.4}, 3)
    czdecomp.maximal_function(grid, w, grid_family)
    czdecomp.closure_profile(grid, grid_family)
    swept = Counter(int(c) for _, c, _ in sweeps)
    assert swept == Counter({b.center: 1 for b in grid_family.members})
    closure = set(czdecomp.closure_keys(grid_family))
    closure |= {(c, 2.0 * r) for c, r in closure}
    assert not {(int(c), float(r)) for _, c, r in queries} & (set(grid_family.members) | closure)

    sweeps.clear()
    queries.clear()
    row_calls.clear()
    assert ctx.space.is_line
    assert cli.cmd_cz(ctx, tmp_path / "cz_out.json", nested=nested) == 0
    assert sweeps == []
    closure = set(czdecomp.closure_keys(ctx.family))
    closure |= {(c, 2.0 * r) for c, r in closure}
    queried = {(int(c), float(r)) for _, c, r in queries}
    assert not queried & (family_keys | closure)
    # the rows computed are the base ball's and the 5-dilates' of the stopping balls
    out = json.loads((tmp_path / "cz_out.json").read_text())
    levels = [out["low"], out["high"]] if nested else [out]
    stopping = {b["center"] for level in levels for b in level["balls"]}
    assert set(row_calls) <= {ctx.family.base_ball.center} | stopping


def test_run_builds_the_base_family_once(monkeypatch, tmp_path):
    builds: list[tuple] = []
    for owner in (cli, theorems):
        _counting(monkeypatch, owner, "build_family", builds)
    cfg = cli.load_config(str(SMOKE))
    assert {"jn_decay", "wgr"} <= {entry["name"] for entry in cfg["checks"]}
    assert cli.cmd_run(cli.RunContext(cfg), tmp_path / "out") == 0
    assert len(builds) == 1  # the ball system reuses the context's family


def test_doubling_profile_measures_each_ball_once(monkeypatch):
    """Off a line each ball and double is summed once, from one query;
    on a line all of them are measured in one batch of spans."""
    queries: list[tuple] = []
    spans: list[tuple] = []
    # a measure the mu(B) memo lacks is summed from one query
    _counting(monkeypatch, FiniteMetricMeasureSpace, "ball_members", queries)
    _counting(monkeypatch, FiniteMetricMeasureSpace, "ball_spans", spans)
    for space in (grid_nd(2, 8, 1.0, "euclidean"), grid_1d(0.0, 64.0, 64)):
        family = build_family(space, Ball(space.n_points // 2, 3.0), eta=1.0, sigma=1.5)
        balls = czdecomp.closure_keys(family)
        queries.clear()
        doubling_profile(space, balls)
        expected = set(balls) | {(c, 2.0 * r) for c, r in balls}
        if space.is_line:
            assert queries == [] and len(spans) == 1
            _, centers, radii = spans[0]
            assert set(zip(centers, radii)) == expected
        else:
            keys = Counter((int(c), float(r)) for _, c, r in queries)
            assert max(keys.values()) == 1
            assert set(keys) == expected


def _decay_config(tmp_path, checks) -> dict:
    cfg = {
        "instance": {
            "kind": "lognormal",
            "interval": [0, 64, 64],
            "params": {"mu": 0.0, "sigma": 0.001},
            "seed": 1,
        },
        "geometry": {"sigma": 1.25, "eta": 1.0, "base_ball": {"center": "central", "radius": "auto"}},
        "checks": checks,
        "output": {"directory": str(tmp_path / "out")},
    }
    cli.validate_config(cfg)
    return cfg


def test_decay_checks_measure_the_base_eps_once(evaluated, tmp_path):
    cfg = {
        "instance": {
            "kind": "lognormal",
            "interval": [0, 64, 64],
            "params": {"mu": 0.0, "sigma": 0.001},
            "seed": 1,
        },
        "geometry": {"sigma": 1.25, "eta": 1.0, "base_ball": {"center": "central", "radius": "auto"}},
        "checks": [
            {"name": "jn_decay", "params": {"count": 5}},
            {"name": "osc_power_bound", "params": {"p": 1.5}},
            {"name": "weak_rhi", "params": {"p": 1.5}},
            {"name": "cover_rhi", "params": {"p": 1.5}},
        ],
        "output": {"directory": str(tmp_path / "out")},
    }
    cli.validate_config(cfg)
    ctx = cli.RunContext(cfg)
    geometry = cfg["geometry"]
    base = cli.resolve_base_ball(ctx.space, geometry)
    measuring = theorems.build_ball_system(
        ctx.space, build_family(ctx.space, base, geometry["eta"], geometry["sigma"])
    ).measuring
    assert cli.cmd_run(ctx, tmp_path / "out") == 0
    # every check reads eps from the run's ratios: each measuring ball is evaluated once
    counts = Counter(ball for balls in evaluated for ball in balls)
    assert [counts[(b.center, b.radius, geometry["sigma"])] for b in measuring] == [1] * len(
        measuring)
    for entry in cfg["checks"]:
        report = json.loads((tmp_path / "out" / f"check_{entry['name']}.json").read_text())
        assert report["params"]["eps_measured"] is True


#: The six functionals and the four implication checkers, functionals first.
_FAMILY_CHECKS = [
    ("wgr", {}),
    ("wgr_minus", {}),
    ("gr", {}),
    ("weak_ainfty", {"alpha": 0.5}),
    ("sublevel", {"beta": 0.5}),
    ("rhi", {"p": 2.0}),
    ("superlevel_bound", {"lambda": 0.9}),
    ("osc_from_superlevel", {"alpha": 0.5}),
    ("sublevel_bound", {"lambda": 0.9}),
    ("neg_osc_from_sublevel", {"beta": 0.5}),
]

#: Ball queries per family ball when each functional and checker queried
#: B and S itself: 13 for the six functionals, 21 for the four checkers.
_UNSHARED_QUERIES_PER_BALL = 13 + 21


def _family_config(tmp_path) -> dict:
    cfg = {
        "instance": {
            "kind": "lognormal", "dimension": 2, "side": 12, "cell": 1.0, "metric": "chebyshev",
            "params": {"geometry": "grid_nd", "mu": 0.0, "sigma": 0.25}, "seed": 1,
        },
        "geometry": {"sigma": 1.5, "eta": 1.0, "base_ball": {"center": "central"}},
        "checks": [{"name": name, "params": params} for name, params in _FAMILY_CHECKS],
        "output": {"directory": str(tmp_path / "out")},
    }
    cli.validate_config(cfg)
    return cfg


def test_family_checks_share_one_table_of_ball_sums(evaluated, monkeypatch, tmp_path):
    cfg = _family_config(tmp_path)
    n_family = len(cli.RunContext(cfg).family.members)
    queries: list[tuple] = []
    _counting(monkeypatch, FiniteMetricMeasureSpace, "ball_members", queries)
    assert cli.cmd_run(cli.RunContext(cfg), tmp_path / "out") == 0
    # one B and one S query per family ball, in the first pass: each later pass
    # reads B's ids from the weight's table, which the pass before it kept
    assert 3 * len(queries) <= _UNSHARED_QUERIES_PER_BALL * n_family
    assert len(queries) <= 2 * n_family + 2
    # each functional evaluates every family ball once; the four checkers
    # measure their constants from those ratios and evaluate none again
    assert [len(balls) for balls in evaluated] == [n_family] * 6 + [0] * 4
    for name in ("superlevel_bound", "osc_from_superlevel", "sublevel_bound",
                 "neg_osc_from_sublevel"):
        report = json.loads((tmp_path / "out" / f"check_{name}.json").read_text())
        assert [v for k, v in report["params"].items() if k.endswith("_measured")] == [True]


def _span_keys(centers, radii) -> list[tuple[int, float]]:
    """The (center, radius) of each entry of one ``ball_spans`` call, in order."""
    return list(zip(np.asarray(centers, dtype=np.intp).tolist(),
                    np.asarray(radii, dtype=float).tolist()))


@contextmanager
def _queries_inside(monkeypatch, owner, name):
    """The (center, radius) of every ball query made inside ``owner.name``, and of
    each entry of its ``ball_spans`` calls, ball by ball."""
    inside, queries = [], []
    original_pass = getattr(owner, name)
    original_query = FiniteMetricMeasureSpace.ball_members
    original_spans = FiniteMetricMeasureSpace.ball_spans

    def flagged(*args, **kwargs):
        inside.append(None)
        try:
            return original_pass(*args, **kwargs)
        finally:
            inside.pop()

    def query(self, center, r):
        if inside:
            queries.append((int(center), float(r)))
        return original_query(self, center, r)

    def spans(self, centers, radii):
        if inside:
            queries.extend(_span_keys(centers, radii))
        return original_spans(self, centers, radii)

    monkeypatch.setattr(owner, name, flagged)
    monkeypatch.setattr(FiniteMetricMeasureSpace, "ball_members", query)
    monkeypatch.setattr(FiniteMetricMeasureSpace, "ball_spans", spans)
    yield queries


def test_cover_pieces_query_each_shared_dilate_once(monkeypatch, tmp_path):
    cfg = _decay_config(tmp_path, [{"name": "cover_rhi", "params": {"p": 1.5}}])
    space = cli.RunContext(cfg).space
    sigma, eta = cfg["geometry"]["sigma"], cfg["geometry"]["eta"]
    base = cli.resolve_base_ball(space, cfg["geometry"])
    system = theorems.build_ball_system(space, build_family(space, base, eta, sigma))
    systems = [system] + [
        theorems.build_ball_system(space, build_family(space, b, eta, sigma), profile=system.profile)
        for b in five_r_cover(space, base, sigma, eta)
    ]
    b_keys = {(b.center, b.radius) for sys_ in systems for b in sys_.measuring}
    dilates = Counter(
        key for sys_ in systems
        for key in {(b.center, sigma * b.radius) for b in sys_.measuring} - b_keys
    )
    shared = [key for key, n in dilates.items() if n > 1]
    assert len(systems) > 2 and shared  # the pieces overlap, so the test has teeth
    assert space.is_line  # so each pass spans its balls: a dilate is spanned and summed once
    with _queries_inside(monkeypatch, weights, "_ball_map") as queries:
        assert cli.cmd_run(cli.RunContext(cfg), tmp_path / "out") == 0
    counts = Counter(queries)
    assert [key for key in dilates if counts[key] != 1] == []
    report = json.loads((tmp_path / "out" / "check_cover_rhi.json").read_text())
    assert report["params"]["eps_measured"] is True


def test_a_second_pass_on_a_line_spans_no_dilate_the_first_summed(monkeypatch):
    """On a line, a pass spans each B it evaluates, and each S only if the
    weight's table lacks w(S): a second functional at the same sigma spans
    its balls alone, and one at another sigma its new dilates too."""
    space = grid_1d(0.0, 64.0, 64)
    family = build_family(space, Ball(32, 16.0), eta=1.0, sigma=1.5)
    balls = [(b.center, b.radius) for b in family.members]
    w = random_weight(space, "lognormal", {"mu": 0.0, "sigma": 0.5}, seed=3)
    spans: list[tuple] = []
    _counting(monkeypatch, FiniteMetricMeasureSpace, "ball_spans", spans)
    wgr_epsilon(space, w, family)
    dilates = {(c, 1.5 * r) for c, r in balls}
    assert len(spans) == 1 and set(_span_keys(*spans[0][1:])) == set(balls) | dilates
    weak_ainfty_beta(space, w, family, 0.5)
    assert len(spans) == 2 and _span_keys(*spans[1][1:]) == balls
    sublevel_alpha(space, w, family, 0.5, sigma=2.0)
    assert set(_span_keys(*spans[2][1:])) == set(balls) | {(c, 2.0 * r) for c, r in balls}


def test_cover_rhi_evaluates_each_measuring_ball_once(evaluated, tmp_path):
    cfg = _decay_config(tmp_path, [{"name": "jn_decay", "params": {"count": 5}},
                                   {"name": "cover_rhi", "params": {"p": 1.5}}])
    ctx = cli.RunContext(cfg)
    pieces = [
        theorems.build_ball_system(ctx.space, build_family(ctx.space, b, ctx.eta, ctx.sigma),
                                   profile=ctx.system.profile)
        for b in five_r_cover(ctx.space, ctx.base, ctx.sigma, ctx.eta)
    ]
    listed = [(b.center, b.radius) for sys_ in [ctx.system, *pieces] for b in sys_.measuring]
    assert len(listed) - len(set(listed)) > 50  # the measuring sets overlap: the test has teeth
    assert cli.cmd_run(ctx, tmp_path / "out") == 0
    counts = Counter(ball for balls in evaluated for ball in balls)
    assert set(counts) == {(c, r, ctx.sigma) for c, r in listed}
    assert max(counts.values()) == 1
    report = json.loads((tmp_path / "out" / "check_cover_rhi.json").read_text())
    assert report["params"]["eps_measured"] is True and report["params"]["n_cover"] == len(pieces)


def test_rhi_equivalence_reuses_the_runs_superlevel_constant_and_sums(
        evaluated, monkeypatch, tmp_path):
    cfg = _family_config(tmp_path)
    cfg["checks"] = [
        {"name": "osc_from_superlevel", "params": {"alpha": 0.5}},
        {"name": "rhi_equivalence_observed",
         "params": {"alpha": 0.5, "beta": 0.1, "p_grid": [1.5, 2.0]}},
    ]
    n_family = len(cli.RunContext(cfg).family.members)
    with _queries_inside(monkeypatch, theorems, "rhi_constant") as queries:
        assert cli.cmd_run(cli.RunContext(cfg), tmp_path / "out") == 0
    # the superlevel constant's pass evaluates the family once, for the
    # checker; the observation reads its ratios, then runs one rhi pass per p
    assert [len(balls) for balls in evaluated] == [n_family, 0, n_family, n_family]
    # each rhi pass queries no ball: B's ids come from the pass before it,
    # w(S) from the weight's sums, mu(S) and mu(B) from the space's memo
    assert queries == []
    report = json.loads((tmp_path / "out" / "check_rhi_equivalence_observed.json").read_text())
    beta = json.loads((tmp_path / "out" / "check_osc_from_superlevel.json").read_text())
    assert report["params"]["measured_beta"] == beta["params"]["beta"]


@contextmanager
def _ball_sums(monkeypatch):
    """A Counter of the mass sums over each ball's ids, by (center, radius).

    A sum is attributed to a ball when ``set_measure`` receives the very id
    array that a ``ball_members`` query computed; every computed array is
    kept alive, so no id is reused. A
    ``ball_spans`` call sums each entry the mu(B) memo lacked, ball by ball.
    """
    queried, held, sums = {}, [], Counter()
    original_query = FiniteMetricMeasureSpace.ball_members
    original_sum = FiniteMetricMeasureSpace.set_measure
    original_spans = FiniteMetricMeasureSpace.ball_spans

    def query(self, center, r):
        out = original_query(self, center, r)
        queried[id(out)] = (int(center), float(r))
        held.append(out)
        return out

    def measure(self, members):
        if id(members) in queried:
            sums[queried[id(members)]] += 1
        return original_sum(self, members)

    def spans(self, centers, radii):
        fresh = {key for key in _span_keys(centers, radii) if key not in self._mu}
        out = original_spans(self, centers, radii)
        sums.update(key for key in fresh if key in self._mu)
        return out

    monkeypatch.setattr(FiniteMetricMeasureSpace, "ball_members", query)
    monkeypatch.setattr(FiniteMetricMeasureSpace, "set_measure", measure)
    monkeypatch.setattr(FiniteMetricMeasureSpace, "ball_spans", spans)
    yield sums


def test_run_sums_the_measure_of_each_ball_once(monkeypatch, tmp_path):
    cfg = cli.load_config(str(SMOKE))
    with _ball_sums(monkeypatch) as sums:
        assert cli.cmd_run(cli.RunContext(cfg), tmp_path / "out") == 0
    assert len(sums) > 300  # the run measures many balls, so the test has teeth
    assert {key: n for key, n in sums.items() if n > 1} == {}


def test_rhi_equivalence_reads_the_measures_the_run_already_summed(monkeypatch):
    cfg = cli.load_config(str(SMOKE))
    names = [entry["name"] for entry in cfg["checks"]]
    assert names.index("jn_decay") < names.index("rhi_equivalence_observed")
    with _queries_inside(monkeypatch, theorems, "doubling_profile") as queries, \
            _ball_sums(monkeypatch) as sums:
        ctx = cli.RunContext(cfg)
        for entry in cfg["checks"][:names.index("rhi_equivalence_observed")]:
            cli.run_check(entry["name"], ctx, entry.get("params", {}))
        before, queries[:] = dict(sums), []
        report, _ = cli.run_check("rhi_equivalence_observed", ctx, {"p_grid": [1.5, 2.0]})
    # the family balls and their doubles were measured by the earlier checks:
    # the observation's doubling profile queries no ball and nothing is summed again
    assert before and queries == []
    assert dict(sums) == before
    assert report.params["c_mu"] >= 1.0


def test_a_subcommand_builds_the_root_parser_and_its_own_alone(monkeypatch, capsys):
    built: list[str] = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog") or "")
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["examples", "list"]) == 0
    assert built == ["wgrkit", "wgrkit examples"]
    built.clear()
    assert cli.main(["examples", "list", "--bogus"]) == 2  # a usage error: the full tree reports it
    assert len(built) == 2 + 1 + len(cli._SUBCOMMANDS)
