"""Whole runs on a line against the generic path.

A *line* (1-d coordinates in id order) takes every ball as an id span and
w(B) from the weight's exact prefix table. Each input here runs through
``cli.main`` twice: once as is, and once with ``is_line`` switched off after
the space is built, so every layer takes the generic path of ``ball_members``
ids and ``fsum``. Exit code, stdout, stderr and every output byte, manifest
included, must agree.
"""
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import philox
from wgrkit import cli, grid_1d
from wgrkit.space import FiniteMetricMeasureSpace
from wgrkit.util import dumps_canonical

DECAY = [{"name": "jn_decay", "params": {"count": 8, "factor": 4.0}},
         *({"name": name, "params": {"p": 1.5}}
           for name in ("osc_power_bound", "weak_rhi", "cover_rhi"))]
FUNCTIONALS = [{"name": name, "params": {}}
               for name in ("wgr", "wgr_minus", "gr", "weak_ainfty", "sublevel", "rhi")]
IMPLICATIONS = [
    {"name": "superlevel_bound", "params": {"lambda": 0.9}},
    {"name": "osc_from_superlevel", "params": {"alpha": 0.5}},
    {"name": "sublevel_bound", "params": {"lambda": 0.9}},
    {"name": "neg_osc_from_sublevel", "params": {"beta": 0.5}},
]
CZ = [["cz", "nested"], ["cz", "decompose"]]


def _custom(points, mass, weight):
    space = {"points": [[x] for x in points], "distance_matrix": None, "mass": list(mass),
             "metric_kind": "euclidean"}
    return {"kind": "custom", "params": {"space": space, "weight": list(weight)}}


def _lognormal():
    return {"instance": {"kind": "lognormal", "interval": [0.0, 48.0, 48],
                         "params": {"mu": 0.0, "sigma": 0.3}, "seed": 7},
            "geometry": {"sigma": 1.5, "eta": 1.0,
                         "base_ball": {"center": "central", "radius": "auto"}},
            "checks": DECAY + FUNCTIONALS + IMPLICATIONS,
            "rng": {"algorithm": "philox4x64-10", "seed": 7}}, [["run"]]


def _spike():
    space = grid_1d(0.0, 256.0, 256)
    f = 0.001 * (1.0 + philox(3).random(256))
    f[128] = 60.0
    return {"instance": _custom(space.coords[:, 0].tolist(), space.mass, f),
            "geometry": {"sigma": 1.0, "eta": 4.0, "base_ball": {"center": 128, "radius": 25.5}},
            "checks": [], "cz": {"level_fraction": 0.1, "level_fraction_hi": 0.6}}, CZ


def _ties():
    gen = philox(11)
    points = sorted(gen.integers(0, 40, size=60).tolist())
    mass = gen.choice([0.1, 0.25, 1.0 / 3.0, 1.0, 3.0], size=60)
    return {"instance": _custom(points, mass, gen.lognormal(0.0, 0.5, size=60)),
            "geometry": {"sigma": 1.5, "eta": 2.0, "base_ball": {"center": 30, "radius": 10.0}},
            "checks": DECAY + FUNCTIONALS + IMPLICATIONS}, [["run"]]


def _overflow():
    return {"instance": _custom([k + 0.5 for k in range(16)], [2.0] * 16, [1e308] * 16),
            "geometry": {"sigma": 1.5, "eta": 1.0, "base_ball": {"center": 8, "radius": 4.0}},
            "checks": FUNCTIONALS + DECAY}, [["run"], ["cz", "decompose"]]


def _outputs(out):
    if out.is_dir():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return {out.name: out.read_bytes()} if out.exists() else {}


@pytest.mark.parametrize("instance", [_lognormal, _spike, _ties, _overflow],
                         ids=lambda make: make.__name__[1:])
def test_a_line_run_matches_its_generic_twin_byte_for_byte(instance, tmp_path, monkeypatch,
                                                            capsys):
    cfg, commands = instance()
    cfg["output"] = {"directory": str(tmp_path / "unused"), "formats": ["json", "csv"]}
    cli.validate_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(dumps_canonical(cfg))
    init, spans = FiniteMetricMeasureSpace.__init__, FiniteMetricMeasureSpace.ball_spans
    spans_calls: list[int] = []

    def counting_spans(self, *args):
        spans_calls.append(1)
        return spans(self, *args)

    def generic(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.is_line = False

    monkeypatch.setattr(FiniteMetricMeasureSpace, "ball_spans", counting_spans)
    runs = {}
    for twin in (False, True):
        spans_calls.clear()
        with monkeypatch.context() as patch:
            if twin:
                patch.setattr(FiniteMetricMeasureSpace, "__init__", generic)
            for command in commands:
                out = tmp_path / ("out" if command == ["run"] else "out.json")
                code = cli.main([*command, "--config", str(path), "--out", str(out)])
                std = capsys.readouterr()
                runs.setdefault(twin, []).append((code, std.out, std.err, _outputs(out)))
                if out.is_dir():
                    shutil.rmtree(out)
                else:
                    out.unlink(missing_ok=True)
        assert bool(spans_calls) is not twin
    assert runs[False] == runs[True]
    assert any(files for *_, files in runs[False])


@st.composite
def _cz_lines(draw):
    """A CZ config on a line: a unit grid with repeated points, unequal masses, a
    spike or a lognormal weight, and one of several eta and level fractions. The
    masses stay within 0.1% of each other, which keeps the doubling constant near
    3, and so the admissible level within the weight's range on a few hundred points."""
    n = draw(st.integers(256, 320))
    # ties outside B0: inside it, a tie and its neighbour's double would raise the constant to 4
    ties = draw(st.lists(st.integers(0, n // 8), min_size=1, max_size=4))
    points = sorted([*range(n - len(ties)), *ties])
    masses = st.sampled_from([1.0, 1.0 + 2.0**-20, 1.0 - 2.0**-12, 1.0 + 2.0**-10 / 3.0])
    mass = draw(st.lists(masses, min_size=n, max_size=n))
    gen = philox(draw(st.integers(0, 2**16)))
    center, radius = n // 2, draw(st.sampled_from([0.1, 0.15, 0.2])) * n
    if draw(st.booleans()):
        weight = 0.001 * (1.0 + gen.random(n))
        spikes = st.integers(center - int(radius) + 1, center + int(radius) - 1)
        weight[draw(st.lists(spikes, min_size=1, max_size=2))] = 60.0
    else:
        weight = gen.lognormal(0.0, draw(st.sampled_from([1.0, 2.0, 3.0])), size=n)
    return {"instance": _custom(points, mass, weight),
            "geometry": {"sigma": 1.0, "eta": draw(st.sampled_from([4.0, 8.0])),
                         "base_ball": {"center": center, "radius": radius}},
            "checks": [],
            "cz": {"level_fraction": draw(st.sampled_from([0.05, 0.1, 0.3])),
                   "level_fraction_hi": draw(st.sampled_from([0.5, 0.6, 0.9]))}}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_cz_lines())
def test_a_generated_cz_line_matches_its_generic_twin_byte_for_byte(cfg, tmp_path, capsys):
    """``cz nested`` and ``cz decompose`` on a generated line config, as is and with
    ``is_line`` off: the same exit codes, stdout, stderr and output bytes, a failed
    precondition's message included, and only the first run takes spans."""
    cfg["output"] = {"directory": str(tmp_path / "unused"), "formats": ["json"]}
    path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    path.write_text(dumps_canonical(cfg))
    init, spans = FiniteMetricMeasureSpace.__init__, FiniteMetricMeasureSpace.ball_spans
    runs, spans_calls = {}, []

    def generic(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.is_line = False

    for twin in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FiniteMetricMeasureSpace, "ball_spans",
                          lambda self, *args: spans_calls.append(twin) or spans(self, *args))
            if twin:
                patch.setattr(FiniteMetricMeasureSpace, "__init__", generic)
            for command in CZ:
                code = cli.main([*command, "--config", str(path), "--out", str(out)])
                runs.setdefault(twin, []).append((code, *capsys.readouterr(), _outputs(out)))
                out.unlink(missing_ok=True)
    assert runs[False] == runs[True]
    assert spans_calls and not any(spans_calls)


@st.composite
def _decay_lines(draw):
    """A ``run`` config on a line with the four decay checks: tied coordinates,
    unequal masses, a nearly constant weight that may have a bump and vanish on a
    stretch, and the cover's eps measured or given. About half the draws reach the
    cover's pieces, some failing at one; the rest fail a precondition."""
    n = draw(st.integers(40, 72))
    ties = draw(st.lists(st.integers(0, n - 1), max_size=5))
    points = sorted([*range(n - len(ties)), *ties])
    mass = draw(st.lists(st.sampled_from([1.0, 1.0 + 2.0**-20, 1.5]), min_size=n, max_size=n))
    weight = philox(draw(st.integers(0, 2**16))).lognormal(
        0.0, draw(st.sampled_from([0.0005, 0.02])), size=n)
    if draw(st.booleans()):  # a bump, at which a cover piece fails at a tiny given eps
        weight[draw(st.integers(3 * n // 8, 5 * n // 8))] *= 1.5
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        weight[start:start + draw(st.integers(1, n // 3))] = 0.0
    cover = {"name": "cover_rhi", "params": {"p": 1.5, **draw(st.sampled_from([{}, {"eps": 1e-12}]))}}
    return {"instance": _custom(points, mass, weight),
            "geometry": {"sigma": draw(st.sampled_from([1.25, 1.5])),
                         "eta": draw(st.sampled_from([1.0, 2.0])),
                         "base_ball": {"center": n // 2,
                                       "radius": draw(st.sampled_from([0.2, 0.25])) * n}},
            "checks": [*DECAY[:3], cover]}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_decay_lines())
def test_a_generated_decay_run_on_a_line_matches_its_generic_twin_byte_for_byte(
        cfg, tmp_path, capsys):
    """``run`` with the four decay checks, ``cover_rhi`` among them, on a generated
    line config, as is and with ``is_line`` off: the same exit code, stdout, stderr
    and output bytes, manifest included, and only the first run takes spans."""
    cfg["output"] = {"directory": str(tmp_path / "unused"), "formats": ["json", "csv"]}
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(dumps_canonical(cfg))
    init, spans = FiniteMetricMeasureSpace.__init__, FiniteMetricMeasureSpace.ball_spans
    runs, spans_calls = {}, []

    def generic(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.is_line = False

    for twin in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FiniteMetricMeasureSpace, "ball_spans",
                          lambda self, *args: spans_calls.append(twin) or spans(self, *args))
            if twin:
                patch.setattr(FiniteMetricMeasureSpace, "__init__", generic)
            code = cli.main(["run", "--config", str(path), "--out", str(out)])
            runs[twin] = (code, *capsys.readouterr(), _outputs(out))
            shutil.rmtree(out, ignore_errors=True)
    assert runs[False] == runs[True]
    assert runs[False][3] and spans_calls and not any(spans_calls)
