"""CLI: exit codes, artifacts, schema validation, determinism."""
import ast
import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wgrkit import cli, grid_1d
from wgrkit.cli import EXIT_USAGE, main
from conftest import philox
from wgrkit.util import dumps_canonical, sha256_file


SRC = str(Path(cli.__file__).parents[1])
ROOT = Path(__file__).parent.parent


def child_env() -> dict:
    """The caller's environment with this checkout's ``src`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wgrkit.cli", *args], env=child_env(), capture_output=True, text=True
    )


def smoke_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "instance": {
            "kind": "lognormal",
            "interval": [0.0, 48.0, 48],
            "params": {"mu": 0.0, "sigma": 0.3},
            "seed": 7,
        },
        "geometry": {"sigma": 1.5, "eta": 1.0, "base_ball": {"center": "central", "radius": "auto"}},
        "family": {"radius_policy": "geometric2"},
        "checks": [
            {"name": "superlevel_bound", "params": {"lambda": 0.9}},
            {"name": "osc_from_superlevel", "params": {"alpha": 0.5}},
            {"name": "neg_osc_from_sublevel", "params": {"beta": 0.5}},
            {"name": "cavalieri", "params": {"p": 2.0}},
            {"name": "wgr", "params": {}},
        ],
        "output": {"directory": str(tmp_path / "out"), "formats": ["json", "csv"]},
        "rng": {"algorithm": "philox4x64-10", "seed": 7},
    }
    cfg.update(overrides)
    if "rng" not in overrides:  # the stream is keyed by instance.seed, which rng.seed must repeat
        cfg["rng"]["seed"] = cfg["instance"].get("seed", 0)
    path = tmp_path / "cfg.json"
    path.write_text(dumps_canonical(cfg))
    return path


def test_run_smoke_exit_zero(tmp_path):
    cfg = smoke_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]
    for name, digest in manifest["outputs"].items():
        assert (out / name).exists()
        assert sha256_file(out / name) == digest
    report = json.loads((out / "check_superlevel_bound.json").read_text())
    assert report["passed"] is True
    assert {"name", "passed", "vacuous", "margin", "witness", "params"} <= report.keys()


def test_run_malformed_sigma_exits_two(tmp_path):
    cfg = smoke_config(tmp_path, geometry={"sigma": 0.5, "eta": 1.0})
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 2
    assert "sigma" in proc.stderr


def test_run_unknown_check_exits_two(tmp_path):
    cfg_path = smoke_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["checks"] = [{"name": "not_a_check"}]
    cfg_path.write_text(dumps_canonical(cfg))
    proc = run_cli("run", "--config", str(cfg_path))
    assert proc.returncode == 2


def test_unknown_subcommand_exits_two():
    assert run_cli("frobnicate").returncode == 2


def test_sawyer_weak_rhi_threshold_exit_one(tmp_path):
    cfg = smoke_config(
        tmp_path,
        instance={"kind": "sawyer_strip", "dimension": 2, "side": 16, "cell": 1.0},
        checks=[{"name": "weak_rhi", "params": {"p": 2.0}}],
        geometry={"sigma": 2.0, "eta": 1.0, "base_ball": {"center": "central", "radius": 2.0}},
    )
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 1
    report = json.loads((tmp_path / "out" / "check_weak_rhi.json").read_text())
    assert report["passed"] is False
    assert report["params"]["error"] == "ThresholdError"


def test_threads_byte_identical(tmp_path):
    cfg = smoke_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "8"]) == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    cfg = smoke_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
    a = json.loads((tmp_path / "a" / "check_wgr.json").read_text())
    b = json.loads((tmp_path / "b" / "check_wgr.json").read_text())
    assert a["params"]["value"] != b["params"]["value"]
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["seed"] == 99


def test_space_gen_validate_weight_gen(tmp_path):
    cfg = smoke_config(tmp_path)
    space_path = tmp_path / "space.json"
    assert main(["space", "gen", "--config", str(cfg), "--out", str(space_path)]) == 0
    obj = json.loads(space_path.read_text())
    assert obj.keys() == {"points", "distance_matrix", "mass", "metric_kind"}
    assert main(["space", "validate", "--in", str(space_path)]) == 0

    # corrupt the metric: a triangle violation must be reported with exit 1
    bad = {
        "points": None,
        "distance_matrix": [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
        "mass": [1.0, 1.0, 1.0],
        "metric_kind": "table",
    }
    bad_path = tmp_path / "bad_space.json"
    bad_path.write_text(dumps_canonical(bad))
    assert main(["space", "validate", "--in", str(bad_path)]) == 1

    # points without coordinates all lie at distance 0: a degenerate but valid space
    for kind in ("euclidean", "chebyshev"):
        flat = {"points": [[], [], []], "distance_matrix": None, "mass": [1.0, 1.0, 1.0],
                "metric_kind": kind}
        flat_path = tmp_path / f"flat_{kind}.json"
        flat_path.write_text(json.dumps(flat))
        assert main(["space", "validate", "--in", str(flat_path)]) == 0

    weight_path = tmp_path / "weight.json"
    assert main(["weight", "gen", "--config", str(cfg), "--out", str(weight_path)]) == 0
    values = json.loads(weight_path.read_text())["values"]
    assert len(values) == 48


@pytest.mark.parametrize("n_dim,side", [(2, 10), (3, 6)])
def test_generated_euclidean_grid_validates(tmp_path, capsys, n_dim, side):
    instance = {
        "kind": "lognormal", "dimension": n_dim, "side": side, "cell": 1.0, "metric": "euclidean",
        "params": {"geometry": "grid_nd", "mu": 0.0, "sigma": 0.25}, "seed": 3,
    }
    cfg = smoke_config(tmp_path, instance=instance)
    space_path = tmp_path / "space.json"
    assert main(["space", "gen", "--config", str(cfg), "--out", str(space_path)]) == 0
    assert json.loads(space_path.read_text())["metric_kind"] == "euclidean"
    assert main(["space", "validate", "--in", str(space_path)]) == 0
    assert capsys.readouterr().out == "metric axioms hold\n"


@pytest.mark.parametrize(
    "content,cause",
    [
        (None, "FileNotFoundError"),
        ("{not json", "JSONDecodeError"),
        ('{"points": [[0.0]], "metric_kind": "euclidean"}', "KeyError: 'mass'"),
        ("[]", "TypeError: the top level is a list, not an object"),
        ('{"points": [[0.0], [1.0]], "mass": ["x", 1], "metric_kind": "euclidean"}',
         "ValueError: could not convert string to float"),
        ('{"points": [[0.0], [1.0]], "mass": [1, -1], "metric_kind": "euclidean"}',
         "WgrError: masses must be finite and strictly positive"),
        ('{"points": [[0.0], [1.0]], "mass": [1, 1], "metric_kind": "manhattan"}',
         "WgrError: metric_kind must be euclidean or chebyshev, got 'manhattan'"),
        ('{"points": null, "distance_matrix": null, "mass": [1, 1], "metric_kind": "table"}',
         "WgrError: exactly one of coords/distance_matrix is required"),
    ],
    ids=["missing", "not_json", "no_mass", "top_level_list", "mass_not_numeric",
         "mass_negative", "metric_kind_unknown", "no_geometry"],
)
def test_space_validate_unreadable_input_exits_two(tmp_path, capsys, content, cause):
    path = tmp_path / "space.json"
    if content is not None:
        path.write_text(content)
    assert main(["space", "validate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read space {path}: {cause}")


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this checkout's wgrkit."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)


def _perfbench_snippet(name: str) -> str:
    """The string constant ``name`` of perfbench/run.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


@pytest.mark.parametrize("workload", ["functionals-2d", "decay-cover-1d", "cz-nested-1d"])
def test_perfbench_info_snippet_runs_and_gives_the_recorded_sizes(workload, tmp_path):
    """The benchmark's size probe calls the library directly; it still runs
    and reports the sizes recorded for each workload's configuration."""
    record = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"][workload]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(record["config"]))
    proc = subprocess.run([sys.executable, "-c", _perfbench_snippet("INFO_SNIPPET"), str(cfg_path)],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    sizes = {k: record[k] for k in ("n_points", "family_balls", "measuring_balls")}
    assert json.loads(proc.stdout) == sizes


def test_perfbench_tracer_sees_the_functionals_each_check_measures_and_the_coarse_cz_level(
        tmp_path):
    """The benchmark's tracer rebinds each public function in every module that
    holds it. A check reaches its functional, a checker the functional that
    measures its constant, and ``cz_nested`` its coarse level through those
    names, so each call is a span under its caller and the per-layer metrics
    count it."""
    run_cfg = smoke_config(tmp_path, checks=[
        {"name": "wgr", "params": {}},
        {"name": "superlevel_bound", "params": {"lambda": 0.9}},
        {"name": "sublevel_bound", "params": {"lambda": 0.9}},
    ])
    record = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    cz_cfg = tmp_path / "cz.json"
    cz_cfg.write_text(json.dumps(record["cz-nested-1d"]["config"]))
    spans_path = tmp_path / "spans.json"
    code = (
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "from wgrkit import cli\n"
        f"assert cli.main(['run', '--config', {str(run_cfg)!r},"
        f" '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        f"assert cli.main(['cz', 'nested', '--config', {str(cz_cfg)!r},"
        f" '--out', {str(tmp_path / 'cz_out.json')!r}]) == 0\n"
        f"t.dump({str(spans_path)!r})\n"
    )
    env = child_env()
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), env["PYTHONPATH"]]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    # (name, parent's name, the check its parent runs, if it runs one)
    edges = [(name, spans[parent][0], (spans[parent][4] or {}).get("check"))
             for name, _, _, parent, _ in spans if parent >= 0]
    assert ("weights.wgr_epsilon", "cli.run_check", "wgr") in edges
    assert ("weights.wgr_epsilon", "theorems.check_superlevel_bound", None) in edges
    assert ("weights.wgr_minus_epsilon", "theorems.check_sublevel_bound", None) in edges
    assert [e for e in edges if e[0] == "czdecomp.cz_decompose"] == [
        ("czdecomp.cz_decompose", "czdecomp.cz_nested", None)]


def test_importing_the_cli_loads_neither_the_thread_pool_nor_statistics():
    proc = run_python(
        "import sys, wgrkit.cli\n"
        "loaded = [m for m in ('concurrent.futures', 'statistics') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_threads_flag_runs_in_one_thread(tmp_path):
    smoke = Path(__file__).parent.parent / "configs" / "smoke.json"
    proc = run_python(
        "import sys, threading, wgrkit.cli\n"
        f"code = wgrkit.cli.main(['run', '--config', {str(smoke)!r}, '--out', {str(tmp_path / 'run')!r},"
        " '--threads', '8'])\n"
        "assert code == 0, code\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, module", [
    (["cz", "nested"], "hashlib"), (["run"], "numpy.ma"), (["run"], "_hashlib"),
    (["run"], "dataclasses"), (["cz", "nested"], "csv"),
])
def test_invocations_leave_unused_modules_unloaded(tmp_path, command, module):
    # a custom instance draws no random numbers, so nothing but a hash would
    # load hashlib; np.unique would load numpy.ma for the cavalieri check. The
    # manifest is hashed by the built-in sha256, as hashlib's loads OpenSSL
    # (_hashlib); the records are built without dataclasses; cz writes no CSV
    if command[0] == "cz":
        cfg = _cz_spike_config(tmp_path)
    else:
        cfg = smoke_config(tmp_path, checks=[{"name": "cavalieri", "params": {"p": 2.0}}])
    out = tmp_path / "out.json" if command[0] == "cz" else tmp_path / "run"
    proc = run_python(
        "import sys, wgrkit.cli\n"
        f"code = wgrkit.cli.main({[*command, '--config', str(cfg), '--out', str(out)]!r})\n"
        "assert code == 0, code\n"
        f"assert {module!r} not in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_seeded_runs_load_neither_numpy_random_nor_statistics(tmp_path):
    # the stream and the inverse normal CDF need no numpy.random, and no
    # statistics with its fractions and decimal imports
    runs = []
    for kind, params in [("lognormal", {"mu": 0.0, "sigma": 0.3}), ("power", {"exponent": 1.5})]:
        (tmp_path / kind).mkdir()
        instance = {"kind": kind, "interval": [0.0, 48.0, 48], "params": params, "seed": 7}
        cfg = smoke_config(tmp_path / kind, instance=instance, checks=[{"name": "wgr", "params": {}}])
        runs.append((str(cfg), str(tmp_path / kind / "run")))
    proc = run_python(
        "import sys, wgrkit.cli\n"
        f"for cfg, out in {runs!r}:\n"
        "    assert wgrkit.cli.main(['run', '--config', cfg, '--out', out]) == 0\n"
        "loaded = [m for m in ('numpy.random', 'statistics', 'fractions', 'decimal') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("key", ["instance", "rng"])
@pytest.mark.parametrize("seed", [-1, 2**128])
def test_config_seed_outside_the_philox_key_range_exits_two(tmp_path, key, seed):
    cfg = json.loads(smoke_config(tmp_path).read_text())
    cfg[key]["seed"] = seed
    path = tmp_path / "cfg.json"
    path.write_text(dumps_canonical(cfg))
    proc = run_cli("run", "--config", str(path))
    assert proc.returncode == 2
    assert f"at {key}/seed: {seed} is " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("instance_seed, rng_seed, code", [
    (7, 7, 0), (7, None, 0), (7, 99, 2), (None, 0, 0), (None, 7, 2),
])
def test_rng_seed_must_repeat_the_instance_seed(tmp_path, capsys, instance_seed, rng_seed, code):
    cfg = json.loads(smoke_config(tmp_path).read_text())
    cfg["instance"].pop("seed")
    cfg["rng"].pop("seed")
    if instance_seed is not None:
        cfg["instance"]["seed"] = instance_seed
    if rng_seed is not None:
        cfg["rng"]["seed"] = rng_seed
    path = tmp_path / "seeds.json"
    path.write_text(dumps_canonical(cfg))
    out = tmp_path / "w.json"
    # the --seed override comes after the check, so it does not hide a mismatch
    for extra in ([], ["--seed", "5"]):
        assert main(["weight", "gen", "--config", str(path), "--out", str(out), *extra]) == code
        err = capsys.readouterr().err
        assert out.exists() == (code == 0)
        if code:
            assert err == (f"config violates schema: rng/seed {rng_seed} differs from instance/seed "
                           f"{instance_seed or 0}, which alone keys the stream\n")


_PARSER_ARGVS = [
    ["--help"], ["-h"], *([name, "--help"] for name in cli._SUBCOMMANDS),
    ["nope"], ["run", "--bogus"], ["cz"], ["cz", "explode"], ["check"], ["ru"],
    ["weight", "gen", "--seed", "abc"], ["cover", "--threads", "0"], ["--config", "x.json", "run"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_help_and_usage_errors_print_what_the_full_parser_prints(capsys, argv):
    code = main(argv)
    lazy = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert code == (EXIT_USAGE if exc.value.code else 0)
    assert (lazy.out, lazy.err) == (full.out, full.err)
    assert full.out or full.err


def test_no_subcommand_prints_the_full_usage(capsys):
    assert main([]) == 2
    lazy = capsys.readouterr()
    cli.build_parser().print_usage(sys.stderr)
    assert lazy.err == capsys.readouterr().err
    assert "{run,space,weight,check,cz,cover,decay-table,sweep,examples}" in lazy.err


@pytest.mark.parametrize("seed, code", [("-1", 2), (str(2**128), 2), ("0", 0), (str(2**128 - 1), 0)])
def test_seed_flag_takes_what_the_config_key_takes(tmp_path, capsys, seed, code):
    out = tmp_path / "w.json"
    smoke = Path(__file__).parent.parent / "configs" / "smoke.json"
    assert main(["weight", "gen", "--config", str(smoke), "--out", str(out), "--seed", seed]) == code
    assert out.exists() == (code == 0)
    if code:
        assert f"argument --seed: {seed} is " in capsys.readouterr().err


@pytest.mark.parametrize("threads, code", [("-3", 2), ("0", 2), ("1", 0), ("8", 0)])
def test_threads_flag_takes_what_the_config_key_takes(tmp_path, capsys, threads, code):
    out = tmp_path / "w.json"
    smoke = Path(__file__).parent.parent / "configs" / "smoke.json"
    argv = ["weight", "gen", "--config", str(smoke), "--out", str(out), "--threads", threads]
    assert main(argv) == code
    assert out.exists() == (code == 0)
    if code:
        assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize("n_values", [9, 15])
def test_custom_weight_of_the_wrong_length_exits_one(tmp_path, capsys, n_values):
    space = grid_1d(0.0, 12.0, 12)
    cfg = smoke_config(
        tmp_path,
        instance={"kind": "custom",
                  "params": {"space": space.to_json_obj(), "weight": [1.0] * n_values}},
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == (f"InvalidGeneratorError: custom weight has {n_values} values "
                   "for a space of 12 points\n")
    assert not (tmp_path / "run").exists()


def test_sums_past_the_largest_double_fail_their_checks_alone(tmp_path, capsys):
    """Every value 1.5e308, so each ball sum overflows: on a line (spans of the
    prefix table) and on its reversed copy, which is not one (fsum over queried
    ids), each check reports the same OverflowError, byte for byte, and the run
    writes its manifest; the single-check subcommand exits 1 with the error, and
    no traceback is printed."""
    reports = []
    for reverse in (False, True):
        points = [[i + 0.5] for i in range(16)][::-1 if reverse else 1]
        space = {"points": points, "distance_matrix": None, "mass": [1.0] * 16,
                 "metric_kind": "euclidean"}
        cfg = smoke_config(
            tmp_path,
            instance={"kind": "custom", "params": {"space": space, "weight": [1.5e308] * 16}},
            geometry={"sigma": 1.5, "eta": 1.0,
                      "base_ball": {"center": 7 if reverse else 8, "radius": 4.0}},
            checks=[{"name": "wgr", "params": {}}, {"name": "gr", "params": {}}],
        )
        assert cli.RunContext(cli.load_config(str(cfg))).space.is_line is not reverse
        out = tmp_path / f"run{int(reverse)}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("FAILED checks; first failing report: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["check_gr.json", "check_wgr.json"]
        reports.append([(out / f"check_{name}.json").read_bytes() for name in ("wgr", "gr")])
        assert main(["check", "wgr", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 1
        assert capsys.readouterr().err == "OverflowError: intermediate overflow in fsum\n"
    assert reports[0] == reports[1]
    report = json.loads(reports[0][0])
    assert (report["passed"], report["params"], report["notes"]) == (
        False, {"error": "OverflowError"}, "intermediate overflow in fsum")


def test_a_csv_only_run_names_the_failing_check_and_why(tmp_path, capsys):
    """With JSON reports off no file holds a failing check's reason, so the
    failure line names the check and gives its error, or its margin; with
    them on, it names the first failing report."""
    cases = [
        ([{"name": "wgr", "params": {}},
          {"name": "sublevel_bound", "params": {"eps": 0.95, "lambda": 0.9}}],
         "sublevel_bound: InvalidParameterError: need eps < lambda < 1, got eps=0.95, lambda=0.9"),
        ([{"name": "sublevel_bound", "params": {"eps": 0.001, "lambda": 0.002}}],
         "sublevel_bound: margin -0.97"),
    ]
    for i, (checks, why) in enumerate(cases):
        for formats in (["csv"], ["json", "csv"]):
            out = tmp_path / f"run{i}_{len(formats)}"
            cfg = smoke_config(tmp_path, checks=checks,
                               output={"directory": str(out), "formats": formats})
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            written = sorted(p.name for p in out.iterdir())
            if formats == ["csv"]:
                assert err == f"FAILED checks; first failing check: {why}\n"
                assert not [name for name in written if name.endswith(".json")
                            and name != "manifest.json"]
            else:
                report = out / f"check_{checks[-1]['name']}.json"
                assert err == f"FAILED checks; first failing report: {report}\n"
                assert report.name in written


def test_check_subcommand(tmp_path):
    cfg = smoke_config(tmp_path)
    out = tmp_path / "single"
    assert main(["check", "cavalieri", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "check_cavalieri.json").exists()


def test_decay_table_columns(tmp_path):
    cfg = smoke_config(
        tmp_path,
        instance={
            "kind": "custom",
            "params": {"space": None, "weight": None},  # patched below
        },
    )
    # near-constant instance for a meaningful decay table
    space = grid_1d(0.0, 64.0, 64)
    w = (1.0 + 0.001 * np.sin(2 * np.pi * space.coords[:, 0] / 64.0)).tolist()
    obj = json.loads(cfg.read_text())
    obj["instance"]["params"] = {"space": space.to_json_obj(), "weight": w}
    obj["geometry"] = {"sigma": 1.25, "eta": 1.0, "base_ball": {"center": 32, "radius": 16.0}}
    obj["checks"] = [{"name": "jn_decay", "params": {"count": 12, "factor": 3.0}}]
    cfg.write_text(dumps_canonical(obj))
    table = tmp_path / "decay.csv"
    assert main(["decay-table", "--config", str(cfg), "--out", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "lhs_measure", "rhs_bound", "margin", "vacuous"]
    assert len(rows) == 13
    for row in rows[1:]:
        lam, lhs, rhs, margin, vac = map(float, row)
        assert margin == pytest.approx(rhs - lhs, rel=1e-12)


def test_sweep_eps_doubling_cap(tmp_path):
    cfg = smoke_config(tmp_path, sweep={"eps_pow2": list(range(3, 21))})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "eps", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "eps", "a_const", "lambda0", "p_cap"]
    caps = [float(r[4]) for r in rows[1:]]
    for lo, hi in zip(caps, caps[1:]):
        assert hi == 2.0 * lo


def test_sweep_p_and_sigma(tmp_path):
    cfg = smoke_config(
        tmp_path, sweep={"p_grid": [1.5, 2.0, 3.0], "sigma_grid": [1.0, 1.5, 2.0]}
    )
    p_csv = tmp_path / "p.csv"
    assert main(["sweep", "p", "--config", str(cfg), "--out", str(p_csv)]) == 0
    with open(p_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)  # power-mean monotonicity

    s_csv = tmp_path / "s.csv"
    assert main(["sweep", "sigma", "--config", str(cfg), "--out", str(s_csv)]) == 0
    with open(s_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma", "wgr_epsilon"]


def test_cover_subcommand(tmp_path):
    cfg = smoke_config(
        tmp_path,
        geometry={"sigma": 2.0, "eta": 1.0, "base_ball": {"center": "central", "radius": 6.0}},
    )
    out = tmp_path / "cover.csv"
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["center", "radius", "fifth_disjoint_ok", "contained_ok"]
    assert all(r[2] == "1" and r[3] == "1" for r in rows[1:])


def test_cz_subcommands(tmp_path):
    space = grid_1d(0.0, 512.0, 512)
    gen = philox(1)
    f = 0.001 * (1.0 + gen.random(512))
    b0 = np.flatnonzero(np.abs(space.coords[:, 0] - 256.5) < 51.0)
    f[b0[5]] = 60.0
    f[b0[60]] = 45.0
    cfg = smoke_config(
        tmp_path,
        instance={
            "kind": "custom",
            "params": {"space": space.to_json_obj(), "weight": f.tolist()},
        },
        geometry={"sigma": 1.0, "eta": 4.0, "base_ball": {"center": 256, "radius": 51.0}},
        cz={"level_fraction": 0.1, "level_fraction_hi": 0.6},
    )
    dec_path = tmp_path / "dec.json"
    assert main(["cz", "decompose", "--config", str(cfg), "--out", str(dec_path)]) == 0
    obj = json.loads(dec_path.read_text())
    assert obj["properties"] == {"i": "pass", "ii": "pass", "iii": "pass", "iv": "pass"}
    assert obj["balls"]

    nested_path = tmp_path / "nested.json"
    assert main(["cz", "nested", "--config", str(cfg), "--out", str(nested_path)]) == 0
    nested = json.loads(nested_path.read_text())
    assert {"low", "high", "containment_map"} <= nested.keys()
    assert len(nested["containment_map"]) == len(nested["high"]["balls"])


def test_cz_precondition_exit_one(tmp_path):
    cfg = smoke_config(tmp_path)  # lognormal noise: no admissible level window
    proc = run_cli("cz", "decompose", "--config", str(cfg), "--out", str(tmp_path / "d.json"))
    assert proc.returncode == 1
    assert "CZPreconditionError" in proc.stderr


def test_lock_file_blocks_second_run(tmp_path):
    cfg = smoke_config(tmp_path)
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".wgrkit.lock").touch()
    proc = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    assert "locked" in proc.stderr
    assert "owner unknown" in proc.stderr

    (out / ".wgrkit.lock").write_text("pid 424242 on build-host\n")
    proc = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "pid 424242 on build-host" in proc.stderr
    assert not (out / "manifest.json").exists()


def test_lock_file_names_its_owner(tmp_path):
    with cli._OutputLock(tmp_path):
        owner = (tmp_path / ".wgrkit.lock").read_text()
    assert owner == f"pid {os.getpid()} on {platform.node()}\n"
    assert not (tmp_path / ".wgrkit.lock").exists()


def test_examples_list_json():
    proc = run_cli("examples", "list")
    assert proc.returncode == 0
    listing = json.loads(proc.stdout)
    assert "sawyer_strip" in listing


def test_missing_config_exits_two():
    proc = run_cli("run")
    assert proc.returncode == 2


def test_shipped_smoke_config_runs(tmp_path):
    cfg = Path(__file__).parent.parent / "configs" / "smoke.json"
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "smoke")]) == 0
    assert (tmp_path / "smoke" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command", [["run"], ["cz", "nested"], ["cz", "decompose"], ["cover"]]
)
def test_base_ball_center_out_of_range_exits_two(tmp_path, command):
    cfg = json.loads((Path(__file__).parent.parent / "configs" / "smoke.json").read_text())
    cfg["geometry"]["base_ball"]["center"] = 500  # schema-valid; the instance has 96 points
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps_canonical(cfg))
    out = tmp_path / "out"
    proc = run_cli(*command, "--config", str(cfg_path), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "500" in proc.stderr and "96" in proc.stderr
    assert not out.exists()  # no manifest, and no half-written output directory


@pytest.mark.parametrize("formats", [["json"], ["csv"], ["json", "csv"]])
def test_run_writes_and_hashes_the_formats_named_and_check_writes_both(tmp_path, capsys, formats):
    cfg = smoke_config(tmp_path, output={"directory": str(tmp_path / "out"), "formats": formats})
    assert main(["run", "--config", str(cfg)]) == 0
    names = ["superlevel_bound", "osc_from_superlevel", "neg_osc_from_sublevel", "cavalieri", "wgr"]
    expected = {f"check_{n}.json" for n in names if "json" in formats}
    expected |= {"check_wgr_per_ball.csv"} if "csv" in formats else set()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"].keys() == expected
    assert {p.name for p in (tmp_path / "out").iterdir()} == expected | {"manifest.json"}
    capsys.readouterr()
    assert main(["check", "wgr", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
    assert capsys.readouterr().out == "wgr: PASS\n"
    assert {p.name for p in (tmp_path / "one").iterdir()} == {"check_wgr.json",
                                                              "check_wgr_per_ball.csv"}
    if "json" in formats:  # the same report from either subcommand
        assert (tmp_path / "one" / "check_wgr.json").read_bytes() == (
            tmp_path / "out" / "check_wgr.json").read_bytes()


@pytest.mark.parametrize("command", [["run"], ["check", "wgr"]])
def test_out_path_that_is_a_file_exits_two(tmp_path, command):
    cfg = smoke_config(tmp_path)
    out = tmp_path / "existing.txt"
    out.write_text("keep me\n")
    proc = run_cli(*command, "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not a directory" in proc.stderr
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("command", [["run"], ["check", "wgr"]])
def test_out_path_that_is_a_file_is_rejected_before_any_work(tmp_path, monkeypatch, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli, "build_instance", forbidden)
    monkeypatch.setattr(cli, "run_check", forbidden)
    out = tmp_path / "existing.txt"
    out.write_text("keep me\n")
    assert main([*command, "--config", str(smoke_config(tmp_path)), "--out", str(out)]) == 2
    assert out.read_text() == "keep me\n"


def test_run_writes_non_finite_csv_values(tmp_path):
    instance = {
        "kind": "two_level", "dimension": 2, "side": 12, "cell": 1.0, "metric": "chebyshev",
        "params": {"geometry": "grid_nd", "low": 1.0, "high": 10.0, "fraction": 0.5},
        "seed": 1,
    }
    cfg_path = smoke_config(tmp_path, instance=instance,
                            checks=[{"name": "jn_decay", "params": {"count": 5}}])
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(cfg_path), "--out", str(out))
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"check_jn_decay.json", "check_jn_decay_decay.csv"}
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest
    with open(out / "check_jn_decay_decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert {row["rhs_bound"] for row in rows} == {"inf"}  # C saturates on a 2-d grid
    assert all(np.isfinite(float(row["lambda"])) for row in rows)


def _lognormal_2d_jn_decay(tmp_path) -> Path:
    """A 2-d side-12 Chebyshev lognormal run of jn_decay alone: C saturates to inf."""
    instance = {
        "kind": "lognormal", "dimension": 2, "side": 12, "cell": 1.0, "metric": "chebyshev",
        "params": {"geometry": "grid_nd", "mu": 0.0, "sigma": 0.25}, "seed": 1,
    }
    return smoke_config(tmp_path, instance=instance,
                        checks=[{"name": "jn_decay", "params": {"count": 5}}])


def test_check_without_evidence_exits_one(tmp_path, capsys):
    cfg = _lognormal_2d_jn_decay(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    report = json.loads((tmp_path / "run" / "check_jn_decay.json").read_text())
    assert (report["passed"], report["vacuous"], report["params"]["C"]) == (False, True, "inf")
    assert "FAILED checks" in capsys.readouterr().err
    assert main(["check", "jn_decay", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 1
    assert "jn_decay: FAIL (vacuous)" in capsys.readouterr().out


def test_vacuous_pass_exits_zero(tmp_path, capsys):
    space = grid_1d(0.0, 16.0, 16)
    cfg = smoke_config(
        tmp_path,
        instance={"kind": "custom",
                  "params": {"space": space.to_json_obj(), "weight": [2.0] * 16}},
        checks=[{"name": "superlevel_bound", "params": {"lambda": 0.9}}],
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "check_superlevel_bound.json").read_text())
    assert (report["passed"], report["vacuous"]) == (True, True)
    assert main(["check", "superlevel_bound", "--config", str(cfg),
                 "--out", str(tmp_path / "one")]) == 0
    assert "superlevel_bound: PASS (vacuous)" in capsys.readouterr().out


def test_jn_decay_margin_column_matches_the_tracker(tmp_path):
    out = tmp_path / "run"
    main(["run", "--config", str(_lognormal_2d_jn_decay(tmp_path)), "--out", str(out)])
    report = json.loads((out / "check_jn_decay.json").read_text())
    with open(out / "check_jn_decay_decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert {row["rhs_bound"] for row in rows} == {"inf"}
    assert {row["margin"] for row in rows} == {report["margin"]} == {"-inf"}
    # rows with finite sides keep margin = rhs - lhs, bit for bit
    smoke = Path(__file__).parent.parent / "configs" / "smoke.json"
    assert main(["run", "--config", str(smoke), "--out", str(tmp_path / "smoke")]) == 0
    with open(tmp_path / "smoke" / "check_jn_decay_decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert float(row["margin"]) == float(row["rhs_bound"]) - float(row["lhs_measure"])


def _cz_spike_config(tmp_path) -> Path:
    space = grid_1d(0.0, 256.0, 256)
    f = 0.001 * (1.0 + philox(3).random(256))
    f[128] = 60.0
    return smoke_config(
        tmp_path,
        instance={
            "kind": "custom", "params": {"space": space.to_json_obj(), "weight": f.tolist()}
        },
        geometry={"sigma": 1.0, "eta": 4.0, "base_ball": {"center": 128, "radius": 25.5}},
        cz={"level_fraction": 0.1, "level_fraction_hi": 0.6},
    )


_SINGLE_FILE_COMMANDS = [
    ["cz", "decompose"], ["cz", "nested"], ["decay-table"], ["sweep", "eps"], ["sweep", "p"],
    ["sweep", "sigma"], ["space", "gen"], ["weight", "gen"], ["cover"],
]


@pytest.mark.parametrize("command", _SINGLE_FILE_COMMANDS, ids=" ".join)
def test_single_file_out_creates_missing_parents(tmp_path, command):
    cfg = _cz_spike_config(tmp_path) if command[0] == "cz" else smoke_config(tmp_path)
    flat = tmp_path / "flat.out"
    deep = tmp_path / "missing" / "dir" / "f.out"
    code = main([*command, "--config", str(cfg), "--out", str(flat)])
    assert main([*command, "--config", str(cfg), "--out", str(deep)]) == code == 0
    assert deep.read_bytes() == flat.read_bytes()


@pytest.mark.parametrize("command", _SINGLE_FILE_COMMANDS, ids=" ".join)
def test_single_file_out_under_a_file_exits_two(tmp_path, capsys, command):
    cfg = _cz_spike_config(tmp_path) if command[0] == "cz" else smoke_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me\n")
    out = blocker / "dir" / "f.out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_text() == "keep me\n"


@pytest.mark.parametrize("command", _SINGLE_FILE_COMMANDS, ids=" ".join)
def test_single_file_out_that_is_a_directory_exits_two_before_any_work(
    tmp_path, monkeypatch, capsys, command
):
    cfg = _cz_spike_config(tmp_path) if command[0] == "cz" else smoke_config(tmp_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli, "build_instance", forbidden)
    out = tmp_path / "existing_dir"
    out.mkdir()
    (out / "keep.txt").write_text("keep me\n")
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"output path {out} is a directory" in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_single_file_out_failing_build_leaves_no_directory(tmp_path):
    cfg = smoke_config(tmp_path)  # lognormal noise: no admissible CZ level window
    out = tmp_path / "missing" / "dir" / "f.out"
    assert main(["cz", "decompose", "--config", str(cfg), "--out", str(out)]) == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_standard_json_constants_exit_two(tmp_path, capsys, constant):
    # a number literal beyond the float range would be read as +-inf
    text = smoke_config(tmp_path).read_text()
    assert '"sigma": 1.5' in text
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"sigma": 1.5', f'"sigma": {constant}'))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config violates schema" in err and constant in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["superlevel_bound", "sublevel_bound"])
def test_missing_required_lambda_is_a_schema_error(tmp_path, name):
    cfg = smoke_config(tmp_path, checks=[{"name": name, "params": {}}, {"name": "wgr"}])
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "out" / f"check_{name}.json").read_text())
    assert report["passed"] is False and report["params"]["error"] == "SchemaError"
    assert report["notes"] == f"check {name!r} needs params/lambda"
    assert json.loads((tmp_path / "out" / "check_wgr.json").read_text())["passed"] is True
    assert (tmp_path / "out" / "manifest.json").exists()
    proc = run_cli("check", name, "--config", str(cfg), "--out", str(tmp_path / "one"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"check {name!r} needs params/lambda" in proc.stderr


def test_beta_asymptotic_empty_y_list_is_a_domain_error(tmp_path):
    cfg = smoke_config(tmp_path, checks=[{"name": "beta_asymptotic", "params": {"y_list": []}}])
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "out" / "check_beta_asymptotic.json").read_text())
    assert report["passed"] is False and report["params"]["error"] == "DomainError"
    proc = run_cli("check", "beta_asymptotic", "--config", str(cfg), "--out", str(tmp_path / "one"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "DomainError: y_list is empty" in proc.stderr


def test_rhi_equivalence_empty_p_grid_is_a_domain_error(tmp_path):
    checks = [{"name": "rhi_equivalence_observed", "params": {"p_grid": []}}]
    cfg = smoke_config(tmp_path, checks=checks)
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "out" / "check_rhi_equivalence_observed.json").read_text())
    assert report["passed"] is False and report["params"]["error"] == "DomainError"
    assert report["notes"] == "p_grid is empty"
    proc = run_cli("check", "rhi_equivalence_observed", "--config", str(cfg),
                   "--out", str(tmp_path / "one"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "DomainError: p_grid is empty" in proc.stderr
    assert not (tmp_path / "one").exists()


def test_check_registry_names_match_the_schema_enum():
    enum = cli.load_schema()["properties"]["checks"]["items"]["properties"]["name"]["enum"]
    assert sorted(cli.CHECKS) == sorted(enum)


@pytest.mark.parametrize(
    "command", [["run"], ["check", "wgr"], *_SINGLE_FILE_COMMANDS], ids=" ".join
)
def test_each_subcommand_builds_the_instance_once(tmp_path, monkeypatch, command):
    builds = []
    original = cli.build_instance

    def counting(spec):
        builds.append(spec)
        return original(spec)

    monkeypatch.setattr(cli, "build_instance", counting)
    cfg = _cz_spike_config(tmp_path) if command[0] == "cz" else smoke_config(tmp_path)
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    assert len(builds) == 1


#: Schema-valid params that a check cannot read: a value of the wrong JSON
#: type or out of its range, or a key the check does not take.
_BAD_PARAMS = [
    ("jn_decay", {"count": "x"}),
    ("jn_decay", {"count": -1}),
    ("jn_decay", {"count": 0}),
    ("jn_decay", {"count": 2.5}),
    ("jn_decay", {"count": 1e12}),
    ("jn_decay", {"factor": 0}),
    ("jn_decay", {"factor": -4.0}),
    ("jn_decay", {"lambda_grid": "a"}),
    ("rhi", {"p": "2"}),
    ("cavalieri", {"p": "2"}),
    ("osc_from_superlevel", {"alpha": "0.5"}),
    ("superlevel_bound", {"lambda": "0.9"}),
    ("beta_asymptotic", {"y_list": "abc"}),
    ("rhi_equivalence_observed", {"p_grid": 2}),
    ("rhi_equivalence_observed", {"p_grid": [1.5, "2"]}),
    ("weak_ainfty", {"alpha": True}),
    ("wgr", {"bogus": 1}),
]


@pytest.mark.parametrize("name, params", _BAD_PARAMS, ids=lambda x: json.dumps(x))
def test_unreadable_params_are_schema_errors(tmp_path, capsys, name, params):
    (key,) = params
    cfg = smoke_config(tmp_path, checks=[{"name": name, "params": params}, {"name": "gr"}])
    assert main(["run", "--config", str(cfg)]) == 1
    out = tmp_path / "out"
    report = json.loads((out / f"check_{name}.json").read_text())
    assert report["passed"] is False and report["params"]["error"] == "SchemaError"
    assert report["notes"].startswith(f"check {name!r}") and f"params/{key}" in report["notes"]
    assert json.loads((out / "check_gr.json").read_text())["passed"] is True
    assert (out / "manifest.json").exists()
    capsys.readouterr()
    assert main(["check", name, "--config", str(cfg), "--out", str(tmp_path / "one")]) == 2
    err = capsys.readouterr().err
    assert f"check {name!r}" in err and f"params/{key}" in err
    assert not (tmp_path / "one").exists()


def test_null_param_stands_for_its_none_default(tmp_path):
    outputs = []
    for params in ({"lambda": 0.9}, {"lambda": 0.9, "eps": None}):
        cfg = smoke_config(tmp_path, checks=[{"name": "superlevel_bound", "params": params}])
        out = tmp_path / f"out{len(outputs)}"
        assert main(["check", "superlevel_bound", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((out / "check_superlevel_bound.json").read_bytes())
    assert outputs[0] == outputs[1]
