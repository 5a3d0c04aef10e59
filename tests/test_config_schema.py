"""Config validation: the built-in schema walk against jsonschema as the oracle."""
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import wgrkit
from wgrkit import cli
from wgrkit.errors import SchemaError

ROOT = Path(__file__).parent.parent
SCHEMA = cli.load_schema()
ORACLE = jsonschema.Draft202012Validator(SCHEMA)


def _seed_configs() -> list[dict]:
    """The smoke config, the benchmark's workload configs and one using every section."""
    configs = [json.loads((ROOT / "configs" / "smoke.json").read_text())]
    record = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    for workload in record["workloads"].values():
        cfg = copy.deepcopy(workload["config"])
        if cfg["instance"]["kind"] == "custom":  # the params object is unconstrained
            cfg["instance"]["params"] = {"space": {"points": [[0.5]]}, "weight": [1.0]}
        configs.append(cfg)
    configs.append(
        {
            "instance": {
                "kind": "two_level", "dimension": 2, "side": 8, "cell": 0.5,
                "metric": "euclidean", "params": {"low": 1.0}, "seed": 3,
            },
            "geometry": {"sigma": 1.0, "eta": 2.0, "base_ball": {"center": 4, "radius": 2.5}},
            "family": {"radius_policy": "geometric2"},
            "checks": [{"name": "rhi"}],
            "cz": {"level_fraction": 0.2, "level_fraction_hi": 1, "level": 0.5, "level_hi": 2},
            "sweep": {"eps_pow2": [3, 4], "p_grid": [1.5], "sigma_grid": [1.0, 2]},
            "output": {"directory": "out", "formats": ["csv"]},
            "rng": {"algorithm": "philox4x64-10", "seed": 0},
            "threads": 2,
        }
    )
    return configs


SEEDS = _seed_configs()

#: Replacement values: bools against integers, integral floats, non-finite
#: reals, both anyOf branches, and arrays that are too short or too long.
SPECIAL = [
    True, False, None, 0, 1, -1, 1.0, 0.5, 2.5, -0.0, 7, 1e300,
    math.nan, math.inf, -math.inf, "central", "auto", "json", "wgr", "geometric2",
    "philox4x64-10", "x", [], {}, [0, 1], [0, 8, 8], [1.0, 2.0, 3.0, 4.0], ["json", "yaml"],
]
EXTRA_KEYS = ["extra", "seed", "sweep", "cz", "family", "rng", "threads", "params", "formats"]


def oracle_paths(cfg) -> list[list]:
    return sorted(list(e.absolute_path) for e in ORACLE.iter_errors(cfg))


def walk_paths(cfg) -> list[list]:
    return sorted(list(path) for path, _ in cli._schema_errors(SCHEMA, cfg))


def _nodes(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate(cfg, data) -> None:
    path = data.draw(st.sampled_from(list(_nodes(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else cfg
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    value = copy.deepcopy(data.draw(st.sampled_from(SPECIAL)))
    if op == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(EXTRA_KEYS))] = value
    elif op == "add" and isinstance(node, list):
        node.append(value)
    elif op == "delete" and path:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = value


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_walk_matches_jsonschema_on_mutated_configs(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(SEEDS)))
    for _ in range(data.draw(st.integers(0, 4))):
        _mutate(cfg, data)
    assert walk_paths(cfg) == oracle_paths(cfg)


EDITS = {
    "valid": ("threads", 2),
    "integral float is an integer": ("threads", 1.0),
    "bool is not an integer": ("threads", True),
    "type and minimum both apply": ("threads", 0.5),
    "nan passes the bounds": ("geometry/sigma", math.nan),
    "nan is not an integer": ("threads", math.nan),
    "inf passes a minimum": ("geometry/sigma", math.inf),
    "-inf fails a minimum": ("geometry/sigma", -math.inf),
    "bool is not a number": ("geometry/eta", False),
    "exclusive minimum": ("geometry/eta", 0),
    "anyOf integer branch": ("geometry/base_ball/center", 3),
    "anyOf const branch": ("geometry/base_ball/center", "central"),
    "anyOf neither branch": ("geometry/base_ball/center", -1.5),
    "anyOf rejects a bool": ("geometry/base_ball/radius", True),
    "const compares 1 and 1.0": ("family/radius_policy", 1.0),
    "enum rejects a list": ("output/formats/0", ["json"]),
    "array too short": ("instance/interval", [0, 8]),
    "array too long": ("instance/interval", [0, 8, 8, 8]),
    "empty array with minItems": ("sweep/p_grid", []),
    "item bound": ("sweep/p_grid/0", 1),
    "extra key": ("geometry/extra", 1),
    "wrong root type": ("", [1, 2]),
}


def _edit(cfg, where: str, value):
    if not where:
        return value
    keys = [int(k) if k.isdigit() else k for k in where.split("/")]
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cfg


@pytest.mark.parametrize("case", sorted(EDITS))
def test_walk_matches_jsonschema_on_edge_cases(case):
    cfg = _edit(copy.deepcopy(SEEDS[-1]), *EDITS[case])
    assert walk_paths(cfg) == oracle_paths(cfg)
    assert bool(walk_paths(cfg)) == (case not in {
        "valid", "integral float is an integer", "nan passes the bounds",
        "inf passes a minimum", "anyOf integer branch", "anyOf const branch",
    })


def test_missing_required_key_and_extra_key_are_named():
    cfg = copy.deepcopy(SEEDS[0])
    del cfg["geometry"]["eta"]
    cfg["geometry"]["bogus"] = 1
    cfg["threads"] = 0.5
    with pytest.raises(SchemaError) as err:
        cli.validate_config(cfg)
    lines = str(err.value).splitlines()
    assert lines[0] == "config violates schema:"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "  at geometry", "  at geometry", "  at threads", "  at threads",
    ]
    assert "'eta'" in lines[1] + lines[2] and "'bogus'" in lines[1] + lines[2]
    assert all("0.5" in line for line in lines[3:])


def test_unsupported_keyword_is_named(monkeypatch):
    schema = copy.deepcopy(SCHEMA)
    schema["properties"]["output"]["properties"]["directory"]["pattern"] = "^out"
    monkeypatch.setattr(cli, "load_schema", lambda: schema)
    with pytest.raises(NotImplementedError, match="'pattern'"):
        cli.validate_config(copy.deepcopy(SEEDS[0]))
    with pytest.raises(NotImplementedError, match="'additionalProperties'"):
        cli._schema_errors({"additionalProperties": {"type": "string"}}, {"a": 1})


def test_loading_a_config_does_not_import_jsonschema():
    src = str(Path(wgrkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "import wgrkit.cli as cli\n"
        f"cli.load_config({str(ROOT / 'configs' / 'smoke.json')!r})\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
