"""Experiment driver.

Subcommands
    run                 full experiment from a config: one JSON report per
                        check, CSV tables, and a hashed run manifest
    space gen|validate  emit or validate a space JSON document
    weight gen          emit the instance weight values
    check NAME          run a single named check
    cz decompose|nested stopping-time decomposition at one or two levels
    cover               greedy 5r cover report
    decay-table         per-lambda decay CSV
    sweep eps|p|sigma   parameter sweeps as CSV
    examples list       instance kinds and their parameter schemas

Every subcommand accepts --config, --out, --seed and --threads. --seed
and the config's seed keys take an integer in [0, 2**128). --threads
and the config's "threads" key take an integer >= 1, accepted for
compatibility with no effect: the work runs in one thread. Exit codes: 0
success (vacuous passes included), 1 a check failed or a construction
error occurred, 2 usage or schema violation.
"""
from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import numbers
import os
import platform
import sys
from contextlib import suppress
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, czdecomp, theorems, weights
from .balls import Ball, BallFamily, build_family, five_r_cover, verify_cover
from .errors import LockError, SchemaError, WgrError
from .examples import InstanceSpec, build_instance, list_instances
from .space import FiniteMetricMeasureSpace, row_slices, validate_metric
from .theorems import CheckReport
from .util import dumps_canonical, sha256, sha256_file, write_csv, write_json
from .weights import _ball_average, as_values, rhi_constant, wgr_epsilon

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

LOCK_NAME = ".wgrkit.lock"

#: Most lambda levels a ``jn_decay`` grid built from ``count`` may hold.
MAX_DECAY_LEVELS = 10_000


def load_schema() -> dict:
    text = importlib.resources.files("wgrkit").joinpath("config.schema.json").read_text()
    return json.loads(text)


#: JSON type name -> membership test, as in jsonschema's Draft 2020-12
#: checker: a bool is neither integer nor number, and 1.0 is an integer.
_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


def _json_equal(a, b) -> bool:
    """Equality of a value and a scalar enum/const entry: a bool equals only
    a bool, and 1 == 1.0."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(schema: dict, inst, path: tuple = ()) -> list[tuple[tuple, str]]:
    """``(path, message)`` for each violation of ``schema`` by ``inst``.

    Interprets the keywords ``config.schema.json`` uses with jsonschema's
    Draft 2020-12 semantics: each keyword applies on its own, and object,
    array and numeric keywords skip values of other types. Any other
    keyword raises, so the schema cannot outgrow the validator unnoticed.
    """
    errors: list[tuple[tuple, str]] = []
    is_obj, is_arr = isinstance(inst, dict), isinstance(inst, list)
    is_num = _JSON_TYPES["number"](inst)
    for kw, arg in schema.items():
        bad = None
        if kw in ("$schema", "title"):
            pass
        elif kw == "type":
            if not _JSON_TYPES[arg](inst):
                bad = f"{inst!r} is not of type {arg!r}"
        elif kw == "properties":
            for key, sub in arg.items() if is_obj else ():
                if key in inst:
                    errors += _schema_errors(sub, inst[key], path + (key,))
        elif kw == "required":
            errors += [
                (path, f"{key!r} is a required property")
                for key in arg if is_obj and key not in inst
            ]
        elif kw == "additionalProperties" and arg is False:
            extras = [k for k in inst if k not in schema.get("properties", {})] if is_obj else []
            if extras:
                bad = f"additional properties {sorted(extras)!r} are not allowed"
        elif kw == "enum":
            if not any(_json_equal(each, inst) for each in arg):
                bad = f"{inst!r} is not one of {arg!r}"
        elif kw == "const":
            if not _json_equal(inst, arg):
                bad = f"{inst!r} is not {arg!r}"
        elif kw == "anyOf":
            if all(_schema_errors(sub, inst, path) for sub in arg):
                bad = f"{inst!r} is not valid under any of the given schemas"
        elif kw == "items":
            for i, item in enumerate(inst if is_arr else ()):
                errors += _schema_errors(arg, item, path + (i,))
        elif kw == "minItems":
            if is_arr and len(inst) < arg:
                bad = f"{inst!r} has fewer than {arg} items"
        elif kw == "maxItems":
            if is_arr and len(inst) > arg:
                bad = f"{inst!r} has more than {arg} items"
        elif kw == "minimum":
            if is_num and inst < arg:
                bad = f"{inst!r} is less than the minimum of {arg!r}"
        elif kw == "maximum":
            if is_num and inst > arg:
                bad = f"{inst!r} is greater than the maximum of {arg!r}"
        elif kw == "exclusiveMinimum":
            if is_num and inst <= arg:
                bad = f"{inst!r} is less than or equal to the minimum of {arg!r}"
        else:
            raise NotImplementedError(
                f"config schema keyword {kw!r} is not supported by wgrkit's validator"
            )
        if bad is not None:
            errors.append((path, bad))
    return errors


def validate_config(cfg: dict) -> None:
    """Raise SchemaError listing every violation of the shipped schema, by path."""
    errors = sorted(_schema_errors(load_schema(), cfg), key=lambda e: e[0])
    if errors:
        lines = [
            f"  at {'/'.join(str(p) for p in path) or '<root>'}: {message}"
            for path, message in errors
        ]
        raise SchemaError("config violates schema:\n" + "\n".join(lines))


def load_config(path: str, seed_override: int | None = None) -> dict:
    def reject_constant(name: str):
        # json.load would otherwise accept NaN and +-Infinity, which pass numeric bounds
        raise SchemaError(
            f"config violates schema: {path} holds {name}, which is not a JSON number"
        )

    def finite_float(text: str) -> float:
        # and would read a literal beyond the float range, such as 1e400, as +-inf
        value = float(text)
        if not math.isfinite(value):
            raise SchemaError(
                f"config violates schema: {path} holds {text}, which is beyond the float range"
            )
        return value

    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=reject_constant, parse_float=finite_float)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    validate_config(cfg)
    seed = cfg["instance"].get("seed", 0)
    if cfg.get("rng", {}).get("seed", seed) != seed:
        raise SchemaError(f"config violates schema: rng/seed {cfg['rng']['seed']} differs from "
                          f"instance/seed {seed}, which alone keys the stream")
    if seed_override is not None:
        cfg.setdefault("instance", {})["seed"] = seed_override
    return cfg


def resolve_base_ball(space: FiniteMetricMeasureSpace, geometry: dict) -> Ball:
    sel = geometry.get("base_ball", {})
    center = sel.get("center", "central")
    ecc = None
    if center == "central":
        # minimize the eccentricity, ties by index
        ecc = np.concatenate([space.dist_block(rows).max(axis=1)
                              for rows in row_slices(space.n_points, space.n_points)])
        center = int(np.argmin(ecc))
    elif not center < space.n_points:
        raise SchemaError(
            f"geometry/base_ball/center {center} is not a point id of the "
            f"{space.n_points}-point instance (0..{space.n_points - 1})"
        )
    radius = sel.get("radius", "auto")
    if radius == "auto":
        reach = float(space.dist_row(center).max() if ecc is None else ecc[center])
        if reach <= 0.0:
            radius = 1.0
        else:
            radius = reach / ((1.0 + geometry["eta"]) * max(geometry["sigma"], 1.0))
    return Ball(int(center), float(radius))


class RunContext:
    """The state of one invocation, shared by its subcommand and every check.

    The instance is built on construction. Its one Weight keeps the table
    of ball sums and measured suprema that every check reads, and the CZ
    averages table of the family, so each family ball's w(B), mu(B), w(S)
    and mu(S) is summed once per run. The base ball, the family and the
    decay ball system, built on that family, are built on first use and
    then shared; a build that raises is not kept, so each check needing it
    reports the same error.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.sigma, self.eta = cfg["geometry"]["sigma"], cfg["geometry"]["eta"]
        self.space, self.w = build_instance(InstanceSpec.from_json_obj(cfg["instance"]))

    @cached_property
    def base(self) -> Ball:
        return resolve_base_ball(self.space, self.cfg["geometry"])

    @cached_property
    def family(self) -> BallFamily:
        return build_family(self.space, self.base, self.eta, self.sigma)

    @cached_property
    def system(self) -> theorems.BallSystem:
        return theorems.build_ball_system(self.space, self.family)


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------


#: The JSON schema of each check param that is not a number.
_GRID = {"type": "array", "items": {"type": "number"}}
_PARAM_SCHEMAS = {"rhs_ball": {"type": "string"},
                  "lambda_grid": _GRID, "p_grid": _GRID, "y_list": _GRID}


class _Params(dict):
    """One check's params; a missing, unread or mistyped key names the check."""

    def __init__(self, check: str, params: dict):
        super().__init__(params)
        self.check = check

    def __missing__(self, key):
        raise SchemaError(f"check {self.check!r} needs params/{key}")

    def args(self, spec: dict) -> list:
        """The values of ``spec``'s keys in order; ``spec`` maps each key to its
        default, ``...`` for a required key. A key outside ``spec`` and a value
        of the wrong JSON type raise; null stands for a ``None`` default."""
        unread = sorted(self.keys() - spec.keys())
        if unread:
            raise SchemaError(f"check {self.check!r} does not read params/{unread[0]}")
        values = [self[key] if dflt is ... else self.get(key, dflt) for key, dflt in spec.items()]
        for (key, dflt), value in zip(spec.items(), values):
            errors = _schema_errors(_PARAM_SCHEMAS.get(key, {"type": "number"}), value)
            if errors and not value is dflt is None:
                raise SchemaError(f"check {self.check!r}: params/{key}: {errors[0][1]}")
        return values


def _functional(name: str, spec: dict):
    """Entry of the functional ``weights.<name>`` over the run's family: its
    supremum as an observational report, plus the per-ball CSV."""

    def check(ctx, params):
        rep = getattr(weights, name)(ctx.space, ctx.w, ctx.family, *params.args(spec))
        return CheckReport(
            name=params.check, passed=True, margin=rep.value, witness=rep.witness_ball,
            params=rep.summary_obj(), notes="functional supremum; observational",
        ), {"per_ball": (["ball_center", "ball_radius", "ratio", "skipped_flag"], rep.csv_rows())}

    return check


def _on_family(name: str, spec: dict):
    """Entry of the checker ``theorems.<name>`` over the run's family."""
    return lambda ctx, params: (getattr(theorems, name)(
        ctx.space, ctx.w, ctx.family, *params.args(spec)), {})


def _on_base(name: str, spec: dict):
    """Entry of the decay checker ``theorems.<name>`` on the run's base ball system."""

    def check(ctx, params):
        args = params.args(spec)  # a bad param raises before the system is built
        return getattr(theorems, name)(ctx.system, ctx.w, *args), {}

    return check


def _jn_decay(ctx, params):
    """Without a ``lambda_grid``: ``count`` levels from lambda0 to ``factor`` lambda0."""
    grid, eps, count, factor = params.args(
        {"lambda_grid": None, "eps": None, "count": 20, "factor": 4.0}
    )
    # compared before any int(): a count beyond the float range is inf, and inf % 1 is nan
    if not (1 <= count <= MAX_DECAY_LEVELS and count % 1 == 0):
        raise SchemaError(f"check 'jn_decay': params/count must be an integer in "
                          f"[1, {MAX_DECAY_LEVELS}], got {count!r}")
    if not factor > 0:
        raise SchemaError(f"check 'jn_decay': params/factor must be > 0, got {factor!r}")
    if grid is None:
        if eps is None:
            eps = theorems._system_eps(ctx.system, ctx.w)
        if eps == 0.0:
            grid = []
        else:
            lam0 = czdecomp.jn_constants(ctx.system.profile, ctx.sigma, ctx.eta, eps).lambda0
            grid = (lam0 * np.geomspace(1.0, float(factor), int(count))).tolist()
    rep = theorems.check_jn_decay(ctx.system, ctx.w, grid, eps=params.get("eps"))
    return rep, {"decay": (["lambda", "lhs_measure", "rhs_bound", "margin", "vacuous"], rep.table)}


def _beta_asymptotic(ctx, params):
    spec = {"p": 2.0, "y_list": [20.0, 40.0, 80.0, 160.0]}
    rep = theorems.beta_asymptotic_check(*params.args(spec))
    return rep, {"ratios": (["y", "ratio"], rep.table)}


#: name -> check(ctx, params) -> (CheckReport, {table: (header, rows)}).
#: A spec lists, in order, the params its callee takes after the fixed arguments.
CHECKS = {
    "wgr": _functional("wgr_epsilon", {}),
    "wgr_minus": _functional("wgr_minus_epsilon", {}),
    "gr": _functional("gr_epsilon", {}),
    "weak_ainfty": _functional("weak_ainfty_beta", {"alpha": 0.5}),
    "sublevel": _functional("sublevel_alpha", {"beta": 0.5}),
    "rhi": _functional("rhi_constant", {"p": 2.0, "rhs_ball": "sigma_dilate"}),
    "superlevel_bound": _on_family("check_superlevel_bound", {"lambda": ..., "eps": None}),
    "osc_from_superlevel": _on_family("check_osc_from_superlevel", {"alpha": 0.5, "beta": None}),
    "sublevel_bound": _on_family("check_sublevel_bound", {"lambda": ..., "eps": None}),
    "neg_osc_from_sublevel": _on_family(
        "check_neg_osc_from_sublevel", {"beta": 0.5, "alpha": None}
    ),
    "rhi_equivalence_observed": _on_family(
        "check_rhi_equivalence_observed", {"alpha": 0.5, "beta": 0.1, "p_grid": [1.5, 2.0, 4.0]}
    ),
    "jn_decay": _jn_decay,
    "osc_power_bound": _on_base("check_osc_power_bound", {"p": 2.0, "eps": None}),
    "weak_rhi": _on_base("check_weak_rhi", {"p": 2.0, "eps": None}),
    "cover_rhi": _on_base("check_cover_rhi", {"p": 2.0, "eps": None}),
    "beta_asymptotic": _beta_asymptotic,
    "cavalieri": lambda ctx, params: (
        theorems.cavalieri_check(ctx.space, ctx.w, *params.args({"p": 2.0})), {}
    ),
}


def run_check(name: str, ctx: RunContext, params: dict):
    """Run the :data:`CHECKS` entry ``name`` in ``ctx``; returns (CheckReport,
    extra CSV tables)."""
    if name not in CHECKS:
        raise SchemaError(f"unknown check name {name!r}")
    return CHECKS[name](ctx, _Params(name, params))


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------


class _OutputLock:
    """Exclusive lock file naming its owner, so a stale lock can be traced."""

    def __init__(self, directory: Path):
        self.path = directory / LOCK_NAME
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = self.path.read_text(encoding="utf-8").strip() or "owner unknown"
            except OSError:
                owner = "owner unknown"
            raise LockError(
                f"output directory is locked by another run ({owner}): {self.path}; "
                "if that run is gone, delete the lock file"
            )
        os.write(self.fd, f"pid {os.getpid()} on {platform.node()}\n".encode())
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            self.path.unlink(missing_ok=True)


def _config_digest(cfg: dict) -> str:
    return sha256(dumps_canonical(cfg).encode()).hexdigest()


def _reject_out(out: Path, directory: bool) -> None:
    """Fail fast, before any work, when the output path exists as the wrong
    kind: a file where a ``directory`` is written, or a directory where a
    subcommand writes one file."""
    if out.exists() and out.is_dir() != directory:
        raise SchemaError(f"output path {out} is not a directory" if directory
                          else f"output path {out} is a directory, not a file")


def _make_out_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise SchemaError(f"output path {out_dir} is not a directory: {exc}") from exc


def _out_file(out: Path) -> Path:
    """``out`` once its missing parent directories exist; made after the work,
    as ``run`` makes its directory, so a failing build leaves none."""
    _make_out_dir(out.parent)
    return out


def _write_check(out_dir: Path, name: str, report: CheckReport, tables: dict, formats) -> list:
    """Write the check ``name``'s JSON report and CSV tables, those of the
    ``formats`` named, into ``out_dir``; returns the paths written."""
    paths = []
    if "json" in formats:
        paths.append(out_dir / f"check_{name}.json")
        write_json(paths[-1], report.to_json_obj())
    if "csv" in formats:
        for table_name, (header, rows) in tables.items():
            paths.append(out_dir / f"check_{name}_{table_name}.csv")
            write_csv(paths[-1], header, rows)
    return paths


def cmd_run(ctx: RunContext, out_dir: Path) -> int:
    ctx.base  # a base ball that does not resolve exits 2 before the directory exists
    _make_out_dir(out_dir)
    formats = ctx.cfg["output"].get("formats", ["json", "csv"])
    with _OutputLock(out_dir):
        failed: list[tuple[str, CheckReport]] = []
        outputs: list[Path] = []
        for entry in ctx.cfg["checks"]:
            name, params = entry["name"], entry.get("params", {})
            try:
                report, extra_tables = run_check(name, ctx, params)
            except (WgrError, OverflowError) as exc:  # OverflowError: a sum past the largest double
                report = CheckReport(
                    name=name, passed=False, margin=float("-inf"),
                    params={"error": type(exc).__name__},
                    notes=str(exc),
                )
                extra_tables = {}
            outputs += _write_check(out_dir, name, report, extra_tables, formats)
            if not report.passed:
                failed.append((name, report))
        manifest = {
            "config_sha256": _config_digest(ctx.cfg),
            "package_version": __version__,
            "numpy_version": np.__version__,
            "python_version": ".".join(str(v) for v in sys.version_info[:3]),
            "seed": ctx.cfg["instance"].get("seed", 0),
            "rng": ctx.cfg.get("rng", {}).get("algorithm", "philox4x64-10"),
            "outputs": {p.name: sha256_file(p) for p in sorted(outputs)},
        }
        write_json(out_dir / "manifest.json", manifest)
    if failed:
        name, report = failed[0]
        error = report.params.get("error")  # without json, no file holds the reason: the line does
        why = f"{error}: {report.notes}" if error else report.notes or f"margin {report.margin!r}"
        print("FAILED checks; " + (f"first failing report: {out_dir / f'check_{name}.json'}"
              if "json" in formats else f"first failing check: {name}: {why}"), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# small subcommands
# ---------------------------------------------------------------------------


def cmd_space_gen(ctx: RunContext, out: Path) -> int:
    write_json(_out_file(out), ctx.space.to_json_obj())
    return EXIT_OK


def cmd_space_validate(path: Path) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise TypeError(f"the top level is a {type(obj).__name__}, not an object")
        space = FiniteMetricMeasureSpace.from_json_obj(obj)
    except (OSError, ValueError, TypeError, KeyError, WgrError) as exc:  # WgrError: constructor
        raise SchemaError(f"cannot read space {path}: {type(exc).__name__}: {exc}") from exc
    violations = validate_metric(space)
    for v in violations:
        print(f"{v.kind} at {v.points}: deficit {v.deficit}")
    if violations:
        return EXIT_CHECK_FAILED
    print("metric axioms hold")
    return EXIT_OK


def cmd_weight_gen(ctx: RunContext, out: Path) -> int:
    write_json(_out_file(out), {"values": ctx.w.values.tolist()})
    return EXIT_OK


# construction re-verifies before returning, so reaching here means pass
_CZ_PROPERTIES = {"i": "pass", "ii": "pass", "iii": "pass", "iv": "pass"}


def cmd_cz(ctx: RunContext, out: Path, nested: bool) -> int:
    space, w, family = ctx.space, ctx.w, ctx.family
    # the maximal function builds the weight's averages table, which every level
    # reads; its sweep also measures the closure balls, so it comes first and
    # the closure profile reads the memo only
    mf_max = float(czdecomp.maximal_function(space, w, family).max())
    profile = czdecomp.closure_profile(space, family)
    cz_cfg = ctx.cfg.get("cz", {})
    f_hat = _ball_average(space, as_values(w), family.hat_ball)
    alpha = czdecomp.jn_constants(profile, ctx.sigma, ctx.eta, 1.0).alpha

    def level(key_abs, key_frac, default_frac):
        if key_abs in cz_cfg:
            return float(cz_cfg[key_abs])
        frac = float(cz_cfg.get(key_frac, default_frac))
        return alpha * f_hat + frac * max(mf_max - alpha * f_hat, 0.0)

    if nested:
        lo = level("level", "level_fraction", 0.1)
        hi = level("level_hi", "level_fraction_hi", 0.6)
        dec_lo, dec_hi, mapping = czdecomp.cz_nested(space, w, lo, hi, family, profile)
        write_json(
            _out_file(out),
            {
                "low": dec_lo.to_json_obj(_CZ_PROPERTIES),
                "high": dec_hi.to_json_obj(_CZ_PROPERTIES),
                "containment_map": mapping,
            },
        )
    else:
        lam = level("level", "level_fraction", 0.3)
        dec = czdecomp.cz_decompose(space, w, lam, family, profile)
        write_json(_out_file(out), dec.to_json_obj(_CZ_PROPERTIES))
    return EXIT_OK


def cmd_cover(ctx: RunContext, out: Path) -> int:
    profile = czdecomp.closure_profile(ctx.space, ctx.family)
    cover = five_r_cover(ctx.space, ctx.base, ctx.sigma, ctx.eta)
    report = verify_cover(ctx.space, ctx.base, cover, ctx.sigma, ctx.eta, profile)
    write_csv(
        _out_file(out),
        ["center", "radius", "fifth_disjoint_ok", "contained_ok"],
        [
            (r["center"], r["radius"], int(r["fifth_disjoint_ok"]), int(r["contained_ok"]))
            for r in report["rows"]
        ],
    )
    ok = report["all_fifth_disjoint"] and report["all_contained"] and report["coverage"] == 1.0
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _check_params(cfg: dict, name: str) -> dict:
    """The params of the config's first check named ``name``; {} if there is none."""
    return next((e.get("params", {}) for e in cfg.get("checks", []) if e["name"] == name), {})


def cmd_decay_table(ctx: RunContext, out: Path) -> int:
    report, tables = run_check("jn_decay", ctx, _check_params(ctx.cfg, "jn_decay"))
    write_csv(_out_file(out), *tables["decay"])
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep(ctx: RunContext, kind: str, out: Path) -> int:
    sweep_cfg = ctx.cfg.get("sweep", {})
    if kind == "eps":
        header, rows = ["k", "eps", "a_const", "lambda0", "p_cap"], []
        for k in sweep_cfg.get("eps_pow2", list(range(3, 21))):
            eps = 2.0 ** (-k)
            consts = czdecomp.jn_constants(ctx.system.profile, ctx.sigma, ctx.eta, eps)
            rows.append(
                (k, eps, consts.a_const, consts.lambda0, 1.0 / (2.0 * consts.a_const * eps))
            )
    elif kind == "p":
        header, rows = ["p", "rhi_constant"], []
        for p in sweep_cfg.get("p_grid", [1.25, 1.5, 2.0, 3.0, 4.0]):
            rep = rhi_constant(ctx.space, ctx.w, ctx.family, p)
            rows.append((p, rep.value))
    elif kind == "sigma":
        header, rows = ["sigma", "wgr_epsilon"], []
        for s in sweep_cfg.get("sigma_grid", [1.0, 1.25, 1.5, 2.0, 3.0]):
            fam = build_family(ctx.space, ctx.base, ctx.eta, s)
            rows.append((s, wgr_epsilon(ctx.space, ctx.w, fam).value))
    else:
        raise SchemaError(f"unknown sweep kind {kind!r}")
    write_csv(_out_file(out), header, rows)
    return EXIT_OK


def cmd_check(ctx: RunContext, name: str, out_dir: Path) -> int:
    ctx.base  # a base ball that does not resolve fails every check, as in run
    report, tables = run_check(name, ctx, _check_params(ctx.cfg, name))
    _make_out_dir(out_dir)
    _write_check(out_dir, name, report, tables, ("json", "csv"))
    print(f"{name}: {'PASS' if report.passed else 'FAIL'}"
          f"{' (vacuous)' if report.vacuous else ''}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _thread_count(text: str) -> int:
    """``--threads`` takes what the config's ``threads`` key takes: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """``--seed`` takes what the config's ``instance.seed`` key takes: an integer in [0, 2**128)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    errors = _schema_errors(load_schema()["properties"]["instance"]["properties"]["seed"], value)
    if errors:
        raise argparse.ArgumentTypeError(errors[0][1])
    return value


#: Each subcommand and its positional argument: (name, choices), None for none.
_SUBCOMMANDS = {
    "run": None, "space": ("action", ["gen", "validate"]), "weight": ("action", ["gen"]),
    "check": ("name", None), "cz": ("action", ["decompose", "nested"]), "cover": None,
    "decay-table": None, "sweep": ("kind", ["eps", "p", "sigma"]), "examples": ("action", ["list"]),
}


class _QuietParser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; with ``only``, of that one alone, and
    quiet: a usage error raises ``argparse.ArgumentError``, unprinted."""
    parser = (_QuietParser if only else argparse.ArgumentParser)(prog="wgrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, positional in _SUBCOMMANDS.items():
        if only in (None, name):
            sub_p = sub.add_parser(name)
            sub_p.add_argument("--config", help="experiment config JSON")
            sub_p.add_argument("--out", help="output file or directory")
            sub_p.add_argument("--seed", type=_seed, help="override the instance seed")
            sub_p.add_argument("--threads", type=_thread_count, default=None,
                               help="accepted for compatibility; no effect")
            if positional:
                sub_p.add_argument(positional[0], choices=positional[1])
            if name == "space":
                sub_p.add_argument("--in", dest="infile", help="space JSON to validate")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone, as each parser costs
    gettext lookups to build; the full tree prints root help and every error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        with suppress(argparse.ArgumentError):
            return build_parser(argv[0]).parse_args(argv)
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.command is None:
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "examples":
            print(dumps_canonical(list_instances()))
            return EXIT_OK

        if args.command == "space" and args.action == "validate":
            if not args.infile:
                print("space validate needs --in <space.json>", file=sys.stderr)
                return EXIT_USAGE
            return cmd_space_validate(Path(args.infile))

        if not args.config:
            print(f"{args.command} needs --config", file=sys.stderr)
            return EXIT_USAGE
        cfg = load_config(args.config, args.seed)
        out = Path(args.out) if args.out else Path(cfg["output"]["directory"])
        _reject_out(out, directory=args.command in ("run", "check"))
        ctx = RunContext(cfg)

        commands = {
            "run": lambda: cmd_run(ctx, out),
            "space": lambda: cmd_space_gen(ctx, out),
            "weight": lambda: cmd_weight_gen(ctx, out),
            "check": lambda: cmd_check(ctx, args.name, out),
            "cz": lambda: cmd_cz(ctx, out, nested=args.action == "nested"),
            "cover": lambda: cmd_cover(ctx, out),
            "decay-table": lambda: cmd_decay_table(ctx, out),
            "sweep": lambda: cmd_sweep(ctx, args.kind, out),
        }
        return commands[args.command]()
    except SchemaError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (WgrError, OverflowError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
