"""wgrkit benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

One client runs one fresh ``python -m wgrkit.cli`` process at a time with
``--threads 1`` and starts the next only when the previous has exited.
Every operation's results are checked bit for bit against a reference.

Usage, from the root of a checkout::

    # one run of one workload; the last stdout line is a JSON result
    python3 perfbench/run.py --workload functionals-2d --seed 1 --seconds 30 --trace 0

    # every workload, R runs each on seeds 1..R: end-to-end metrics with
    # units, quartiles and sample counts, fail_share, robustness probes
    python3 perfbench/run.py report --runs 3 --save before.json

    # per-metric medians, quartiles and verdicts between two saved reports
    python3 perfbench/run.py compare before.json after.json

    # re-record workloads.json (configs, sizes, reference values, shares)
    python3 perfbench/run.py record

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``run_s``: median wall time of one operation, process spawn to exit;
* ``run_s_tail``: the highest percentile of those samples with at least
  ten samples above it;
* ``setup_s``: median, over several fresh processes, of the time to import
  ``wgrkit.cli``, run ``cli.load_config`` and ``examples.build_instance``;
* ``peak_rss_mb``: median peak resident memory of the operation process.

Every time is rescaled to nominal machine speed (see :class:`Nominal`); the
raw wall-clock median of ``run_s`` is printed beside the metrics.

``--trace 1`` alternates untraced operations with traced ones (see
``tracer.py``) and reports the per-layer metrics as medians over the
traced operations, plus ``trace.run_s``, ``trace.untraced_run_s`` and
their difference ``trace.overhead_s``.

An operation fails when its exit code differs from the reference, when it
writes a traceback, or when a recorded result value differs bit for bit.
The reference is ``workloads.json`` for the default seed; on any other
seed it is the first operation of the run, whose exit code must be 0 or 1.
The benchmark reads ``src/`` and writes only under ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import inclusive_times, layer_metrics
from workloads import (
    DEFAULT_SEED,
    RECORD_PATH,
    WORKLOADS,
    Workload,
    bits,
    load_record,
    output_digests,
    result_values,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
OP_TIMEOUT_S = 120.0
TAIL_ABOVE = 10

#: The machine's speed varies from one process to the next (quartile spread
#: about 25% of the median on the reference 2-core box) and drifts over tens
#: of seconds, so a small calibration process is timed before the first and
#: after every measured process, and each time is rescaled by the mean of the
#: calibrations on either side of it to their nominal duration on that box.
#: Rescaled by the calibration after it only, the per-operation spread was
#: 13%; by the mean of both, 7%.
CALIBRATION_SNIPPET = """\
import argparse, json, math, jsonschema, numpy as np
x = np.arange(1024, dtype=float)
for i in range(1000):
    math.fsum((x[np.flatnonzero(x < i % 1024)] * 0.5).tolist())
"""
CALIBRATION_NOMINAL_S = 0.3

SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import wgrkit.cli as cli
from wgrkit import examples
cfg = cli.load_config(sys.argv[1])
examples.build_instance(examples.InstanceSpec.from_json_obj(cfg["instance"]))
print(repr(time.perf_counter() - start))
"""

INFO_SNIPPET = """\
import json, sys
from wgrkit import cli, theorems
from wgrkit.balls import build_family
from wgrkit.examples import InstanceSpec, build_instance
cfg = cli.load_config(sys.argv[1])
space, _ = build_instance(InstanceSpec.from_json_obj(cfg["instance"]))
g = cfg["geometry"]
base = cli.resolve_base_ball(space, g)
family = build_family(space, base, g["eta"], g["sigma"])
system = theorems.build_ball_system(space, base, g["sigma"], g["eta"])
print(json.dumps({"n_points": space.n_points, "family_balls": len(family.members),
                  "measuring_balls": len(system.measuring)}))
"""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    seconds: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr


def spawn(argv: list[str], cwd: Path) -> Proc:
    """Run one process to its end; wall time from spawn to exit, peak RSS."""
    # Bytecode is read from and written to a cache under ``cwd`` only, so
    # src/ is only read and no __pycache__ left by earlier commands (stale
    # or fresh) changes what a process compiles. Each run starts with an
    # empty cache and warms it untimed. OpenBLAS helper threads, started and
    # spinning at numpy import, would be load beside the one measured
    # process on a 2-core box: they made import time bimodal.
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(cwd / "pycache"),
        OPENBLAS_NUM_THREADS="1",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(
        seconds,
        code,
        usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def cli_args(workload: Workload, cfg: Path, out: Path) -> list[str]:
    return [*workload.command, "--config", str(cfg), "--out", str(out), "--threads", "1"]


class Nominal:
    """Rescales each wall time just measured to nominal machine speed.

    The calibration process starts Python, imports what an operation
    imports besides wgrkit, and runs a fixed loop of small selections and
    exact sums: an operation in miniature.
    One runs at construction and one in each call, so every measured
    process lies between two calibrations.
    """

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.last = self._calibrate()

    def _calibrate(self) -> float:
        calibration = spawn([sys.executable, "-c", CALIBRATION_SNIPPET], self.cwd)
        if calibration.code != 0:
            raise SystemExit(f"perfbench: calibration failed:\n{calibration.stderr}")
        return calibration.seconds

    def __call__(self, seconds: float) -> float:
        before, self.last = self.last, self._calibrate()
        return seconds * CALIBRATION_NOMINAL_S * 2.0 / (before + self.last)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_ABOVE samples above it.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_ABOVE - 1 if n > TAIL_ABOVE else n - 1
    return ordered[k], 100.0 * (k + 1) / n


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------


class Checker:
    """Judges each operation against a reference, bit for bit."""

    def __init__(self, workload: Workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.outputs_identical = True

    def check(self, proc: Proc, out: Path) -> None:
        self.attempted += 1
        try:
            values = bits(result_values(self.workload, out))
            digests = output_digests(out)
        except (OSError, ValueError, KeyError, TypeError):
            values = digests = None
        if self.reference is None:
            # first operation of a run on a non-default seed becomes the reference
            self.reference = {"exit_code": proc.code, "values": values, "output_sha256": digests}
            ok = proc.code in (0, 1)
        else:
            ok = proc.code == self.reference["exit_code"]
        ok = ok and not proc.traceback and values is not None
        ok = ok and values == bits(self.reference["values"])
        self.outputs_identical = (
            self.outputs_identical and digests == self.reference["output_sha256"]
        )
        self.failed += not ok


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    reference: dict | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Measure one workload for ``seconds``; returns metrics and sample counts."""
    if not (SRC / "wgrkit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no wgrkit sources under {SRC}")
    run_dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(workload.config(seed, tiny=tiny), indent=1))
        checker = Checker(workload, reference)
        if trace:
            result = _measure_traced(workload, cfg_path, run_dir, seconds, checker)
        else:
            result = _measure(workload, cfg_path, run_dir, seconds, checker, setup_repeats)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(
        workload=workload.name,
        seed=seed,
        attempted=checker.attempted,
        failed=checker.failed,
        fail_share=checker.failed / checker.attempted,
        outputs_identical=checker.outputs_identical,
        reference=checker.reference,
    )
    return result


def _out_path(workload: Workload, run_dir: Path) -> Path:
    """``cz`` writes one JSON file; ``run`` writes a directory of reports."""
    return run_dir / ("out.json" if workload.command[0] == "cz" else "out")


def _clear(out: Path) -> None:
    if out.is_dir():
        shutil.rmtree(out)
    elif out.exists():
        out.unlink()


def _warm(argvs: list[list[str]], run_dir: Path, out: Path) -> None:
    """Run each command once, untimed and unchecked, to fill the bytecode cache."""
    for argv in argvs:
        _clear(out)
        spawn(argv, run_dir)


def _op(argv: list[str], run_dir: Path, out: Path, checker: Checker) -> Proc:
    _clear(out)
    proc = spawn(argv, run_dir)
    checker.check(proc, out)
    return proc


def _measure(workload, cfg_path, run_dir, seconds, checker, setup_repeats) -> dict:
    out = _out_path(workload, run_dir)
    argv = [sys.executable, "-m", "wgrkit.cli", *cli_args(workload, cfg_path, out)]
    _warm([argv], run_dir, out)
    nominal = Nominal(run_dir)
    setups = []
    for _ in range(setup_repeats):
        proc = spawn([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)], run_dir)
        if proc.code != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        setups.append(nominal(float(proc.stdout.split()[-1])))
    times, wall, rss = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        proc = _op(argv, run_dir, out, checker)
        times.append(nominal(proc.seconds))
        wall.append(proc.seconds)
        rss.append(proc.rss_mb)
        if time.perf_counter() >= deadline:
            break
    tail_value, tail_pct = tail(times)
    return {
        "metrics": {
            "run_s": statistics.median(times),
            "run_s_tail": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
        "samples": {
            "run_s": len(times),
            "run_s_tail": len(times),
            "setup_s": len(setups),
            "peak_rss_mb": len(rss),
        },
        "tail_percentile": tail_pct,
        "wall_run_s": statistics.median(wall),
    }


def _measure_traced(workload, cfg_path, run_dir, seconds, checker) -> dict:
    out = _out_path(workload, run_dir)
    spans_path = run_dir / "spans.json"
    args = cli_args(workload, cfg_path, out)
    plain = [sys.executable, "-m", "wgrkit.cli", *args]
    traced = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *args]
    _warm([plain, traced], run_dir, out)
    nominal = Nominal(run_dir)
    untraced_times, traced_times, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced_times.append(nominal(_op(plain, run_dir, out, checker).seconds))
        spans_path.unlink(missing_ok=True)
        traced_times.append(nominal(_op(traced, run_dir, out, checker).seconds))
        if spans_path.exists():  # a tracer that failed to start wrote none
            layers.append(layer_metrics(json.loads(spans_path.read_text())["spans"]))
        if time.perf_counter() >= deadline:
            break
    metrics = {
        name: statistics.median(op.get(name, 0.0) for op in layers)
        for name in sorted(set().union(*layers))
    }
    metrics["trace.run_s"] = statistics.median(traced_times)
    metrics["trace.untraced_run_s"] = statistics.median(untraced_times)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    return {"metrics": metrics, "samples": {"traced": len(traced_times)}}


# ---------------------------------------------------------------------------
# single run: the benchmark command
# ---------------------------------------------------------------------------


def single_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="one run of one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = load_record()["workloads"][workload.name]["reference"]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), reference=reference)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(
        f"{workload.name} seed {args.seed}: {result['attempted']} operations, "
        f"{result['failed']} failed, fail_share {result['fail_share']:.4g}, "
        f"outputs_identical {str(result['outputs_identical']).lower()}"
    )
    for spec in specs:
        value = result["metrics"].get(spec["name"], 0.0)
        note = ""
        if not args.trace:
            note = f"median of {result['samples'][spec['name']]}"
            if spec["name"] == "run_s_tail":
                note = f"p{result['tail_percentile']:.0f} of {result['samples']['run_s_tail']}"
        print(f"  {spec['name']:<48} {value:>14.6g} {spec['unit']:<6} {note}")
    if args.trace:
        print(f"  traced operations: {result['samples']['traced']}")
    else:
        print(f"  raw wall-clock run_s median: {result['wall_run_s']:.6g} s")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    spec["name"]: {
                        "value": result["metrics"].get(spec["name"], 0.0),
                        "unit": spec["unit"],
                    }
                    for spec in specs
                },
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# report, compare, record
# ---------------------------------------------------------------------------

#: A 2-d two_level jn_decay run: the decay constant saturates to inf and
#: write_csv raises on it. A known defect, run so that it stays visible.
PROBE_INF_CSV = {
    "instance": {
        "kind": "two_level",
        "dimension": 2,
        "side": 24,
        "cell": 1.0,
        "metric": "chebyshev",
        "params": {"geometry": "grid_nd", "low": 1.0, "high": 10.0, "fraction": 0.5},
        "seed": DEFAULT_SEED,
    },
    "geometry": {"sigma": 1.5, "eta": 1.0, "base_ball": {"center": "central", "radius": "auto"}},
    "checks": [{"name": "jn_decay", "params": {"count": 5}}],
    "output": {"directory": "out", "formats": ["json", "csv"]},
    "threads": 1,
}


def robustness_probes() -> dict:
    """Run each known-defect probe once, untimed; report exit code and traceback."""
    probe_dir = WORK / f"probes-p{os.getpid()}"
    shutil.rmtree(probe_dir, ignore_errors=True)
    probe_dir.mkdir(parents=True)
    try:
        cfg_inf = probe_dir / "inf_csv.json"
        cfg_inf.write_text(json.dumps(PROBE_INF_CSV))
        cfg_small = probe_dir / "small.json"
        cfg_small.write_text(json.dumps(WORKLOADS["decay-cover-1d"].config(DEFAULT_SEED, tiny=True)))
        existing = probe_dir / "existing_file"
        existing.write_text("")
        probes = {
            "jn-decay-2d-inf-csv": ["run", "--config", str(cfg_inf), "--out", str(probe_dir / "out")],
            "run-out-existing-file": ["run", "--config", str(cfg_small), "--out", str(existing)],
        }
        results = {}
        for name, args in probes.items():
            proc = spawn([sys.executable, "-m", "wgrkit.cli", *args, "--threads", "1"], probe_dir)
            results[name] = {"exit_code": proc.code, "traceback": proc.traceback}
        return results
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def summarize(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def report(argv: list[str]) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(prog="run.py report", description="all workloads, R runs each")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--save", help="write the result set as JSON to this path")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    record = load_record()["workloads"]
    probes = robustness_probes()
    for name, probe in probes.items():
        print(f"probe {name}: exit {probe['exit_code']}, traceback {str(probe['traceback']).lower()}")
    results: dict[str, list[dict]] = {}
    for name in args.workload or list(WORKLOADS):
        runs = []
        for seed in range(DEFAULT_SEED, DEFAULT_SEED + args.runs):
            ref = record[name]["reference"] if seed == DEFAULT_SEED else None
            res = run_workload(WORKLOADS[name], seed, seconds, False, reference=ref)
            res.pop("reference")
            runs.append(res)
        results[name] = runs
        print(f"\n{name}: {len(runs)} run(s) of {seconds:g} s, seeds "
              f"{DEFAULT_SEED}..{DEFAULT_SEED + args.runs - 1}")
        print(f"  {'metric':<12} {'unit':<6} {'median [q1, q3] over runs':<40} "
              f"{'spread/bound':>12}  samples per run")
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]] for r in runs]
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / statistics.median(values) / spec["bound"]
            samples = ",".join(str(r["samples"][spec["name"]]) for r in runs)
            extra = ""
            if spec["name"] == "run_s_tail":
                extra = " at p" + ",".join(f"{r['tail_percentile']:.0f}" for r in runs)
            print(f"  {spec['name']:<12} {spec['unit']:<6} {summarize(values):<40} "
                  f"{spread:>12.3f}  {samples}{extra}")
        walls = [r["wall_run_s"] for r in runs]
        print(f"  {'wall run_s':<12} {'s':<6} {summarize(walls):<40}")
        shares = [r["fail_share"] for r in runs]
        print(f"  {'fail_share':<12} {'share':<6} {summarize(shares):<40} {'':>12}  "
              + ",".join(str(r["attempted"]) for r in runs))
        print("  outputs_identical " + ",".join(str(r["outputs_identical"]).lower() for r in runs))
    if args.save:
        Path(args.save).write_text(
            json.dumps({"seconds": seconds, "probes": probes, "workloads": results}, indent=1)
        )
    return 0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Guide section 8 verdict for change ``b`` against parent ``a``.

    improved: b wins at least nine tenths of >= 10 pairs and the medians
    differ by more than a's quartile distance. unresolved: the spread
    exceeds the bound and not every b run beats every a run. Otherwise
    no worse, or worse when b's median is worse by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    pairs = list(zip(a, b))
    wins = sum(sign * (x - y) > 0 for x, y in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > q3a - q1a:
        return "improved"
    q1b, q3b = quartiles(b)
    scale = abs(med_a) or 1.0
    spread = max((q3a - q1a) / scale, (q3b - q1b) / (abs(med_b) or 1.0))
    if spread > bound and not all(sign * (x - y) > 0 for x in a for y in b):
        return "unresolved"
    return "no worse" if sign * (med_b - med_a) / scale <= bound else "worse"


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description="compare two reports")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in (args.parent, args.change))
    if a_doc["seconds"] != b_doc["seconds"]:
        raise SystemExit("perfbench: the two reports measured runs of different lengths")
    a_set, b_set = a_doc["workloads"], b_doc["workloads"]
    specs = load_benchmark()["end_to_end"] + [
        {"name": "fail_share", "unit": "share", "better": "lower", "bound": 0.0}
    ]
    for name in [w for w in a_set if w in b_set]:
        print(f"\n{name}: {len(a_set[name])} parent run(s), {len(b_set[name])} change run(s)")
        print(f"  {'metric':<12} {'unit':<6} {'parent median [q1, q3]':<36} "
              f"{'change median [q1, q3]':<36} verdict")
        for spec in specs:
            a = [{**r["metrics"], "fail_share": r["fail_share"]}[spec["name"]] for r in a_set[name]]
            b = [{**r["metrics"], "fail_share": r["fail_share"]}[spec["name"]] for r in b_set[name]]
            print(f"  {spec['name']:<12} {spec['unit']:<6} {summarize(a):<36} {summarize(b):<36} "
                  f"{verdict(a, b, spec['better'], spec['bound'])}")
    return 0


SHARE_OPS = 5
SHARE_SECONDS = 10


def measure_shares(workload: Workload, cfg_path: Path, run_dir: Path) -> dict[str, float]:
    """Shares of an operation's wall time, medians over SHARE_OPS operations.

    ``start-up`` is the part outside ``cli.main``: interpreter start,
    imports, exit. Each function or module of ``workload.share_layers`` is
    the time its outermost calls cover, children included, so layers that
    nest overlap.
    The operations are traced with ``--only`` those functions, so tracing
    adds little. ``setup_s`` is the ratio of the two metrics' medians in a
    short run of the workload.
    """
    out, spans_path = _out_path(workload, run_dir), run_dir / "spans.json"
    layers = ("cli.main", *workload.share_layers)
    argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--only", ",".join(layers),
            "--", *cli_args(workload, cfg_path, out)]
    _warm([argv], run_dir, out)
    ops = []
    for _ in range(SHARE_OPS):
        _clear(out)
        wall = spawn(argv, run_dir).seconds
        spent = inclusive_times(json.loads(spans_path.read_text())["spans"])
        ops.append({"start-up": wall - spent["cli.main"],
                    **{name: spent.get(name, 0.0) for name in workload.share_layers}})
        ops[-1] = {name: t / wall for name, t in ops[-1].items()}
    shares = {name: statistics.median(op[name] for op in ops) for name in ops[0]}
    short = run_workload(workload, DEFAULT_SEED, SHARE_SECONDS, False)["metrics"]
    shares["setup_s"] = short["setup_s"] / short["run_s"]
    return {name: round(share, 3) for name, share in shares.items()}


def record_references(argv: list[str]) -> int:
    """Write workloads.json: configs, sizes, reference values and time shares at the default seed."""
    argparse.ArgumentParser(prog="run.py record", description=record_references.__doc__).parse_args(argv)
    record = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        run_dir = WORK / f"record-{workload.name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        cfg = workload.config(DEFAULT_SEED)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))
        info = spawn([sys.executable, "-c", INFO_SNIPPET, str(cfg_path)], run_dir)
        out = _out_path(workload, run_dir)
        proc = spawn([sys.executable, "-m", "wgrkit.cli", *cli_args(workload, cfg_path, out)], run_dir)
        if info.code != 0 or proc.traceback or proc.code not in (0, 1):
            raise SystemExit(f"perfbench: {workload.name} did not run cleanly:\n{proc.stderr}{info.stderr}")
        reference = {
            "exit_code": proc.code,
            "values": result_values(workload, out),
            "output_sha256": output_digests(out),
        }
        record["workloads"][workload.name] = {
            "why": workload.why,
            "command": ["wgrkit", *workload.command, "--threads", "1"],
            "size": workload.size,
            **json.loads(info.stdout),
            "predictions": workload.predictions,
            "shares_of_run_s": measure_shares(workload, cfg_path, run_dir),
            "config": cfg,
            "reference": reference,
        }
        shutil.rmtree(run_dir)
        print(workload.name, "shares of run_s:", record["workloads"][workload.name]["shares_of_run_s"])
    RECORD_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {RECORD_PATH}")
    return 0


def main(argv: list[str]) -> int:
    modes = {"report": report, "compare": compare, "record": record_references}
    if argv and argv[0] in modes:
        return modes[argv[0]](argv[1:])
    return single_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
