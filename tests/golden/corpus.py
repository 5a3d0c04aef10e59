"""The golden corpus: command lines of every subcommand, replayed in-process through
``cli.main``, with the exit code, stdout and stderr of each and the sha256 of each file
it writes. A manifest is hashed with its ``numpy_version`` and ``python_version`` masked.

``PYTHONPATH=src python tests/golden/corpus.py`` rewrites ``expected.json`` from the
wgrkit it imports; ``tests/test_golden.py`` replays the corpus and compares. A change
of behaviour rewrites the file in the same commit and names each case that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
#: The configs the cases name, copied into the replay directory: the shipped smoke
#: config and the benchmark workloads' seed-1 configs.
CONFIGS = {
    "smoke.json": HERE.parents[1] / "configs" / "smoke.json",
    **{name: HERE / name for name in ("functionals-2d.json", "decay-cover-1d.json",
                                      "cz-nested-1d.json")},
}
_SMOKE = ["--config", "smoke.json"]
_SMOKE_CHECKS = ("wgr", "superlevel_bound", "osc_from_superlevel", "sublevel_bound",
                 "neg_osc_from_sublevel", "jn_decay", "rhi_equivalence_observed",
                 "beta_asymptotic", "cavalieri")
#: Each case's argv, run in this order in one directory: ``space validate`` reads the
#: file ``space gen`` wrote.
CASES = [
    ["run", *_SMOKE, "--out", "out-run"],
    ["space", "gen", *_SMOKE, "--out", "out-space.json"],
    ["space", "validate", "--in", "out-space.json"],
    ["weight", "gen", *_SMOKE, "--out", "out-weight.json"],
    *(["check", name, *_SMOKE, "--out", f"out-check-{name}"] for name in _SMOKE_CHECKS),
    ["cz", "decompose", *_SMOKE, "--out", "out-cz-decompose.json"],
    ["cz", "nested", *_SMOKE, "--out", "out-cz-nested.json"],
    ["cover", *_SMOKE, "--out", "out-cover.json"],
    ["decay-table", *_SMOKE, "--out", "out-decay-table.csv"],
    *(["sweep", kind, *_SMOKE, "--out", f"out-sweep-{kind}.csv"] for kind in ("eps", "p", "sigma")),
    ["examples", "list"],
    ["run", "--config", "functionals-2d.json", "--out", "out-functionals-2d", "--threads", "1"],
    ["run", "--config", "decay-cover-1d.json", "--out", "out-decay-cover-1d", "--threads", "1"],
    ["cz", "nested", "--config", "cz-nested-1d.json", "--out", "out-cz-nested-1d.json",
     "--threads", "1"],
    ["cz", "decompose", "--config", "cz-nested-1d.json", "--out", "out-cz-decompose-1d.json"],
    ["--help"],
    ["run", "--config", "smoke.json", "--bogus"],
]
_VERSIONS = re.compile(rb'("(?:numpy|python)_version":\s*)"[^"]*"')


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = _VERSIONS.sub(rb'\1"*"', data)
    return hashlib.sha256(data).hexdigest()


def _outputs(argv: list[str]) -> dict[str, str]:
    """The sha256 of each file under the case's ``--out``, by relative path."""
    if "--out" not in argv:
        return {}
    target = Path(argv[argv.index("--out") + 1])
    files = sorted(p for p in target.rglob("*") if p.is_file()) if target.is_dir() else (
        [target] if target.exists() else [])
    return {p.as_posix(): _digest(p) for p in files}


def replay(directory: Path) -> dict:
    """Every case's record, from ``cli.main`` run in ``directory``, by its command line.
    Help is wrapped at 80 columns whatever the terminal."""
    from wgrkit import cli

    for name, source in CONFIGS.items():
        shutil.copyfile(source, directory / name)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        records = {}
        for argv in CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            records[" ".join(argv)] = {"exit": code, "stdout": out.getvalue(),
                                       "stderr": err.getvalue(), "outputs": _outputs(argv)}
        return records
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        records = replay(Path(tmp))
    EXPECTED.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {EXPECTED}")


if __name__ == "__main__":
    main()
