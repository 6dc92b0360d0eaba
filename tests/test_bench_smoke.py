"""Smoke test of the benchmark harness: one short run of exact-reduce, of
spectral-sweep and of cli-session (the workload that drives the command
line) must produce a correct result with the end-to-end metrics
BENCHMARK.json declares.  A run is correct only when every failing op is a
listed known failure with its listed reason, so a failure reason that
drifts fails here.  No timing is checked.

The harness writes its records under its own directory, so the test runs a
copy of ``perfbench/`` and ``BENCHMARK.json`` next to a link to ``src/`` in
``tmp_path``: nothing is written under the checkout, and concurrent runs do
not share record paths."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["exact-reduce", "spectral-sweep", "cli-session"])
def test_workload_run(tmp_path, workload):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    if workload == "exact-reduce":
        assert result["failed"] == 0
    else:
        # both have listed known failures (overflow at q >= 5 and
        # cli.eigen.cusp.q11.d400)
        assert result["failed"] < result["attempted"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
