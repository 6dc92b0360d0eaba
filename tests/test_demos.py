import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from a2quotient import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("A2QUOTIENT_OUTDIR", raising=False)
    commands = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("a2quotient ")]
    assert len(commands) >= 7
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    quick_start = re.search(r"## Library quick start\n.*?```python\n(.*?)```",
                            readme, re.S).group(1)
    exec(quick_start, {})
