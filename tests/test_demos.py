"""Every demo script, and README's Quick start block, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _quick_start() -> str:
    """The first python block under README's "Quick start" heading."""
    section = README.read_text().split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_all_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS + [README], ids=[d.stem for d in DEMOS] + ["readme_quick_start"])
def test_demo_exits_zero(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "quick_start.py"
        demo.write_text(_quick_start())
    # run from an empty directory so that files a demo writes stay there
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
