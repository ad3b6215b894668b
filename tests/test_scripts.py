"""Every script under scripts/ runs to exit 0 at a tiny size.

The scripts import library names (``hit_time``, ``ChainAnalysis.forget_rules``, the CLI's
parser and commands), so a renamed or removed name shows here first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["tolerance_sweep.py", "--n", "60"],
        ["render_sweep.py", "--sizes", "50"],
        ["parse_sweep.py", "--sizes", "50"],
        ["scale_sweep.py", "--sizes", "30"],
        ["range_sweep.py", "--n", "8", "--seeds", "1", "--holding-seeds", "1"],
        ["duality_demo.py"],
        ["family_tour.py"],
    ],
    ids=lambda argv: argv[0].removesuffix(".py"),
)
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
