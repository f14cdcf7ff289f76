"""Smoke test of tools/scale_solve.py at a small n."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_solve_prints_its_time_and_peak_rss():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "scale_solve.py"), "8"],
                         capture_output=True, text=True, check=True).stdout
    assert re.fullmatch(r"cut-minus-modular n = 8: solve \d+\.\d\d s, peak RSS \d+ MB, "
                        r"optimal\n", out)
