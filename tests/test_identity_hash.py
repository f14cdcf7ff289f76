"""Smoke test of tools/identity_hash.py on a small grid."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_grid_prints_the_same_four_digests_twice():
    runs = [subprocess.run([sys.executable, str(ROOT / "tools" / "identity_hash.py"),
                            "--max-n", "3"], capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    lines = runs[0].splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["anchor", "0", "full"], ["anchor", "0", "answers"],
        ["anchor", "2^n-1", "full"], ["anchor", "2^n-1", "answers"]]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[3]) for line in lines)
    assert runs[1] == runs[0]
