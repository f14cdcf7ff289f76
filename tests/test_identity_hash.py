"""Smoke test of tools/identity_hash.py on a small grid."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_grid_prints_the_same_eight_digests_twice():
    # the sweep's four lines first, then the paper's search's four, and the
    # two searches fingerprint different runs
    runs = [subprocess.run([sys.executable, str(ROOT / "tools" / "identity_hash.py"),
                            "--max-n", "3"], capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    lines = [line.split() for line in runs[0].splitlines()]
    sweep = [["anchor", "0", "full"], ["anchor", "0", "answers"],
             ["anchor", "2^n-1", "full"], ["anchor", "2^n-1", "answers"]]
    assert [line[:-1] for line in lines] == sweep + [["paper-search"] + s for s in sweep]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[-1]) for line in lines)
    assert len({line[-1] for line in lines}) == 8
    assert runs[1] == runs[0]
