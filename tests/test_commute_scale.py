"""A smoke test of ``tools/commute_scale.py``: the children its record runs,
on one 3-box pair."""

import json
import subprocess
import sys
from pathlib import Path

from lrcommute.commutor import METHODS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "commute_scale.py"


def _child(*args) -> dict:
    done = subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_scale_tool_runs_and_counts_every_method(tmp_path):
    # lam = (2, 1) over mu = (1): the image is one switch away
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"outer": [2, 1], "inner": [1],
                                "rows": [[1], [2]]}))
    results = [_child("--child", method, str(path)) for method in METHODS]
    assert [(r["code"], r["swaps"]) for r in results] == [(0, 1)] * len(METHODS)
    assert len({r["sha256"] for r in results}) == 1
    assert _child("--count", "internal", str(path)) == {"code": 0, "calls": {
        "commutor._admissible": 0, "commutor._insert_inplace": 2,
        "insertion._uninsert_inplace": 0, "commutor._append_inplace": 1}}
