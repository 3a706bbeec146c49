"""Cold start: importing pmkit loads numpy only; scipy.linalg loads with the
first LAPACK LU and scipy.optimize with the first LP or assignment."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy as np

def loaded():
    return {m: m in sys.modules for m in ("scipy.linalg", "scipy.optimize", "scipy.sparse")}

steps = {}
import pmkit, pmkit.cli
steps["import"] = loaded()
pmkit.solve(np.eye(2), [1.0, 2.0])
steps["solve"] = loaded()
# unit upper triangular, so P (no witness exists) with an indefinite
# symmetric part: the search runs through to its LP phase
m = np.eye(4) + 10.0 * np.eye(4, k=1)
assert pmkit.find_reversal_witness(m) is None
steps["reversal"] = loaded()
pmkit.realize_P_set([1.0, 1.0])
steps["realize"] = loaded()
print(json.dumps(steps))
"""

# the axis scan of the classifier finds the witness e_4, and the kernel
# refutation is built from it in exact arithmetic: no scipy module loads
CSUFF_PROBE = """
import json, sys
from pmkit import opsim

rows = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
rows[3][3] = -1.0
spec = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": rows})
assert opsim.csufficient_kernel_search(spec, 4).refuted
print(json.dumps({m: m in sys.modules for m in ("scipy.linalg", "scipy.optimize", "scipy.sparse")}))
"""


def _fresh_run(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_loads_only_with_the_calls_that_use_it():
    steps = _fresh_run(PROBE)
    assert steps["import"] == {"scipy.linalg": False, "scipy.optimize": False, "scipy.sparse": False}
    assert steps["solve"]["scipy.linalg"] and not steps["solve"]["scipy.optimize"]
    assert steps["reversal"]["scipy.linalg"] and steps["reversal"]["scipy.optimize"]
    assert steps["realize"]["scipy.linalg"] and steps["realize"]["scipy.optimize"]


def test_kernel_search_on_an_axis_witness_loads_no_scipy():
    assert _fresh_run(CSUFF_PROBE) == {"scipy.linalg": False, "scipy.optimize": False, "scipy.sparse": False}
