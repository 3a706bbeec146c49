"""Cold start: importing pmkit loads numpy only.  LU and the assignment of
`spectra_match` call scipy's compiled `_flapack` and `_lsap` modules,
loaded from their files without the scipy.linalg or scipy.optimize
packages; scipy.optimize loads only with the first LP."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pmkit import linalg

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

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
m = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
assert pmkit.factor_p(m).accepted
steps["factor_p"] = loaded()
pmkit.enumerate_solutions(pmkit.LCPInstance.make(m, [-1.0, 2.0, -3.0]))
steps["enumerate"] = loaded()
pmkit.uniqueness_census(m, trials=5)
steps["census"] = loaded()
assert pmkit.realize_P_set([1.0 + 1.0j, 1.0 - 1.0j, 2.0]) is not None
steps["realize"] = loaded()
# unit upper triangular, so P (no witness exists) with an indefinite
# symmetric part: the search runs through to its LP phase
m = np.eye(4) + 10.0 * np.eye(4, k=1)
assert pmkit.find_reversal_witness(m) is None
steps["reversal"] = loaded()
print(json.dumps(steps))
"""

# In either load order, scipy's packages and `scipy_extension` must hand out
# the same functions, and the LU kernel must give scipy.linalg.lu_factor /
# lu_solve's bits.  With pmkit first, its LU and assignment calls load the
# compiled modules before scipy's packages are imported.
LOAD_ORDER_PROBE = """
import json, sys
import numpy as np
from pmkit import linalg, spectral
from pmkit.generators import CLASS_TAGS

if sys.argv[1] == "pmkit-first":
    linalg.solve(np.eye(2), [1.0, 2.0])
    spectral.spectra_match([1.0, 2.0], [2.0, 1.0])
    assert "scipy.linalg" not in sys.modules and "scipy.optimize" not in sys.modules
import scipy.linalg.lapack, scipy.optimize
from test_linalg import TestDirectLapack

flapack = linalg.scipy_extension("linalg._flapack")
for tag in CLASS_TAGS:
    TestDirectLapack().test_same_bits_as_scipy(tag)
print(json.dumps({
    "dgetrf": flapack.dgetrf is scipy.linalg.lapack.dgetrf,
    "dgetrs": flapack.dgetrs is scipy.linalg.lapack.dgetrs,
    "lsap": linalg.scipy_extension("optimize._lsap").linear_sum_assignment
    is scipy.optimize.linear_sum_assignment,
    "tags": len(CLASS_TAGS),
}))
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

NONE_LOADED = {"scipy.linalg": False, "scipy.optimize": False, "scipy.sparse": False}


def _fresh_run(code: str, path: str = str(SRC), *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_loads_only_with_the_calls_that_use_it():
    steps = _fresh_run(PROBE)
    for step in ("import", "solve", "factor_p", "enumerate", "census", "realize"):
        assert steps[step] == NONE_LOADED, step
    assert steps["reversal"]["scipy.optimize"]


def test_scipy_imported_later_hands_out_the_same_functions():
    got = _fresh_run(LOAD_ORDER_PROBE, os.pathsep.join((str(SRC), str(TESTS))), "pmkit-first")
    assert got == {"dgetrf": True, "dgetrs": True, "lsap": True, "tags": 7}


def test_scipy_imported_first_hands_out_the_same_functions():
    got = _fresh_run(LOAD_ORDER_PROBE, os.pathsep.join((str(SRC), str(TESTS))), "scipy-first")
    assert got == {"dgetrf": True, "dgetrs": True, "lsap": True, "tags": 7}


def test_missing_extension_raises_import_error_naming_it():
    with pytest.raises(ImportError) as err:
        linalg.scipy_extension("linalg._no_such_module")
    directory = os.path.dirname(linalg.scipy_extension("linalg._flapack").__file__)
    assert "scipy.linalg._no_such_module" in str(err.value)
    assert directory in str(err.value)


def test_kernel_search_on_an_axis_witness_loads_no_scipy():
    assert _fresh_run(CSUFF_PROBE) == NONE_LOADED
