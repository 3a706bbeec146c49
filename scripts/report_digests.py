#!/usr/bin/env python3
"""Digests of the pmkit CLI reports on a fixed list of commands.

Runs each command in-process through `pmkit.cli.main`, drops the report's
`timestamp` line and prints one line per command: the sha256 of the rest
of the report (or "-" when the command wrote none), the exit code and the
command.  Two checkouts give the same reports, timestamps aside, exactly
when their outputs are equal, so a refactor is checked with one diff:

    PYTHONPATH=src python scripts/report_digests.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/report_digests.py > before.txt
    diff before.txt after.txt

BLAS is pinned to one thread so the digests do not depend on the thread
count.  The full list takes about half a minute, most of it `suite all`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from pmkit import cli, serialize  # noqa: E402
from pmkit.generators import GenSpec, generate  # noqa: E402

# P, with two eigenvalues in the left half-plane and an indefinite
# symmetric part: its sufficiency decision runs Fourier-Motzkin
P_NOT_STABLE = [[0.13, 0.08, -2.24], [-2.24, 0.03, -0.12], [0.02, 2.24, 0.09]]
# upper-triangular P-matrix under the cyclic permutation (a P-matrix that
# reaches Fourier-Motzkin too)
P_TRIANGULAR = [[1.0, 0.0, 0.0], [-3.0, 1.0, 4.0], [5.0, 0.0, 1.0]]


def _matrices() -> dict:
    return {
        "pdiag6": generate(GenSpec("P-diagdom", 6, seed=7)),
        "p-not-stable": np.array(P_NOT_STABLE),
        "p-triangular": np.array(P_TRIANGULAR),
        "example": np.array([[-1.0, -1.0], [4.0, 3.0]]),
        "nonp5": generate(GenSpec("non-P", 5, seed=3)),
        "m8": generate(GenSpec("M-matrix", 8, seed=5)),
        "diag10": np.diag([1.0, 0.0]),
        "sympd12": generate(GenSpec("sym-PD", 12, seed=12000)),
    }


def _lcp_instances() -> dict:
    return {
        "p6": (generate(GenSpec("P-diagdom", 6, seed=11)), [-1.0, 2.0, -0.5, 0.3, -2.0, 1.0]),
        "diag-1-1": (np.diag([-1.0, 1.0]), [1.0, -1.0]),
        "nilpotent": (np.array([[0.0, 0.0], [1.0, 0.0]]), [-1.0, 1.0]),
        "zero": (np.zeros((2, 2)), [1.0, -1.0]),
        "m8": (generate(GenSpec("M-matrix", 8, seed=5)), [-1.0, 1.0] * 4),
    }


def _literal(mat) -> dict:
    rows = np.asarray(mat, dtype=float).tolist()
    return {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": rows}}, "decay": False}


def _interp_pairs() -> dict:
    ident = _literal([])
    tridiag = {"kind": "banded", "rule": {"name": "tridiag", "params": {"a": 2.0, "b": -0.5}}, "decay": False}
    pdiag = _literal(generate(GenSpec("P-diagdom", 5, seed=2)))
    return {
        "identity": {"s": ident, "t": ident},
        "tridiag": {"s": tridiag, "t": _literal(np.diag([3.0, 1.0, 2.0, 0.5, 1.0]))},
        "literal": {"s": pdiag, "t": _literal(np.diag([0.5, 1.0, 1.5, 2.0, 1.2]))},
    }


def _csuff_specs() -> dict:
    return {
        "diag-1-1": _literal(np.diag([1.0, -1.0])),
        "diag1110": _literal(np.diag([1.0, 1.0, 1.0, -1.0])),
        "eye4-tenth": _literal(np.eye(4) + 0.1),
    }


PSET_VALUES = ("1,1", "1+2i,1-2i", "1+2i,1-2i,0.5", "-1+2i,-1-2i,3,3,3", "2,-1")


def _commands(tmp: str) -> list[list[str]]:
    def put(name: str, obj) -> str:
        path = os.path.join(tmp, name + ".json")
        serialize.write_json(path, obj)
        return path

    cmds = [["suite", "all", "--seed", "1"]]
    for name, mat in _matrices().items():
        path = put("m-" + name, serialize.matrix_to_obj(mat))
        cmds.append(["classify", "--input", path, "--seed", "3"])
        cmds.append(["factor", "--input", path])
    for name, (mat, q) in _lcp_instances().items():
        path = put("lcp-" + name, serialize.lcp_instance_to_obj(mat, q))
        cmds.append(["lcp", "solve", "--input", path])
        cmds.append(["lcp", "enumerate", "--input", path])
        cmds.append(["lcp", "census", "--input", path, "--trials", "60", "--seed", "4"])
    for name, pair in _interp_pairs().items():
        path = put("interp-" + name, pair)
        cmds.append(["opsim", "interp", "--spec", path, "--order", "5", "--trials", "40", "--seed", "2"])
    for name, spec in _csuff_specs().items():
        path = put("csuff-" + name, spec)
        order = str(len(spec["rule"]["params"]["matrix"]))
        cmds.append(["opsim", "csuff", "--spec", path, "--order", order, "--seed", "1"])
    for values in PSET_VALUES:
        cmds.append(["pset", "--values=" + values])
    return cmds


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.lstrip().startswith('"timestamp":')]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for i, cmd in enumerate(_commands(tmp)):
            out = os.path.join(tmp, f"report-{i}.json")
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cmd + ["--out", out, "--quiet"])
            shown = [os.path.basename(a) if a.startswith(tmp) else a for a in cmd]
            print(f"{_digest(out)}  exit={code}  {' '.join(shown)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
