#!/usr/bin/env python3
"""Digests of the pmkit CLI reports on a fixed list of commands, and of a
few API outputs that no report shows in full.

Runs each command in-process through `pmkit.cli.main`, drops the report's
`timestamp` line and prints one line per command: the sha256 of the rest
of the report (or "-" when the command wrote none), the exit code and the
command.  The commands cover every subcommand, valid and invalid
threshold overrides, budget 0, the seed defaults, flags that an action
does not read and `classify` past the minor-sweep cap (n = 13, 14).  It
then prints one sha256 line per API group: `augment_to_P_set` on the 100
seed sets of the augmentation check of the suite run with seed 1, 2 and 3
(one line each; the report keeps only a failure count and the largest
addition count) and on three sets that random tuples of distinct values
once decided, `sigma_all`, `is_P_set` and `wedge_check` on value lists
on both sides of 800 values,
`realize_P_set` and `extremal_spectrum_search`, `diag_interp_check`,
`is_P_submatrix_eigen` on every class tag at n = 1..10, the
sign-reversal and sufficiency searches at their phase-boundary budgets
for n = 2..13, the LCP layer (`enumerate_for_each`, `lemke_solve` and
`uniqueness_census` with and without `stop_early`) at n = 1..10 and on
degenerate q, `enumerate_for_each` at n = 11, 12 (up to the enumeration
cap), `lemke_solve` at n = 12..32 on random q,
`feasible_point` on the orthant systems of column sufficiency at
n = 2, 3, the `values` and `real_values()` of `eigenvalues`, with and
without the residual check, on every class tag at n = 1..10, seeds 0-2,
the orthant-LP phase of `is_column_sufficient` at n = 4, the edge
branches of `wedge_check` (the P0 equality case) and of
`augment_to_P_set` (the scaled sigma and the early None), and
`find_reversal_witness`, `is_column_sufficient` and
`csufficient_kernel_search` on draws scaled from the subnormal range to
2^900, where the exact products of the witness gate pass 2,000 bits,
and `is_column_sufficient` and `is_row_sufficient` on a 2x2 that only
the violation-maximizing LP refutes and on a 2x2 whose "yes" a
gate-passing point contradicts, with `csufficient_kernel_search` on a
section whose refutation has a d_i past the float range, and
`is_P_minors` and `is_P0_minors` at n = 9..12 on every class tag, scaled
by 2^500 and 2^-500 too, and on inputs with zero pivots, overflowing or
rank-deficient minors, planted cycles and minors just under the P
threshold.
Raised errors are digested as type and message.  Two checkouts give the
same outputs exactly when their lines are equal, so a refactor is checked
with one diff:

    PYTHONPATH=src python scripts/report_digests.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/report_digests.py > before.txt
    diff before.txt after.txt

BLAS is pinned to one thread so the digests do not depend on the thread
count.  The full list takes about a minute, most of it `suite all` and
the augmentation sets.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from itertools import count, product  # noqa: E402

import numpy as np  # noqa: E402

from pmkit import classify, cli, feasibility, lcp, linalg, opsim, serialize, spectral  # noqa: E402
from pmkit.generators import CLASS_TAGS, GenSpec, generate  # noqa: E402

# P, with two eigenvalues in the left half-plane and an indefinite
# symmetric part: its sufficiency decision runs Fourier-Motzkin
P_NOT_STABLE = [[0.13, 0.08, -2.24], [-2.24, 0.03, -0.12], [0.02, 2.24, 0.09]]
# upper-triangular P-matrix under the cyclic permutation (a P-matrix that
# reaches Fourier-Motzkin too)
P_TRIANGULAR = [[1.0, 0.0, 0.0], [-3.0, 1.0, 4.0], [5.0, 0.0, 1.0]]

# not column sufficient, but its Fourier-Motzkin points miss the strict
# margin: only the violation-maximizing LP point refutes it
BACKSTOP_NO = [[230078478002.34384, 586235463.6407787], [14415847.250537457, 1.2532405601848157e-06]]
# column sufficiency reads "yes" though (8.809803927180838e-06,
# -0.9692296307052872) passes the strict gate
CONTRADICTED_YES = [[14.278032135783922, 0.0001297800434461658], [56755.009105894955, 5.180488520048094e-07]]
# a section whose kernel refutation has a d_i past the float range
D_PAST_FLOAT_RANGE = [
    [4.948525685970709e+301, -2.246878945848521e+296, -6.035876691077345e+303],
    [-5.525065173437961e+292, -6.1396931713842785e+290, -1.5843144173871313e+289],
    [-6.612659898616735e+290, 2.857841715166194e+301, 5.170113022846902e+302],
]


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
        # column sufficient (PSD): the classifier says yes, and no kernel
        # refutation is reported
        "psd5-35": _literal(generate(GenSpec("PSD", 5, seed=35))),
        # classifier "no"s that a float D grid missed
        "arb4-14": _literal(generate(GenSpec("arbitrary", 4, seed=14))),
        "z4-0": _literal(generate(GenSpec("Z", 4, seed=0))),
    }


PSET_VALUES = ("1,1", "1+2i,1-2i", "1+2i,1-2i,0.5", "-1+2i,-1-2i,3,3,3", "2,-1")
# threshold coefficient overrides: valid ones land in the report, invalid
# ones (and budget 0) must fail before any verdict is taken
TOL_OVERRIDES = (["--tol-minor=1e-8"], ["--tol-sing=1e-9"], ["--tol-minor=1e-12", "--tol-sing=1e-14"])
BAD_ARGS = (["--tol-minor=nan"], ["--tol-minor=inf"], ["--tol-sing=0"])
SQRT_SPEC = {"kind": "diagonal", "rule": {"name": "inverse-square-diagonal", "params": {"c": 1.0}}, "decay": True}
TRIDIAG_SPEC = {"kind": "banded", "rule": {"name": "tridiag", "params": {"a": 2.0, "b": -1.0}}, "decay": False}
POSITIVE = [[1.0, 2.0, 0.5], [0.3, 1.0, 2.0], [1.0, 1.0, 1.0]]


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
    sqrt_spec, tridiag = put("op-sqrt", SQRT_SPEC), put("op-tridiag", TRIDIAG_SPEC)
    cmds += [["opsim", "sqrt", "--spec", sqrt_spec, "--order", order] for order in ("16", "64")]
    cmds.append(["opsim", "minmax", "--spec", put("op-positive", _literal(POSITIVE)),
                 "--order", "3", "--trials", "30", "--seed", "2"])
    cmds.append(["opsim", "rev", "--spec", tridiag, "--order", "3", "--x=1,-1,1"])
    cmds.append(["opsim", "rev", "--spec", sqrt_spec, "--order", "2", "--x=-1,1"])
    cmds.append(["gen", "--class", "P-diagdom", "--n", "5", "--seed", "3"])
    pdiag, example = os.path.join(tmp, "m-pdiag6.json"), os.path.join(tmp, "m-example.json")
    for extra in TOL_OVERRIDES:
        for path in (pdiag, example):
            cmds.append(["classify", "--input", path, "--seed", "3"] + extra)
        cmds.append(["factor", "--input", pdiag] + extra)
    for extra in BAD_ARGS:
        cmds.append(["classify", "--input", example] + extra)
        cmds.append(["factor", "--input", example] + extra)
    cmds.append(["gen", "--class", "P-diagdom", "--n", "5", "--seed", "3", "--tol-minor=nan"])
    cmds.append(["classify", "--input", example, "--budget", "0"])
    for name in ("cayley", "operator", "lcp"):
        cmds.append(["suite", name, "--seed", "2"])
    # the seed defaults: 0 for classify and the census, 1 for a suite
    p6 = os.path.join(tmp, "lcp-p6.json")
    cmds.append(["classify", "--input", pdiag])
    cmds.append(["lcp", "census", "--input", p6, "--trials", "60"])
    cmds.append(["suite", "operator"])
    # flags these actions do not read
    cmds.append(["lcp", "solve", "--input", p6, "--trials", "5"])
    cmds.append(["opsim", "sqrt", "--spec", sqrt_spec, "--order", "16", "--x=1"])
    # a small-scale section pair (|det| = 3e-17, every pivot 5e-4) and a
    # small x (products 1e-12) on the identity
    small = _literal(5e-4 * np.eye(5))
    cmds.append(["opsim", "interp", "--spec", put("interp-small-identity", {"s": small, "t": small}),
                 "--order", "5", "--trials", "10"])
    cmds.append(["opsim", "rev", "--spec", put("op-identity2", _literal(np.eye(2))), "--order", "2",
                 "--x=1e-6,1e-6"])
    # past the minor-sweep cap: P and P0 by the sign-reversal search alone
    for name, spec in (("pdiag13", GenSpec("P-diagdom", 13, seed=1)), ("nonp14", GenSpec("non-P", 14, seed=1))):
        cmds.append(["classify", "--input", put("m-" + name, serialize.matrix_to_obj(generate(spec)))])
    return cmds


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.lstrip().startswith('"timestamp":')]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _plain(x):
    """Outputs as plain Python values whose repr is exact (arrays as lists
    of floats, dataclasses as their field values)."""
    if isinstance(x, np.ndarray):
        return (str(x.dtype), x.tolist())
    if hasattr(x, "__dataclass_fields__"):
        return (type(x).__name__,) + tuple(_plain(getattr(x, f)) for f in x.__dataclass_fields__)
    if isinstance(x, (tuple, list)):
        return tuple(_plain(v) for v in x)
    return x


def _outcome(fn, *args, **kwargs):
    try:
        return _plain(fn(*args, **kwargs))
    except Exception as exc:  # the error is part of the output
        return ("raised", type(exc).__name__, str(exc))


def _augment_outputs(suite_seed: int) -> list:
    """The seed sets of the augmentation check of the suite run with
    `suite_seed`."""
    out = []
    for k in range(100):
        g = np.random.default_rng(suite_seed * 6_000_029 + k)
        vals = []
        for _ in range(int(g.integers(1, 4))):
            a, b = g.uniform(-3.0, 3.0), g.uniform(0.25, 3.0)
            vals += [complex(a, b), complex(a, -b)]
        for _ in range(int(g.integers(0, 3))):
            vals.append(complex(g.uniform(0.1, 3.0), 0.0))
        out.append(_outcome(spectral.augment_to_P_set, vals))
    return out


# values where, before augment_to_P_set lost its random tuples, a tuple of
# distinct random values decided the search
RANDOM_TUPLE_CASES = (
    [complex(-1.2709828402885623, 1.671693904991313), complex(-1.2709828402885623, -1.671693904991313),
     0.362074422666861],
    [complex(-0.22578742833737842, 0.5461795719882386), complex(-0.22578742833737842, -0.5461795719882386),
     complex(-1.688825161831149, 2.744289720901905), complex(-1.688825161831149, -2.744289720901905),
     5.685201850537812],
    [complex(-5.841815268733481, 5.456870694387031), complex(-5.841815268733481, -5.456870694387031),
     6.854809557046741, 4.724908738279774],
)


def _value_lists() -> list:
    """Conjugate-closed lists of 2 to 1201 values (the expansion switches
    to clongdouble past 800), with and without left-half-plane pairs and
    one large value that sets the scale."""
    rng = np.random.default_rng(5)
    lists = []
    for n, big, lo in ((2, 1.0, 0.1), (7, 1e6, -0.5), (40, 1.0, -0.5), (798, 40.0, 0.1),
                       (799, 3e3, -0.5), (800, 40.0, 0.1), (801, 40.0, 0.1), (802, 50.0, -0.5),
                       (1201, 1e3, 0.1), (1201, 2.0, 0.1)):
        vals = [complex(big, 0.0)]
        while len(vals) + 2 <= n:
            a, b = rng.uniform(lo, 2.0), rng.uniform(0.1, 1.5)
            vals += [complex(a, b), complex(a, -b)]
        while len(vals) < n:
            vals.append(complex(rng.uniform(0.2, 2.0), 0.0))
        lists.append(vals)
    lists.append([0.5] * 40)
    lists.append([complex(-1, 2), complex(-1, -2)] + [0.5] * 16)
    return lists


def _sigma_outputs() -> list:
    out = []
    for vals in _value_lists():
        out.append(_outcome(spectral.sigma_all, vals))
        out.append(_outcome(spectral.is_P_set, vals))
        out.append(_outcome(spectral.is_P_set, vals, variant="P0"))
        out.append(_outcome(spectral.wedge_check, vals))
        out.append(_outcome(spectral.wedge_check, vals, variant="P0"))
    return out


def _realize_outputs() -> list:
    sets = ([1.0, 1.0], [2.0, 0.5, 3.0], [complex(1, 2), complex(1, -2)],
            [complex(-1, 2), complex(-1, -2), 2.25], [complex(-0.5, 1), complex(-0.5, -1), 1.5, 1.5],
            [complex(-1, 2), complex(-1, -2), 3.0, 3.0, 3.0], [1.0] * 13, [1.0, -1.0])
    out = [_outcome(spectral.realize_P_set, vals, budget=3000, seed=seed) for vals in sets for seed in (0, 1)]
    out += [_outcome(spectral.extremal_spectrum_search, n, budget=60, seed=n) for n in (3, 4, 5)]
    return out


def _interp_outputs() -> list:
    def literal(mat):
        return opsim.make_spec("dense-rule", "matrix-literal", {"matrix": np.asarray(mat, dtype=float).tolist()})

    pdiag = literal(generate(GenSpec("P-diagdom", 5, seed=2)))
    pairs = (
        (literal([]), literal([]), 3),
        (literal(np.diag([2.0])), literal([]), 1),
        (pdiag, literal(np.diag([0.5, 1.0, 1.5, 2.0, 1.2])), 5),
        (opsim.make_spec("banded", "tridiag", {"a": 2.0, "b": -1.0}), literal([]), 6),
        (literal(np.diag([1.0, 0.0, 2.0])), literal([]), 3),
        (literal([]), literal(np.diag([1.0, 0.0, 2.0])), 3),
        (literal(np.diag([1.0, 0.0])), literal(np.diag([0.0, 1.0])), 2),
        (literal(np.diag([1.0, -1.0])), literal(np.diag([-1.0, 1.0])), 2),
        (literal([]), literal([]), 13),
    )
    return [_outcome(opsim.diag_interp_check, s, t, n, trials=30, seed=n) for s, t, n in pairs]


def _eigen_oracle_outputs() -> list:
    """is_P_submatrix_eigen on every class tag at n = 1..10, seeds 0-2."""
    return [_outcome(classify.is_P_submatrix_eigen, generate(GenSpec(tag, n, seed=seed)))
            for tag in CLASS_TAGS for n in range(1, 11) for seed in range(3)]


def _eigenvalue_outputs() -> list:
    """The values and real_values() of eigenvalues on every class tag at
    n = 1..10, seeds 0-2, with the residual check on and off (the Spectrum
    itself is not digested: its fields are not part of the oracle)."""
    def spectrum(m, check_residual):
        spec = linalg.eigenvalues(m, check_residual=check_residual)
        return spec.values, spec.real_values()

    return [_outcome(spectrum, generate(GenSpec(tag, n, seed=seed)), check)
            for tag in CLASS_TAGS for n in range(1, 11) for seed in range(3) for check in (True, False)]


def _search_outputs() -> list:
    """find_reversal_witness and column / row sufficiency at n = 2..13 on an
    arbitrary and a non-P draw and on I - 3C (C the cyclic shift, slightly
    perturbed: no axis candidate refutes it) at budget 1, the end of the
    2n^2 axis phase and one past it, and one past the random phase of each
    search."""
    out = []
    for n in range(2, 14):
        shift = np.roll(np.eye(n), 1, axis=1)
        perturb = 0.05 * np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        mats = (generate(GenSpec("arbitrary", n, seed=n)), generate(GenSpec("non-P", n, seed=n)),
                np.eye(n) - 3.0 * shift + perturb)
        axis = 2 * n * n
        for m in mats:
            # each search's random phase draws max(budget // share, 16) points
            for share, searches in ((4, (classify.find_reversal_witness,)),
                                    (2, (classify.is_column_sufficient, classify.is_row_sufficient))):
                end = next(b for b in count(axis) if b - axis >= max(b // share, 16))
                for budget in (1, axis, axis + 1, end + 1):
                    out += [_outcome(fn, m, budget=budget, seed=n) for fn in searches]
    return out


def _lcp_outputs() -> list:
    """enumerate_for_each over random and degenerate q (zero entries,
    repeated entries, q >= 0), lemke_solve on each q, and the census with
    stop_early off and on, for five classes at n = 1..10 and for the
    nilpotent, zero and diag(-1, 1) fixtures."""
    rng = np.random.default_rng(9)
    mats = [generate(GenSpec(tag, n, seed=n))
            for tag in ("P-diagdom", "non-P", "M-matrix", "sym-PD", "arbitrary") for n in range(1, 11)]
    mats += [np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)), np.diag([-1.0, 1.0])]
    out = []
    for i, m in enumerate(mats):
        n = m.shape[0]
        q = rng.uniform(-5.0, 5.0, n)
        qs = [rng.uniform(-5.0, 5.0, n) for _ in range(4)]
        qs += [np.zeros(n), np.where(np.arange(n) % 2 == 0, 0.0, q), np.full(n, q[0]), np.full(n, -1.0),
               np.abs(q)]
        out.append(_outcome(lambda: list(lcp.enumerate_for_each(m, qs))))
        out += [_outcome(lcp.lemke_solve, lcp.LCPInstance.make(m, x)) for x in qs]
        out += [_outcome(lcp.uniqueness_census, m, 12, seed=i, stop_early=stop) for stop in (False, True)]
    return out


def _lcp_wide_outputs() -> list:
    """enumerate_for_each at n = 11, 12, up to ENUM_MAX_DIM, for the five
    classes of the LCP group, on random and degenerate q."""
    rng = np.random.default_rng(13)
    out = []
    for tag in ("P-diagdom", "non-P", "M-matrix", "sym-PD", "arbitrary"):
        for n in (11, 12):
            m = generate(GenSpec(tag, n, seed=n))
            q = rng.uniform(-5.0, 5.0, n)
            qs = [rng.uniform(-5.0, 5.0, n) for _ in range(4)]
            qs += [np.zeros(n), np.where(np.arange(n) % 2 == 0, 0.0, q), np.full(n, -1.0), np.abs(q)]
            out.append(_outcome(lambda: list(lcp.enumerate_for_each(m, qs))))
    return out


def _lemke_outputs() -> list:
    """lemke_solve on random q (no ties) for three classes at n = 12..32."""
    rng = np.random.default_rng(12)
    out = []
    for tag in ("P-diagdom", "M-matrix", "arbitrary"):
        for n in (12, 16, 24, 32):
            m = generate(GenSpec(tag, n, seed=n + 1))
            out += [_outcome(lcp.lemke_solve, lcp.LCPInstance.make(m, rng.uniform(-5.0, 5.0, n)))
                    for _ in range(4)]
    return out


def _feasibility_outputs() -> list:
    """feasible_point, as exact fraction strings, on every orthant system
    (with and without a violation position) of the two 3x3 P fixtures and
    of seeded arbitrary, triangular (up to a cyclic permutation) and
    small integer matrices at n = 2, 3."""
    def exact(rows, consts):
        point = feasibility.feasible_point(rows, consts)
        return None if point is None else tuple(str(v) for v in point)

    mats = [np.array(P_NOT_STABLE), np.array(P_TRIANGULAR)]
    for n in (2, 3):
        rng = np.random.default_rng(n)
        shift = np.roll(np.eye(n), 1, axis=1)
        for seed in range(4):
            arb = generate(GenSpec("arbitrary", n, seed=seed))
            mats += [arb, shift @ np.triu(arb) @ shift.T, rng.integers(-4, 5, (n, n)).astype(float)]
    out = []
    for mat in mats:
        n = mat.shape[0]
        for signs in product((1, -1), repeat=n):
            for i in (None,) + tuple(range(n)):
                a_ub, b_ub = classify._reversal_cone(mat, signs, i)
                out.append(_outcome(exact, list(-a_ub), list(b_ub)))
    return out


def _lp_phase_outputs() -> list:
    """is_column_sufficient at n = 4 on a permuted upper-triangular
    P-matrix (off-diagonal magnitudes 3.5-6 against diagonals 0.5-1.5),
    with a budget that leaves the axis and random phases without a
    witness, so the orthant LPs run."""
    rng = np.random.default_rng(4)
    n = 4
    mat = np.diag(rng.uniform(0.5, 1.5, n))
    iu = np.triu_indices(n, 1)
    mat[iu] = rng.uniform(3.5, 6.0, len(iu[0])) * rng.choice([-1.0, 1.0], len(iu[0]))
    perm = rng.permutation(n)
    return [_outcome(classify.is_column_sufficient, mat[np.ix_(perm, perm)], budget=2 * n * n + 40)]


def _spectral_edge_outputs() -> list:
    """wedge_check's P0 equality case ({+-i} and the cube roots of unity),
    and augment_to_P_set on a pair whose sigma overflows unscaled and on a
    pair so near the negative axis that the Kellogg bound asks for more
    additions than the search allows."""
    w = complex(-0.5, np.sqrt(3.0) / 2.0)
    return [
        _outcome(spectral.wedge_check, [1j, -1j], "P0"),
        _outcome(spectral.wedge_check, [w, w.conjugate(), 1.0], "P0"),
        _outcome(spectral.augment_to_P_set, [complex(1e200, 1e200), complex(1e200, -1e200)]),
        _outcome(spectral.augment_to_P_set, [complex(-1.0, 1e-4), complex(-1.0, -1e-4)]),
    ]


def _wide_scale_outputs() -> list:
    """find_reversal_witness and is_column_sufficient on non-P, arbitrary
    and Z draws at n = 2, 3, 5, 8, scaled by 2^k for k = -1000, -500, 500,
    900 and as D A D with D = diag(2^-500, 2^450, ...) (entries from
    2^-1000 to 2^900, so exact products pass 2,000 bits), and
    csufficient_kernel_search on two sections scaled into the subnormal
    range and by 2^900."""
    out = []
    for tag, n in product(("non-P", "arbitrary", "Z"), (2, 3, 5, 8)):
        d = np.diag(2.0 ** np.resize([-500, 450], n))
        mats = [generate(GenSpec(tag, n, seed=n, scale=2.0 ** k)) for k in (-1000, -500, 500, 900)]
        for m in mats + [d @ generate(GenSpec(tag, n, seed=n)) @ d]:
            out.append(_outcome(classify.find_reversal_witness, m, budget=200, seed=n))
            out.append(_outcome(classify.is_column_sufficient, m, budget=200, seed=n))
    for tag, seed in (("arbitrary", 14), ("Z", 0)):
        for k in (-1060, 900):
            spec = opsim.make_spec("dense-rule", "matrix-literal",
                                   {"matrix": (generate(GenSpec(tag, 4, seed=seed)) * 2.0 ** k).tolist()})
            out.append(_outcome(opsim.csufficient_kernel_search, spec, 4, seed=1))
    return out


def _minor_sweep_outputs() -> list:
    """is_P_minors and is_P0_minors at n = 9..12 on every class tag, seeds
    0-2, unscaled and scaled by 2^500 and 2^-500, and on hostile inputs:
    planted negative cycles at n = 12 (unit diagonal, small noise, -2 on
    each cycle), I_n with a [[0, 1], [1, 0]] or [[0, 1], [-1, 0]] leading
    block and with one zero diagonal entry, the n x n matrix of 1e300, a
    rank-3 G^T G at n = 10 and the six fixed sym-PD inputs of the
    benchmark that the sweep calls "no"."""
    mats = []
    for tag, n, seed in product(CLASS_TAGS, range(9, 13), range(3)):
        m = generate(GenSpec(tag, n, seed=seed))
        mats += [m, m * 2.0 ** 500, m * 2.0 ** -500]
    rng = np.random.default_rng(29)
    for cycle in ((3, 4, 5), (2, 9, 11), (1, 6, 8, 12), (4, 5, 7, 10, 11), (9, 10, 11, 12), tuple(range(1, 13))):
        m = np.eye(12) + rng.uniform(-0.01, 0.01, (12, 12))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            m[a - 1, b - 1] = -2.0
        mats.append(m)
    for n in range(9, 13):
        for block in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]):
            m = np.eye(n)
            m[:2, :2] = block
            mats.append(m)
        zero_diag = np.eye(n)
        zero_diag[n // 2, n // 2] = 0.0
        mats += [zero_diag, np.full((n, n), 1e300)]
    g = rng.standard_normal((3, 10))
    mats.append(g.T @ g)
    mats +=[generate(GenSpec("sym-PD", n, seed=seed))
             for n, seed in ((9, 9000), (10, 10001), (11, 11000), (11, 11001), (12, 12000), (12, 12001))]
    return [_outcome(fn, m) for m in mats for fn in (classify.is_P_minors, classify.is_P0_minors)]


def _backstop_outputs() -> list:
    b, a = np.array(BACKSTOP_NO), np.array(CONTRADICTED_YES)
    spec = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": D_PAST_FLOAT_RANGE})
    return [
        _outcome(classify.is_column_sufficient, b),
        _outcome(classify.is_column_sufficient, a),
        _outcome(classify.is_row_sufficient, b),
        _outcome(opsim.csufficient_kernel_search, spec, 3),
    ]


API_GROUPS = (
    ("augment_to_P_set seed-1 suite sets", lambda: _augment_outputs(1)),
    ("augment_to_P_set seed-2 suite sets", lambda: _augment_outputs(2)),
    ("augment_to_P_set seed-3 suite sets", lambda: _augment_outputs(3)),
    ("augment_to_P_set random-tuple cases",
     lambda: [_outcome(spectral.augment_to_P_set, vals) for vals in RANDOM_TUPLE_CASES]),
    ("sigma_all is_P_set wedge_check", _sigma_outputs),
    ("realize_P_set extremal_spectrum_search", _realize_outputs),
    ("diag_interp_check", _interp_outputs),
    ("is_P_submatrix_eigen", _eigen_oracle_outputs),
    ("find_reversal_witness is_column_sufficient is_row_sufficient", _search_outputs),
    ("enumerate_for_each uniqueness_census lemke_solve", _lcp_outputs),
    ("lemke_solve n = 12..32 random q", _lemke_outputs),
    ("feasible_point orthant systems", _feasibility_outputs),
    ("enumerate_for_each n = 11, 12", _lcp_wide_outputs),
    ("eigenvalues values real_values", _eigenvalue_outputs),
    ("is_column_sufficient orthant-LP phase n = 4", _lp_phase_outputs),
    ("wedge_check P0 equality augment_to_P_set overflow and none", _spectral_edge_outputs),
    ("find_reversal_witness is_column_sufficient csufficient_kernel_search at 2^-1000..2^900",
     _wide_scale_outputs),
    ("is_column_sufficient is_row_sufficient LP backstop csufficient_kernel_search d past float range",
     _backstop_outputs),
    ("is_P_minors is_P0_minors n = 9..12 at 2^-500..2^500 and hostile inputs", _minor_sweep_outputs),
)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for i, cmd in enumerate(_commands(tmp)):
            out = os.path.join(tmp, f"report-{i}.json")
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cmd + ["--out", out, "--quiet"])
            shown = [os.path.basename(a) if a.startswith(tmp) else a for a in cmd]
            print(f"{_digest(out)}  exit={code}  {' '.join(shown)}")
    for label, outputs in API_GROUPS:
        digest = hashlib.sha256(repr(outputs()).encode()).hexdigest()
        print(f"{digest}  api  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
