"""The benchmark's workloads: seeded inputs, the chain of pmkit calls per
job, and the independent check of each job's outputs.

Every call into pmkit goes through a module attribute looked up at call
time (`classify.classify_matrix`, not a name bound at import), so the
traced run's wrappers see each call.

Job mixes are sized so that one pass takes a few seconds and the median
job sits inside one job group (README.md lists the groups).  Where a
planted position decides how much searching a job does, the position is
fixed per size rather than drawn from the seed, so the work per pass does
not depend on --seed; the seed draws the matrix entries and q vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from pmkit import cayley, classify, generators, lcp, linalg, opsim, spectral, suites
from pmkit.errors import NotAPMatrixError

import checks

CENSUS_TRIALS = 5          # q vectors per uniqueness census (n <= 10)
CENSUS_MAX_N = 10
LEMKE_QS = 10              # q vectors per Lemke job
SUITE_SEED = 1             # `pmkit suite all --seed 1`, the documented run

# certify-p: (input kind, n, jobs per pass).  The M-matrix n = 8 group is
# the largest (12 of 51 jobs), with 17 jobs surely faster and 16 surely
# slower, so the median job is one of its middle jobs.  The six jobs whose
# time lies near it (triangular n = 3, Lemke n = 32, P-diagdom n = 8, the
# two fixed sym-PD n = 8) shift the median by a few ranks inside the group
# at most.  M-matrix, not P-diagdom: at n = 8 the P-diagdom census time
# varies up to 2x with the seed's q vectors, the M-matrix one by ~20%.
# Seeded sym-PD stops at n = 6: from n = 8 on, some seeds hit the
# is_P_minors threshold fault, which is kept only on the fixed inputs
# below so that every run fails the same jobs.
CERTIFY_MEDIAN_GROUP = ("M-matrix", 8)
CERTIFY_SEEDED = [
    (kind, n, 12 if (kind, n) == CERTIFY_MEDIAN_GROUP else 1)
    for kind in ("P-diagdom", "M-matrix") for n in range(3, 13)
] + [("sym-PD", n, 1) for n in range(3, 7)] + [("triangular", 3, 2)]
CERTIFY_LEMKE = ((16, 1), (32, 1))
# Seed-independent sym-PD inputs (generator seeds 1000 n + j).
CERTIFY_FIXED_SYMPD = tuple((n, 1000 * n + j) for n in range(7, 13) for j in (0, 1))

# refute-nonp: (construction, n, jobs per pass).  The negated-diagonal
# n = 10 group is the largest, with as many jobs faster than it as slower,
# so the median job sits in its middle.
REFUTE_GROUPS = (
    [("negdiag", n, 8 if n == 10 else 1) for n in range(4, 13)]
    + [("pair", n, 1) for n in (*range(4, 14), 16)]
)


@dataclass
class Job:
    group: str
    fixed: bool                      # input does not depend on --seed
    call: Callable[[], Any]          # the timed chain of pmkit calls
    check: Callable[[Any], None]     # raises checks.CheckFailed
    validate: Callable[[], None] = lambda: None  # the input is what it claims


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def _generate(kind: str, n: int, seed: int) -> np.ndarray:
    return generators.generate(generators.GenSpec(kind, n, seed=seed))


def _triangular(rng: np.random.Generator, n: int) -> np.ndarray:
    """Permuted upper-triangular matrix with positive diagonal: P, since
    every principal submatrix is again permuted triangular with positive
    diagonal.  Off-diagonal magnitudes >= 3.5 against diagonals <= 1.5 make
    the symmetric part indefinite, so at n = 3 sufficiency goes past the
    PSD shortcut to the exact Fourier-Motzkin decision."""
    m = np.diag(rng.uniform(0.5, 1.5, n))
    iu = np.triu_indices(n, 1)
    m[iu] = rng.uniform(3.5, 6.0, len(iu[0])) * rng.choice([-1.0, 1.0], len(iu[0]))
    p = rng.permutation(n)
    return m[np.ix_(p, p)]


# ---------------------------------------------------------------------------
# certify-p


def _certify_job(kind: str, m: np.ndarray, fixed: bool, census_seed: int) -> Job:
    n = m.shape[0]

    def call():
        out = {"report": classify.classify_matrix(m)}
        try:
            out["factor"] = cayley.factor_p(m)
        except NotAPMatrixError as exc:
            out["factor"] = exc
        if n <= CENSUS_MAX_N:
            out["census"] = lcp.uniqueness_census(m, trials=CENSUS_TRIALS, seed=census_seed)
        return out

    def check(out):
        known = None
        try:
            checks.certified_report(kind, m, out["report"])
        except checks.KnownFault as exc:
            known = exc
        if isinstance(out["factor"], NotAPMatrixError):
            # factor_p's P test is the same is_P_minors sweep
            checks.require(known is not None, f"factor_p raised: {out['factor']}")
        else:
            checks.factorization(m, out["factor"])
        if n <= CENSUS_MAX_N:
            checks.census(out["census"], CENSUS_TRIALS)
        if known is not None:
            raise known

    return Job(f"certify {kind} n={n}" + (" fixed" if fixed else ""), fixed, call, check,
               lambda: checks.p_by_construction(kind, m))


def _lemke_job(m: np.ndarray, qs: np.ndarray) -> Job:
    def call():
        return [lcp.lemke_solve(lcp.LCPInstance.make(m, q)) for q in qs]

    def check(sols):
        for q, sol in zip(qs, sols):
            checks.lcp_solution(m, q, sol)

    return Job(f"lemke n={m.shape[0]}", False, call, check,
               lambda: checks.p_by_construction("P-diagdom", m))


def certify_p(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for kind, n, count in CERTIFY_SEEDED:
        for _ in range(count):
            m = _triangular(rng, n) if kind == "triangular" else _generate(kind, n, _draw(rng))
            jobs.append(_certify_job(kind, m, False, _draw(rng)))
    for n, gen_seed in CERTIFY_FIXED_SYMPD:
        jobs.append(_certify_job("sym-PD", _generate("sym-PD", n, gen_seed), True, gen_seed))
    for n, count in CERTIFY_LEMKE:
        for _ in range(count):
            m = _generate("P-diagdom", n, _draw(rng))
            jobs.append(_lemke_job(m, rng.uniform(-5.0, 5.0, (LEMKE_QS, n))))
    return jobs


def warm_certify_p() -> None:
    m = _generate("P-diagdom", 3, 0)
    classify.classify_matrix(m)
    cayley.factor_p(m)
    lcp.uniqueness_census(m, trials=1)
    lcp.lemke_solve(lcp.LCPInstance.make(m, [-1.0, 1.0, -1.0]))


# ---------------------------------------------------------------------------
# refute-nonp


def _planted(rng: np.random.Generator, kind: str, n: int):
    """A P-diagdom matrix with one planted violation at a fixed position:
    a negated diagonal entry (1x1 witness) at n // 2, or a symmetric pair
    at (0, n // 2) with c >= 1.2 max(a_ii, a_jj), so that c^2 > a_ii a_jj
    makes that 2x2 minor the only negative one of size <= 2.  The axis
    vectors e_i (resp. e_0 - e_{n//2}) reverse the sign of the matrix."""
    m = _generate("P-diagdom", n, _draw(rng))
    j = n // 2
    if kind == "negdiag":
        m[j, j] = -m[j, j]
        return m, (j + 1,)
    c = rng.uniform(1.2, 2.0) * max(m[0, 0], m[j, j])
    m[0, j] = m[j, 0] = c
    return m, (1, j + 1)


def _refute_job(kind: str, m: np.ndarray, planted: tuple[int, ...]) -> Job:
    n = m.shape[0]

    def call():
        return (
            classify.is_P_minors(m) if n <= classify.MINORS_MAX_DIM else None,
            classify.classify_matrix(m),
            classify.find_reversal_witness(m),
        )

    def check(out):
        minors, report, witness = out
        if n <= classify.MINORS_MAX_DIM:
            checks.minors_refutation(planted, minors)
        checks.refuting_report(m, planted, report)
        checks.reversal_witness(m, witness, strict=False)

    return Job(f"refute {kind} n={n}", False, call, check,
               lambda: checks.planted_violation(m, planted))


def refute_nonp(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for kind, n, count in REFUTE_GROUPS:
        for _ in range(count):
            jobs.append(_refute_job(kind, *_planted(rng, kind, n)))
    return jobs


def warm_refute_nonp() -> None:
    m, _ = _planted(np.random.default_rng(0), "pair", 3)
    classify.is_P_minors(m)
    classify.classify_matrix(m)
    classify.find_reversal_witness(m)


# ---------------------------------------------------------------------------
# suite-all


def _suite_job(name: str) -> Job:
    def call():
        return getattr(suites, f"suite_{name}")(SUITE_SEED)

    def check(report):
        checks.suite_report(name, report)

    return Job(f"suite {name}", True, call, check)


def suite_all(seed: int) -> list[Job]:
    """The four suites of `pmkit suite all --seed 1`; --seed does not enter,
    since this run is the documented reproduction."""
    return [_suite_job(name) for name in suites.SUITES]


def warm_suite_all() -> None:
    """One small call into each public function the suites lean on."""
    p3 = _generate("P-diagdom", 3, 0)
    classify.classify_matrix(p3)
    classify.is_P_submatrix_eigen(p3)
    classify.is_P_via_Z_spectrum(_generate("M-matrix", 3, 0))
    classify.powers_P_check(p3, kmax=2)
    linalg.charpoly(p3)
    spectral.sigma_all(linalg.eigenvalues(p3).values)
    spectral.realize_P_set([1.0, 1.0])
    spectral.augment_to_P_set([complex(0.5, 2.0), complex(0.5, -2.0)])
    cayley.verify_involution(p3)
    cayley.verify_identities(p3)
    cayley.factor_p(p3)
    cayley.sm1_probe(trials=2)
    cayley.scaled_stable_factor(p3, np.eye(3), np.eye(3))
    inst = lcp.LCPInstance.make(p3, [-1.0, 1.0, -1.0])
    lcp.validate_solution(inst, lcp.enumerate_solutions(inst).solutions[0])
    lcp.lemke_solve(inst)
    lcp.uniqueness_census(p3, trials=1)
    spec = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": p3.tolist()})
    diag = opsim.make_spec("diagonal", "inverse-square-diagonal", {"c": 1.0}, decay=True)
    eye = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": np.eye(3).tolist()})
    opsim.operator_sqrt(diag, 4)
    positive = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": (np.eye(3) + 1.0).tolist()})
    opsim.minmax_rho(positive, 3, samples=4)
    opsim.diag_interp_check(spec, eye, 3, trials=2)
    opsim.csufficient_kernel_search(spec, 2)
    opsim.eigen_positivity_check(diag, (2, 4))
    opsim.eigvec_rev_check(eye, 2)


WORKLOADS = {
    "certify-p": (certify_p, warm_certify_p),
    "refute-nonp": (refute_nonp, warm_refute_nonp),
    "suite-all": (suite_all, warm_suite_all),
}
