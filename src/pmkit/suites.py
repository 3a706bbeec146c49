"""Batch property suites: the machine-checkable content of every module,
run at documented sizes with seeded generators.

Each check returns a pass flag plus a detail record; a failed check is a
mathematical contradiction (distinct from an operational error) and drives
the CLI exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import cayley, classify, lcp, opsim, spectral
from .classify import NO, YES
from .errors import UnknownSuiteError
from .generators import GenSpec, generate
from .linalg import charpoly, eigenvalues, inverse
from .tolerances import DEFAULT_TOL, Tolerances

AGREEMENT_TRIALS = 1000          # oracle agreement matrices, n in 2..6
T111_TRIALS = 500                # shift/inverse closure batch
GENERATOR_DRAWS = 1000           # per class tag
BRIDGE_TRIALS = 500              # sigma/charpoly bridge
AUGMENT_TRIALS = 100             # conjugate-pair seed sets
ZPATH_TRIALS = 300               # Z-route consistency
POWERS_SAMPLES = 20              # powers evidence harness
CAYLEY_TRIALS = 500              # involution/identities/factorization
SM1_TRIALS = 1000                # positive-stability probe
LCP_FORWARD_MATRICES = 200
LCP_FORWARD_QS = 20
LCP_CONTRA_MATRICES = 50
LCP_CONTRA_SAMPLES = 500
LCP_CONTRA_RATE = 0.90
MINMAX_SECTIONS = 100
INTERP_TRIALS = 500
SQRT_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict


@dataclass
class SuiteReport:
    name: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0  # set by run_suites

    @property
    def contradictions(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def add(self, name: str, passed: bool, **detail) -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))

    def as_obj(self) -> dict:
        # timing stays out of the report body: byte-identical reruns
        return {
            "suite": self.name,
            "seed": self.seed,
            "contradictions": self.contradictions,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _sizes(rng: np.random.Generator, count: int, lo: int = 2, hi: int = 6) -> list[int]:
    return [int(x) for x in rng.integers(lo, hi + 1, count)]


def _kellogg_violations(matrices, tol: Tolerances) -> int:
    """Count the matrices (n >= 2) whose spectrum wedge_check rejects."""
    return sum(
        1
        for m in matrices
        if m.shape[0] >= 2
        and spectral.wedge_check(eigenvalues(m, check_residual=False), tol=tol).verdict == NO
    )


# ---------------------------------------------------------------------------


def suite_classify(seed: int = 1, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    rpt = SuiteReport("classify", seed)
    rng = np.random.default_rng(seed)

    # the worked anchor: sigma-positive spectrum whose realizing matrix is not P
    example = np.array([[-1.0, -1.0], [4.0, 3.0]])
    spec = eigenvalues(example)
    eig_ok = all(abs(v - 1.0) <= 1e-8 for v in spec.values)
    sigma = spectral.sigma_all([1.0, 1.0])
    verdict, witness = classify.is_P_minors(example, tol)
    realized = spectral.realize_P_set([1.0, 1.0], tol=tol)
    realize_ok = (
        realized is not None
        and classify.is_P_minors(realized, tol)[0] == YES
        and spectral.spectra_match(eigenvalues(realized).values, [1.0, 1.0], 1e-8)[0]
    )
    rpt.add(
        "worked-example",
        eig_ok
        and np.allclose(sigma, [2.0, 1.0], atol=1e-12)
        and verdict == NO
        and witness == (1,)
        and spectral.is_P_set([1.0, 1.0], tol) == YES
        and realize_ok,
        eigenvalues=[[v.real, v.imag] for v in spec.values],
        sigma=list(map(float, sigma)),
        p_verdict=verdict,
        witness=list(witness or ()),
    )

    # oracle agreement on random matrices
    disagreements = 0
    for k, n in enumerate(_sizes(rng, AGREEMENT_TRIALS)):
        m = generate(GenSpec("arbitrary", n, seed=seed * 1_000_003 + k))
        if classify.is_P_minors(m, tol)[0] != classify.is_P_submatrix_eigen(m, tol):
            disagreements += 1
    rpt.add("oracle-agreement", disagreements == 0,
            trials=AGREEMENT_TRIALS, disagreements=disagreements)

    # theorem: A + D and A^{-1} stay P; P-matrices never refuted as sufficient
    failures = 0
    sufficiency_refutations = 0
    kellogg_pool = []
    for k, n in enumerate(_sizes(rng, T111_TRIALS)):
        a = generate(GenSpec("P-diagdom", n, seed=seed * 2_000_003 + k))
        d = np.diag(rng.uniform(0.0, 2.0, n) * rng.integers(0, 2, n))
        if classify.is_P_minors(a + d, tol)[0] != YES:
            failures += 1
        if classify.is_P_minors(inverse(a, tol), tol)[0] != YES:
            failures += 1
        if k % 5 == 0:
            if classify.is_column_sufficient(a, budget=200, seed=k, tol=tol)[0] == NO:
                sufficiency_refutations += 1
            if classify.is_row_sufficient(a, budget=200, seed=k, tol=tol)[0] == NO:
                sufficiency_refutations += 1
        kellogg_pool.append(a)
    rpt.add("t111-shift-inverse", failures == 0, trials=T111_TRIALS, failures=failures)
    rpt.add("p-subset-of-sufficient", sufficiency_refutations == 0,
            refutations=sufficiency_refutations)

    # generator oracle coverage
    gen_failures = {}
    for tag, check in (
        ("P-diagdom", lambda m: classify.is_P_minors(m, tol)[0] == YES),
        ("M-matrix", lambda m: classify.is_Z(m) == YES
         and classify.is_P_via_Z_spectrum(m, tol) == YES),
        ("sym-PD", lambda m: classify.is_P_minors(m, tol)[0] == YES),
        ("PSD", lambda m: classify.is_column_sufficient(m, budget=150, tol=tol)[0] != NO),
        ("non-P", lambda m: classify.is_P_minors(m, tol)[0] == NO),
    ):
        bad = 0
        for k in range(GENERATOR_DRAWS):
            n = 2 + k % 5
            m = generate(GenSpec(tag, n, seed=seed * 3_000_017 + k))
            if not check(m):
                bad += 1
        gen_failures[tag] = bad
    rpt.add("generator-oracles", sum(gen_failures.values()) == 0,
            draws_per_class=GENERATOR_DRAWS, failures=gen_failures)

    # sigma of the spectrum == charpoly coefficients
    bridge_bad = 0
    for k, n in enumerate(_sizes(rng, BRIDGE_TRIALS)):
        m = generate(GenSpec("arbitrary", n, seed=seed * 4_000_037 + k))
        sig = spectral.sigma_all(eigenvalues(m))
        p = charpoly(m)
        for j in range(1, n + 1):
            ref = p[j]
            if abs(sig[j - 1] - ref) > 1e-6 * max(1.0, abs(ref)):
                bridge_bad += 1
                break
    rpt.add("sigma-charpoly-bridge", bridge_bad == 0,
            trials=BRIDGE_TRIALS, failures=bridge_bad)

    # Z-route consistency
    z_bad = 0
    for k in range(ZPATH_TRIALS):
        n = 2 + k % 5
        m = generate(GenSpec("Z", n, seed=seed * 5_000_011 + k))
        if classify.is_P_via_Z_spectrum(m, tol) != classify.is_P_minors(m, tol)[0]:
            z_bad += 1
    rpt.add("z-route-consistency", z_bad == 0, trials=ZPATH_TRIALS, failures=z_bad)

    # Kellogg wedge across generated P-matrices
    kv = _kellogg_violations(kellogg_pool, tol)
    rpt.add("kellogg-wedge", kv == 0, matrices=len(kellogg_pool), violations=kv)

    # augmentation by positive reals
    aug_failures = 0
    max_added = 0
    for k in range(AUGMENT_TRIALS):
        g = np.random.default_rng(seed * 6_000_029 + k)
        vals = []
        for _ in range(int(g.integers(1, 4))):
            a, b = g.uniform(-3.0, 3.0), g.uniform(0.25, 3.0)
            vals += [complex(a, b), complex(a, -b)]
        for _ in range(int(g.integers(0, 3))):
            vals.append(complex(g.uniform(0.1, 3.0), 0.0))
        res = spectral.augment_to_P_set(vals, tol=tol)
        if res is None or spectral.is_P_set(list(vals) + list(res.additions), tol) != YES:
            aug_failures += 1
        else:
            max_added = max(max_added, len(res.additions))
    rpt.add("augmentation", aug_failures == 0,
            trials=AUGMENT_TRIALS, failures=aug_failures, max_additions_used=max_added)

    # powers evidence harness (open question: observation only)
    all_powers_p = 0
    positive_real_confirmed = 0
    for k in range(POWERS_SAMPLES):
        n = 2 + k % 3
        m = generate(GenSpec("P-diagdom", n, seed=seed * 7_000_003 + k))
        pw = classify.powers_P_check(m, kmax=4, tol=tol)
        if pw.all_powers_P:
            all_powers_p += 1
            if pw.eigenvalues_all_positive_real:
                positive_real_confirmed += 1
    rpt.add("powers-evidence", True, samples=POWERS_SAMPLES,
            all_powers_P=all_powers_p, positive_real=positive_real_confirmed)

    return rpt


def suite_cayley(seed: int = 1, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    rpt = SuiteReport("cayley", seed)
    rng = np.random.default_rng(seed + 11)

    inv_bad = idn_bad = fac_bad = path_bad = 0
    pool = []
    for k, n in enumerate(_sizes(rng, CAYLEY_TRIALS)):
        a = generate(GenSpec("P-diagdom", n, seed=seed * 8_000_009 + k))
        pool.append(a)
        if cayley.verify_involution(a, tol) > 1e-8:
            inv_bad += 1
        ids = cayley.verify_identities(a, tol)
        if ids.plus_residual > 1e-8 or ids.minus_singular or ids.minus_residual > 1e-8:
            idn_bad += 1
        res = cayley.factor_p(a, tol)
        if not res.accepted:
            fac_bad += 1
        if res.u_path_residual > 1e-8:
            path_bad += 1
    rpt.add("involution", inv_bad == 0, trials=CAYLEY_TRIALS, failures=inv_bad)
    rpt.add("transform-identities", idn_bad == 0, trials=CAYLEY_TRIALS, failures=idn_bad)
    rpt.add("factorization", fac_bad == 0, trials=CAYLEY_TRIALS, failures=fac_bad)
    rpt.add("factor-path-equivalence", path_bad == 0, failures=path_bad)

    kv = _kellogg_violations(pool, tol)
    rpt.add("kellogg-wedge", kv == 0, matrices=len(pool), violations=kv)

    probe = cayley.sm1_probe(trials=SM1_TRIALS, seed=seed, tol=tol)
    rpt.add("sm1-probe", probe.all_confirmed,
            trials=probe.trials, tested=probe.tested,
            counterexamples=len(probe.counterexamples),
            all_confirmed=probe.all_confirmed)

    scaled_ok = True
    fixture = np.array(cayley.P_NOT_POSITIVE_STABLE)
    for a, s, t in (
        (np.eye(2), np.eye(2), np.eye(2)),
        (np.diag([2.0, 3.0]), np.diag([1.0, 2.0]), np.diag([1.0, 2.0])),
        (fixture, np.eye(3), np.diag([0.5, 1.0, 2.0])),
    ):
        out = cayley.scaled_stable_factor(a, s, t, tol)
        if out.product_residual > 1e-8 or not out.ad_hurwitz_agrees:
            scaled_ok = False
    rpt.add("scaled-factor-examples", scaled_ok, cases=3)

    return rpt


def suite_lcp(seed: int = 1, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    rpt = SuiteReport("lcp", seed)
    rng = np.random.default_rng(seed + 23)

    multi = mismatch = skips = rays = invalid = 0
    pool = []
    for k, n in enumerate(_sizes(rng, LCP_FORWARD_MATRICES)):
        m = generate(GenSpec("P-diagdom", n, seed=seed * 9_000_043 + k))
        pool.append(m)
        qs = [rng.uniform(-5.0, 5.0, n) for _ in range(LCP_FORWARD_QS)]
        for q, res in zip(qs, lcp.enumerate_for_each(m, qs, tol)):
            inst = lcp.LCPInstance(m, q)
            skips += res.singular_skipped
            if len(res.solutions) != 1:
                multi += 1
                continue
            if not lcp.validate_solution(inst, res.solutions[0], tol):
                invalid += 1
            sol = lcp.lemke_solve(inst)
            if sol is None:
                rays += 1
            elif not lcp.lemke_agrees(sol.z, res.solutions[0].z):
                mismatch += 1
    rpt.add(
        "forward-uniqueness",
        multi == 0 and mismatch == 0 and skips == 0 and invalid == 0,
        matrices=LCP_FORWARD_MATRICES, qs_per_matrix=LCP_FORWARD_QS,
        nonunique=multi, lemke_mismatches=mismatch,
        singular_skips=skips, invalid_solutions=invalid,
    )
    rpt.add("no-ray-termination-on-P", rays == 0, rays=rays)

    kv = _kellogg_violations(pool, tol)
    rpt.add("kellogg-wedge", kv == 0, matrices=len(pool), violations=kv)

    found = 0
    for k in range(LCP_CONTRA_MATRICES):
        n = 2 + k % 5
        m = generate(GenSpec("non-P", n, seed=seed * 10_000_019 + k))
        census = lcp.uniqueness_census(
            m, trials=LCP_CONTRA_SAMPLES, seed=seed * 11_000_033 + k,
            tol=tol, stop_early=True,
        )
        if census.example_bad_q is not None:
            found += 1
    rate = found / LCP_CONTRA_MATRICES
    rpt.add("contrapositive-census", rate >= LCP_CONTRA_RATE,
            matrices=LCP_CONTRA_MATRICES, samples_each=LCP_CONTRA_SAMPLES,
            found=found, rate=rate, threshold=LCP_CONTRA_RATE)

    return rpt


def suite_operator(seed: int = 1, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    rpt = SuiteReport("operator", seed)
    rng = np.random.default_rng(seed + 31)

    inv_sq = opsim.make_spec("diagonal", "inverse-square-diagonal", {"c": 1.0}, decay=True)
    inv_sq4 = opsim.make_spec("diagonal", "inverse-square-diagonal", {"c": 4.0}, decay=True)
    identity = opsim.make_spec("diagonal", "matrix-literal", {"matrix": []}, decay=True)
    tridiag = opsim.make_spec("banded", "tridiag", {"a": 2.0, "b": -1.0})
    tridiag41 = opsim.make_spec("banded", "tridiag", {"a": 4.0, "b": 1.0})

    # square root residual ladder
    worst = 0.0
    for spec in (inv_sq, inv_sq4):
        for n in SQRT_ORDERS:
            root = opsim.operator_sqrt(spec, n)
            sec = opsim.section(spec, n)
            worst = max(worst, float(np.abs(root @ root - sec).max()))
    rpt.add("square-root-residual", worst <= 1e-12, orders=list(SQRT_ORDERS), worst=worst)

    # min-max bracketing on random positive sections
    mm_bad = 0
    worst_gap = 0.0
    for k in range(MINMAX_SECTIONS):
        n = 2 + k % 7
        m = np.random.default_rng(seed * 12_000_017 + k).uniform(0.1, 3.0, (n, n))
        spec = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": m.tolist()})
        res = opsim.minmax_rho(spec, n, samples=48, seed=seed + k)
        worst_gap = max(worst_gap, abs(res.inf_sup - res.rho), abs(res.sup_inf - res.rho))
        if not res.bracket_ok:
            mm_bad += 1
    rpt.add("minmax-bracketing", mm_bad == 0,
            sections=MINMAX_SECTIONS, failures=mm_bad, worst_gap=worst_gap)

    # diagonal interpolation: zero violations across precondition-passing trials
    interp_trials = 0
    interp_violations = 0
    pair_index = 0
    while interp_trials < INTERP_TRIALS:
        n = 5
        s = generate(GenSpec("P-diagdom", n, seed=seed * 13_000_029 + pair_index))
        t = np.diag(np.random.default_rng(seed * 14_000_047 + pair_index).uniform(0.5, 2.0, n))
        spec_s = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": s.tolist()})
        spec_t = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": t.tolist()})
        out = opsim.diag_interp_check(
            spec_s, spec_t, n, trials=25, seed=seed + pair_index, tol=tol
        )
        interp_trials += out.trials_case1 + out.trials_case2
        interp_violations += len(out.violations)
        pair_index += 1
    rpt.add("diag-interpolation", interp_violations == 0,
            trials=interp_trials, violations=interp_violations)

    # column sufficiency: the classifier's verdict, and for each "no" the
    # kernel refutation built from its witness and checked exactly, on the
    # curated set
    def lit(mat, kind="dense-rule"):
        return opsim.make_spec(kind, "matrix-literal", {"matrix": np.asarray(mat, dtype=float).tolist()})

    curated = [
        ("diag(1,-1)", lit(np.diag([1.0, -1.0])), 2, True),
        ("diag(1,0)", lit(np.diag([1.0, 0.0])), 2, False),
        ("identity", identity, 2, False),
        ("nilpotent", lit([[0.0, 0.0], [1.0, 0.0]]), 2, True),
        ("diag(1,1,1,-1)", lit(np.diag([1.0, 1.0, 1.0, -1.0])), 4, True),
        ("eye4-plus-tenth", lit(np.eye(4) + 0.1), 4, False),
    ]
    csuff_ok = True
    csuff_detail = {}
    for name, spec, n, expect_refuted in curated:
        out = opsim.csufficient_kernel_search(spec, n, seed=seed, tol=tol)
        # a refutation exists only on a classifier "no", and `consistent`
        # fails exactly on a "no" without one: this pins the verdict too
        ok = out.refuted == expect_refuted and out.consistent
        csuff_detail[name] = {
            "refuted": out.refuted,
            "classifier": out.classifier_verdict,
            "consistent": out.consistent,
        }
        csuff_ok = csuff_ok and ok
    rpt.add("csufficiency-agreement", csuff_ok, cases=csuff_detail)

    # real eigenvalues of P-operator sections stay positive on the ladder
    ladder = (2, 4, 8, 16, 32, 64)
    p_specs = (inv_sq, inv_sq4, identity, tridiag, tridiag41)
    eig_violations = 0
    section_not_p = 0
    for spec in p_specs:
        out = opsim.eigen_positivity_check(spec, ladder, tol)
        eig_violations += out.violations
        for e in out.entries:
            if not e.all_real_positive:
                eig_violations += 1
        for n in (2, 4, 8, 12):
            if opsim.is_P_operator_section(spec, n, tol) != YES:
                section_not_p += 1
    rpt.add("p1p2-positivity-ladder", eig_violations == 0 and section_not_p == 0,
            specs=len(p_specs), orders=list(ladder),
            violations=eig_violations, non_p_sections=section_not_p)

    # eigenvector reversal check on column-sufficient specs
    rev_violations = 0
    for spec, n in ((identity, 3), (tridiag, 3), (lit(np.diag([1.0, 0.0])), 2)):
        out = opsim.eigvec_rev_check(spec, n, seed=seed, tol=tol)
        rev_violations += out.violations
    neg = opsim.eigvec_rev_check(lit(np.diag([1.0, -1.0])), 2, seed=seed, tol=tol)
    skipped_expected = neg.skipped
    rpt.add("eigvec-rev", rev_violations == 0 and skipped_expected,
            violations=rev_violations, non_csu_skipped=skipped_expected)

    # nested section consistency
    nested_ok = True
    for spec in (inv_sq, tridiag, tridiag41):
        big = opsim.section(spec, 16)
        for m in (1, 2, 5, 9, 15):
            if not np.array_equal(opsim.section(spec, m), big[:m, :m]):
                nested_ok = False
    rpt.add("section-nesting", nested_ok)

    return rpt


SUITES: dict[str, Callable[[int, Tolerances], SuiteReport]] = {
    "classify": suite_classify,
    "cayley": suite_cayley,
    "lcp": suite_lcp,
    "operator": suite_operator,
}


def run_suites(name: str, seed: int = 1, tol: Tolerances = DEFAULT_TOL) -> list[SuiteReport]:
    if name != "all" and name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}; known: {sorted(SUITES)} or 'all'")
    reports = []
    for fn in SUITES.values() if name == "all" else (SUITES[name],):
        t0 = time.perf_counter()
        reports.append(fn(seed, tol))
        reports[-1].elapsed = time.perf_counter() - t0
    return reports
