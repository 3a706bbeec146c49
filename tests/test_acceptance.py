"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with -s or on failure);
the property batches are self-contained re-runs with their own timers, not
references to cached results, so this module alone certifies the build.
"""

import subprocess
import sys
import time
from math import atan2, pi

import numpy as np

from pmkit import cayley, classify, lcp, opsim, serialize, spectral
from pmkit.classify import NO, YES
from pmkit.generators import GenSpec, generate
from pmkit.linalg import eigenvalues, inverse

SEED = 1
EXAMPLE = np.array([[-1.0, -1.0], [4.0, 3.0]])

# P-matrices generated by the batch criteria, checked against the wedge
# bound in criterion 6
P_POOL: list[np.ndarray] = []


def _line(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {label}: {status}{suffix}")


def _sizes(rng, count, lo=2, hi=6):
    return [int(x) for x in rng.integers(lo, hi + 1, count)]


def test_c01_worked_example_reproduction():
    t0 = time.perf_counter()
    spec = eigenvalues(EXAMPLE)
    eig_ok = all(abs(v - 1.0) <= 1e-8 for v in spec.values)
    sigma_ok = np.allclose(spectral.sigma_all([1.0, 1.0]), [2.0, 1.0], atol=1e-12)
    verdict, witness = classify.is_P_minors(EXAMPLE)
    pset_ok = spectral.is_P_set([1.0, 1.0]) == YES
    realized = spectral.realize_P_set([1.0, 1.0])
    realize_ok = (
        realized is not None
        and classify.is_P_minors(realized)[0] == YES
        and spectral.spectra_match(eigenvalues(realized).values, [1.0, 1.0], 1e-8)[0]
    )
    elapsed = time.perf_counter() - t0
    ok = (
        eig_ok
        and sigma_ok
        and verdict == NO
        and witness == (1,)
        and pset_ok
        and realize_ok
        and elapsed < 1.0
    )
    _line(1, "worked example reproduction", ok, f"{elapsed:.3f}s")
    assert eig_ok and sigma_ok
    assert (verdict, witness) == (NO, (1,))
    assert pset_ok and realize_ok
    assert elapsed < 1.0


def test_c02_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    disagreements = 0
    for k, n in enumerate(_sizes(rng, 1000)):
        m = generate(GenSpec("arbitrary", n, seed=SEED * 1_000_003 + k))
        if classify.is_P_minors(m)[0] != classify.is_P_submatrix_eigen(m):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 30.0
    _line(2, "minor/eigen oracle agreement x1000", ok, f"{elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 30.0


def test_c03_theorem_shift_and_inverse():
    rng = np.random.default_rng(SEED + 2)
    failures = 0
    for k, n in enumerate(_sizes(rng, 500)):
        a = generate(GenSpec("P-diagdom", n, seed=SEED * 2_000_003 + k))
        P_POOL.append(a)
        d = np.diag(rng.uniform(0.0, 2.0, n) * rng.integers(0, 2, n))
        if classify.is_P_minors(a + d)[0] != YES:
            failures += 1
        if classify.is_P_minors(inverse(a))[0] != YES:
            failures += 1
    ok = failures == 0
    _line(3, "A+D and inverse stay P x500", ok)
    assert failures == 0


def test_c04_cayley_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    failures = 0
    for k, n in enumerate(_sizes(rng, 500)):
        a = generate(GenSpec("P-diagdom", n, seed=SEED * 3_000_017 + k))
        P_POOL.append(a)
        if cayley.verify_involution(a) > 1e-8:
            failures += 1
        ids = cayley.verify_identities(a)
        if ids.plus_residual > 1e-8 or ids.minus_singular or ids.minus_residual > 1e-8:
            failures += 1
        res = cayley.factor_p(a)
        if (
            res.residual > 1e-8
            or res.u_path_residual > 1e-8
            or res.left_is_P != YES
            or res.right_is_P != YES
        ):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _line(4, "cayley involution/identities/factorization x500", ok, f"{elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def test_c05_lcp_equivalence():
    rng = np.random.default_rng(SEED + 4)
    forward_failures = 0
    for k, n in enumerate(_sizes(rng, 200)):
        m = generate(GenSpec("P-diagdom", n, seed=SEED * 4_000_037 + k))
        P_POOL.append(m)
        # neither the enumeration nor Lemke draws from rng, so drawing the
        # 20 q first keeps the sequence, and one basis table serves them all
        qs = [rng.uniform(-5.0, 5.0, n) for _ in range(20)]
        for q, res in zip(qs, lcp.enumerate_for_each(m, qs)):
            inst = lcp.LCPInstance(m, q)
            if len(res.solutions) != 1 or res.singular_skipped:
                forward_failures += 1
                continue
            sol = lcp.lemke_solve(inst)
            if sol is None or np.abs(sol.z - res.solutions[0].z).max() > 1e-6 * (
                1.0 + np.abs(res.solutions[0].z).max()
            ):
                forward_failures += 1

    found = 0
    for k in range(50):
        n = 2 + k % 5
        m = generate(GenSpec("non-P", n, seed=SEED * 5_000_011 + k))
        census = lcp.uniqueness_census(
            m, trials=500, seed=SEED * 6_000_029 + k, stop_early=True
        )
        if census.example_bad_q is not None:
            found += 1
    rate = found / 50.0
    ok = forward_failures == 0 and rate >= 0.90
    _line(5, "LCP forward uniqueness + contrapositive census", ok, f"rate={rate:.2f}")
    assert forward_failures == 0
    assert rate >= 0.90


def test_c06_kellogg_wedge_over_generated_P():
    rng = np.random.default_rng(SEED + 6)
    pool = list(P_POOL)
    for k, n in enumerate(_sizes(rng, 200)):
        pool.append(generate(GenSpec("P-diagdom", n, seed=SEED * 7_000_003 + k)))
    violations = 0
    checked = 0
    for m in pool:
        n = m.shape[0]
        bound = (n - 1) * pi / n
        for v in eigenvalues(m, check_residual=False).values:
            checked += 1
            if abs(atan2(v.imag, v.real)) >= bound:
                violations += 1
    ok = violations == 0 and checked > 0
    _line(6, "Kellogg wedge across generated P-matrices", ok, f"{checked} eigenvalues")
    assert checked > 0
    assert violations == 0


def test_c07_augmentation():
    failures = 0
    for k in range(100):
        g = np.random.default_rng(SEED * 8_000_009 + k)
        vals = []
        for _ in range(int(g.integers(1, 4))):
            a, b = g.uniform(-3.0, 3.0), g.uniform(0.25, 3.0)
            vals += [complex(a, b), complex(a, -b)]
        for _ in range(int(g.integers(0, 3))):
            vals.append(complex(g.uniform(0.1, 3.0), 0.0))
        res = spectral.augment_to_P_set(vals)
        if res is None or spectral.is_P_set(list(vals) + list(res.additions)) != YES:
            failures += 1
    ok = failures == 0
    _line(7, "augmentation succeeds on 100 conjugate-pair seed sets", ok)
    assert failures == 0


def test_c08_operator_suite():
    # square root residual ladder
    worst_sqrt = 0.0
    for c in (1.0, 4.0):
        spec = opsim.make_spec("diagonal", "inverse-square-diagonal", {"c": c}, decay=True)
        for n in (4, 16, 64):
            root = opsim.operator_sqrt(spec, n)
            sec = opsim.section(spec, n)
            worst_sqrt = max(worst_sqrt, float(np.abs(root @ root - sec).max()))
    sqrt_ok = worst_sqrt <= 1e-12

    # min-max bracketing on 100 random positive sections
    mm_failures = 0
    for k in range(100):
        n = 2 + k % 7
        m = np.random.default_rng(SEED * 9_000_043 + k).uniform(0.1, 3.0, (n, n))
        spec = opsim.make_spec("dense-rule", "matrix-literal", {"matrix": m.tolist()})
        res = opsim.minmax_rho(spec, n, samples=48, seed=SEED + k)
        if (
            res.sup_inf > res.rho + 1e-9
            or res.inf_sup < res.rho - 1e-9
            or abs(res.inf_sup - res.rho) > 1e-6
            or abs(res.sup_inf - res.rho) > 1e-6
        ):
            mm_failures += 1
    mm_ok = mm_failures == 0

    # diagonal interpolation: 500 precondition-passing trials, zero violations
    trials = violations = 0
    pair = 0
    while trials < 500:
        n = 5
        s = generate(GenSpec("P-diagdom", n, seed=SEED * 10_000_019 + pair))
        t = np.diag(np.random.default_rng(SEED * 11_000_033 + pair).uniform(0.5, 2.0, n))
        out = opsim.diag_interp_check(
            opsim.make_spec("dense-rule", "matrix-literal", {"matrix": s.tolist()}),
            opsim.make_spec("dense-rule", "matrix-literal", {"matrix": t.tolist()}),
            n,
            trials=25,
            seed=SEED + pair,
        )
        trials += out.trials_case1 + out.trials_case2
        violations += len(out.violations)
        pair += 1
    interp_ok = violations == 0

    # curated kernel-search / classifier agreement, n <= 4
    def lit(mat):
        return opsim.make_spec(
            "dense-rule", "matrix-literal", {"matrix": np.asarray(mat, dtype=float).tolist()}
        )

    curated = [
        (lit(np.diag([1.0, -1.0])), 2, True),
        (lit(np.diag([1.0, 0.0])), 2, False),
        (lit([[0.0, 0.0], [1.0, 0.0]]), 2, True),
        (lit(np.eye(3)), 3, False),
        (lit(np.diag([1.0, 1.0, 1.0, -1.0])), 4, True),
        (lit(np.eye(4) + 0.1), 4, False),
    ]
    csuff_ok = True
    for spec, n, expect_refuted in curated:
        out = opsim.csufficient_kernel_search(spec, n, seed=SEED)
        if out.refuted != expect_refuted or not out.consistent:
            csuff_ok = False
        if expect_refuted and out.classifier_verdict != NO:
            csuff_ok = False
        if not expect_refuted and out.classifier_verdict == NO:
            csuff_ok = False

    ok = sqrt_ok and mm_ok and interp_ok and csuff_ok
    _line(
        8,
        "operator suite (sqrt, minmax, interpolation, C-sufficiency)",
        ok,
        f"sqrt_resid={worst_sqrt:.1e} interp_trials={trials}",
    )
    assert sqrt_ok, worst_sqrt
    assert mm_ok
    assert interp_ok
    assert csuff_ok


def test_c09_sm1_experiment_ledger(tmp_path):
    probe = cayley.sm1_probe(trials=1000, seed=SEED)
    log_path = tmp_path / "sm1_counterexamples.json"
    serialize.write_json(
        str(log_path),
        {
            "trials": probe.trials,
            "tested": probe.tested,
            "counterexamples": [
                {
                    "matrix": [list(row) for row in ce.matrix],
                    "diagonal": list(ce.diagonal),
                    "min_real_part": ce.min_real_part,
                    "hurwitz_confirms": ce.hurwitz_confirms,
                }
                for ce in probe.counterexamples
            ],
        },
    )
    # every logged counterexample must re-validate independently: an
    # eigenvalue with Re <= 0 confirmed by the Routh-Hurwitz route
    revalidated = True
    for ce in probe.counterexamples:
        a = np.array(ce.matrix)
        d = np.diag(ce.diagonal)
        if classify.is_P_minors(a)[0] != YES:
            revalidated = False
        spec = eigenvalues(a @ d)
        if min(v.real for v in spec.values) > 0:
            revalidated = False
        if not ce.hurwitz_confirms or cayley.hurwitz_positive_stable(a @ d):
            revalidated = False
    ok = log_path.exists() and revalidated
    _line(
        9,
        "sm1 probe ledger (1000 trials)",
        ok,
        f"{len(probe.counterexamples)} counterexamples logged",
    )
    assert log_path.exists()
    assert revalidated


def test_c10_suite_all_exit_zero(tmp_path):
    out = tmp_path / "suite_all.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pmkit.cli", "suite", "all", "--seed", "1",
         "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 600.0 and out.exists()
    _line(10, "pmkit suite all --seed 1", ok, f"exit={proc.returncode} {elapsed:.0f}s")
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 600.0
    assert out.exists()
