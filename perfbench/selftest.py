#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds every check in checks.py a genuine pmkit output, which it must
accept, and a corrupted copy, which it must reject.  Exits 1 if any check
accepts a corruption or rejects a genuine output.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pmkit import cayley, classify, lcp, suites  # noqa: E402
from pmkit.generators import GenSpec, generate  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

results: list[tuple[str, bool]] = []


def expect(label: str, fn, accept: bool, fault: type = checks.CheckFailed) -> None:
    try:
        fn()
        ok = accept
    except fault:
        ok = not accept
    except checks.CheckFailed:
        ok = False
    results.append((label, ok))


def with_verdict(rpt, key, verdict, witness=None):
    out = dataclasses.replace(rpt, verdicts=dict(rpt.verdicts), witnesses=dict(rpt.witnesses))
    out.verdicts[key] = verdict
    if witness is not None:
        out.witnesses[key] = witness
    return out


def main() -> int:
    rng = np.random.default_rng(7)
    pd = generate(GenSpec("P-diagdom", 6, seed=3))
    mm = generate(GenSpec("M-matrix", 5, seed=3))
    spd = generate(GenSpec("sym-PD", 5, seed=3))
    tri = workloads._triangular(rng, 3)

    # inputs
    for kind, m in (("P-diagdom", pd), ("M-matrix", mm), ("sym-PD", spd), ("triangular", tri)):
        expect(f"input {kind}", lambda: checks.p_by_construction(kind, m), True)
    bad = pd.copy()
    bad[2, 2] = 0.9 * (np.abs(bad[2]).sum() - bad[2, 2])
    expect("input P-diagdom, dominance broken", lambda: checks.p_by_construction("P-diagdom", bad), False)
    bad = mm.copy()
    bad[0, 1] = 0.1
    expect("input M-matrix, positive off-diagonal", lambda: checks.p_by_construction("M-matrix", bad), False)
    bad = spd - (np.linalg.eigvalsh(spd).min() + 1.0) * np.eye(5)
    expect("input sym-PD, indefinite", lambda: checks.p_by_construction("sym-PD", bad), False)
    bad = tri.copy()
    bad[1, 1] = -bad[1, 1]
    expect("input triangular, negative diagonal", lambda: checks.p_by_construction("triangular", bad), False)

    # planted refutations
    for kind in ("negdiag", "pair"):
        m, planted = workloads._planted(rng, kind, 8)
        expect(f"planted {kind}", lambda: checks.planted_violation(m, planted), True)
        wrong = (planted[0] + 1,) + planted[1:]
        expect(f"planted {kind}, wrong set", lambda: checks.planted_violation(m, wrong), False)
        minors = classify.is_P_minors(m)
        expect(f"is_P_minors {kind}", lambda: checks.minors_refutation(planted, minors), True)
        expect(f"is_P_minors {kind}, other witness",
               lambda: checks.minors_refutation(planted, ("no", wrong)), False)
        expect(f"is_P_minors {kind}, verdict yes",
               lambda: checks.minors_refutation(planted, ("yes", None)), False)
        rpt = classify.classify_matrix(m)
        expect(f"classify {kind}", lambda: checks.refuting_report(m, planted, rpt), True)
        expect(f"classify {kind}, P witness moved",
               lambda: checks.refuting_report(m, planted, with_verdict(rpt, "P", "no", wrong)), False)
        expect(f"classify {kind}, column witness e_1",
               lambda: checks.refuting_report(
                   m, planted, with_verdict(rpt, "column-sufficient", "no", np.eye(8)[1])), False)
        expect(f"classify {kind}, row-sufficient unknown",
               lambda: checks.refuting_report(m, planted, with_verdict(rpt, "row-sufficient", "unknown")),
               False)
        x = classify.find_reversal_witness(m)
        expect(f"reversal witness {kind}", lambda: checks.reversal_witness(m, x, strict=False), True)
        expect(f"reversal witness {kind}, zero",
               lambda: checks.reversal_witness(m, np.zeros_like(x), strict=False), False)
        expect(f"reversal witness {kind}, none", lambda: checks.reversal_witness(m, None, strict=False),
               False)
        expect(f"reversal witness {kind}, e_0",
               lambda: checks.reversal_witness(m, np.eye(8)[0], strict=False), False)
    big, planted = workloads._planted(rng, "pair", 13)
    rpt13 = classify.classify_matrix(big)
    expect("classify pair n=13", lambda: checks.refuting_report(big, planted, rpt13), True)
    expect("classify pair n=13, P witness e_0",
           lambda: checks.refuting_report(big, planted, with_verdict(rpt13, "P", "no", np.eye(13)[0])),
           False)
    expect("strict witness with zero products only",
           lambda: checks.reversal_witness(np.diag([1.0, 0.0]), [0.0, 1.0], strict=True), False)

    # certify-p outputs
    rpt = classify.classify_matrix(pd)
    expect("classify P", lambda: checks.certified_report("P-diagdom", pd, rpt), True)
    expect("classify P, verdict no on a 1x1 minor",
           lambda: checks.certified_report("P-diagdom", pd, with_verdict(rpt, "P", "no", (1,))), False)
    expect("classify P, column-sufficient no",
           lambda: checks.certified_report("P-diagdom", pd, with_verdict(rpt, "column-sufficient", "no")),
           False)
    expect("classify P, Z flipped",
           lambda: checks.certified_report("P-diagdom", pd, with_verdict(rpt, "Z", "yes")), False)
    rpt_m = classify.classify_matrix(mm)
    expect("classify M", lambda: checks.certified_report("M-matrix", mm, rpt_m), True)
    expect("classify M, M verdict no",
           lambda: checks.certified_report("M-matrix", mm, with_verdict(rpt_m, "M", "no")), False)
    faulty = generate(GenSpec("sym-PD", 12, seed=112))
    rpt_f = classify.classify_matrix(faulty)
    expect("classify sym-PD n=12 seed 112 is the known fault",
           lambda: checks.certified_report("sym-PD", faulty, rpt_f), False, checks.KnownFault)

    res = cayley.factor_p(pd)
    expect("factor_p", lambda: checks.factorization(pd, res), True)
    expect("factor_p, right factor scaled",
           lambda: checks.factorization(pd, dataclasses.replace(res, factor_right=res.factor_right * 1.01)),
           False)
    expect("factor_p, left verdict no",
           lambda: checks.factorization(pd, dataclasses.replace(res, left_is_P="no")), False)

    cen = lcp.uniqueness_census(pd, trials=4, seed=1)
    expect("census", lambda: checks.census(cen, 4), True)
    expect("census, verdict", lambda: checks.census(
        dataclasses.replace(cen, verdict="uniqueness-violated"), 4), False)
    expect("census, lemke mismatch", lambda: checks.census(
        dataclasses.replace(cen, lemke_mismatches=1), 4), False)
    expect("census, fewer trials", lambda: checks.census(
        dataclasses.replace(cen, trials=3, count_one=3), 4), False)

    m16 = generate(GenSpec("P-diagdom", 16, seed=5))
    q = rng.uniform(-5.0, 5.0, 16)
    sol = lcp.lemke_solve(lcp.LCPInstance.make(m16, q))
    expect("lemke", lambda: checks.lcp_solution(m16, q, sol), True)
    expect("lemke, no solution", lambda: checks.lcp_solution(m16, q, None), False)
    z = sol.z.copy()
    z[np.argmax(z)] *= 1.5
    expect("lemke, z scaled", lambda: checks.lcp_solution(
        m16, q, dataclasses.replace(sol, z=z, w=m16 @ z + q)), False)
    expect("lemke, w stale", lambda: checks.lcp_solution(
        m16, q, dataclasses.replace(sol, w=sol.w + 1.0)), False)
    expect("lemke, z zero", lambda: checks.lcp_solution(
        m16, q, dataclasses.replace(sol, z=np.zeros(16), w=q)), False)

    # suite-all outputs: a cheap genuine report stands in for a full suite
    report = suites.SuiteReport("lcp", 1)
    report.add("forward-uniqueness", True, matrices=1)
    expect("suite report", lambda: checks.suite_report("lcp", report), True)
    broken = suites.SuiteReport("lcp", 1, list(report.checks))
    broken.add("no-ray-termination-on-P", False, rays=1)
    expect("suite report, contradiction", lambda: checks.suite_report("lcp", broken), False)
    expect("suite report, empty", lambda: checks.suite_report("lcp", suites.SuiteReport("lcp", 1)), False)
    expect("suite report, wrong suite", lambda: checks.suite_report("cayley", report), False)

    bad = [label for label, ok in results if not ok]
    for label in bad:
        print(f"selftest: FAILED: {label}")
    print(f"selftest: {len(results) - len(bad)} of {len(results)} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
