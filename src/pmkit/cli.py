"""Command-line front end.

Exit codes: 0 = completed and every asserted check passed; 1 = completed
but a mathematical contradiction was found (a property suite failed or an
anomaly was logged); 2 = usage or I/O error.

Human-readable summaries go to stdout; the JSON report goes to --out when
given, otherwise to stdout (with the summary moved to stderr so machine
output stays clean).  Reports are byte-identical across runs with the same
arguments and seed, except for the timestamp field.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from . import cayley, classify, lcp, opsim, serialize, spectral, suites
from .errors import PmkitError, UnknownSuiteError
from .lcp import LCPInstance
from .tolerances import DEFAULT_TOL, Tolerances

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_USAGE = 2


def _tolerances(args) -> Tolerances:
    """The default coefficients with the --tol-* overrides; Tolerances
    rejects a coefficient that is not positive and finite."""
    overrides = {"minor": args.tol_minor, "sing": args.tol_sing}
    return replace(DEFAULT_TOL, **{k: v for k, v in overrides.items() if v is not None})


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("PMKIT_SEED")
    return int(env) if env else 0


def _load_matrix(path: str) -> np.ndarray:
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8") as fh:
            return serialize.matrix_from_csv(fh.read())
    return serialize.matrix_from_obj(serialize.load_json(path))


def _emit(args, command: str, result: dict, summary_lines: list[str]) -> None:
    report = {
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": _seed(args),
        "tolerances": _tolerances(args).as_dict(),
        "result": result,
    }
    out_path = getattr(args, "out", None)
    quiet = getattr(args, "quiet", False)
    if out_path:
        serialize.write_json(out_path, report)
        if not quiet:
            for line in summary_lines:
                print(line)
            print(f"report written to {out_path}")
    else:
        if not quiet:
            for line in summary_lines:
                print(line, file=sys.stderr)
        sys.stdout.write(serialize.dumps_canonical(report))


def _parse_values(text: str) -> list[complex]:
    out = []
    for tok in text.split(","):
        tok = tok.strip().replace("i", "j")
        if not tok:
            continue
        out.append(complex(tok))
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_classify(args) -> int:
    tol = _tolerances(args)
    m = _load_matrix(args.input)
    rpt = classify.classify_matrix(m, budget=args.budget, seed=_seed(args), tol=tol)
    result = rpt.as_obj(m)
    lines = [f"classify: {args.input}"]
    for cls in sorted(rpt.verdicts):
        wit = rpt.witnesses.get(cls)
        extra = ""
        if wit is not None:
            vals = [round(float(v), 6) for v in np.atleast_1d(np.asarray(wit, dtype=float))]
            extra = f"  witness={vals}"
        lines.append(f"  {cls}: {rpt.verdicts[cls]}{extra}")
    _emit(args, "classify", result, lines)
    return EXIT_OK


def _cmd_factor(args) -> int:
    tol = _tolerances(args)
    m = _load_matrix(args.input)
    res = cayley.factor_p(m, tol)
    result = {
        "u": serialize.matrix_to_obj(res.u),
        "factor_left": serialize.matrix_to_obj(res.factor_left),
        "factor_right": serialize.matrix_to_obj(res.factor_right),
        "residual": res.residual,
        "u_path_residual": res.u_path_residual,
        "left_is_P": res.left_is_P,
        "right_is_P": res.right_is_P,
    }
    lines = [
        f"factor: residual={res.residual:.3e} left_is_P={res.left_is_P} right_is_P={res.right_is_P}"
    ]
    _emit(args, "factor", result, lines)
    return EXIT_OK if res.accepted else EXIT_CONTRADICTION


def _cmd_pset(args) -> int:
    tol = _tolerances(args)
    if args.values:
        vals = _parse_values(args.values)
    elif args.input:
        vals = list(serialize.values_from_obj(serialize.load_json(args.input)))
    else:
        raise ValueError("pset needs --values or --input")
    cand = spectral.make_candidate(vals, tol)
    sig = spectral.sigma_all(cand, tol)
    verdict = spectral.is_P_set(cand, tol)
    wedge = spectral.wedge_check(cand, "P", tol)
    result = {
        "values": serialize.values_to_obj(cand.values),
        "sigma": [float(x) for x in sig],
        "is_P_set": verdict,
        "wedge": {"verdict": wedge.verdict, "max_arg": wedge.max_arg, "bound": wedge.bound},
    }
    lines = [
        f"pset: is_P_set={verdict} sigma={[round(float(x), 6) for x in sig]}",
        f"  wedge: {wedge.verdict} (max |arg| = {wedge.max_arg:.4f} < {wedge.bound:.4f})",
    ]
    _emit(args, "pset", result, lines)
    return EXIT_OK


def _cmd_lcp(args) -> int:
    tol = _tolerances(args)
    m, q = serialize.lcp_instance_from_obj(serialize.load_json(args.input))
    inst = LCPInstance(m, q)
    anomaly = False
    if args.action == "solve":
        sol = lcp.lemke_solve(inst, tol)
        if sol is None:
            result = {"status": "ray-termination"}
            lines = ["lcp solve: ray termination (no solution found)"]
        else:
            valid = lcp.validate_solution(inst, sol, tol)
            anomaly = not valid
            result = {
                "status": "solved",
                "z": [float(x) for x in sol.z],
                "w": [float(x) for x in sol.w],
                "basis": list(sol.basis),
                "valid": valid,
            }
            lines = [f"lcp solve: z={[round(float(x), 6) for x in sol.z]} valid={valid}"]
    elif args.action == "enumerate":
        res = lcp.enumerate_solutions(inst, tol)
        result = {
            "count": len(res.solutions),
            "singular_skipped": res.singular_skipped,
            "solutions": [
                {"z": [float(x) for x in s.z], "w": [float(x) for x in s.w], "basis": list(s.basis)}
                for s in res.solutions
            ],
        }
        lines = [
            f"lcp enumerate: {len(res.solutions)} solution(s), {res.singular_skipped} singular bases skipped"
        ]
    else:  # census
        rpt = lcp.uniqueness_census(m, trials=args.trials, seed=_seed(args), tol=tol)
        anomaly = rpt.lemke_mismatches > 0 or rpt.lemke_rays > 0
        result = {
            "trials": rpt.trials,
            "counts": {"zero": rpt.count_zero, "one": rpt.count_one, "many": rpt.count_many},
            "verdict": rpt.verdict,
            "lemke_mismatches": rpt.lemke_mismatches,
            "lemke_rays": rpt.lemke_rays,
            "singular_skips": rpt.singular_skips,
            "example_bad_q": list(rpt.example_bad_q) if rpt.example_bad_q else None,
        }
        lines = [
            f"lcp census: verdict={rpt.verdict} counts(0/1/many)="
            f"{rpt.count_zero}/{rpt.count_one}/{rpt.count_many}"
        ]
    _emit(args, f"lcp-{args.action}", result, lines)
    return EXIT_CONTRADICTION if anomaly else EXIT_OK


def _cmd_opsim(args) -> int:
    tol = _tolerances(args)
    contradiction = False
    if args.action == "interp":
        obj = serialize.load_json(args.spec)
        if not isinstance(obj, dict) or "s" not in obj or "t" not in obj:
            raise ValueError('interp spec file must be {"s": <opspec>, "t": <opspec>}')
        spec_s = opsim.spec_from_obj(obj["s"])
        spec_t = opsim.spec_from_obj(obj["t"])
        rpt = opsim.diag_interp_check(
            spec_s, spec_t, args.order, trials=args.trials, seed=_seed(args), tol=tol
        )
        contradiction = bool(rpt.violations)
        result = {
            "case1_established": rpt.case1_established,
            "case2_established": rpt.case2_established,
            "trials": rpt.trials_case1 + rpt.trials_case2,
            "violations": [
                {"case": c, "d": list(d), "abs_det": v} for c, d, v in rpt.violations
            ],
            "min_abs_det": rpt.min_abs_det,
        }
        lines = [
            f"opsim interp: {rpt.trials_case1 + rpt.trials_case2} trials, "
            f"{len(rpt.violations)} violations, min |det| = {rpt.min_abs_det:.3e}"
        ]
        _emit(args, "opsim-interp", result, lines)
        return EXIT_CONTRADICTION if contradiction else EXIT_OK

    spec = opsim.spec_from_obj(serialize.load_json(args.spec))
    if args.action == "sqrt":
        # operator_sqrt raises NoConvergenceError past its residual bound
        root = opsim.operator_sqrt(spec, args.order, tol)
        sec = opsim.section(spec, args.order).matrix
        resid = float(np.abs(root.matrix @ root.matrix - sec).max())
        result = {
            "order": args.order,
            "root": serialize.matrix_to_obj(root.matrix),
            "square_residual": resid,
        }
        lines = [f"opsim sqrt: order={args.order} residual={resid:.3e}"]
    elif args.action == "minmax":
        res = opsim.minmax_rho(spec, args.order, samples=args.trials, seed=_seed(args), tol=tol)
        contradiction = not res.bracket_ok
        result = {
            "rho": res.rho,
            "inf_sup": res.inf_sup,
            "sup_inf": res.sup_inf,
            "iterations": res.iterations,
            "bracket_ok": res.bracket_ok,
        }
        lines = [
            f"opsim minmax: rho={res.rho:.10f} inf_sup={res.inf_sup:.10f} sup_inf={res.sup_inf:.10f}"
        ]
    elif args.action == "csuff":
        rpt = opsim.csufficient_kernel_search(spec, args.order, seed=_seed(args), tol=tol)
        contradiction = not rpt.consistent
        result = {
            "refuted": rpt.refuted,
            "classifier_verdict": rpt.classifier_verdict,
            "consistent": rpt.consistent,
            "combinations_tested": rpt.combinations_tested,
            "refutations": [
                {
                    "alpha": list(r.alpha),
                    "d": list(r.d_values),
                    "kernel_vector": list(r.kernel_vector),
                    "witness": list(r.full_witness),
                }
                for r in rpt.refutations
            ],
        }
        lines = [
            f"opsim csuff: refuted={rpt.refuted} classifier={rpt.classifier_verdict} "
            f"consistent={rpt.consistent}"
        ]
    elif args.action == "rev":
        if args.x is None:
            raise ValueError("opsim rev needs --x")
        x = [float(v) for v in args.x.split(",")]
        q = opsim.rev_membership(spec, args.order, x, tol)
        result = {"x": x, "products": list(q.products), "in_rev": q.in_rev}
        lines = [f"opsim rev: in_rev={q.in_rev} products={[round(p, 6) for p in q.products]}"]
    else:
        raise ValueError(f"unknown opsim action {args.action!r}")
    _emit(args, f"opsim-{args.action}", result, lines)
    return EXIT_CONTRADICTION if contradiction else EXIT_OK


def _cmd_gen(args) -> int:
    from .generators import GenSpec, generate

    _tolerances(args)  # gen takes no threshold, but rejects a bad override like every command
    m = generate(GenSpec(args.class_tag, args.n, seed=_seed(args), scale=args.scale))
    obj = serialize.matrix_to_obj(m)
    # the artifact is the matrix itself, directly usable as --input elsewhere
    if args.out:
        serialize.write_json(args.out, obj)
        if not args.quiet:
            print(f"gen: {args.class_tag} n={args.n} seed={_seed(args)} -> {args.out}")
    else:
        sys.stdout.write(serialize.dumps_canonical(obj))
    return EXIT_OK


def _cmd_suite(args) -> int:
    tol = _tolerances(args)
    if args.seed is None and "PMKIT_SEED" not in os.environ:
        seed = 1  # suites default to the documented acceptance seed
    else:
        seed = _seed(args)
    reports = suites.run_suites(args.name, seed=seed, tol=tol)
    lines = []
    contradictions = 0
    for rpt in reports:
        contradictions += rpt.contradictions
        lines.append(
            f"suite {rpt.name}: {len(rpt.checks)} checks, "
            f"{rpt.contradictions} contradictions, {rpt.elapsed:.1f}s"
        )
        for c in rpt.checks:
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}")
    result = {"suites": [r.as_obj() for r in reports], "contradictions": contradictions}
    _emit(args, f"suite-{args.name}", result, lines)
    return EXIT_CONTRADICTION if contradictions else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmkit",
        description="P-matrix classification, factorization, P-set spectra, "
        "LCP cross-validation, and finite-section operator experiments",
    )

    def add_common(p):
        p.add_argument("--tol-minor", type=float, default=None, help="minor positivity coefficient")
        p.add_argument("--tol-sing", type=float, default=None, help="singularity pivot coefficient")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (or PMKIT_SEED)")
        p.add_argument("--out", type=str, default=None, help="write the JSON report here")
        p.add_argument("--quiet", action="store_true", help="suppress the human-readable summary")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="class membership report for a matrix")
    p.add_argument("--input", required=True, help="matrix JSON or CSV file")
    p.add_argument("--budget", type=int, default=2000)
    add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("factor", help="factor a P-matrix into two P-matrices")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("pset", help="sigma vector, P-set verdict, wedge bound")
    p.add_argument("--values", help='comma-separated values, e.g. "1,1" or "1+2i,1-2i"')
    p.add_argument("--input", help="spectrum JSON file")
    add_common(p)
    p.set_defaults(fn=_cmd_pset)

    p = sub.add_parser("lcp", help="solve / enumerate / census")
    p.add_argument("action", choices=("solve", "enumerate", "census"))
    p.add_argument("--input", required=True, help='instance JSON {"m": ..., "q": [...]}')
    p.add_argument("--trials", type=int, default=100)
    add_common(p)
    p.set_defaults(fn=_cmd_lcp)

    p = sub.add_parser("opsim", help="operator finite-section experiments")
    p.add_argument("action", choices=("sqrt", "minmax", "interp", "csuff", "rev"))
    p.add_argument("--spec", required=True, help="operator spec JSON (interp: {'s':..., 't':...})")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--x", type=str, default=None, help="vector for rev, comma-separated")
    add_common(p)
    p.set_defaults(fn=_cmd_opsim)

    p = sub.add_parser("gen", help="draw a matrix from a class generator")
    p.add_argument("--class", dest="class_tag", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("suite", help="run a property-suite batch")
    p.add_argument("name", help="classify | cayley | lcp | operator | all")
    add_common(p)
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # glue "-1+2i,..." to its flag, or argparse reads the list as an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--values", "--x") and argv[i].startswith("-"):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PmkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
