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
import sys
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from . import cayley, classify, lcp, opsim, serialize, spectral, suites
from .errors import PmkitError
from .generators import GenSpec, generate
from .tolerances import DEFAULT_TOL, Tolerances

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_USAGE = 2


def _load_matrix(path: str) -> np.ndarray:
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8") as fh:
            return serialize.matrix_from_csv(fh.read())
    return serialize.matrix_from_obj(serialize.load_json(path))


def _emit(args, tol: Tolerances, inputs, result, summary_lines: list[str]) -> None:
    report = result  # gen's artifact is the bare matrix, directly usable as --input elsewhere
    if args.command != "gen":
        report = {
            "command": "-".join([args.command] + [getattr(args, k) for k in ("action", "name") if k in args]),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": args.seed,
            "tolerances": tol.as_dict(),
            "result": result,
        }
        if inputs is not None:
            report["input"] = inputs
        if args.out:
            summary_lines = summary_lines + [f"report written to {args.out}"]
    if args.out:
        serialize.write_json(args.out, report)
    else:
        sys.stdout.write(serialize.dumps_canonical(report))
    if not args.quiet:
        for line in summary_lines:
            print(line, file=sys.stdout if args.out else sys.stderr)


def _parse_values(text: str) -> list[complex]:
    # a trailing "i" is the imaginary unit; "inf" keeps its letters
    toks = [tok.strip() for tok in text.split(",")]
    return [complex(tok[:-1] + "j" if tok.endswith("i") else tok) for tok in toks if tok]


# ---------------------------------------------------------------------------
# subcommand handlers: (args, tol) -> (input, result, summary lines, contradiction)
#
# `input` is what the report judged: the parsed input file, written back by
# the serializer that reads it, and the arguments that shape the result; None
# for the suites, whose inputs are the seed alone.


def _cmd_classify(args, tol):
    m = _load_matrix(args.input)
    rpt = classify.classify_matrix(m, budget=args.budget, seed=args.seed, tol=tol)
    lines = [f"classify: {args.input}"]
    for cls in sorted(rpt.verdicts):
        wit = rpt.witnesses.get(cls)
        extra = ""
        if wit is not None:
            vals = [round(float(v), 6) for v in np.atleast_1d(np.asarray(wit, dtype=float))]
            extra = f"  witness={vals}"
        lines.append(f"  {cls}: {rpt.verdicts[cls]}{extra}")
    return {"matrix": serialize.matrix_to_obj(m), "budget": args.budget}, rpt.as_obj(), lines, False


def _cmd_factor(args, tol):
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
    return {"matrix": serialize.matrix_to_obj(m)}, result, lines, not res.accepted


def _cmd_pset(args, tol):
    if args.values is not None:
        vals = _parse_values(args.values)
    else:
        vals = list(serialize.values_from_obj(serialize.load_json(args.input)))
    cand = spectral.make_candidate(vals)
    sig = spectral.sigma_all(cand)
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
    return serialize.values_to_obj(vals), result, lines, False


def _load_lcp(path: str) -> lcp.LCPInstance:
    return lcp.LCPInstance(*serialize.lcp_instance_from_obj(serialize.load_json(path)))


def _cmd_lcp_solve(args, tol):
    inst = _load_lcp(args.input)
    inputs = serialize.lcp_instance_to_obj(inst.m, inst.q)
    sol = lcp.lemke_solve(inst)
    if sol is None:
        return inputs, {"status": "ray-termination"}, ["lcp solve: ray termination (no solution found)"], False
    valid = lcp.validate_solution(inst, sol, tol)
    result = {
        "status": "solved",
        "z": [float(x) for x in sol.z],
        "w": [float(x) for x in sol.w],
        "basis": list(sol.basis),
        "valid": valid,
    }
    return inputs, result, [f"lcp solve: z={[round(float(x), 6) for x in sol.z]} valid={valid}"], not valid


def _cmd_lcp_enumerate(args, tol):
    inst = _load_lcp(args.input)
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
    return serialize.lcp_instance_to_obj(inst.m, inst.q), result, lines, False


def _cmd_lcp_census(args, tol):
    inst = _load_lcp(args.input)
    # the census draws its own q; the instance's q is recorded, not read
    rpt = lcp.uniqueness_census(inst.m, trials=args.trials, seed=args.seed, tol=tol)
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
    inputs = {**serialize.lcp_instance_to_obj(inst.m, inst.q), "trials": args.trials}
    return inputs, result, lines, rpt.lemke_mismatches > 0 or rpt.lemke_rays > 0


def _cmd_opsim_interp(args, tol):
    obj = serialize.load_json(args.spec)
    if not isinstance(obj, dict) or "s" not in obj or "t" not in obj:
        raise ValueError('interp spec file must be {"s": <opspec>, "t": <opspec>}')
    spec_s = opsim.spec_from_obj(obj["s"])
    spec_t = opsim.spec_from_obj(obj["t"])
    rpt = opsim.diag_interp_check(spec_s, spec_t, args.order, trials=args.trials, seed=args.seed, tol=tol)
    result = {
        "case1_established": rpt.case1_established,
        "case2_established": rpt.case2_established,
        "trials": rpt.trials_case1 + rpt.trials_case2,
        "violations": [{"case": c, "d": list(d), "abs_det": v} for c, d, v in rpt.violations],
        "min_abs_det": rpt.min_abs_det,
    }
    lines = [
        f"opsim interp: {rpt.trials_case1 + rpt.trials_case2} trials, "
        f"{len(rpt.violations)} violations, min |det| = {rpt.min_abs_det:.3e}"
    ]
    inputs = {
        "s": opsim.spec_to_obj(spec_s),
        "t": opsim.spec_to_obj(spec_t),
        "order": args.order,
        "trials": args.trials,
    }
    return inputs, result, lines, bool(rpt.violations)


def _cmd_opsim_sqrt(args, tol):
    spec = opsim.spec_from_obj(serialize.load_json(args.spec))
    # operator_sqrt raises NoConvergenceError past its residual bound
    root = opsim.operator_sqrt(spec, args.order)
    sec = opsim.section(spec, args.order)
    resid = float(np.abs(root @ root - sec).max())
    result = {
        "order": args.order,
        "root": serialize.matrix_to_obj(root),
        "square_residual": resid,
    }
    inputs = {"spec": opsim.spec_to_obj(spec), "order": args.order}
    return inputs, result, [f"opsim sqrt: order={args.order} residual={resid:.3e}"], False


def _cmd_opsim_minmax(args, tol):
    spec = opsim.spec_from_obj(serialize.load_json(args.spec))
    res = opsim.minmax_rho(spec, args.order, samples=args.trials, seed=args.seed)
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
    inputs = {"spec": opsim.spec_to_obj(spec), "order": args.order, "trials": args.trials}
    return inputs, result, lines, not res.bracket_ok


def _cmd_opsim_csuff(args, tol):
    spec = opsim.spec_from_obj(serialize.load_json(args.spec))
    rpt = opsim.csufficient_kernel_search(spec, args.order, seed=args.seed, tol=tol)
    result = {
        "refuted": rpt.refuted,
        "classifier_verdict": rpt.classifier_verdict,
        "consistent": rpt.consistent,
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
    return {"spec": opsim.spec_to_obj(spec), "order": args.order}, result, lines, not rpt.consistent


def _cmd_opsim_rev(args, tol):
    spec = opsim.spec_from_obj(serialize.load_json(args.spec))
    x = [float(v) for v in args.x.split(",")]
    q = opsim.rev_membership(spec, args.order, x, tol)
    inputs = {"spec": opsim.spec_to_obj(spec), "order": args.order, "x": x}
    result = {"x": x, "products": list(q.products), "in_rev": q.in_rev}
    return inputs, result, [f"opsim rev: in_rev={q.in_rev} products={[round(p, 6) for p in q.products]}"], False


def _cmd_gen(args, tol):
    m = generate(GenSpec(args.class_tag, args.n, seed=args.seed, scale=args.scale))
    lines = [f"gen: {args.class_tag} n={args.n} seed={args.seed} -> {args.out}"] if args.out else []
    return None, serialize.matrix_to_obj(m), lines, False


def _cmd_suite(args, tol):
    reports = suites.run_suites(args.name, seed=args.seed, tol=tol)
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
    return None, result, lines, contradictions > 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmkit",
        description="P-matrix classification, factorization, P-set spectra, "
        "LCP cross-validation, and finite-section operator experiments",
    )

    def command(sub, name, fn, help, seed=None, tolerances=True):
        # --seed where the handler draws at random, --tol-* where it judges against a Tolerances
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn, seed=0, tol_minor=DEFAULT_TOL.minor, tol_sing=DEFAULT_TOL.sing)
        if tolerances:
            p.add_argument("--tol-minor", type=float, help="minor positivity coefficient")
            p.add_argument("--tol-sing", type=float, help="singularity pivot coefficient")
        if seed is not None:
            p.add_argument("--seed", type=int, default=seed, help="RNG seed (default %(default)s)")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--quiet", action="store_true", help="suppress the human-readable summary")
        return p

    commands = parser.add_subparsers(dest="command", required=True)

    p = command(commands, "classify", _cmd_classify, "class membership report for a matrix", seed=0)
    p.add_argument("--input", required=True, help="matrix JSON or CSV file")
    p.add_argument("--budget", type=int, default=2000)

    p = command(commands, "factor", _cmd_factor, "factor a P-matrix into two P-matrices")
    p.add_argument("--input", required=True)

    p = command(commands, "pset", _cmd_pset, "sigma vector, P-set verdict, wedge bound")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--values", help='comma-separated values, e.g. "1,1" or "1+2i,1-2i"')
    source.add_argument("--input", help="spectrum JSON file")

    actions = commands.add_parser("lcp", help="solve / enumerate / census").add_subparsers(
        dest="action", required=True
    )

    def lcp_action(name, fn, help, **common):
        p = command(actions, name, fn, help, **common)
        p.add_argument("--input", required=True, help='instance JSON {"m": ..., "q": [...]}')
        return p

    lcp_action("solve", _cmd_lcp_solve, "Lemke's method")
    lcp_action("enumerate", _cmd_lcp_enumerate, "every solution, over all complementary bases")
    p = lcp_action("census", _cmd_lcp_census, "solution counts for random q", seed=0)
    p.add_argument("--trials", type=int, default=100)

    actions = commands.add_parser("opsim", help="operator finite-section experiments").add_subparsers(
        dest="action", required=True
    )

    def opsim_action(name, fn, help, spec_help="operator spec JSON", **common):
        p = command(actions, name, fn, help, **common)
        p.add_argument("--spec", required=True, help=spec_help)
        p.add_argument("--order", type=int, required=True)
        return p

    opsim_action("sqrt", _cmd_opsim_sqrt, "square root of a diagonal section", tolerances=False)
    p = opsim_action("minmax", _cmd_opsim_minmax, "Perron root with its Collatz-Wielandt bracket",
                     seed=0, tolerances=False)
    p.add_argument("--trials", type=int, default=100)
    p = opsim_action("interp", _cmd_opsim_interp, "interpolant nonsingularity", '{"s": spec, "t": spec} JSON', seed=0)
    p.add_argument("--trials", type=int, default=100)
    opsim_action("csuff", _cmd_opsim_csuff, "column-sufficiency kernel search", seed=0)
    p = opsim_action("rev", _cmd_opsim_rev, "sign-reversal membership")
    p.add_argument("--x", required=True, help="vector, comma-separated")

    p = command(commands, "gen", _cmd_gen, "draw a matrix from a class generator", seed=0, tolerances=False)
    p.add_argument("--class", dest="class_tag", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)

    p = command(commands, "suite", _cmd_suite, "run a property-suite batch", seed=1)  # the acceptance seed
    p.add_argument("name", choices=[*suites.SUITES, "all"])

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
        # Tolerances rejects a coefficient that is not positive and finite
        tol = replace(DEFAULT_TOL, minor=args.tol_minor, sing=args.tol_sing)
        inputs, result, lines, contradiction = args.fn(args, tol)
        _emit(args, tol, inputs, result, lines)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PmkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CONTRADICTION if contradiction else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
