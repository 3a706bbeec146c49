"""CLI behavior: exit codes, report determinism, file formats."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from pmkit import serialize
from pmkit.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def example_matrix(tmp_path):
    path = tmp_path / "example.json"
    serialize.write_json(
        str(path), serialize.matrix_to_obj(np.array([[-1.0, -1.0], [4.0, 3.0]]))
    )
    return str(path)


@pytest.fixture()
def identity_matrix(tmp_path):
    path = tmp_path / "id.json"
    serialize.write_json(str(path), serialize.matrix_to_obj(np.eye(2)))
    return str(path)


def _leaf_commands(parser, words=""):
    """{command words: subparser} over the leaf subcommands of `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {words: parser}
    leaves = {}
    for name, sub in subs[0].choices.items():
        leaves.update(_leaf_commands(sub, f"{words} {name}".strip()))
    return leaves


LEAF_COMMANDS = _leaf_commands(build_parser())


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestClassify:
    def test_worked_example(self, example_matrix, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["classify", "--input", example_matrix, "--out", str(out), "--seed", "1"])
        assert code == 0
        rpt = read_report(out)
        assert rpt["result"]["verdicts"]["P"] == "no"
        assert rpt["result"]["witnesses"]["P"] == [1]
        assert rpt["result"]["verdicts"]["positive-stable"] == "yes"
        assert rpt["seed"] == 1
        assert "1e-10" in json.dumps(rpt["tolerances"]) or rpt["tolerances"]["minor"] == 1e-10
        summary = capsys.readouterr().out
        assert "P: no" in summary

    def test_csv_input(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.0\n0.0,1.0\n")
        out = tmp_path / "r.json"
        assert main(["classify", "--input", str(path), "--out", str(out)]) == 0
        assert read_report(out)["result"]["verdicts"]["P"] == "yes"

    def test_two_by_two_past_the_overflow_scale(self, tmp_path):
        # exit 2 with "failed conjugate pairing" while the 2x2 closed form
        # overflowed; the overflowing minors and closed form warn no more
        path, out = tmp_path / "m.json", tmp_path / "r.json"
        serialize.write_json(str(path), serialize.matrix_to_obj(np.diag([1e200, 1e200])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", "--input", str(path), "--out", str(out), "--quiet"]) == 0
        assert read_report(out)["result"]["verdicts"]["positive-stable"] == "yes"

    def test_eigenvalue_past_the_float_range_exit_2(self, tmp_path, capsys):
        # exited 2 with numpy's "Eigenvalues did not converge" after numpy
        # RuntimeWarnings
        path, out = tmp_path / "m.json", tmp_path / "r.json"
        serialize.write_json(str(path), serialize.matrix_to_obj(np.full((3, 3), 1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", "--input", str(path), "--out", str(out)]) == 2
        assert "error: FloatRangeError: an eigenvalue left the float64 range" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_usage_error(self, tmp_path):
        assert main(["classify", "--input", str(tmp_path / "nope.json")]) == 2


class TestFactor:
    def test_identity(self, identity_matrix, tmp_path):
        out = tmp_path / "f.json"
        assert main(["factor", "--input", identity_matrix, "--out", str(out)]) == 0
        rpt = read_report(out)
        assert rpt["result"]["left_is_P"] == "yes"
        assert rpt["result"]["residual"] <= 1e-8

    def test_non_p_rejected(self, example_matrix):
        assert main(["factor", "--input", example_matrix]) == 2


class TestTolerances:
    @pytest.mark.parametrize("flag, key", [("--tol-minor", "minor"), ("--tol-sing", "sing")])
    @pytest.mark.parametrize("command", ["classify", "factor"])
    def test_valid_override_lands_in_report(self, identity_matrix, tmp_path, flag, key, command):
        out = tmp_path / "r.json"
        assert main([command, "--input", identity_matrix, f"{flag}=2.5e-9", "--out", str(out), "--quiet"]) == 0
        assert read_report(out)["tolerances"][key] == 2.5e-9

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--tol-minor", "--tol-sing"])
    @pytest.mark.parametrize("command", ["classify", "factor"])
    def test_invalid_coefficient_exit_2(self, example_matrix, tmp_path, capsys, value, flag, command):
        out = tmp_path / "r.json"
        assert main([command, "--input", example_matrix, f"{flag}={value}", "--out", str(out)]) == 2
        assert not out.exists()
        assert "positive and finite" in capsys.readouterr().err

    # gen judges nothing against a Tolerances: argparse refuses its --tol-*
    # whatever the value, and nothing is drawn or written
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--tol-minor", "--tol-sing"])
    def test_gen_invalid_coefficient_exit_2(self, tmp_path, capsys, value, flag):
        out = tmp_path / "g.json"
        assert main(["gen", "--class", "P-diagdom", "--n", "2", f"{flag}={value}", "--out", str(out)]) == 2
        assert not out.exists()
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_gen_valid_coefficient_exit_2(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen", "--class", "P-diagdom", "--n", "3", "--tol-minor=1e-8", "--out", str(out)]) == 2
        assert not out.exists()

    def test_budget_zero_exit_2(self, example_matrix, tmp_path):
        out = tmp_path / "r.json"
        assert main(["classify", "--input", example_matrix, "--budget", "0", "--out", str(out)]) == 2
        assert not out.exists()


class TestPset:
    def test_values_flag(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["pset", "--values", "1,1", "--out", str(out)]) == 0
        rpt = read_report(out)
        assert rpt["result"]["is_P_set"] == "yes"
        assert rpt["result"]["sigma"] == [2.0, 1.0]

    def test_complex_values(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["pset", "--values", "1+2i,1-2i", "--out", str(out)]) == 0
        assert read_report(out)["result"]["sigma"] == [2.0, 5.0]

    def test_values_starting_with_minus(self, tmp_path):
        # a list that starts with "-" is not read as an option, and gives
        # the same report as the --values= form
        spaced, glued = tmp_path / "spaced.json", tmp_path / "glued.json"
        values = "-1+2i,-1-2i,3,3,3"
        assert main(["pset", "--values", values, "--out", str(spaced), "--quiet"]) == 0
        assert main(["pset", "--values=" + values, "--out", str(glued), "--quiet"]) == 0
        a, b = read_report(spaced), read_report(glued)
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
        assert a["result"]["is_P_set"] == "yes"
        np.testing.assert_allclose(a["result"]["sigma"], [7.0, 14.0, 18.0, 81.0, 135.0])


    @pytest.mark.parametrize("values", ["1e400", "1,nan", "1e400+2i,1e400-2i", "inf,1", "1+infi,1-infi"])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, values):
        out = tmp_path / "p.json"
        assert main(["pset", "--values=" + values, "--out", str(out)]) == 2
        assert not out.exists()
        assert "must all be finite" in capsys.readouterr().err


    def test_non_finite_sigma_exit_2_without_report(self, tmp_path, capsys):
        # sigma of {1 +- 2i, 1e200} overflows to inf and nan; JSON has no such
        # value, so the report is refused instead of written as invalid JSON
        out = tmp_path / "p.json"
        # numpy warns of the nan as it forms; ROADMAP item 3 removes it
        with pytest.warns(RuntimeWarning):
            assert main(["pset", "--values", "1+2i,1-2i,1e200", "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err


class TestLcp:
    @pytest.fixture()
    def instance(self, tmp_path):
        path = tmp_path / "inst.json"
        serialize.write_json(
            str(path), serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0])
        )
        return str(path)

    def test_solve(self, instance, tmp_path):
        out = tmp_path / "s.json"
        assert main(["lcp", "solve", "--input", instance, "--out", str(out)]) == 0
        rpt = read_report(out)
        assert rpt["result"]["z"] == [1.0, 0.0]
        assert rpt["result"]["basis"] == [1]

    def test_enumerate(self, instance, tmp_path):
        out = tmp_path / "e.json"
        assert main(["lcp", "enumerate", "--input", instance, "--out", str(out)]) == 0
        assert read_report(out)["result"]["count"] == 1

    def test_census(self, instance, tmp_path):
        out = tmp_path / "c.json"
        assert (
            main(["lcp", "census", "--input", instance, "--trials", "40", "--out", str(out), "--seed", "3"])
            == 0
        )
        rpt = read_report(out)
        assert rpt["result"]["verdict"] == "consistent-with-P"
        assert rpt["result"]["counts"]["one"] == 40

    def test_enumerate_out_of_float_range_exit_2(self, tmp_path, capsys):
        # M = diag(1e-3, 1) is P, but z_1 = 1e306 / 1e-3 overflows
        path = tmp_path / "inst.json"
        serialize.write_json(str(path), serialize.lcp_instance_to_obj(np.diag([1e-3, 1.0]), [-1e306, -1.0]))
        out = tmp_path / "e.json"
        assert main(["lcp", "enumerate", "--input", str(path), "--out", str(out)]) == 2
        assert "error: FloatRangeError:" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_out_of_float_range_prints_only_the_error(self, tmp_path):
        # a fresh process, so numpy's RuntimeWarnings would reach stderr
        path = tmp_path / "inst.json"
        serialize.write_json(str(path), serialize.lcp_instance_to_obj(np.diag([1e-3, 1.0]), [-1e306, -1.0]))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "pmkit.cli", "lcp", "solve", "--input", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: FloatRangeError: the LCP solution z or w = Mz + q left the float64 range"]

    def test_census_no_trials_exit_2(self, instance, tmp_path):
        out = tmp_path / "c.json"
        assert main(["lcp", "census", "--input", instance, "--trials", "0", "--out", str(out)]) == 2
        assert not out.exists()


IDENT = {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": []}}, "decay": False}
ALL_ONES = {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": [[1.0, 1.0], [1.0, 1.0]]}},
            "decay": False}


class TestOpsim:
    @pytest.fixture()
    def inv_sq_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        serialize.write_json(
            str(path),
            {"kind": "diagonal", "rule": {"name": "inverse-square-diagonal", "params": {"c": 1.0}}, "decay": True},
        )
        return str(path)

    def test_sqrt(self, inv_sq_spec, tmp_path):
        out = tmp_path / "sq.json"
        assert main(["opsim", "sqrt", "--spec", inv_sq_spec, "--order", "4", "--out", str(out)]) == 0
        rpt = read_report(out)
        assert rpt["result"]["square_residual"] <= 1e-12
        assert rpt["result"]["root"]["rows"][1][1] == 0.5

    def test_minmax(self, tmp_path):
        spec = tmp_path / "pos.json"
        serialize.write_json(
            str(spec),
            {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": [[1.0, 1.0], [1.0, 1.0]]}}, "decay": False},
        )
        out = tmp_path / "mm.json"
        assert main(["opsim", "minmax", "--spec", str(spec), "--order", "2", "--out", str(out)]) == 0
        assert abs(read_report(out)["result"]["rho"] - 2.0) <= 1e-8

    def test_interp(self, tmp_path):
        spec = tmp_path / "pair.json"
        ident = {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": []}}, "decay": False}
        serialize.write_json(str(spec), {"s": ident, "t": ident})
        out = tmp_path / "ip.json"
        assert main(["opsim", "interp", "--spec", str(spec), "--order", "3", "--trials", "10", "--out", str(out)]) == 0
        assert read_report(out)["result"]["violations"] == []

    @pytest.mark.parametrize(
        "action, spec, trials",
        [("interp", {"s": IDENT, "t": IDENT}, t) for t in ("0", "-5", "1")]
        + [("minmax", ALL_ONES, t) for t in ("0", "-3")],
    )
    def test_too_few_trials_exit_2(self, tmp_path, capsys, action, spec, trials):
        path = tmp_path / "spec.json"
        serialize.write_json(str(path), spec)
        out = tmp_path / "r.json"
        args = ["opsim", action, "--spec", str(path), "--order", "2", "--trials", trials, "--out", str(out)]
        assert main(args) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_csuff(self, tmp_path):
        spec = tmp_path / "diag.json"
        serialize.write_json(
            str(spec),
            {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": [[1.0, 0.0], [0.0, -1.0]]}}, "decay": False},
        )
        out = tmp_path / "cs.json"
        assert main(["opsim", "csuff", "--spec", str(spec), "--order", "2", "--out", str(out)]) == 0
        rpt = read_report(out)
        assert rpt["result"]["refuted"] is True
        assert rpt["result"]["consistent"] is True

    def test_rev(self, inv_sq_spec, tmp_path):
        out = tmp_path / "rev.json"
        assert (
            main(["opsim", "rev", "--spec", inv_sq_spec, "--order", "2", "--x", "1,-1", "--out", str(out)])
            == 0
        )
        assert read_report(out)["result"]["in_rev"] is False

    def test_rev_vector_starting_with_minus(self, inv_sq_spec, tmp_path):
        out = tmp_path / "rev.json"
        assert main(["opsim", "rev", "--spec", inv_sq_spec, "--order", "2", "--x", "-1,1", "--out", str(out)]) == 0
        assert read_report(out)["result"]["x"] == [-1.0, 1.0]


class TestGen:
    def test_generated_file_feeds_classify(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["gen", "--class", "P-diagdom", "--n", "6", "--seed", "7", "--out", str(out)]) == 0
        m = serialize.matrix_from_obj(read_report(out))
        assert m.shape == (6, 6)
        report = tmp_path / "r.json"
        assert main(["classify", "--input", str(out), "--out", str(report)]) == 0
        assert read_report(report)["result"]["verdicts"]["P"] == "yes"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--class", "M-matrix", "--n", "4", "--seed", "9", "--out", str(a)])
        main(["gen", "--class", "M-matrix", "--n", "4", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_unknown_class(self):
        assert main(["gen", "--class", "bogus", "--n", "3"]) == 2

    def test_past_the_dimension_cap_exit_2(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen", "--class", "arbitrary", "--n", "65", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: DimensionTooLargeError: n=65 exceeds the cap 64"]
        assert not out.exists()


    @pytest.mark.parametrize("tag, scale", [("sym-PD", "1e200"), ("PSD", "1e200"), ("Z", "1.7e308")])
    def test_scale_past_the_float_range_exit_2(self, tmp_path, capsys, tag, scale):
        # sym-PD at 1e200 once exited 1 with an OverflowError traceback
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gen", "--class", tag, "--n", "3", "--scale", scale, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ValidationFailedError: the draw is not finite: the scale is too large for this class"]
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_scale_not_positive_and_finite_exit_2(self, tmp_path, capsys, scale):
        out = tmp_path / "m.json"
        assert main(["gen", "--class", "arbitrary", "--n", "3", "--scale", scale, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: scale must be positive and finite")
        assert not out.exists()


class TestSuite:
    def test_unknown_suite_exit_2(self):
        assert main(["suite", "bogus", "--quiet"]) == 2

    @pytest.mark.parametrize("seed_args, seed", [([], 1), (["--seed", "3"], 3)])
    def test_report_seed_is_the_run_seed(self, tmp_path, seed_args, seed):
        out = tmp_path / "suite.json"
        assert main(["suite", "operator", "--out", str(out), "--quiet"] + seed_args) == 0
        rpt = read_report(out)
        assert rpt["seed"] == seed
        assert [s["seed"] for s in rpt["result"]["suites"]] == [seed]

    def test_operator_suite_exit_0(self, tmp_path):
        out = tmp_path / "suite.json"
        code = main(["suite", "operator", "--seed", "2", "--out", str(out), "--quiet"])
        assert code == 0
        rpt = read_report(out)
        assert rpt["result"]["contradictions"] == 0

    def test_determinism_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["suite", "operator", "--seed", "4", "--out", str(a), "--quiet"]) == 0
        assert main(["suite", "operator", "--seed", "4", "--out", str(b), "--quiet"]) == 0
        ta = a.read_text().splitlines()
        tb = b.read_text().splitlines()
        diff = [(x, y) for x, y in zip(ta, tb) if x != y]
        # byte-identical except the timestamp line
        assert len(ta) == len(tb)
        assert all("timestamp" in x for x, _ in diff)


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_pset_requires_source(self):
        assert main(["pset"]) == 2

    @pytest.mark.parametrize("command", ["lcp", "opsim"])
    def test_action_required(self, command):
        assert main([command]) == 2

    @pytest.mark.parametrize(
        "args, ignored",
        [
            (["lcp", "solve", "--input", "{inst}"], ["--trials", "5"]),
            (["lcp", "enumerate", "--input", "{inst}"], ["--trials", "5"]),
            (["opsim", "sqrt", "--spec", "{diagonal}", "--order", "2"], ["--trials", "5"]),
            (["opsim", "csuff", "--spec", "{literal}", "--order", "2"], ["--trials", "5"]),
            (["opsim", "rev", "--spec", "{diagonal}", "--order", "2", "--x=1,1"], ["--trials", "5"]),
            (["opsim", "sqrt", "--spec", "{diagonal}", "--order", "2"], ["--x=1,1"]),
            (["opsim", "minmax", "--spec", "{literal}", "--order", "2"], ["--x=1,1"]),
            (["opsim", "interp", "--spec", "{pair}", "--order", "2"], ["--x=1,1"]),
            (["opsim", "csuff", "--spec", "{literal}", "--order", "2"], ["--x=1,1"]),
            (["pset", "--values", "1,1"], ["--input", "{values}"]),
            # no draw at random: --seed
            (["factor", "--input", "{matrix}"], ["--seed", "7"]),
            (["pset", "--values", "1,1"], ["--seed", "7"]),
            (["lcp", "solve", "--input", "{inst}"], ["--seed", "7"]),
            (["lcp", "enumerate", "--input", "{inst}"], ["--seed", "7"]),
            (["opsim", "sqrt", "--spec", "{diagonal}", "--order", "2"], ["--seed", "7"]),
            (["opsim", "rev", "--spec", "{diagonal}", "--order", "2", "--x=1,1"], ["--seed", "7"]),
            # nothing judged against a Tolerances: --tol-minor and --tol-sing
            (["gen", "--class", "P-diagdom", "--n", "2"], ["--tol-minor=1e-8"]),
            (["gen", "--class", "P-diagdom", "--n", "2"], ["--tol-sing=1e-9"]),
            (["opsim", "sqrt", "--spec", "{diagonal}", "--order", "2"], ["--tol-minor=1e-8"]),
            (["opsim", "sqrt", "--spec", "{diagonal}", "--order", "2"], ["--tol-sing=1e-9"]),
            (["opsim", "minmax", "--spec", "{literal}", "--order", "2"], ["--tol-minor=1e-8"]),
            (["opsim", "minmax", "--spec", "{literal}", "--order", "2"], ["--tol-sing=1e-9"]),
        ],
    )
    def test_flag_the_action_does_not_read_exit_2(self, tmp_path, args, ignored):
        # each command runs without the flag, and ran with it before: the
        # action ignored the flag
        literal = {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": [[1.0, 1.0], [1.0, 1.0]]}}, "decay": False}
        identity = {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": []}}, "decay": False}
        files = {
            "inst": serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0]),
            "diagonal": {"kind": "diagonal", "rule": {"name": "inverse-square-diagonal", "params": {"c": 1.0}}, "decay": True},
            "literal": literal,
            "pair": {"s": identity, "t": identity},
            "values": {"values": [{"re": 1.0, "im": 0.0}]},
            "matrix": serialize.matrix_to_obj(np.eye(2)),
        }
        paths = {}
        for name, obj in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            serialize.write_json(paths[name], obj)
        args, ignored = [a.format(**paths) for a in args], [a.format(**paths) for a in ignored]
        assert main(args + ["--quiet"]) in (0, 1)
        out = tmp_path / "r.json"
        assert main(args + ignored + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_rev_requires_x(self, tmp_path):
        spec = tmp_path / "spec.json"
        serialize.write_json(str(spec), {"kind": "banded", "rule": {"name": "tridiag", "params": {"a": 2.0, "b": -1.0}}, "decay": False})
        assert main(["opsim", "rev", "--spec", str(spec), "--order", "2"]) == 2

    @pytest.mark.parametrize("command", LEAF_COMMANDS)
    def test_every_option_is_read_by_its_handler(self, command):
        # each option but --out and --quiet is an `args.<dest>` in the
        # handler, and the --tol-* pair is there exactly when the handler
        # uses the `tol` that main builds from it
        sub = LEAF_COMMANDS[command]
        tree = ast.parse(textwrap.dedent(inspect.getsource(sub.get_default("fn"))))
        nodes = list(ast.walk(tree))
        read = {n.attr for n in nodes if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "args"}
        uses_tol = any(isinstance(n, ast.Name) and n.id == "tol" and isinstance(n.ctx, ast.Load) for n in nodes)
        tols = {"tol_minor", "tol_sing"}
        dests = {a.dest for a in sub._actions} - {"help", "out", "quiet"}
        assert dests - tols <= read
        assert dests & tols == (tols if uses_tol else set())

    def test_environment_does_not_set_the_seed(self, identity_matrix, tmp_path, monkeypatch):
        monkeypatch.setenv("PMKIT_SEED", "5")
        out = tmp_path / "r.json"
        assert main(["classify", "--input", identity_matrix, "--out", str(out), "--quiet"]) == 0
        assert read_report(out)["seed"] == 0


LITERAL_EYE = {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": []}}, "decay": False}
INV_SQ = {"kind": "diagonal", "rule": {"name": "inverse-square-diagonal", "params": {"c": 1.0}}, "decay": True}
POSITIVE = {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": [[1.0, 2.0], [3.0, 1.0]]}},
            "decay": False}


def _literal(mat):
    return {"kind": "dense-rule", "rule": {"name": "matrix-literal", "params": {"matrix": np.asarray(mat).tolist()}},
            "decay": False}


class TestReportInput:
    """Every report envelope names what it judged: the parsed input and the
    arguments that shape the result."""

    @staticmethod
    def run(tmp_path, args, files):
        paths = {}
        for name, obj in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            serialize.write_json(paths[name], obj)
        out = tmp_path / "r.json"
        assert main([a.format(**paths) for a in args] + ["--out", str(out), "--quiet"]) in (0, 1)
        return read_report(out)

    @pytest.mark.parametrize(
        "args, files, want",
        [
            (["classify", "--input", "{m}", "--budget", "50"], {"m": serialize.matrix_to_obj(np.eye(2))},
             {"matrix": serialize.matrix_to_obj(np.eye(2)), "budget": 50}),
            (["factor", "--input", "{m}"], {"m": serialize.matrix_to_obj(np.eye(2))},
             {"matrix": serialize.matrix_to_obj(np.eye(2))}),
            (["pset", "--values", "1+2i,1-2i,0.5"], {},
             serialize.values_to_obj([complex(1, 2), complex(1, -2), 0.5])),
            (["pset", "--input", "{v}"], {"v": serialize.values_to_obj([2.0, 0.5])},
             serialize.values_to_obj([2.0, 0.5])),
            (["lcp", "solve", "--input", "{i}"], {"i": serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0])},
             serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0])),
            (["lcp", "enumerate", "--input", "{i}"], {"i": serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0])},
             serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0])),
            (["lcp", "census", "--input", "{i}", "--trials", "7"],
             {"i": serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0])},
             {**serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 2.0]), "trials": 7}),
            (["opsim", "sqrt", "--spec", "{s}", "--order", "3"], {"s": INV_SQ}, {"spec": INV_SQ, "order": 3}),
            (["opsim", "minmax", "--spec", "{s}", "--order", "2", "--trials", "5"], {"s": POSITIVE},
             {"spec": POSITIVE, "order": 2, "trials": 5}),
            (["opsim", "interp", "--spec", "{p}", "--order", "3", "--trials", "4"],
             {"p": {"s": LITERAL_EYE, "t": INV_SQ}}, {"s": LITERAL_EYE, "t": INV_SQ, "order": 3, "trials": 4}),
            (["opsim", "csuff", "--spec", "{s}", "--order", "2"], {"s": LITERAL_EYE},
             {"spec": LITERAL_EYE, "order": 2}),
            (["opsim", "rev", "--spec", "{s}", "--order", "2", "--x=-1,0.5"], {"s": INV_SQ},
             {"spec": INV_SQ, "order": 2, "x": [-1.0, 0.5]}),
        ],
    )
    def test_envelope_names_the_input(self, tmp_path, args, files, want):
        rpt = self.run(tmp_path, args, files)
        assert rpt["input"] == want
        assert set(rpt) == {"command", "timestamp", "seed", "tolerances", "input", "result"}
        assert rpt["tolerances"] == {"minor": 1e-10, "sing": 1e-12}

    def test_classify_result_does_not_repeat_the_envelope(self, tmp_path):
        rpt = self.run(tmp_path, ["classify", "--input", "{m}", "--seed", "4"],
                       {"m": serialize.matrix_to_obj(np.eye(2))})
        assert set(rpt["result"]) == {"verdicts", "witnesses", "methods"}
        assert rpt["seed"] == 4

    def test_suite_report_has_no_input(self, tmp_path):
        rpt = self.run(tmp_path, ["suite", "operator"], {})
        assert "input" not in rpt

    @pytest.mark.parametrize(
        "args, a, b",
        [
            # each pair gave byte-equal reports while the envelope named no input
            (["opsim", "csuff", "--spec", "{x}", "--order", "4"], _literal(np.eye(4) + 0.1), _literal(np.eye(4))),
            (["lcp", "census", "--input", "{x}", "--trials", "20", "--seed", "4"],
             serialize.lcp_instance_to_obj(np.eye(2), [-1.0, 1.0]),
             serialize.lcp_instance_to_obj(2.0 * np.eye(2), [-1.0, 1.0])),
            (["lcp", "census", "--input", "{x}", "--trials", "20"],
             serialize.lcp_instance_to_obj([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0]),
             serialize.lcp_instance_to_obj(np.zeros((2, 2)), [-1.0, 1.0])),
            (["lcp", "solve", "--input", "{x}"],
             serialize.lcp_instance_to_obj([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0]),
             serialize.lcp_instance_to_obj(np.zeros((2, 2)), [-1.0, 1.0])),
            (["lcp", "enumerate", "--input", "{x}"],
             serialize.lcp_instance_to_obj([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0]),
             serialize.lcp_instance_to_obj(np.zeros((2, 2)), [-1.0, 1.0])),
        ],
    )
    def test_distinct_inputs_give_distinct_reports(self, tmp_path, args, a, b):
        ra = self.run(tmp_path, args, {"x": a})
        rb = self.run(tmp_path, args, {"x": b})
        for rpt in (ra, rb):
            rpt.pop("timestamp")
        assert ra["result"] == rb["result"]
        assert ra != rb
