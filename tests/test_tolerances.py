"""Threshold coefficients: every one must be positive and finite, each is
set by a CLI flag, and every `tol` parameter is read."""

import argparse
import ast
import math
import pathlib
from dataclasses import fields, replace

import pytest

import pmkit
from pmkit.cli import build_parser
from pmkit.tolerances import DEFAULT_TOL, Tolerances

NAMES = [f.name for f in fields(Tolerances)]
SRC = pathlib.Path(pmkit.__file__).parent


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_invalid_coefficient_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})
    with pytest.raises(ValueError, match=name):
        replace(DEFAULT_TOL, **{name: value})


def _cli_tol_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every --tol-* option of the parser and of its subcommands."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _cli_tol_flags(sub)
        out |= {opt for opt in action.option_strings if opt.startswith("--tol-")}
    return out


def test_every_coefficient_has_a_cli_flag():
    flags = _cli_tol_flags(build_parser())
    assert flags == {"--tol-" + name.replace("_", "-") for name in NAMES}


def test_every_tol_parameter_is_read():
    # the CLI handlers share the (args, tol) signature, so `_cmd_*` is exempt
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_cmd_"):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if not any(a.arg == "tol" for a in params):
                continue
            reads = any(
                isinstance(n, ast.Name) and n.id == "tol" and isinstance(n.ctx, ast.Load)
                for stmt in node.body
                for n in ast.walk(stmt)
            )
            if not reads:
                unread.append(f"{path.stem}.{node.name}")
    assert unread == []
