"""JSON and CSV wire formats.

Matrix JSON: {"n": int, "rows": [[...], ...]} with rows of exact length n.
CSV is read only, as a matrix input: n lines of n comma-separated
decimals; a decimal with 17 significant digits (or a float's repr) reads
back that float exactly.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .linalg import as_matrix


def matrix_to_obj(m) -> dict:
    mat = as_matrix(m)
    return {"n": int(mat.shape[0]), "rows": [[float(x) for x in row] for row in mat]}


def matrix_from_obj(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ValueError("matrix object must have keys 'n' and 'rows'")
    n = int(obj["n"])
    rows = obj["rows"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"rows must form an exact {n}x{n} grid")
    return as_matrix(rows)


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("CSV must contain n lines of n comma-separated decimals")
    return as_matrix(rows)


def values_to_obj(values: Sequence[complex]) -> dict:
    return {"values": [{"re": float(v.real), "im": float(v.imag)} for v in map(complex, values)]}


def values_from_obj(obj: dict) -> tuple[complex, ...]:
    if not isinstance(obj, dict) or "values" not in obj:
        raise ValueError("spectrum object must have key 'values'")
    return tuple(complex(float(v["re"]), float(v["im"])) for v in obj["values"])


def lcp_instance_to_obj(m, q) -> dict:
    return {"m": matrix_to_obj(m), "q": [float(x) for x in np.asarray(q).reshape(-1)]}


def lcp_instance_from_obj(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(obj, dict) or "m" not in obj or "q" not in obj:
        raise ValueError("LCP instance object must have keys 'm' and 'q'")
    m = matrix_from_obj(obj["m"])
    q = np.asarray([float(x) for x in obj["q"]], dtype=float)
    if q.shape[0] != m.shape[0]:
        raise ValueError("q length must match the matrix dimension")
    return m, q


def _default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    raise TypeError(f"not JSON serializable: {type(o)}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON encoding: sorted keys, stable float repr.  A nan
    or infinite float anywhere raises ValueError: JSON has no such value."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_default, allow_nan=False) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, obj) -> None:
    """Write the canonical encoding; nothing is written when it raises."""
    text = dumps_canonical(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
