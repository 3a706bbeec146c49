"""Span tracing of pmkit's public functions for the traced run.

Each traced function is replaced, in every pmkit module namespace that
binds it, by one wrapper that records a span: name, start, end, parent
span, the phase it ran in (-1 for set-up, else the pass index), the
dimension of its input and a small fact about its result.  Spans stay in
memory; the per-layer metrics are derived from them and the spans are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

import numpy as np

TRACED = {
    "classify": ("is_P_minors", "is_P0_minors", "classify_matrix", "find_reversal_witness",
                 "is_column_sufficient", "is_P_submatrix_eigen"),
    "feasibility": ("feasible_point",),
    "linalg": ("eigenvalues",),
    "spectral": ("augment_to_P_set", "is_P_set"),
    "lcp": ("uniqueness_census", "lemke_solve", "enumerate_solutions"),
    "cayley": ("factor_p", "cayley_u", "sm1_probe"),
    "opsim": ("diag_interp_check", "csufficient_kernel_search"),
    "generators": ("generate",),
    "suites": ("suite_classify", "suite_cayley", "suite_lcp", "suite_operator"),
}

# What a span keeps of its result: the verdict of a minor sweep (a "yes"
# ran all 2^n - 1 minors, a "no" exited early), a census's trial count, and
# that factor_p returned (a call that raised keeps None).
RESULT_INFO = {
    "classify.is_P_minors": lambda out: out[0],
    "lcp.uniqueness_census": lambda out: out.trials,
    "cayley.factor_p": lambda out: "ok",
}

# metric -> (span name, n or None for any, result info or None for any)
P50_MS = {
    "classify.is_P_minors.full.n8.p50_ms": ("classify.is_P_minors", 8, "yes"),
    "classify.is_P_minors.full.n10.p50_ms": ("classify.is_P_minors", 10, "yes"),
    "classify.is_P_minors.full.n12.p50_ms": ("classify.is_P_minors", 12, "yes"),
    "classify.is_P_minors.exit.p50_ms": ("classify.is_P_minors", None, "no"),
    "classify.is_P0_minors.n12.p50_ms": ("classify.is_P0_minors", 12, None),
    "classify.classify_matrix.n3.p50_ms": ("classify.classify_matrix", 3, None),
    "classify.classify_matrix.n12.p50_ms": ("classify.classify_matrix", 12, None),
    "classify.find_reversal_witness.n8.p50_ms": ("classify.find_reversal_witness", 8, None),
    "classify.find_reversal_witness.n13.p50_ms": ("classify.find_reversal_witness", 13, None),
    "classify.find_reversal_witness.n16.p50_ms": ("classify.find_reversal_witness", 16, None),
    "lcp.lemke_solve.n16.p50_ms": ("lcp.lemke_solve", 16, None),
    "lcp.lemke_solve.n32.p50_ms": ("lcp.lemke_solve", 32, None),
    "lcp.enumerate_solutions.n4.p50_ms": ("lcp.enumerate_solutions", 4, None),
    "lcp.enumerate_solutions.n6.p50_ms": ("lcp.enumerate_solutions", 6, None),
    "cayley.factor_p.n8.p50_ms": ("cayley.factor_p", 8, "ok"),
    "cayley.factor_p.n12.p50_ms": ("cayley.factor_p", 12, "ok"),
}
PER_Q_MS = {
    "lcp.uniqueness_census.n8.per_q_ms": 8,
    "lcp.uniqueness_census.n10.per_q_ms": 10,
}
WITH_CALLS = ("classify.is_column_sufficient", "feasibility.feasible_point", "linalg.eigenvalues",
              "spectral.augment_to_P_set", "spectral.is_P_set")
TOTALS_ONLY = ("classify.is_P_submatrix_eigen", "cayley.cayley_u", "cayley.sm1_probe",
               "opsim.diag_interp_check", "opsim.csufficient_kernel_search",
               "generators.generate", "suites.suite_classify", "suites.suite_cayley",
               "suites.suite_lcp", "suites.suite_operator")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "ms" for name in (*P50_MS, *PER_Q_MS)}
    for span in WITH_CALLS:
        units[f"{span}.calls"] = "count"
    for span in (*WITH_CALLS, *TOTALS_ONLY):
        units[f"{span}.total_s"] = "s"
        units[f"{span}.self_s"] = "s"
    return units


def _dim(args) -> int | None:
    a = args[0] if args else None
    if isinstance(a, np.ndarray) and a.ndim == 2:
        return a.shape[0]
    n = getattr(a, "n", None)
    return n if isinstance(n, int) else None


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, phase, n, result info]
        self.spans: list[list] = []
        self.phase = -1
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every TRACED function wherever a loaded pmkit module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pmkit" or name.startswith("pmkit."))]
        for modname, names in TRACED.items():
            home = importlib.import_module(f"pmkit.{modname}")
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, _dim(args), None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[6] = info(out)
            return out

        return traced

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics for the cost of one set-up plus one pass: spans
        from set-up count once, spans from the passes are averaged over
        them.  Percentiles and per-q times use the passes' spans only."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, float] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, t0, t1, _, phase, _, _) in enumerate(self.spans):
            w = 1.0 if phase < 0 else 1.0 / passes
            calls[name] = calls.get(name, 0.0) + w
            total[name] = total.get(name, 0.0) + w * (t1 - t0)
            own[name] = own.get(name, 0.0) + w * (t1 - t0 - child[i])

        measured = [s for s in self.spans if s[4] >= 0]
        out: dict[str, float] = {}
        for metric, (name, n, info) in P50_MS.items():
            durs = [t1 - t0 for nm, t0, t1, _, _, dim, inf in measured
                    if nm == name and (n is None or dim == n) and (info is None or inf == info)]
            out[metric] = statistics.median(durs) * 1e3 if durs else 0.0
        for metric, n in PER_Q_MS.items():
            sel = [(t1 - t0, inf) for nm, t0, t1, _, _, dim, inf in measured
                   if nm == "lcp.uniqueness_census" and dim == n]
            qs = sum(q for _, q in sel)
            out[metric] = sum(d for d, _ in sel) / qs * 1e3 if qs else 0.0
        for name in WITH_CALLS:
            out[f"{name}.calls"] = calls.get(name, 0.0)
        for name in (*WITH_CALLS, *TOTALS_ONLY):
            out[f"{name}.total_s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
        return out

    def write(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, phase, n, info in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - base, "end": t1 - base,
                                     "parent": parent, "phase": phase, "n": n,
                                     "info": info}) + "\n")
