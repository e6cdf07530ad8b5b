"""Span tracing installed from outside the program, for the traced run.

Each listed function is replaced by a wrapper at every `qhm` module binding
that holds it (the defining module and every module that imported it by
name); methods are replaced on their class.  A wrapper records one span
(function, start, end, parent span) per call.  Spans stay in memory until
the run ends.  A function's self time is its span time minus the time of
its child spans.

`.out_mb` is computed from the `nbytes` of the arrays in each result, not
measured memory traffic.  The wrapper's own cost is largest where calls are
many and short (morita's per-row `SpectralVector.eval_row`): it inflates
those self times but leaves the call counts exact.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli": ("run_solve", "run_verify", "run_morita"),
    "projection": ("build_R", "verify_R_conditions", "grassmann_apply"),
    "bimodule": ("inner_D", "inner_E", "act_left", "act_right"),
    "algebra": ("star", "derivation", "adjoint"),
    "calculus": ("connect", "curvature_closed", "mult_element",
                 "commutator_mult"),
    "yangmills": ("critical_residuals", "euler_lagrange_apply", "ym_value"),
    "laplace": ("assemble_rhs", "solve_poisson", "build_perturbation",
                "laplace_form_residuals"),
    "lattice": ("TorusFunction.fft", "TorusFunction.from_fft"),
    "random_fields": ("make_battery", "random_module_vector",
                      "random_torus_function"),
    "morita": ("verify_bimodule_preservation", "map_S", "map_H",
               "SpectralVector.eval_row"),
}
OUT_MB = ("bimodule.inner_D", "bimodule.inner_E", "bimodule.act_left",
          "bimodule.act_right", "algebra.star")
FUNCTIONS: List[str] = [f"{layer}.{fn}" for layer, fns in LAYERS.items()
                        for fn in fns]


def result_nbytes(obj) -> int:
    """Bytes of the arrays a result holds (chains and components)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(result_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(result_nbytes(x) for x in obj.values())
    for attr in ("chain", "comps"):
        if hasattr(obj, attr):
            return result_nbytes(getattr(obj, attr))
    return 0


class Tracer:
    """Collects spans while installed; `ops` holds one span list per op."""

    def __init__(self):
        self.ops: List[dict] = []
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, out_bytes):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[me] = (idx, t0, t1, parent)
            if out_bytes is not None:
                out_bytes[idx] += result_nbytes(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def begin_op(self, seed: int):
        """Install the wrappers and start recording one operation."""
        self._spans: List[tuple] = []
        self._stack: List[int] = []
        out_bytes = {FUNCTIONS.index(name): 0 for name in OUT_MB}
        self.ops.append({"seed": seed, "spans": self._spans,
                         "out_bytes": out_bytes})
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qhm" or name.startswith("qhm.")) and m]
        for idx, full in enumerate(FUNCTIONS):
            layer, _, name = full.partition(".")
            ob = out_bytes if idx in out_bytes else None
            mod = sys.modules.get(f"qhm.{layer}")
            cls_name, _, meth = name.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            raw = vars(owner).get(meth) if owner is not None else None
            if raw is None:
                self.missing.append(full)
            elif cls_name:
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(idx, raw.__func__, ob))
                else:
                    new = self._wrap(idx, raw, ob)
                self._set(owner, meth, new)
            else:
                new = self._wrap(idx, raw, ob)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is raw:
                            self._set(m, attr, new)

    def end_op(self):
        """Remove every wrapper, restoring the original bindings."""
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    @staticmethod
    def summarize(op: dict) -> Dict[str, Tuple[int, float]]:
        """Per function: (calls, self seconds) within one operation."""
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        for idx, t0, t1, parent in op["spans"]:
            calls[idx] += 1
            self_s[idx] += t1 - t0
            if parent >= 0:
                self_s[op["spans"][parent][0]] -= t1 - t0
        return {name: (calls[i], self_s[i])
                for i, name in enumerate(FUNCTIONS)}
