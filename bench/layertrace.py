"""Per-layer trace: times calls into barneszeta's public functions from
outside the package.

Each traced function is replaced, in every module namespace that binds it,
by a wrapper that records calls, self time (span time minus the time of
wrapped calls inside the span) and a work count derived from the
arguments.  Totals stay in memory; ``metrics`` turns them into the
per-layer figures when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# module -> functions timed.  Names match BENCHMARK.json's per_layer list.
LAYERS = {
    "cli": ("main",),
    "barnes": ("zeta2", "zeta2_direct", "zeta2_s_derivatives_at_0",
               "log_gamma2", "polygamma2"),
    "hurwitz": ("hurwitz_zeta", "stieltjes_constants"),
    "laurent": ("laurent_at_1", "laurent_at_2", "gammak_at_2_limit",
                "gamma0_at_2_integral"),
    "numerics": ("contour_coefficients", "contour_coefficients_with_error",
                 "central_difference", "frac_part_integral_1d",
                 "frac_part_integral_2d", "richardson_extrapolate"),
    "verify": ("verify_theorem1", "verify_theorem2_derivative",
               "verify_theorem2_altsum", "verify_bounds", "verify_reduction"),
}

_DEFAULT_LIMIT_MS = [2 ** e for e in range(6, 13)]  # gammak_at_2_limit default


def _work_zeta2(args, kwargs):
    return int(np.size(args[0] if args else kwargs["s"]))


def _work_direct(args, kwargs):
    m = args[2] if len(args) > 2 else kwargs["M"]
    return (m + 1) ** 2


def _work_hurwitz(args, kwargs):
    s = args[0] if args else kwargs["s"]
    a = args[1] if len(args) > 1 else kwargs["a"]
    return int(np.broadcast(np.asarray(s), np.asarray(a)).size)


def _work_limit(args, kwargs):
    m_list = args[2] if len(args) > 2 else kwargs.get("m_list")
    return (max(m_list or _DEFAULT_LIMIT_MS) + 1) ** 2


def _work_contour(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return spec.nodes


# Work counts: complex powers or lattice points, nodes, evaluations.
WORK = {
    "barnes.zeta2": _work_zeta2,
    "barnes.zeta2_direct": _work_direct,
    "hurwitz.hurwitz_zeta": _work_hurwitz,
    "laurent.gammak_at_2_limit": _work_limit,
    "numerics.contour_coefficients": _work_contour,
    "numerics.contour_coefficients_with_error": _work_contour,
    "numerics.central_difference": None,  # counted by wrapping f
}


class Tracer:
    """Installs wrappers on demand; accumulates per-function totals."""

    def __init__(self):
        mods = [m for n, m in sys.modules.items()
                if n == "barneszeta" or n.startswith("barneszeta.")]
        self._originals = {}  # id(function) -> (key, function)
        for short, funcs in LAYERS.items():
            mod = sys.modules[f"barneszeta.{short}"]
            for fn in funcs:
                f = getattr(mod, fn)
                self._originals[id(f)] = (f"{short}.{fn}", f)
        self._wrappers = {i: self._wrap(key, f)
                          for i, (key, f) in self._originals.items()}
        # every (module, attribute) that binds a traced function
        self._bindings = [(m, name, id(obj)) for m in mods
                          for name, obj in list(vars(m).items())
                          if id(obj) in self._originals]
        self.calls = {key: 0 for key, _ in self._originals.values()}
        self.self_s = {key: 0.0 for key in self.calls}
        self.work = {key: 0 for key in self.calls}
        self._stack = []  # child time accumulated by each open span

    def install(self):
        for mod, name, i in self._bindings:
            setattr(mod, name, self._wrappers[i])

    def uninstall(self):
        for mod, name, i in self._bindings:
            setattr(mod, name, self._originals[i][1])

    def _wrap(self, key, f):
        work_of = WORK.get(key)
        count_evals = key == "numerics.central_difference"
        clock = time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if count_evals:
                inner = args[0] if args else kwargs.pop("f")

                def counted(x):
                    self.work[key] += 1
                    return inner(x)
                args = (counted, *args[1:])
            elif work_of is not None:
                self.work[key] += work_of(args, kwargs)
            self.calls[key] += 1
            self._stack.append(0.0)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                span = clock() - t0
                child = self._stack.pop()
                self.self_s[key] += span - child
                if self._stack:
                    self._stack[-1] += span
        return wrapper

    def metrics(self, ops):
        """Per-operation calls, self time (ms) and work for each function."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = (self.calls[key] / ops, "count/op")
            out[f"{key}.self_ms"] = (1e3 * self.self_s[key] / ops, "ms/op")
            if key in WORK:
                out[f"{key}.work"] = (self.work[key] / ops, "count/op")
        return out
