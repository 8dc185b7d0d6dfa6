"""The benchmark's three workloads: inputs, operations and checks.

Inputs come from the seed alone (``random.Random``), so the benchmark
process and the workload process generate the same ones.  Each run
repeats whole rounds of the same operations; a round is the list that
``inputs(workload, seed)`` returns.  This module imports neither
barneszeta nor mpmath at import time: the workload process imports only
barneszeta, and the benchmark process only mpmath.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

WORKLOADS = ("points", "coeffs", "certify")

POLE_GAP = 0.05     # every point keeps this distance from s = 1 and s = 2
IM_MAX = 50.0       # |Im s| of the points workload
RE_MAX = 6.0
EM_RE_MAX = 2.45    # `eval --method auto` uses Euler-Maclaurin up to Re s = 2.5
DIRECT_RE_MIN = 2.55  # ... and the direct sum beyond it
WEIGHTS = (0.5, 2.5)  # range of v and w
ALPHAS = (0.3, 2.5)   # range of alpha
RATIOS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))  # commensurate p : q

# Tolerances per output, about 25x or more the worst error seen over
# 30 (points) or 20 (coeffs) seeds; README.md lists both.
TOL_EM = 1e-8            # eval, Euler-Maclaurin route, against mpmath
TOL_DIRECT_ROUNDING = 1e-9  # float64 rounding on top of the reported est_error
TOL_RESIDUE = 1e-10      # g_-1 at s = 1, 2 against the exact residues
TOL_LAURENT = 1e-9       # g_k at s = 1, 2 against mpmath (abs, scaled by max(1, |g|))
TOL_LOG_GAMMA2 = 1e-8    # log Gamma_2 against mpmath / the row-removal identity
TOL_PSI = 1e-3           # psi_2^(1), psi_2^(2) against their identities
TOL_LIMIT = 1e-3         # verify_theorem1 limit-formula values against mpmath
TOL_INTEGRAL = 1e-8      # verify_theorem1 integral-form value against mpmath
LAURENT_K = 4            # coeffs: laurent_at_1/2(p, 4)

# The corner of the points domain where the direct sum is least accurate:
# smallest Re s, real s, largest alpha, smallest weights.  Every round
# evaluates it, so digits_min is the domain's worst case on every seed
# rather than the worst of a random draw.
POINTS_ANCHOR = {"s": (DIRECT_RE_MIN, 0.0), "alpha": ALPHAS[1],
                 "pq": (1, 1, WEIGHTS[0])}
# The corner of the triple domain where psi_2^(2) (coeffs) and the
# limit formula for g_2(2) (certify) are least accurate, found by scanning
# the eight corners against mpmath; it sits in every coeffs and certify
# round for the same reason.  Its references come from the row-removal
# identity (it counts as incommensurate), since the closed form for
# v : w = 1 : 5 would cost five Hurwitz pairs per evaluation.
TRIPLE_ANCHOR = (ALPHAS[1], WEIGHTS[0], WEIGHTS[1])


# ---------------------------------------------------------------- inputs

def _triple(rng, commensurate):
    alpha = rng.uniform(*ALPHAS)
    if not commensurate:
        return {"alpha": alpha, "v": rng.uniform(*WEIGHTS),
                "w": rng.uniform(*WEIGHTS), "pq": None}
    p, q = rng.choice(RATIOS)
    t = rng.uniform(WEIGHTS[0] / min(p, q), WEIGHTS[1] / max(p, q))
    return {"alpha": alpha, "v": p * t, "w": q * t, "pq": (p, q, t)}


def _strata(rng, n, lo, hi):
    """n values, one uniform draw from each of n equal slices of [lo, hi],
    in random order.  Stratified draws keep a round's make-up, and so the
    median of its digits, close to the same on every seed."""
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _points(rng, n, re_lo, re_hi, commensurate):
    res = _strata(rng, n, re_lo, re_hi)
    ims = _strata(rng, n, -IM_MAX, IM_MAX)
    alphas = _strata(rng, n, *ALPHAS)
    pts = []
    width = 2 * IM_MAX / n
    for re, im, alpha in zip(res, ims, alphas):
        lo = -IM_MAX + width * math.floor((im + IM_MAX) / width)
        while min(abs(complex(re, im) - 1), abs(complex(re, im) - 2)) < POLE_GAP:
            im = lo + width * rng.random()  # redraw in the same slice
        pts.append({"s": (re, im), **_triple(rng, commensurate), "alpha": alpha})
    return pts


def _anchor_point():
    p, q, t = POINTS_ANCHOR["pq"]
    return {"s": POINTS_ANCHOR["s"], "alpha": POINTS_ANCHOR["alpha"],
            "v": p * t, "w": q * t, "pq": (p, q, t)}


def points_inputs(seed):
    """32 eval points: 8 on the direct route (Re s > 2.5), 24 on the
    Euler-Maclaurin route.  Incommensurate triples only at Re s > 2, where
    the mpmath row sum converges."""
    rng = random.Random(f"points-{seed}")
    pts = [_anchor_point()]
    pts += _points(rng, 3, DIRECT_RE_MIN, RE_MAX, True)
    pts += _points(rng, 4, DIRECT_RE_MIN, RE_MAX, False)
    pts += _points(rng, 16, 0.0, EM_RE_MAX, True)
    pts += _points(rng, 8, 2.0 + POLE_GAP, EM_RE_MAX, False)
    rng.shuffle(pts)
    return pts


def coeffs_inputs(seed):
    """4 triples: the anchor, one commensurate, two incommensurate."""
    rng = random.Random(f"coeffs-{seed}")
    alpha, v, w = TRIPLE_ANCHOR
    return [{"alpha": alpha, "v": v, "w": w, "pq": None},
            _triple(rng, True), _triple(rng, False), _triple(rng, False)]


def certify_inputs(seed):
    """3 triples (the anchor, one commensurate with v = w, one
    incommensurate), each checked by the three theorem suites."""
    rng = random.Random(f"certify-{seed}")
    alpha, v, w = TRIPLE_ANCHOR
    equal = _triple(rng, True)
    t = rng.uniform(*WEIGHTS)
    equal.update(v=t, w=t, pq=(1, 1, t))
    triples = [{"alpha": alpha, "v": v, "w": w, "pq": None},
               equal, _triple(rng, False)]
    return [{"suite": suite, **tr} for tr in triples
            for suite in ("theorem1", "theorem2_derivative", "theorem2_altsum")]


def reduction_grid(seed):
    """s values for verify_reduction: 8 points of the points domain."""
    rng = random.Random(f"reduction-{seed}")
    return [x["s"] for x in _points(rng, 8, 0.0, RE_MAX, True)]


def inputs(workload, seed):
    return {"points": points_inputs, "coeffs": coeffs_inputs,
            "certify": certify_inputs}[workload](seed)


# ----------------------------------------------------- operations (child)

def _fmt_complex(re, im):
    return f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


class Runner:
    """Calls into barneszeta for one workload; lives in the workload process."""

    def __init__(self, workload, seed):
        import barneszeta
        from barneszeta import cli

        self.bz, self.cli = barneszeta, cli
        self.workload, self.seed = workload, seed
        self.round = inputs(workload, seed)

    def _params(self, x):
        return self.bz.BarnesParams(x["alpha"], x["v"], x["w"])

    def warm_up(self):
        """First calls of the code paths a round uses, untimed."""
        x = self.round[0]
        if self.workload == "points":
            self.op({**x, "s": (0.5, 1.0)})
        elif self.workload == "coeffs":
            self.bz.laurent_at_2(self._params(x), LAURENT_K)
        else:
            self.bz.verify_reduction(self.bz.BarnesParams(1.0, 1.0, 1.0),
                                     [0.5 + 1j])

    def op(self, x):
        """One operation; returns its outputs as JSON-ready data."""
        if self.workload == "points":
            argv = ["eval", "--s=" + _fmt_complex(*x["s"]),
                    "--alpha", repr(x["alpha"]), "--v", repr(x["v"]),
                    "--w", repr(x["w"])]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"barneszeta eval exited with code {code}")
            rec = json.loads(buf.getvalue())
            return {"value": (rec["value"]["re"], rec["value"]["im"]),
                    "est_error": rec["est_error"]}
        p = self._params(x)
        if self.workload == "coeffs":
            return {**self._expansions(p),
                    "psi1": self.bz.polygamma2(1, p),
                    "psi2": self.bz.polygamma2(2, p)}
        suite = getattr(self.bz, "verify_" + x["suite"])
        return _report(suite(p))

    def _expansions(self, p):
        l2 = self.bz.laurent_at_2(p, LAURENT_K)
        l1 = self.bz.laurent_at_1(p, LAURENT_K)
        return {"l2": [l2.gamma_minus1, *l2.gammas],
                "l1": [l1.gamma_minus1, *l1.gammas],
                "log_gamma2": self.bz.log_gamma2(p)}

    def row_removal(self):
        """coeffs: the expansions at alpha + v for each incommensurate
        triple, untimed, for the row-removal identity.  None elsewhere."""
        if self.workload != "coeffs":
            return [None] * len(self.round)
        return [None if x["pq"] is not None
                else self._expansions(self._params({**x, "alpha": x["alpha"] + x["v"]}))
                for x in self.round]

    def once_per_run(self):
        """certify: one verify_bounds, and one verify_reduction per v = w
        triple, as calls to make.  They count as operations but stay out of
        the latencies."""
        if self.workload != "certify":
            return []
        grid = [complex(*s) for s in reduction_grid(self.seed)]
        calls = [lambda: _report(self.bz.verify_bounds())]
        calls += [lambda p=self._params(x): _report(self.bz.verify_reduction(p, grid))
                  for x in self.round[::3] if x["v"] == x["w"]]
        return calls


def _report(rep):
    return [{"id": c.id, "lhs": c.lhs, "rhs": c.rhs, "abs_err": c.abs_err,
             "rel_err": c.rel_err, "tol": c.tol, "pass": c.passed}
            for c in rep.checks]


# ------------------------------------------------ references and checks

def references(workload, seed):
    """mpmath reference data for one round; runs in the benchmark process."""
    import reference as ref

    out = []
    for x in inputs(workload, seed):
        pq = x["pq"]
        if workload == "points":
            s = complex(*x["s"])
            if pq is not None:
                val = ref.closed_form(s, x["alpha"], *pq)
            else:
                val = ref.row_sum(s, x["alpha"], x["v"], x["w"])
            out.append({"value": complex(val)})
        elif workload == "coeffs":
            if pq is not None:
                out.append({
                    "l2": ref.laurent_closed(x["alpha"], *pq, 2, LAURENT_K),
                    "l1": ref.laurent_closed(x["alpha"], *pq, 1, LAURENT_K),
                    "log_gamma2": ref.log_gamma2_closed(x["alpha"], *pq)})
            else:
                out.append({
                    "row_l2": ref.row_laurent(x["alpha"], x["w"], 2, LAURENT_K),
                    "row_l1": ref.row_laurent(x["alpha"], x["w"], 1, LAURENT_K),
                    "row_log_gamma2": ref.row_log_gamma(x["alpha"], x["w"])})
        else:
            if pq is not None and x["suite"] == "theorem1":
                out.append({"l2": ref.laurent_closed(x["alpha"], *pq, 2, 2)})
            else:
                out.append({})
    return out


def digits(err):
    """-log10 of a relative error, capped at 17."""
    return -math.log10(max(err, 1e-17))


class Checker:
    """Compares outputs with references; collects digits and failures."""

    def __init__(self):
        self.digits = []
        self.bad = []

    def _compare(self, name, got, want, scale, tol):
        err = abs(complex(got) - complex(want)) / scale
        self.digits.append(digits(err))
        if not err <= tol:
            self.bad.append(f"{name}: {got!r} vs {want!r} (tol {tol:g})")

    def rel(self, name, got, want, tol):
        """|got - want| <= tol |want|."""
        self._compare(name, got, want, abs(want), tol)

    def abs_scaled(self, name, got, want, tol):
        """|got - want| <= tol max(1, |want|), for values that can be near 0."""
        self._compare(name, got, want, max(1.0, abs(want)), tol)

    def within(self, name, got, want, bound):
        """|got - want| <= bound; digits relative to |want|."""
        self._compare(name, got, want, abs(want), bound / abs(want))

    def program_checks(self, name, checks):
        """Checks a verify report made itself: each must pass.  Its error is
        min(abs_err, rel_err), the measure the program's pass test uses."""
        for c in checks:
            if c["tol"] > 0:  # tol 0 marks a pure bound check
                self.digits.append(digits(min(c["abs_err"], c["rel_err"])))
            if not c["pass"]:
                self.bad.append(f"{name}/{c['id']}: {c['lhs']!r} vs "
                                f"{c['rhs']!r} (tol {c['tol']:g})")


def check(workload, x, out, refd, shifted, chk):
    """Check the outputs of one operation on input x."""
    if workload == "points":
        value = complex(*out["value"])
        want = refd["value"]
        if out["est_error"] is None:
            chk.rel(f"eval s={x['s']}", value, want, TOL_EM)
        else:
            chk.within(f"eval s={x['s']}", value, want,
                       out["est_error"] + TOL_DIRECT_ROUNDING * abs(want))
        return
    if workload == "coeffs":
        _check_coeffs(x, out, refd, shifted, chk)
        return
    name = f"{x['suite']}{(x['alpha'], x['v'], x['w'])}"
    chk.program_checks(name, out)
    if "l2" in refd:  # commensurate theorem1: its rhs values against mpmath
        g = refd["l2"]
        for c in out:
            if c["id"] == "gamma0_integral_rep":
                chk.abs_scaled(name + "/integral", c["rhs"], g[1], TOL_INTEGRAL)
            elif c["id"].endswith("_limit_formula"):
                k = int(c["id"][len("gamma"):-len("_limit_formula")])
                chk.abs_scaled(f"{name}/limit{k}", c["rhs"], g[k + 1], TOL_LIMIT)


def _check_coeffs(x, out, refd, shifted, chk):
    alpha, v, w = x["alpha"], x["v"], x["w"]
    name = f"coeffs{(alpha, v, w)}"
    l2, l1 = out["l2"], out["l1"]
    chk.rel(name + "/res2", l2[0], 1.0 / (v * w), TOL_RESIDUE)
    chk.abs_scaled(name + "/res1", l1[0], (v + w - 2 * alpha) / (2 * v * w),
                   TOL_RESIDUE)
    if "l2" in refd:
        r2, r1 = refd["l2"], refd["l1"]
        lg = refd["log_gamma2"]
    else:
        # Row removal: zeta_2(s, alpha) - zeta_2(s, alpha + v) = w^-s zeta_H(s, alpha/w)
        r2 = [a + b for a, b in zip(shifted["l2"], refd["row_l2"])]
        r1 = [a + b for a, b in zip(shifted["l1"], refd["row_l1"])]
        lg = shifted["log_gamma2"] + refd["row_log_gamma2"]
    for k in range(1, LAURENT_K + 2):
        chk.abs_scaled(f"{name}/g{k - 1}(2)", l2[k], r2[k], TOL_LAURENT)
        chk.abs_scaled(f"{name}/g{k - 1}(1)", l1[k], r1[k], TOL_LAURENT)
    chk.abs_scaled(name + "/log_gamma2", out["log_gamma2"], lg, TOL_LOG_GAMMA2)
    chk.abs_scaled(name + "/psi1", out["psi1"], -r1[1], TOL_PSI)
    chk.abs_scaled(name + "/psi2", out["psi2"], r2[0] + r2[1], TOL_PSI)


def check_once_per_run(reports, chk):
    """certify: the verify_bounds and verify_reduction reports must pass."""
    for i, rep in enumerate(reports):
        chk.program_checks("bounds" if i == 0 else "reduction", rep)
