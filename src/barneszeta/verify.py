"""Identity-certification suites.

Each suite numerically checks one family of identities (residues, the
constant-term integral representation, the finite-M limit formulas at
both poles, the derivative and alternating-sum relations between the two
poles, the v = w reduction, and the classical coefficient bounds) and emits a
structured, serializable report.  Math mismatches are recorded as failed
checks, never raised.
"""

from __future__ import annotations

import cmath
import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .barnes import BarnesParams, _row_sum_jet, zeta2
from .config import FD_STEP, SNAPSHOT
from .hurwitz import hurwitz_zeta, stieltjes_constants
from .laurent import (
    gamma0_at_2_integral,
    gammak_at_1_limit,
    gammak_at_2_limit,
    laurent_at_1,
    laurent_at_2,
    residue_at_1,
    residue_at_2,
)
from .numerics import _jet_mul, _jet_pow, central_difference

__all__ = [
    "Check",
    "VerificationReport",
    "default_parameter_suite",
    "verify_theorem1",
    "verify_theorem1_s1",
    "verify_theorem2_derivative",
    "verify_theorem2_altsum",
    "verify_reduction",
    "verify_bounds",
    "run_suites",
]

DEFAULT_SEED = 20250823

# Default tolerances by check flavor.
TOL_EXACT = 1e-10       # exact closed forms: residues, reduction
TOL_CROSS = 1e-6        # jet vs finite-difference routes (theorem 2)
TOL_LIMIT = 1e-10       # finite-M limit formulas, M from the weights
TOL_INTEGRAL = 5e-12    # integral form of g_0(2) vs the jet

# Check ids, built once so that every report holds the same strings.
_LIMIT_IDS = {suffix: tuple(f"gamma{k}_limit_formula{suffix}" for k in range(13))
              for suffix in ("", "_s1")}
_DERIV_IDS = tuple(f"deriv_k{k:+d}" for k in range(-1, 4))  # k = -1..3
_ALTSUM_IDS = tuple(f"altsum_k{k}" for k in range(4))


@dataclass(frozen=True)
class Check:
    id: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    error: str | None = None  # exception text of a check that raised

    def to_dict(self):
        return {
            "id": self.id, "lhs": self.lhs, "rhs": self.rhs,
            "abs_err": self.abs_err, "rel_err": self.rel_err,
            "tol": self.tol, "pass": self.passed, "error": self.error,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(id=d["id"], lhs=d["lhs"], rhs=d["rhs"],
                   abs_err=d["abs_err"], rel_err=d["rel_err"],
                   tol=d["tol"], passed=d["pass"], error=d.get("error"))


def _make_check(cid, lhs, rhs, tol):
    # a non-finite side fails: NaN would otherwise pass as rel_err 0
    la, ra = complex(lhs), complex(rhs)
    abs_err = abs(la - ra)
    scale = max(abs(la), abs(ra))
    rel_err = abs_err / scale if scale else 0.0
    passed = bool(cmath.isfinite(la) and cmath.isfinite(ra)
                  and (abs_err <= tol or rel_err <= tol))
    return Check(id=cid, lhs=float(la.real), rhs=float(ra.real),
                 abs_err=float(abs_err), rel_err=float(rel_err),
                 tol=float(tol), passed=passed)


def _bound_check(cid, quantity, bound):
    # pass iff quantity <= bound, both finite; encoded as abs_err against
    # tol 0, and max keeps a NaN excess where max(0.0, .) would drop it
    quantity, bound = float(quantity), float(bound)
    excess = max(quantity - bound, 0.0)
    return Check(id=cid, lhs=quantity, rhs=bound,
                 abs_err=excess, rel_err=excess, tol=0.0,
                 passed=math.isfinite(quantity) and math.isfinite(bound)
                 and excess <= 0.0)


def _failed_check(cid, exc, tol):
    return Check(id=cid, lhs=float("nan"), rhs=float("nan"),
                 abs_err=float("inf"), rel_err=float("inf"),
                 tol=float(tol), passed=False, error=str(exc))


@dataclass
class VerificationReport:
    suite: str
    checks: list
    params: dict = field(default_factory=dict)
    # every report holds the one SNAPSHOT; to_dict hands out a copy
    config: dict = field(default_factory=lambda: SNAPSHOT)

    def __post_init__(self):
        self.checks = sorted(self.checks, key=lambda c: c.id)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "params": self.params,
            "config": copy.deepcopy(self.config),
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d):
        return cls(suite=d["suite"],
                   checks=[Check.from_dict(c) for c in d["checks"]],
                   params=d.get("params", {}), config=d.get("config", {}))

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    def csv_rows(self):
        yield "id,lhs,rhs,abs_err,rel_err,tol,pass"
        for c in self.checks:
            yield (f"{c.id},{c.lhs:.17g},{c.rhs:.17g},{c.abs_err:.17g},"
                   f"{c.rel_err:.17g},{c.tol:.17g},{str(c.passed).lower()}")


def default_parameter_suite(seed: int | None = None):
    """Five fixed triples plus five seeded-random ones in (0.1, 5]^3."""
    fixed = [
        BarnesParams(1.0, 1.0, 1.0),
        BarnesParams(0.5, 1.0, 1.0),
        BarnesParams(1.0, 1.0, 2.0),
        BarnesParams(2.0, 3.0, 1.0),
        BarnesParams(0.7, 1.3, 2.1),
    ]
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    rand = [BarnesParams(*(0.1 + 4.9 * rng.random(3))) for _ in range(5)]
    return fixed + rand


def _params_dict(p: BarnesParams) -> dict:
    return {"alpha": p.alpha, "v": p.v, "w": p.w}


def verify_theorem1(p: BarnesParams, k_max: int = 2,
                    tol: float | None = None) -> VerificationReport:
    """Residue, constant-term integral form, and k-th limit formulas at s=2."""
    if not 0 <= k_max <= 12:
        raise ValueError("k_max must be in 0..12")
    tol_limit = TOL_LIMIT if tol is None else tol
    tol_int = TOL_INTEGRAL if tol is None else tol
    checks = []
    try:
        exp = laurent_at_2(p, k_max)
        checks.append(_make_check("residue_s2", exp.gamma_minus1,
                                  residue_at_2(p), TOL_EXACT))
        try:
            checks.append(_make_check("gamma0_integral_rep",
                                      exp.gammas[0],
                                      gamma0_at_2_integral(p), tol_int))
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            checks.append(_failed_check("gamma0_integral_rep", exc, tol_int))
        checks += _limit_checks(gammak_at_2_limit, p, exp.gammas, "", tol_limit)
    except Exception as exc:  # noqa: BLE001
        checks.append(_failed_check("residue_s2", exc, TOL_EXACT))
    return VerificationReport("theorem1", checks, _params_dict(p))


def verify_theorem1_s1(p: BarnesParams,
                       tol: float | None = None) -> VerificationReport:
    """Residue and the g_0, g_1 limit formulas at s = 1."""
    tol = TOL_LIMIT if tol is None else tol
    checks = []
    try:
        exp = laurent_at_1(p, 1)
        checks.append(_make_check("residue_s1", exp.gamma_minus1,
                                  residue_at_1(p), TOL_EXACT))
        checks += _limit_checks(gammak_at_1_limit, p, exp.gammas, "_s1", tol)
    except Exception as exc:  # noqa: BLE001
        checks.append(_failed_check("residue_s1", exc, TOL_EXACT))
    return VerificationReport("theorem1_s1", checks, _params_dict(p))


def _limit_checks(limit, p, gammas, suffix, tol):
    """The jet's g_0..g_k against limit(p, k); a limit that raises fails all."""
    cids = _LIMIT_IDS[suffix][:len(gammas)]
    try:
        limits = limit(p, len(gammas) - 1)
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        return [_failed_check(cid, exc, tol) for cid in cids]
    return [_make_check(cid, g, val, tol)
            for cid, g, val in zip(cids, gammas, limits.gammas)]


def _alpha_slope(p: BarnesParams, center: float, k_max: int):
    """d/dalpha of the jet of zeta_2 about s = center, slots eps^-1..eps^k_max.

    A central difference on purpose: the alpha-identity is what the theorem-2
    suites check.  The first lattice term alpha^(-s) makes the jet analytic
    in alpha only within alpha of it, so the steps are FD_STEP alpha, halved
    three times, and every alpha sampled is > 0.  Three Richardson steps
    leave an h^8 error below the jets' own rounding at every alpha; a step
    fixed in alpha left h^4 errors from 1e-11 to 1e-7 as alpha varied.  The
    eight jets come from one batched row-sum call.
    """
    n = k_max + 1

    def jets(alphas):
        rows = _row_sum_jet(center, alphas, p.v, p.w, n)
        return _jet_mul(_jet_pow(p.w, center, n), rows)[:k_max + 2].T

    return central_difference(jets, p.alpha, FD_STEP * p.alpha, levels=4)[0]


def verify_theorem2_derivative(p: BarnesParams, k_max: int = 3,
                               tol: float | None = None) -> VerificationReport:
    """g_k(1) = -d/dalpha of the (k+1)-st Taylor coefficient at s = 0.

    Checked for k = -1..k_max; k = -1 is the closed residue form.
    """
    if not 0 <= k_max <= 3:
        raise ValueError("k_max must be in 0..3")
    tol = TOL_CROSS if tol is None else tol
    checks = []
    try:
        exp = laurent_at_1(p, k_max)
        dcoef = _alpha_slope(p, 0.0, k_max + 1)  # index k+1 at order k
        for k in range(-1, k_max + 1):
            lhs = exp.gamma_minus1 if k == -1 else exp.gammas[k]
            checks.append(_make_check(_DERIV_IDS[k + 1], lhs, -dcoef[k + 2], tol))
    except Exception as exc:  # noqa: BLE001
        checks.append(_failed_check("deriv_suite", exc, tol))
    return VerificationReport("theorem2_derivative", checks, _params_dict(p))


def verify_theorem2_altsum(p: BarnesParams, k_max: int = 3,
                           tol: float | None = None) -> VerificationReport:
    """sum_{l=-1}^k (-1)^(k-l+1) d/dalpha g_l(1) = g_k(2), k = 0..k_max."""
    if not 0 <= k_max <= 3:
        raise ValueError("k_max must be in 0..3")
    tol = TOL_CROSS if tol is None else tol
    checks = []
    try:
        d1 = _alpha_slope(p, 1.0, k_max)  # index l+1
        exp2 = laurent_at_2(p, k_max)
        for k in range(k_max + 1):
            acc = sum((-1) ** (k - l + 1) * d1[l + 1] for l in range(-1, k + 1))
            checks.append(_make_check(_ALTSUM_IDS[k], acc, exp2.gammas[k], tol))
    except Exception as exc:  # noqa: BLE001
        checks.append(_failed_check("altsum_suite", exc, tol))
    return VerificationReport("theorem2_altsum", checks, _params_dict(p))


def verify_reduction(p: BarnesParams, s_grid,
                     tol: float = 1e-9) -> VerificationReport:
    """zeta_2(s, alpha; v, v) = v^-s [zeta_H(s-1, a) + (1-a) zeta_H(s, a)],
    a = alpha/v, on the supplied grid (which must avoid the poles)."""
    if p.v != p.w:
        raise ValueError("reduction identity requires v == w")
    checks = []
    a = p.alpha / p.v
    for i, s in enumerate(s_grid):
        s = complex(s)
        cid = f"reduction_{i:02d}_s={s.real:g}{s.imag:+g}i"
        try:
            lhs = zeta2(s, p)
            rhs = p.v ** (-s) * (hurwitz_zeta(s - 1.0, a)
                                 + (1.0 - a) * hurwitz_zeta(s, a))
            checks.append(_make_check(cid, lhs, rhs, tol))
        except Exception as exc:  # noqa: BLE001
            checks.append(_failed_check(cid, exc, tol))
    return VerificationReport("reduction", checks, _params_dict(p))


def verify_bounds() -> VerificationReport:
    """Classical upper bounds on the Laurent coefficients, k = 1..10.

    Hurwitz case: |g_k(a) - (-1)^k log^k(a)/(a k!)| <= (3+(-1)^k)/(k pi^k)
    for a in 0.1, 0.3, 0.5, 1.  Riemann case:
    |g_k| <= (3+(-1)^k)(2k)!/(k^(k+1)(2pi)^k).  Pure boolean comparisons
    (tol 0).
    """
    k_max, a_list = 10, (0.1, 0.3, 0.5, 1.0)
    checks = []
    tables = {a: stieltjes_constants(a, k_max) for a in a_list}
    for a, table in tables.items():
        for k in range(1, k_max + 1):
            centred = abs(table.gammas[k]
                          - (-1) ** k * math.log(a) ** k / (a * math.factorial(k)))
            bound = (3 + (-1) ** k) / (k * math.pi ** k)
            checks.append(_bound_check(f"hurwitz_bound_a={a}_k={k}",
                                       centred, bound))
    for k in range(1, k_max + 1):
        bound = ((3 + (-1) ** k) * math.factorial(2 * k)
                 / (k ** (k + 1) * (2 * math.pi) ** k))
        checks.append(_bound_check(f"riemann_bound_k={k}",
                                   abs(tables[1.0].gammas[k]), bound))
    return VerificationReport("bounds", checks, {"a_list": list(a_list)})


def _reduction_grid():
    grid = []
    for sig in np.linspace(-0.5, 4.0, 5):
        for t in (-4.0, 1.5):
            s = complex(sig, t)
            if abs(s - 1) >= 0.1 and abs(s - 2) >= 0.1:
                grid.append(s)
    return grid


def run_suites(names=("all",), tol: float | None = None,
               seed: int | None = None):
    """Run the named verification suites on the default parameter suite."""
    wanted = set(names)
    if "all" in wanted:
        wanted = {"theorem1", "theorem2", "bounds", "reduction"}
    unknown = wanted - {"theorem1", "theorem2", "bounds", "reduction"}
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    suite = default_parameter_suite(seed)
    reports = []
    if "theorem1" in wanted:
        for p in suite[:5]:
            reports.append(verify_theorem1(p, k_max=2, tol=tol))
            reports.append(verify_theorem1_s1(p, tol=tol))
        for p in suite[5:]:
            # residues only on the random triples: cheap exactness probe
            exp2 = laurent_at_2(p, 0)
            exp1 = laurent_at_1(p, 0)
            reports.append(VerificationReport(
                "theorem1_residues",
                [_make_check("residue_s2", exp2.gamma_minus1,
                             residue_at_2(p), TOL_EXACT),
                 _make_check("residue_s1", exp1.gamma_minus1,
                             residue_at_1(p), TOL_EXACT)],
                _params_dict(p)))
    if "theorem2" in wanted:
        for p in suite[:5]:
            reports.append(verify_theorem2_derivative(p, k_max=3, tol=tol))
            reports.append(verify_theorem2_altsum(p, k_max=3, tol=tol))
    if "reduction" in wanted:
        grid = _reduction_grid()
        for p in (BarnesParams(1, 1, 1), BarnesParams(0.5, 1, 1),
                  BarnesParams(2, 2, 2)):
            reports.append(verify_reduction(p, grid, tol=1e-9 if tol is None else tol))
    if "bounds" in wanted:
        reports.append(verify_bounds())
    return reports
