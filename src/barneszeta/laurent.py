"""Laurent coefficients of the Barnes double zeta-function at s = 2 and
s = 1, from the Euler-Maclaurin jet, by finite-M limit formulas, and by the
closed integral representation of the constant term at s = 2.  The limit
formulas sum the lattice row by row, each row an exact difference of two
Hurwitz jets, so one pass gives every order.

Coefficients are raw Laurent coefficients:

    zeta_2(s) = g_{-1}/(s-c) + sum_{k>=0} g_k (s-c)^k,   c in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barnes import BarnesParams, _zeta2_jet
from .errors import ConsistencyError
from .hurwitz import _hurwitz_jet, hurwitz_zeta
from .numerics import (
    _JET_REL_ERR,
    _jet_mul,
    _jet_pow,
    frac_part_integral_1d,
    frac_part_integral_2d,
    richardson_extrapolate,
)

__all__ = [
    "LaurentExpansion",
    "residue_at_2",
    "residue_at_1",
    "laurent_at_2",
    "laurent_at_1",
    "gamma0_at_2_integral",
    "gammak_at_2_limit",
]

_M_CAP = 1e15  # beyond this, log-power cancellation degrades


@dataclass(frozen=True)
class LaurentExpansion:
    """Expansion about one of the two poles.

    gamma_minus1 is the computed residue; err_minus1 folds in both the
    rounding floor and the deviation from the exact closed form.
    """

    center: int
    gamma_minus1: float
    err_minus1: float
    gammas: tuple
    errs: tuple
    method: str

    def __post_init__(self):
        if self.center not in (1, 2):
            raise ValueError("center must be 1 or 2")
        if len(self.gammas) != len(self.errs):
            raise ValueError("gammas and errs must have equal length")

    def evaluate(self, s: complex) -> complex:
        """Reconstruct the expansion at s (principal part included)."""
        ds = s - self.center
        out = self.gamma_minus1 / ds
        for k, g in enumerate(self.gammas):
            out += g * ds ** k
        return out


def residue_at_2(p: BarnesParams) -> float:
    """Exact residue of zeta_2 at s = 2."""
    return 1.0 / (p.v * p.w)


def residue_at_1(p: BarnesParams) -> float:
    """Exact residue of zeta_2 at s = 1."""
    return (p.v + p.w - 2.0 * p.alpha) / (2.0 * p.v * p.w)


def _laurent_jet(p, center, exact_residue, k_max):
    if not 0 <= k_max <= 12:
        raise ValueError("k_max must be in 0..12")
    jet = _zeta2_jet(float(center), p, k_max + 1).real
    g_m1 = float(jet[0])
    gammas = tuple(float(g) for g in jet[1:k_max + 2])
    return LaurentExpansion(
        center=center,
        gamma_minus1=g_m1,
        err_minus1=_JET_REL_ERR * max(1.0, abs(g_m1)) + abs(g_m1 - exact_residue),
        gammas=gammas,
        errs=tuple(_JET_REL_ERR * max(1.0, abs(g)) for g in gammas),
        method="em",
    )


def laurent_at_2(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max of zeta_2 about s = 2 (jet route)."""
    return _laurent_jet(p, 2, residue_at_2(p), k_max)


def laurent_at_1(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max of zeta_2 about s = 1 (jet route)."""
    return _laurent_jet(p, 1, residue_at_1(p), k_max)


def gamma0_at_2_integral(p: BarnesParams) -> float:
    """Constant term at s = 2 via the closed integral representation:

    g_0(2) = -1/alpha^2 - (1+log alpha)/(v w)
             + zeta_H(2, alpha/v)/v^2 + zeta_H(2, alpha/w)/w^2
             - (w/v) I(alpha, w) - (v/w) I(alpha, v)
             + 6 v w J(alpha, v, w)

    with I the 1-D and J the 2-D sawtooth integral at exponents 2 and 4.
    """
    alpha, v, w = p.alpha, p.v, p.w
    return float(
        -1.0 / alpha ** 2
        - (1.0 + math.log(alpha)) / (v * w)
        + hurwitz_zeta(2.0, alpha / v).real / v ** 2
        + hurwitz_zeta(2.0, alpha / w).real / w ** 2
        - (w / v) * frac_part_integral_1d(alpha, w, 2.0).real
        - (v / w) * frac_part_integral_1d(alpha, v, 2.0).real
        + 6.0 * v * w * frac_part_integral_2d(alpha, v, w, 4.0).real
    )


def _lattice_log_sums(p: BarnesParams, k_max: int, m_list, power: int = 2):
    """{M: [S_0, .., S_k_max]}, S_k = sum_{m,n<=M} log^k(A)/A^power.

    Each row over n is an exact Hurwitz difference,
    sum_{n<=M} A^-s = w^-s [zeta_H(s, a_m) - zeta_H(s, a_m+M+1)] with
    a_m = (alpha+m v)/w, taken on the jet about s = power, whose slot k is
    sum (-log A)^k/k! A^-power.  The head jets are shared by every M via
    a prefix sum over m.  At s = 1 the pole slots cancel exactly, but the
    product with w^-s needs one order more.
    """
    n = k_max + (power == 1)
    a = (p.alpha + p.v * np.arange(max(m_list) + 1)) / p.w
    heads = np.cumsum(_hurwitz_jet(power, a, n), axis=0)
    w_pow = _jet_pow(p.w, power, n)
    signs = [(-1) ** k * math.factorial(k) for k in range(k_max + 1)]
    out = {}
    for m in m_list:
        rows = heads[m] - _hurwitz_jet(power, a[:m + 1] + m + 1, n).sum(axis=0)
        jet = _jet_mul(w_pow, rows).real
        out[m] = [sg * float(jet[k + 1]) for k, sg in enumerate(signs)]
    return out


def _counterterm(p: BarnesParams, k: int, m: int) -> float:
    """Divergent part to subtract from the square-lattice log sum.

    Exact square integral of log^k(A)/A^2 over [0,M]^2 (corner-evaluated
    double antiderivative), shifted by the Laurent tail of the infinite
    integral alpha^(2-s)/(vw(s-1)(s-2)) so that the limit is the raw
    Laurent coefficient itself.
    """
    alpha, v, w = p.alpha, p.v, p.w
    la = math.log(alpha)
    lv = math.log(alpha + v * m)
    lw = math.log(alpha + w * m)
    l2 = math.log(alpha + v * m + w * m)
    kfac = math.factorial(k)
    acc = 0.0
    for j in range(k + 1):
        pw = j + 1
        acc -= (kfac / math.factorial(pw)) * (
            la ** pw - lv ** pw - lw ** pw + l2 ** pw)
    acc += kfac * sum(la ** i / math.factorial(i) for i in range(k + 2))
    return acc / (v * w)


def gammak_at_2_limit(p: BarnesParams, k_max: int, m_list=None):
    """Finite-M limit-formula values of g_0..g_k_max at s = 2, 0 <= k_max <= 4.

    g_k(2) = lim_M (-1)^k/k! [ sum_{m,n<=M} log^k(A)/A^2 - counterterm(M) ],
    A = alpha+m*v+n*w.  Remainder decays like log^(k+1)(M)/M; three or more
    samples are Richardson-accelerated under that model, fewer give the last
    sample with the last difference as err.
    Every order comes from one lattice pass (``_lattice_log_sums``).
    Returns a tuple of (value, err), one per k.
    """
    if not 0 <= k_max <= 4:
        raise ValueError("k_max must be in 0..4")
    if m_list is None:
        m_list = [2 ** e for e in range(6, 13)]
    m_list = sorted(int(m) for m in m_list)
    if any(m < 16 for m in m_list):
        raise ValueError("every M must be >= 16")
    m_list = [m for m in m_list
              if p.alpha + (p.v + p.w) * m < _M_CAP] or m_list[:1]

    sums = _lattice_log_sums(p, k_max, m_list)
    results = []
    for k in range(k_max + 1):
        pref = (-1) ** k / math.factorial(k)
        samples = [(m, pref * (sums[m][k] - _counterterm(p, k, m)))
                   for m in m_list]
        ys = [y for _, y in samples]
        if len(ys) >= 3:
            d1 = abs(ys[-1] - ys[-2])
            d2 = abs(ys[-2] - ys[-3])
            if d1 > 10.0 * d2 and d1 > 1e-6:
                raise ConsistencyError(
                    f"finite-M samples of g_{k} diverge non-monotonically; "
                    f"last corrections {d2:.3g} -> {d1:.3g}")
        if len(samples) >= 3:
            results.append(richardson_extrapolate(samples, model=k + 1))
        else:
            err = abs(ys[-1] - ys[-2]) if len(ys) > 1 else float("inf")
            results.append((ys[-1], err))
    return tuple(results)
