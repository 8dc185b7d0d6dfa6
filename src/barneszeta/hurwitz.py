"""Riemann and Hurwitz zeta with full analytic continuation, plus
generalized Stieltjes constants.

Convention used throughout: the table entry g_k is the raw Laurent
coefficient, i.e.

    zeta_H(s, a) = 1/(s-1) + sum_{k>=0} g_k(a) (s-1)^k,

so g_0(1) is the Euler constant and g_k(1) = (-1)^k/k! times the
classically normalized Stieltjes constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import ConsistencyError, PoleError
from .numerics import (
    QuadratureSpec,
    _JET_REL_ERR,
    _em_corrections,
    _jet_mul,
    _jet_pow,
    _jet_recip,
    frac_part_integral_1d,
    richardson_extrapolate,
)

__all__ = [
    "StieltjesTable",
    "hurwitz_zeta",
    "riemann_zeta",
    "stieltjes_constants",
    "gamma0_integral",
]


@dataclass(frozen=True)
class StieltjesTable:
    """Generalized Stieltjes constants g_0(a)..g_K(a) with error estimates."""

    a: float
    gammas: tuple
    errs: tuple

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be positive")
        if len(self.gammas) != len(self.errs):
            raise ValueError("gammas and errs must have equal length")


def _hurwitz_jet(c, a, n: int, cfg: EvalConfig):
    """Jet of zeta_H(s, a) about s = c, slots eps^-1..eps^n.

    Euler-Maclaurin: head sum of hurwitz_M terms, integral and midpoint
    terms, then hurwitz_J even-Bernoulli corrections, all on jets.  c and
    a broadcast; the jet is on a new last axis.
    """
    c = np.asarray(c, dtype=complex)
    a = np.asarray(a, dtype=float)
    m = np.arange(cfg.hurwitz_M)
    head = _jet_pow(a[..., None] + m, c[..., None], n).sum(axis=-2)
    base = cfg.hurwitz_M + a
    x_s = _jet_pow(base, c, n)
    out = head + _jet_mul(base[..., None] * x_s, _jet_recip(c, n)) + 0.5 * x_s
    odd = 2 * np.arange(1, cfg.hurwitz_J + 1) - 1
    terms = (base[..., None] ** -odd)[..., None] * x_s[..., None, :]
    return out + _em_corrections(c, terms)


def hurwitz_zeta(s, a, cfg: EvalConfig = DEFAULT_CONFIG):
    """Hurwitz zeta zeta_H(s, a), continued to all s != 1.

    The eps^0 slot of the Euler-Maclaurin jet about s.  Accepts scalar or
    ndarray s (and broadcastable a); returns the matching shape.
    """
    s_arr = np.asarray(s, dtype=complex)
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr <= 0):
        raise ValueError("a must be positive")
    if np.any(s_arr == 1.0):
        raise PoleError(1, "zeta_H has its pole at s = 1")
    out = _hurwitz_jet(s_arr, a_arr, 1, cfg)[..., 1]
    if np.asarray(s).ndim == 0 and np.asarray(a).ndim == 0:
        return complex(out)
    return out


def riemann_zeta(s, cfg: EvalConfig = DEFAULT_CONFIG):
    """Riemann zeta; zeta(s) = zeta_H(s, 1)."""
    return hurwitz_zeta(s, 1.0, cfg)


def _stieltjes_limit(a: float, k: int, m_list=None):
    """Paper-faithful finite-M limit-formula route for g_k(a), accelerated.

    g_k(a) = (-1)^k/k! lim_M [ sum_{m<=M} log^k(m+a)/(m+a)
                               - log^(k+1)(M+a)/(k+1) ].
    Remainder decays like log^k(M)/M, hence the log-power model p=k.
    """
    if m_list is None:
        m_list = [2 ** e for e in range(6, 14)]
    samples = []
    for m_max in m_list:
        grid = np.arange(m_max + 1) + a
        lg = np.log(grid)
        total = float(np.sum(lg ** k / grid))
        total -= math.log(m_max + a) ** (k + 1) / (k + 1)
        samples.append((m_max, (-1) ** k / math.factorial(k) * total))
    return richardson_extrapolate(samples, model=k)


def stieltjes_constants(a: float, k_max: int, cfg: EvalConfig = DEFAULT_CONFIG,
                        cross_check: bool = False) -> StieltjesTable:
    """Laurent coefficients g_0(a)..g_k_max(a) of zeta_H(., a) about s = 1.

    Primary route: the Euler-Maclaurin jet about s = 1, with its rounding
    floor as error estimate.  With ``cross_check`` the limit-formula route
    is run as well; the table then
    carries the larger of the two error estimates and a disagreement beyond
    100x the combined estimate raises ConsistencyError.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    if not 0 <= k_max <= 16:
        raise ValueError("k_max must be in 0..16")
    jet = _hurwitz_jet(1.0, a, k_max + 1, cfg)
    gammas = [float(g.real) for g in jet[1:k_max + 2]]
    gerrs = [_JET_REL_ERR * max(1.0, abs(g)) for g in gammas]
    if cross_check:
        for k in range(k_max + 1):
            alt, alt_err = _stieltjes_limit(a, k)
            combined = gerrs[k] + alt_err
            if abs(alt - gammas[k]) > 100.0 * max(combined, 1e-15):
                raise ConsistencyError(
                    f"Euler-Maclaurin and limit-formula g_{k}({a}) disagree: "
                    f"{gammas[k]:.12g} vs {alt:.12g}")
            gerrs[k] = max(gerrs[k], alt_err)
    return StieltjesTable(a=a, gammas=tuple(gammas), errs=tuple(gerrs))


def gamma0_integral(a: float, spec: QuadratureSpec | None = None) -> float:
    """g_0(a) = 1/a - log a - integral_0^inf (x-[x])/(x+a)^2 dx, 0 < a <= 1.

    From sum_{m<=M} 1/(m+a) = 1/a + log((M+a)/a) - int_0^M (x-[x])/(x+a)^2;
    the log a term vanishes at a = 1, where this is the Euler constant.
    The first unit cell (a boundary layer of width a for small a) is
    integrated in closed form, leaving a shifted sawtooth integral whose
    integrand is smooth on every cell:

        g_0(a) = 1/a + 1/(1+a) - log(1+a)
                 - integral_0^inf (y-[y])/(y+1+a)^2 dy.
    """
    if not 0 < a <= 1:
        raise ValueError("a must be in (0, 1]")
    val = frac_part_integral_1d(1.0 + a, 1.0, 2.0, spec)
    return 1.0 / a + 1.0 / (1.0 + a) - math.log(1.0 + a) - val.real
