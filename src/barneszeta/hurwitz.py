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

from .config import HURWITZ_J, HURWITZ_M
from .errors import PoleError
from .numerics import (
    _JET_REL_ERR,
    _em_tail,
    _head_length,
    _jet_pow,
    frac_part_integral_1d,
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


def _hurwitz_jet(c, a, n: int):
    """Jet of zeta_H(s, a) about s = c, slots eps^-1..eps^n.

    ``_em_tail`` with G = A^(-s), h = 1 and HURWITZ_J corrections at the
    cut A = N + a, where G(s+k) is A^(-k) A^(-s).  The head length N is
    chosen per element by ``_head_length`` (power 0): the least N whose
    first omitted correction is below 2^-53 of the tail, at most HURWITZ_M.
    Terms are summed up to the largest N and zeroed beyond each element's
    own, so a batch is bitwise equal to scalar calls.  c and a broadcast;
    the jet is on a new last axis.  Raises AccuracyError where the first
    omitted correction at N = HURWITZ_M exceeds the jet's rounding floor,
    which happens for |Im c| beyond about 150-200.
    """
    c = np.asarray(c, dtype=complex)
    a = np.asarray(a, dtype=float)
    size = _head_length(c, a, 1.0, HURWITZ_J, 0, HURWITZ_M)
    m = np.arange(size.max(initial=0))
    terms = _jet_pow(a[..., None] + m, c[..., None], n)
    head = np.where((m < size[..., None])[..., None], terms, 0.0).sum(axis=-2)
    base = a + size
    k = np.array([-1, 0, *range(1, 2 * HURWITZ_J + 2, 2)])
    cut = (base[..., None] ** -k)[..., None] * _jet_pow(base, c, n)[..., None, :]
    return _em_tail(c, 1.0, head, cut)


def hurwitz_zeta(s, a):
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
    out = _hurwitz_jet(s_arr, a_arr, 1)[..., 1]
    if np.asarray(s).ndim == 0 and np.asarray(a).ndim == 0:
        return complex(out)
    return out


def riemann_zeta(s):
    """Riemann zeta; zeta(s) = zeta_H(s, 1)."""
    return hurwitz_zeta(s, 1.0)


def stieltjes_constants(a: float, k_max: int) -> StieltjesTable:
    """Laurent coefficients g_0(a)..g_k_max(a) of zeta_H(., a) about s = 1.

    Read off the Euler-Maclaurin jet about s = 1, with its rounding floor
    as error estimate.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    if not 0 <= k_max <= 16:
        raise ValueError("k_max must be in 0..16")
    jet = _hurwitz_jet(1.0, a, k_max + 1)
    gammas = tuple(float(g.real) for g in jet[1:k_max + 2])
    errs = tuple(_JET_REL_ERR * max(1.0, abs(g)) for g in gammas)
    return StieltjesTable(a=a, gammas=gammas, errs=errs)


def gamma0_integral(a: float) -> float:
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
    val = frac_part_integral_1d(1.0 + a, 1.0, 2.0)
    return 1.0 / a + 1.0 / (1.0 + a) - math.log(1.0 + a) - val.real
