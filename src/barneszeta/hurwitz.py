"""Riemann and Hurwitz zeta with full analytic continuation, plus
generalized Stieltjes constants.

Convention used throughout: the table entry g_k is the raw Laurent
coefficient, i.e.

    zeta_H(s, a) = 1/(s-1) + sum_{k>=0} g_k(a) (s-1)^k,

so g_0(1) is the Euler constant and g_k(1) = (-1)^k/k! times the
classically normalized Stieltjes constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .numerics import _JET_REL_ERR, _hurwitz_jet

__all__ = [
    "StieltjesTable",
    "hurwitz_zeta",
    "riemann_zeta",
    "stieltjes_constants",
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
    out = _hurwitz_jet(s_arr, a_arr, 1)[1]
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
    gammas = tuple(float(g) for g in jet[1:k_max + 2])
    errs = tuple(_JET_REL_ERR * max(1.0, abs(g)) for g in gammas)
    return StieltjesTable(a=a, gammas=gammas, errs=errs)
