"""Riemann and Hurwitz zeta with full analytic continuation, plus
generalized Stieltjes constants.

Convention used throughout: the Stieltjes table is the Laurent record
(``LaurentExpansion``, center 1) of zeta_H(., a), whose entry g_k is the
raw Laurent coefficient, i.e.

    zeta_H(s, a) = 1/(s-1) + sum_{k>=0} g_k(a) (s-1)^k,

so g_0(1) is the Euler constant and g_k(1) = (-1)^k/k! times the
classically normalized Stieltjes constant.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleError
from .laurent import LaurentExpansion, _read_slots
from .numerics import _JET_REL_ERR, _hurwitz_jet

__all__ = [
    "hurwitz_zeta",
    "riemann_zeta",
    "stieltjes_constants",
]


def hurwitz_zeta(s, a):
    """Hurwitz zeta zeta_H(s, a), continued to all s != 1.

    The eps^0 slot of the Euler-Maclaurin jet about s.  Accepts scalar or
    ndarray s (and broadcastable a); returns the matching shape.
    """
    s_arr = np.asarray(s, dtype=complex)
    a_arr = np.asarray(a, dtype=float)
    if not np.all((0 < a_arr) & (a_arr < np.inf)):
        raise ValueError("a must be finite and positive")
    if np.any(s_arr == 1.0):
        raise PoleError(1, "zeta_H has its pole at s = 1")
    out = _hurwitz_jet(s_arr, a_arr, 1)[1]
    if np.asarray(s).ndim == 0 and np.asarray(a).ndim == 0:
        return complex(out)
    return out


def riemann_zeta(s):
    """Riemann zeta; zeta(s) = zeta_H(s, 1)."""
    return hurwitz_zeta(s, 1.0)


def stieltjes_constants(a: float, k_max: int) -> LaurentExpansion:
    """Laurent coefficients g_{-1}(a)..g_k_max(a) of zeta_H(., a) about s = 1.

    Read off the Euler-Maclaurin jet about s = 1, with its rounding floor
    in each slot as error estimate; the exact residue is 1.
    """
    if not 0 < a < np.inf:
        raise ValueError("a must be finite and positive")
    if not 0 <= k_max <= 16:
        raise ValueError("k_max must be in 0..16")
    slots = _hurwitz_jet(1.0, a, k_max + 1)[:k_max + 2]
    errs = _JET_REL_ERR * np.maximum(1.0, np.abs(slots))
    return _read_slots(1, slots, errs, 1.0, "em")
