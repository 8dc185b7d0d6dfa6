"""Barnes double zeta-function: evaluation away from the poles at s = 1, 2,
derivatives in s at the origin, the double log-gamma, and double
poly-gamma values, all read off one Euler-Maclaurin evaluator on jets in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DIRECT_M, EM_ORDER
from .errors import AccuracyError, DomainError, PoleError
from .hurwitz import _hurwitz_jet, hurwitz_zeta
from .numerics import (
    _em_corrections,
    _jet_mul,
    _jet_pow,
    _jet_recip,
    frac_part_integral_1d,
    frac_part_integral_2d,
)

__all__ = [
    "BarnesParams",
    "zeta2_direct",
    "zeta2",
    "zeta2_integral_rep",
    "zeta2_s_derivatives_at_0",
    "log_gamma2",
    "polygamma2",
]


@dataclass(frozen=True)
class BarnesParams:
    """Parameter triple (alpha, v, w), all strictly positive."""

    alpha: float
    v: float
    w: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.v > 0 and self.w > 0):
            raise ValueError("alpha, v, w must all be positive")

    def swapped(self) -> "BarnesParams":
        return BarnesParams(self.alpha, self.w, self.v)


def zeta2_direct(s, p: BarnesParams, M: int, with_error: bool = False):
    """Truncated double sum sum_{m,n<=M} (alpha+m*v+n*w)^(-s), Re(s) > 2.

    Monotone increasing in M for real s > 2.  ``with_error`` also returns
    an error bound: the discarded tail plus float64 rounding, which is
    2^-52 (|s| max |log A| + log2 of the term count) times sum |A^-s|.
    """
    s = complex(s)
    if s.real <= 2:
        raise DomainError("zeta2_direct requires Re(s) > 2")
    if M < 0:
        raise ValueError("M must be non-negative")
    alpha, v, w = p.alpha, p.v, p.w
    n = np.arange(M + 1)
    total = 0.0 + 0.0j
    abs_total = 0.0
    chunk = max(1, 4_000_000 // (M + 1))
    for lo in range(0, M + 1, chunk):
        m = np.arange(lo, min(lo + chunk, M + 1))
        grid = alpha + v * m[:, None] + w * n[None, :]
        terms = grid ** (-s)
        total += terms.sum()
        if with_error:
            abs_total += float(np.abs(terms).sum())
    if not with_error:
        return total
    log_max = max(abs(math.log(alpha)), abs(math.log(alpha + (v + w) * M)))
    rounding = 2.0 ** -52 * abs_total * (abs(s) * log_max
                                         + math.log2((M + 1) ** 2))
    # Union bound over the two half-strips m > M and n > M.
    sig = s.real
    a_v, a_w = alpha + v * M, alpha + w * M
    tail = (a_v ** (1 - sig) / (v * (sig - 1))
            + a_v ** (2 - sig) / (v * w * (sig - 1) * (sig - 2))
            + a_w ** (1 - sig) / (w * (sig - 1))
            + a_w ** (2 - sig) / (v * w * (sig - 1) * (sig - 2)))
    return total, tail + rounding


def _zeta2_jet(c, p: BarnesParams, n: int):
    """Jet of zeta_2(s, alpha; v, w) about s = c, slots eps^-1..eps^n.

    Row decomposition sum_m w^(-s) zeta_H(s, (alpha+m*v)/w) with the outer
    m-sum continued by Euler-Maclaurin; every m-derivative reduces to a
    shifted Hurwitz value via d/da zeta_H(s, a) = -s zeta_H(s+1, a).  One
    Hurwitz jet call covers the head rows and zeta_H(s-1), zeta_H(s),
    zeta_H(s+2j-1) at the cut a_M.  c may be an array.
    """
    alpha, v, w = p.alpha, p.v, p.w
    m_len, j_len = DIRECT_M, EM_ORDER
    c = np.asarray(c, dtype=complex)
    odd = 2 * np.arange(1, j_len + 1) - 1
    shifts = np.concatenate([np.zeros(m_len), [-1.0, 0.0], odd])
    rows = np.minimum(np.arange(m_len + j_len + 2), m_len)  # cut row M repeats
    zh = _hurwitz_jet(c[..., None] + shifts, (alpha + v * rows) / w, n)
    head = zh[..., :m_len, :].sum(axis=-2)
    mid = (w / v) * _jet_mul(_jet_recip(c, n), zh[..., m_len, :]) \
        + 0.5 * zh[..., m_len + 1, :]
    tail = _em_corrections(c, ((v / w) ** odd)[:, None] * zh[..., m_len + 2:, :])
    return _jet_mul(_jet_pow(w, c, n), head + mid + tail)


def zeta2(s, p: BarnesParams):
    """zeta_2(s, alpha; v, w) for s away from the poles at 1 and 2.

    The eps^0 slot of the Euler-Maclaurin jet about s.  Accepts scalar or
    ndarray s.
    """
    s_in = np.asarray(s, dtype=complex)
    if np.any(s_in == 1.0):
        raise PoleError(1)
    if np.any(s_in == 2.0):
        raise PoleError(2)
    out = _zeta2_jet(s_in, p, 1)[..., 1]
    if s_in.ndim == 0:
        return complex(out)
    return out


def zeta2_integral_rep(s, p: BarnesParams):
    """Seven-term integral representation of zeta_2, valid for Re(s) > 1.

    Closed Hurwitz terms, a rational term carrying both poles, two 1-D and
    one 2-D sawtooth integrals.  Used as an independent cross-check of
    :func:`zeta2` near s = 2.
    """
    s = complex(s)
    if s.real <= 1:
        raise DomainError("zeta2_integral_rep requires Re(s) > 1")
    if s in (1.0 + 0j, 2.0 + 0j):
        raise PoleError(int(s.real))
    alpha, v, w = p.alpha, p.v, p.w
    value = (
        -alpha ** (-s)
        + v ** (-s) * hurwitz_zeta(s, alpha / v)
        + w ** (-s) * hurwitz_zeta(s, alpha / w)
        + alpha ** (2.0 - s) / (v * w * (s - 1.0) * (s - 2.0))
        - (w / v) * frac_part_integral_1d(alpha, w, s)
        - (v / w) * frac_part_integral_1d(alpha, v, s)
        + v * w * s * (s + 1.0) * frac_part_integral_2d(alpha, v, w, s + 2.0)
    )
    return value


def zeta2_s_derivatives_at_0(p: BarnesParams, k_max: int):
    """Derivatives d^k/ds^k zeta_2(s, alpha; v, w) at s = 0, k = 0..k_max.

    k! times the Taylor coefficients of the Euler-Maclaurin jet about 0.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    jet = _zeta2_jet(0.0, p, k_max + 1)
    return [math.factorial(k) * complex(jet[k + 1]) for k in range(k_max + 1)]


def log_gamma2(p: BarnesParams) -> float:
    """log Gamma_2(alpha; v, w), i.e. the first s-derivative of zeta_2 at 0."""
    return zeta2_s_derivatives_at_0(p, 1)[1].real


def polygamma2(k: int, p: BarnesParams) -> float:
    """k-th derivative in alpha of log Gamma_2(alpha; v, w), any k >= 0.

    d^k/dalpha^k zeta_2(s) = (-1)^k (s)_k zeta_2(s+k) with (s)_k = (k-1)! s
    (1 + H_{k-1} s + ...), H the harmonic number; its s-slope at 0 is
    (-1)^k (k-1)! [g_0(k) + H_{k-1} g_{-1}(k)], Laurent coefficients at k.
    Raises AccuracyError when the value is not a finite float64, as for
    every k > 171, where (k-1)! overflows.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return log_gamma2(p)
    jet = _zeta2_jet(float(k), p, 1).real
    harmonic = sum(1.0 / i for i in range(1, k))
    try:
        value = (-1) ** k * math.factorial(k - 1) * float(jet[1] + harmonic * jet[0])
    except OverflowError:  # (k-1)! does not convert to float
        value = math.inf
    if not math.isfinite(value):
        raise AccuracyError(f"psi_2^({k}) is not a finite float64", value=value)
    return value
