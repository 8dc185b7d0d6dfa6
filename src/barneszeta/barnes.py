"""Barnes double zeta-function: evaluation away from the poles at s = 1, 2,
derivatives in s at the origin, the double log-gamma, and double
poly-gamma values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import DomainError, PoleError
from .hurwitz import hurwitz_zeta
from .numerics import (
    _B,
    ContourSpec,
    contour_coefficients,
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
    an analytic bound on the discarded tail.
    """
    s = complex(s)
    if s.real <= 2:
        raise DomainError("zeta2_direct requires Re(s) > 2")
    if M < 0:
        raise ValueError("M must be non-negative")
    alpha, v, w = p.alpha, p.v, p.w
    n = np.arange(M + 1)
    total = 0.0 + 0.0j
    chunk = max(1, 4_000_000 // (M + 1))
    for lo in range(0, M + 1, chunk):
        m = np.arange(lo, min(lo + chunk, M + 1))
        grid = alpha + v * m[:, None] + w * n[None, :]
        total += (grid ** (-s)).sum()
    if not with_error:
        return total
    # Union bound over the two half-strips m > M and n > M.
    sig = s.real
    a_v, a_w = alpha + v * M, alpha + w * M
    tail = (a_v ** (1 - sig) / (v * (sig - 1))
            + a_v ** (2 - sig) / (v * w * (sig - 1) * (sig - 2))
            + a_w ** (1 - sig) / (w * (sig - 1))
            + a_w ** (2 - sig) / (v * w * (sig - 1) * (sig - 2)))
    return total, tail


def _em_tail_terms(s_arr, a_m, ratio, j_len):
    """Outer Euler-Maclaurin Bernoulli corrections.

    sum_j B_2j/(2j)! * ratio^(2j-1) * (s)_{2j-1} * zeta_H(s+2j-1, a_m),
    with the 0 * pole cancellation at s = 2-2j evaluated analytically.
    """
    out = np.zeros_like(s_arr)
    lead = np.ones_like(s_arr)  # (s)_{2j-2}, built as a forward product
    for j in range(1, j_len + 1):
        poch = lead * (s_arr + (2 * j - 2))  # (s)_{2j-1}
        coef = _B[2 * j] / math.factorial(2 * j) * ratio ** (2 * j - 1)
        hit = s_arr == (2.0 - 2.0 * j)  # zeta_H argument lands on its pole
        safe = np.where(hit, s_arr + 0.5, s_arr)
        # (s)_{2j-1} has a simple zero exactly cancelling the simple pole
        # (residue 1); the limit is the product of the other factors,
        # (s)_{2j-2}.
        term = np.where(hit, lead, poch * hurwitz_zeta(safe + 2 * j - 1, a_m))
        out = out + coef * term
        lead = poch * (s_arr + (2 * j - 1))
    return out


def zeta2(s, p: BarnesParams, cfg: EvalConfig = DEFAULT_CONFIG):
    """zeta_2(s, alpha; v, w) for s away from the poles at 1 and 2.

    Row decomposition sum_m w^(-s) zeta_H(s, (alpha+m*v)/w) with the outer
    m-sum continued by Euler-Maclaurin; every m-derivative reduces to a
    shifted Hurwitz value via d/da zeta_H(s, a) = -s zeta_H(s+1, a).
    Accepts scalar or ndarray s.
    """
    s_in = np.asarray(s, dtype=complex)
    if np.any(s_in == 1.0):
        raise PoleError(1)
    if np.any(s_in == 2.0):
        raise PoleError(2)
    alpha, v, w = p.alpha, p.v, p.w
    m_len, j_len = cfg.direct_M, cfg.em_order

    s_arr = np.atleast_1d(s_in)
    a_rows = (alpha + v * np.arange(m_len)) / w
    head = hurwitz_zeta(s_arr[:, None], a_rows, cfg).sum(axis=-1)

    a_m = (alpha + m_len * v) / w
    mid = (w / (v * (s_arr - 1.0))) * hurwitz_zeta(s_arr - 1.0, a_m, cfg) \
        + 0.5 * hurwitz_zeta(s_arr, a_m, cfg)
    tail = _em_tail_terms(s_arr, a_m, v / w, j_len)
    out = w ** (-s_arr) * (head + mid + tail)
    if s_in.ndim == 0:
        return complex(out[0])
    return out.reshape(s_in.shape)


def zeta2_integral_rep(s, p: BarnesParams, cfg: EvalConfig = DEFAULT_CONFIG):
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
    quad = cfg.quad
    value = (
        -alpha ** (-s)
        + v ** (-s) * hurwitz_zeta(s, alpha / v, cfg)
        + w ** (-s) * hurwitz_zeta(s, alpha / w, cfg)
        + alpha ** (2.0 - s) / (v * w * (s - 1.0) * (s - 2.0))
        - (w / v) * frac_part_integral_1d(alpha, w, s, quad)
        - (v / w) * frac_part_integral_1d(alpha, v, s, quad)
        + v * w * s * (s + 1.0) * frac_part_integral_2d(alpha, v, w, s + 2.0, quad)
    )
    return value


def zeta2_s_derivatives_at_0(p: BarnesParams, k_max: int,
                             cfg: EvalConfig = DEFAULT_CONFIG):
    """Derivatives d^k/ds^k zeta_2(s, alpha; v, w) at s = 0, k = 0..k_max.

    Contour extraction about the origin (radius below 1 keeps the pole at
    s = 1 outside); k! times the Taylor coefficients.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    radius = min(cfg.contour_radius, 0.5)
    spec = ContourSpec(center=0.0, radius=radius,
                       nodes=cfg.contour_nodes, max_order=k_max)
    coeffs = contour_coefficients(lambda z: zeta2(z, p, cfg), spec, pole_order=0)
    return [math.factorial(k) * coeffs[k] for k in range(k_max + 1)]


def log_gamma2(p: BarnesParams, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """log Gamma_2(alpha; v, w), i.e. the first s-derivative of zeta_2 at 0."""
    return zeta2_s_derivatives_at_0(p, 1, cfg)[1].real


def polygamma2(k: int, p: BarnesParams, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """k-th derivative in alpha of log Gamma_2(alpha; v, w), any k >= 0.

    d^k/dalpha^k zeta_2(s) = (-1)^k (s)_k zeta_2(s+k); its s-slope at 0 is
    -g_0(1) for k = 1, g_{-1}(2) + g_0(2) for k = 2 (Laurent coefficients
    at the poles) and (-1)^k (k-1)! zeta_2(k) for k >= 3.
    """
    # imported here: laurent imports this module
    from .laurent import laurent_at_1, laurent_at_2, residue_at_2

    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return log_gamma2(p, cfg)
    if k == 1:
        return float(-laurent_at_1(p, 0, cfg).gammas[0])
    if k == 2:
        return float(residue_at_2(p) + laurent_at_2(p, 0, cfg).gammas[0])
    return (-1) ** k * math.factorial(k - 1) * zeta2(float(k), p, cfg).real
