"""Barnes double zeta-function: evaluation away from the poles at s = 1, 2,
derivatives in s at the origin, the double log-gamma, and double
poly-gamma values, all read off one Euler-Maclaurin evaluator on jets in s.
The paper's integral representation serves only the constant term at
s = 2, in ``laurent.gamma0_at_2_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EM_ORDER, HURWITZ_J
from .errors import AccuracyError, DomainError, PoleError
from .numerics import (
    _CHUNK,
    _center,
    _em_tail,
    _head_length,
    _hurwitz_jet,
    _jet_mul,
    _jet_pow,
    _refuse_non_finite,
    _rising,
    _sum_in_order,
)

__all__ = [
    "BarnesParams",
    "zeta2_direct",
    "zeta2",
    "zeta2_s_derivatives_at_0",
    "log_gamma2",
    "polygamma2",
]


@dataclass(frozen=True)
class BarnesParams:
    """Parameter triple (alpha, v, w), all finite and strictly positive."""

    alpha: float
    v: float
    w: float

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.alpha, self.v, self.w)):
            raise ValueError("alpha, v, w must all be finite and positive")

    def swapped(self) -> "BarnesParams":
        return BarnesParams(self.alpha, self.w, self.v)


def zeta2_direct(s, p: BarnesParams, M: int, with_error: bool = False):
    """Truncated double sum sum_{m,n<=M} (alpha+m*v+n*w)^(-s), Re(s) > 2.

    Monotone increasing in M for real s > 2.  ``with_error`` also returns
    an error bound: the discarded tail plus float64 rounding, which is
    2^-52 (|s| max |log A| + log2 of the term count) times sum |A^-s|.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("s must be finite")
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


def _row_sum_jet(c, alpha, v, w, n: int):
    """Jet of T = sum_{m>=0} zeta_H(s, (alpha+m*v)/w) about s = c, slots
    eps^-1..eps^n, shape (n+2, *E) for E the broadcast shape of c and
    alpha; zeta_2 = w^(-s) T.  T has poles at s = 1, 2, where its top slot
    is not exact.

    zeta_H(s, A) obeys the rules of A^(-s), so ``_em_tail`` sums the rows
    beyond at least one head row, as many as ``_head_length`` (power 1)
    asks for with h = v/w.  One Hurwitz jet call covers the heads, zeroed
    beyond each element's own and summed in row order, and the cut shifts
    zeta_H(s+k, a_R), k = -1, 0, 1, 3, ..., 2 EM_ORDER+1, so a batch is
    bitwise equal to scalar calls.  One rising-factorial table (``_rising``)
    serves both levels: it is built on the Hurwitz call's centers c + k,
    and its shift-0 table, (c)_0..(c)_{2 HURWITZ_J+1}, holds the
    (c)_1..(c)_{2 EM_ORDER+1} of the outer tail, with the same bits.
    Where the elements' rows (heads and cut shifts) would pass _CHUNK, the
    elements go in groups of at most _CHUNK rows, so the memory follows the
    row budget rather than the batch.
    """
    c, alpha = _center(c), np.asarray(alpha, dtype=float)
    size = np.maximum(_head_length(c, alpha / w, v / w, EM_ORDER, 1), 1)
    step = max(1, _CHUNK // (size.max() + EM_ORDER + 3))  # elements a group
    if size.size <= step:
        return _row_sum_rows(c, alpha, size, v, w, n)
    flat = [np.broadcast_to(x, size.shape).ravel() for x in (c, alpha, size)]
    groups = [_row_sum_rows(*(x[i:i + step] for x in flat), v, w, n)
              for i in range(0, size.size, step)]
    return np.concatenate(groups, axis=1).reshape((n + 2,) + size.shape)


def _row_sum_rows(c, alpha, size, v, w, n: int):
    """``_row_sum_jet`` on elements with head lengths ``size``, in one call."""
    row_axis = (-1,) + (1,) * size.ndim  # the row index R, ahead of E
    m = np.arange(size.max(initial=0)).reshape(row_axis)
    shifts = np.array([0] * len(m) + [-1, 0, *range(1, 2 * EM_ORDER + 2, 2)])
    rows = np.minimum(np.arange(len(shifts)).reshape(row_axis), size)  # R repeats
    centers = c + shifts.reshape(row_axis)
    poch = _rising(centers, n + 2, 2 * HURWITZ_J + 1)
    zh = _hurwitz_jet(centers, (alpha + v * rows) / w, n, poch)
    head = _sum_in_order(np.where(m < size, zh[:, :len(m)], 0.0))
    assert EM_ORDER <= HURWITZ_J  # the outer rows are a prefix of the table
    return _em_tail(c, v / w, head, zh[:, len(m):], poch[:, :, 0])


def _zeta2_jet(c, p: BarnesParams, n: int):
    """Jet of zeta_2(s, alpha; v, w) = w^(-s) T about s = c, any shape of c."""
    return _jet_mul(_jet_pow(p.w, c, n), _row_sum_jet(c, p.alpha, p.v, p.w, n))


@_refuse_non_finite
def zeta2(s, p: BarnesParams):
    """zeta_2(s, alpha; v, w) for s away from the poles at 1 and 2.

    The eps^0 slot of the Euler-Maclaurin jet about s.  Accepts scalar or
    ndarray s.
    """
    s_in = np.asarray(s, dtype=complex)
    if not np.all(np.isfinite(s_in)):
        raise DomainError("s must be finite")
    if np.any(s_in == 1.0):
        raise PoleError(1)
    if np.any(s_in == 2.0):
        raise PoleError(2)
    out = _zeta2_jet(s_in, p, 1)[1]
    return complex(out) if s_in.ndim == 0 else out


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
    jet = _zeta2_jet(float(k), p, 1)
    harmonic = sum(1.0 / i for i in range(1, k))
    try:
        value = (-1) ** k * math.factorial(k - 1) * float(jet[1] + harmonic * jet[0])
    except OverflowError:  # (k-1)! does not convert to float
        value = math.inf
    if not math.isfinite(value):
        raise AccuracyError(f"psi_2^({k}) is not a finite float64", value=value)
    return value
