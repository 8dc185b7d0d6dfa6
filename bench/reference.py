"""Reference values for the benchmark, computed with mpmath apart from
barneszeta.

Two evaluations of the Barnes double zeta-function
zeta_2(s, alpha; v, w) = sum_{m,n>=0} (alpha + m v + n w)^(-s):

* ``closed_form`` for commensurate weights v = p t, w = q t (p, q small
  integers).  Splitting m and n by residue classes gives, on the whole
  s-plane,

      zeta_2(s, alpha; p t, q t) = (p q t)^(-s) sum_{r<q, u<p}
          [zeta_H(s-1, a) + (1-a) zeta_H(s, a)],   a = (alpha/t + p r + q u)/(p q).

* ``row_sum`` for any weights at Re s > 2: sum_m w^(-s) zeta_H(s, a_m),
  a_m = (alpha + m v)/w.  The first M rows are summed term by term; the
  rows m >= M use the large-a expansion of zeta_H,

      zeta_H(s, a) ~ a^(1-s)/(s-1) + a^(-s)/2
                     + sum_j B_2j/(2j)! (s)_(2j-1) a^(1-s-2j),

  whose sums over m are Hurwitz zeta values in closed form.  M is chosen
  so that a_M >= max(|s|, 10), where the omitted terms are below 1e-18
  relative.  This replaces ``mpmath.nsum`` over the rows, the same sum
  but 18-80x slower at the points tried; ``python3 bench/run.py
  --self-test`` compares the two.

Laurent coefficients at the poles s = c in {1, 2} come from
``mpmath.taylor`` of (s - c) zeta_2(s) on the closed form, so they exist
only for commensurate triples.  For other triples the benchmark uses the
row-removal identity

    zeta_2(s, alpha; v, w) - zeta_2(s, alpha + v; v, w) = w^(-s) zeta_H(s, alpha/w),

whose right-hand side ``row_laurent`` and ``row_log_gamma`` expand.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 20
_ROW_TERMS = 12


def closed_form(s, alpha, p, q, t):
    """zeta_2(s, alpha; p t, q t) for integers p, q >= 1, any s off the poles."""
    with mp.workdps(DPS):
        return _closed(mp.mpmathify(s), mp.mpf(alpha), p, q, mp.mpf(t))


def _closed(s, alpha, p, q, t):
    total = mp.mpf(0)
    for r in range(q):
        for u in range(p):
            a = (alpha / t + p * r + q * u) / (p * q)
            total += mp.zeta(s - 1, a) + (1 - a) * mp.zeta(s, a)
    return (p * q * t) ** (-s) * total


def row_sum(s, alpha, v, w):
    """sum_m w^(-s) zeta_H(s, (alpha + m v)/w), Re s > 2."""
    with mp.workdps(DPS):
        s = mp.mpmathify(s)
        if not mp.re(s) > 2:
            raise ValueError("the row sum converges only for Re s > 2")
        alpha, v, w = mp.mpf(alpha), mp.mpf(v), mp.mpf(w)
        big = max(abs(complex(s)), 10.0)
        m_rows = max(8, math.ceil((float(w) * big - float(alpha)) / float(v)))
        head = mp.fsum(mp.zeta(s, (alpha + m * v) / w) for m in range(m_rows))
        b = alpha / v + m_rows

        def rows(t):  # sum_{m >= M} a_m^(-t)
            return (w / v) ** t * mp.zeta(t, b)

        tail = rows(s - 1) / (s - 1) + rows(s) / 2
        for j in range(1, _ROW_TERMS + 1):
            tail += (mp.bernoulli(2 * j) / mp.factorial(2 * j)
                     * mp.rf(s, 2 * j - 1) * rows(s + 2 * j - 1))
        return w ** (-s) * (head + tail)


def row_sum_nsum(s, alpha, v, w):
    """The same row sum by ``mpmath.nsum``; slow, used by the self-test."""
    with mp.workdps(DPS):
        s = mp.mpmathify(s)
        alpha, v, w = mp.mpf(alpha), mp.mpf(v), mp.mpf(w)
        return w ** (-s) * mp.nsum(lambda m: mp.zeta(s, (alpha + m * v) / w),
                                   [0, mp.inf])


def laurent_closed(alpha, p, q, t, center, k_max):
    """Raw Laurent coefficients [g_-1, g_0, ..., g_k_max] of zeta_2 at s = center."""
    with mp.workdps(DPS):
        alpha, t = mp.mpf(alpha), mp.mpf(t)
        c = mp.mpf(center)
        coeffs = mp.taylor(lambda s: (s - c) * _closed(s, alpha, p, q, t), c,
                           k_max + 1, singular=True)
        return [float(mp.re(x)) for x in coeffs]


def log_gamma2_closed(alpha, p, q, t):
    """log Gamma_2(alpha; p t, q t) = d/ds zeta_2 at s = 0."""
    with mp.workdps(DPS):
        alpha, t = mp.mpf(alpha), mp.mpf(t)
        return float(mp.re(mp.diff(lambda s: _closed(s, alpha, p, q, t), 0)))


def row_laurent(alpha, w, center, k_max):
    """[g_-1, g_0, ..., g_k_max] of w^(-s) zeta_H(s, alpha/w) at s = center."""
    with mp.workdps(DPS):
        a, w, c = mp.mpf(alpha) / w, mp.mpf(w), mp.mpf(center)
        coeffs = mp.taylor(lambda s: (s - c) * w ** (-s) * mp.zeta(s, a), c,
                           k_max + 1, singular=True)
        return [float(mp.re(x)) for x in coeffs]


def row_log_gamma(alpha, w):
    """d/ds [w^(-s) zeta_H(s, alpha/w)] at s = 0."""
    with mp.workdps(DPS):
        a, w = mp.mpf(alpha) / w, mp.mpf(w)
        return float(-mp.log(w) * (mp.mpf(1) / 2 - a)
                     + mp.loggamma(a) - mp.log(2 * mp.pi) / 2)
