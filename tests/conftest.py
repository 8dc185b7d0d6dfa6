"""Shared frozen reference constants and brute-force oracles.

All expected values here were computed by routes independent of the
package (closed forms, high-precision library values, or direct
truncated summation) and then frozen.
"""

import mpmath
import numpy as np
import pytest

from barneszeta import BarnesParams

# Classical constants (frozen from independent high-precision sources).
EULER = 0.5772156649015329
ZETA2 = 1.6449340668482264      # pi^2/6
ZETA3 = 1.2020569031595943
ZETA4 = 1.0823232337111382      # pi^4/90
ZETA_PRIME_0 = -0.9189385332046727    # -log(2 pi)/2
ZETA_PRIME_M1 = -0.16542114370045092

# Raw Laurent coefficients of zeta(s) about s = 1:
#   g_k = (-1)^k / k! * (classical Stieltjes gamma_k).
RAW_STIELTJES_1 = (
    0.5772156649015329,          # g_0 = Euler's constant
    0.0728158454836767,          # g_1 = -gamma_1
    -0.0048451815964361592,      # g_2 = gamma_2 / 2
    -0.00034230573671722428,     # g_3 = -gamma_3 / 6
    9.6890419394470833e-05,      # g_4 = gamma_4 / 24
)

# Raw Laurent coefficients g_{-1}..g_12 of zeta_2(s, alpha; v, v) about
# s = 1 and s = 2, keyed by (alpha, v, center).  From the closed form
# zeta_2 = v^-s [zeta_H(s-1, a) + (1-a) zeta_H(s, a)], a = alpha/v, in
# mpmath at 40 digits: mpmath.taylor (quadrature on a circle of radius
# 1/4) of zeta_2(s) - residue/(s - center), which agreed to 1e-36 with
# the series product of mpmath's Stieltjes constants and zeta
# derivatives.
LAURENT_V_EQ_W = {
    (0.7, 1.0, 1): (
        0.30000000000000004, 0.1660070661093805, -0.5060621414644269,
        -0.9009392192750408, -0.98973799062118, -0.9991186080501285,
        -0.9999141608445499, -0.9999967841900506, -0.9999998891098326,
        -0.9999999709003624, -1.0000000009527785, -1.0000000000061589,
        -0.9999999999874504, -1.0000000000011493),
    (0.7, 1.0, 2): (
        1.0, 2.0702383007063183, 0.42682050707492025, 0.43604489878859715,
        -0.28528428327386957, 0.30136462526946584, -0.29989102436535986,
        0.3000047303215292, -0.2999996880389142, 0.3000000218109795,
        -0.30000000054245957, 0.30000000006994443, -0.29999999999742677,
        0.29999999999948257),
    (0.3, 0.5, 1): (
        0.8, 1.5870131155625087, 0.531063499230836, -1.5187189010567792,
        -3.0256546477812694, -3.707932711944588, -3.9297164407738636,
        -3.9858985866544954, -3.997574695525076, -3.9996350007341883,
        -3.999951172313749, -3.9999941212850456, -3.99999935656236,
        -3.9999999354432076),
    (0.3, 0.5, 2): (
        4.0, 14.753001051256316, 13.241360482066836, 8.934291556363545,
        2.4377332380414667, 1.7730778503308584, -0.5657456229427872,
        0.8470035367001398, -0.7919156653368015, 0.8012166638218698,
        -0.7998372411456818, 0.8000195957191437, -0.7999978552077777,
        0.8000002151892919),
}

# gamma_0(1/2) = -psi(1/2) = Euler + 2 log 2 (raw == classical at k = 0).
GAMMA0_HALF = 1.9635100260214235

# I2 = int int (x-[x])(y-[y])/(1+x+y)^4, pinned by the closed loop
# -2 + pi^2/3 - 2(1-Euler) + 6*I2 = Euler (alpha=v=w=1 reduction).
I2_1114 = 0.022152700233669074


def brute_frac_1d(a, c, s, t_max, h):
    """Midpoint-rule oracle for int_0^inf (x-[x]) (a+cx)^(-s) dx.

    The tail beyond t_max is closed with the sawtooth mean value 1/2 and
    the first Bernoulli correction -B_2/2! f(t_max); the next omitted
    term is O((a+c*t_max)^(-s-2))."""
    x = np.arange(0.0, t_max, h) + h / 2.0
    head = float(np.sum((x - np.floor(x)) * (a + c * x) ** (-s)) * h)
    edge = a + c * t_max
    return (head + 0.5 * edge ** (1.0 - s) / (c * (s - 1.0))
            - edge ** (-s) / 12.0)


def sawtooth_1d_mpmath(a, c, s):
    """int_0^inf (x-[x]) (a+cx)^(-s) dx in closed form, Re s > 1.

    From sum_{n<=N} f(n) = f(0) + int_0^N f + int_0^N (x-[x]) f' with
    f = (a+cx)^(1-s), continued in s:
      I = [a^(1-s) + a^(2-s)/(c(s-2)) - c^(1-s) zeta_H(s-1, a/c)] / (c(s-1)),
    and at s = 2, I = [1/a + (psi(a/c) - log(a/c))/c] / c.
    """
    with mpmath.workdps(30):
        a, c, s = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpmathify(s)
        if s == 2:
            val = (1 / a + (mpmath.digamma(a / c) - mpmath.log(a / c)) / c) / c
        else:
            val = (a ** (1 - s) + a ** (2 - s) / (c * (s - 2))
                   - c ** (1 - s) * mpmath.zeta(s - 1, a / c)) / (c * (s - 1))
        return complex(val)


def brute_frac_2d(alpha, v, w, s, t_max, h):
    """Midpoint-rule oracle for the 2-D sawtooth integral (chunked)."""
    x = np.arange(0.0, t_max, h) + h / 2.0
    fx = x - np.floor(x)
    total = 0.0
    chunk = max(1, 2_000_000 // len(x))
    for lo in range(0, len(x), chunk):
        y = x[lo:lo + chunk]
        fy = fx[lo:lo + chunk]
        grid = (alpha + v * y[:, None] + w * x[None, :]) ** (-s)
        total += float(fy @ grid @ fx)
    return total * h * h


def brute_zeta2(s, p, m_max):
    """Chunked truncated double sum, written independently of the package."""
    n = np.arange(m_max + 1)
    total = 0.0j
    chunk = max(1, 2_000_000 // (m_max + 1))
    for lo in range(0, m_max + 1, chunk):
        m = np.arange(lo, min(lo + chunk, m_max + 1))
        total += np.sum((p.alpha + p.v * m[:, None] + p.w * n[None, :])
                        ** (-complex(s)))
    return complex(total)


def brute_lattice_log_sums(p, k, m_max, power):
    """sum_{m,n<=M} log^k(A)/A^power over the square lattice, summed
    point by point on a chunked grid (the oracle for the row differences)."""
    n = np.arange(m_max + 1)
    total = 0.0
    chunk = max(1, 2_000_000 // (m_max + 1))
    for lo in range(0, m_max + 1, chunk):
        m = np.arange(lo, min(lo + chunk, m_max + 1))
        grid = p.alpha + p.v * m[:, None] + p.w * n[None, :]
        total += float(np.sum(np.log(grid) ** k / grid ** power))
    return total


@pytest.fixture(scope="session")
def fixed_suite():
    return [
        BarnesParams(1.0, 1.0, 1.0),
        BarnesParams(0.5, 1.0, 1.0),
        BarnesParams(1.0, 1.0, 2.0),
        BarnesParams(2.0, 3.0, 1.0),
        BarnesParams(0.7, 1.3, 2.1),
    ]
