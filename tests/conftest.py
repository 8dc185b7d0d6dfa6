"""Shared frozen reference constants and brute-force oracles.

All expected values here were computed by routes independent of the
package (closed forms, high-precision library values, or direct
truncated summation) and then frozen.
"""

import mpmath
import numpy as np
import pytest

from barneszeta import (BarnesParams, frac_part_integral_1d,
                        frac_part_integral_2d, hurwitz_zeta)

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

# Raw Laurent coefficients g_{-1}..g_8 of zeta_2(s, 0.1; 4.9, 0.1) about
# s = 1, lopsided weights whose largest slots (g_0 = 27.7, g_1 = 38.7) set
# the absolute error of every slot.  From the 49:1 closed form
# (zeta2_commensurate_mpmath) in mpmath at 40 digits, as the series product
# of (4.9)^-s with mpmath's zeta_H(u, a) derivatives at u = 0 and
# generalized Stieltjes constants of each residue class a.
LAURENT_LOPSIDED_S1 = (
    4.8979591836734695, 27.65863647665011, 38.743324533997935,
    34.95845042348303, 23.330518047937662, 11.442383201362274,
    3.889863678370066, 0.16734909966457592, -1.329779810578598,
    -1.83879282604142)

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


def zeta2_commensurate_mpmath(s, alpha, p, q, t):
    """zeta_2(s, alpha; p t, q t) in closed form, integers p, q >= 1.

    Every lattice point alpha + (p m + q n) t is t pq (a + j) with j >= 0
    and a = (alpha/t + p r + q u)/(pq), one residue class per r < q,
    u < p, hit by j+1 pairs (m, n); sum_j (j+1)(a+j)^-s = zeta_H(s-1, a)
    + (1-a) zeta_H(s, a).  Continues to every s off the poles 1, 2.
    """
    with mpmath.workdps(30):
        s, alpha, t = mpmath.mpmathify(s), mpmath.mpf(alpha), mpmath.mpf(t)
        total = mpmath.mpf(0)
        for r in range(q):
            for u in range(p):
                a = (alpha / t + p * r + q * u) / (p * q)
                total += mpmath.zeta(s - 1, a) + (1 - a) * mpmath.zeta(s, a)
        return complex((p * q * t) ** (-s) * total)


def zeta2_row_sum_mpmath(s, alpha, v, w):
    """zeta_2(s, alpha; v, w) = sum_m w^-s zeta_H(s, (alpha+m v)/w) for any
    weights, Re s > 2.

    The first M rows are summed term by term, M the least with
    a_M = (alpha+M v)/w >= max(|s|, 10); the rows m >= M take the large-a
    expansion zeta_H(s, a) ~ a^(1-s)/(s-1) + a^-s/2 + sum_{j<=12} B_2j/(2j)!
    (s)_(2j-1) a^(1-s-2j), whose sums over m are Hurwitz zetas in closed
    form.  The omitted terms are below 1e-18 relative there.
    """
    with mpmath.workdps(20):
        s = mpmath.mpmathify(s)
        alpha, v, w = mpmath.mpf(alpha), mpmath.mpf(v), mpmath.mpf(w)
        big = max(abs(complex(s)), 10.0)
        m_rows = max(8, int(np.ceil((float(w) * big - float(alpha)) / float(v))))
        head = mpmath.fsum(mpmath.zeta(s, (alpha + m * v) / w)
                           for m in range(m_rows))
        b = alpha / v + m_rows

        def rows(t):  # sum_{m >= M} a_m^-t
            return (w / v) ** t * mpmath.zeta(t, b)

        tail = rows(s - 1) / (s - 1) + rows(s) / 2
        for j in range(1, 13):
            tail += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                     * mpmath.rf(s, 2 * j - 1) * rows(s + 2 * j - 1))
        return complex(w ** (-s) * (head + tail))


def sawtooth_2d_mpmath(alpha, p, q, t, s):
    """The 2-D sawtooth integral at (alpha; p t, q t), integers p, q >= 1.

    Solved from the seven-term integral representation at s - 2, with the
    commensurate closed form of zeta_2 and the 1-D closed form:
      J(s) = [zeta_2(s-2) - the six other terms] / (v w (s-2)(s-1)).
    """
    v, w = p * t, q * t
    with mpmath.workdps(40):
        r = mpmath.mpmathify(s) - 2
        a = mpmath.mpf(alpha)
        other = (-a ** (-r) + mpmath.mpf(v) ** (-r) * mpmath.zeta(r, a / v)
                 + mpmath.mpf(w) ** (-r) * mpmath.zeta(r, a / w)
                 + a ** (2 - r) / (v * w * (r - 1) * (r - 2))
                 - mpmath.mpf(w) / v * sawtooth_1d_mpmath(alpha, w, r)
                 - mpmath.mpf(v) / w * sawtooth_1d_mpmath(alpha, v, r))
        zeta2 = zeta2_commensurate_mpmath(r, alpha, p, q, t)
        return complex((zeta2 - other) / (v * w * r * (r + 1)))


def zeta2_integral_rep_by_terms(s, p):
    """The seven-term integral representation of zeta_2, Re s > 1, summed
    term by term from the public evaluators: two hurwitz_zeta calls, two
    frac_part_integral_1d calls and frac_part_integral_2d.  The oracle for
    zeta2_integral_rep, which cancels the 2-D boundary layer against one
    1-D term and reads every Hurwitz value from one call."""
    a, v, w, s = p.alpha, p.v, p.w, complex(s)
    return (-a ** -s
            + v ** -s * hurwitz_zeta(s, a / v)
            + w ** -s * hurwitz_zeta(s, a / w)
            - (w / v) * frac_part_integral_1d(a, w, s)
            - (v / w) * frac_part_integral_1d(a, v, s)
            + v * w * s * (s + 1.0) * frac_part_integral_2d(a, v, w, s + 2.0)
            + a ** (2.0 - s) / (v * w * (s - 1.0) * (s - 2.0)))


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


@pytest.fixture(scope="session")
def fixed_suite():
    return [
        BarnesParams(1.0, 1.0, 1.0),
        BarnesParams(0.5, 1.0, 1.0),
        BarnesParams(1.0, 1.0, 2.0),
        BarnesParams(2.0, 3.0, 1.0),
        BarnesParams(0.7, 1.3, 2.1),
    ]
