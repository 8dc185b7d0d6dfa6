"""Shared numerical kernels.

Bernoulli numbers, jets in s, quadrature of sawtooth-kernel integrals,
sequence extrapolation with log-power remainder models, and circle-contour
extraction of Taylor/Laurent coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import QUAD_CELL_ORDER, QUAD_MAX_CELLS, QUAD_TAIL_TOL
from .errors import AccuracyError, DomainError

__all__ = [
    "ContourSpec",
    "bernoulli_numbers",
    "frac_part_integral_1d",
    "frac_part_integral_2d",
    "richardson_extrapolate",
    "e_algorithm",
    "contour_coefficients",
    "contour_coefficients_with_error",
    "central_difference",
]

_BERNOULLI_MAX = 64


@dataclass(frozen=True)
class ContourSpec:
    """Circle for Cauchy coefficient extraction.

    ``nodes`` must be a power of two with at least 4*(max_order+1) points so
    the wanted coefficients are clear of trapezoid aliasing.  The disc must
    not contain singularities other than (possibly) a pole at the center;
    that is the caller's responsibility.
    """

    center: complex
    radius: float
    nodes: int = 256
    max_order: int = 12

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.max_order < 0:
            raise ValueError("max_order must be non-negative")
        if self.nodes < 4 * (self.max_order + 1):
            raise ValueError("nodes must be >= 4*(max_order+1)")
        if self.nodes & (self.nodes - 1):
            raise ValueError("nodes must be a power of two")


def bernoulli_numbers(n_max: int) -> list[float]:
    """Bernoulli numbers B_0..B_n_max with the convention B_1 = -1/2.

    Computed exactly in rational arithmetic via the defining recurrence
    sum_{j<=n} C(n+1,j) B_j = 0, then rounded once to float.
    """
    if not 0 <= n_max <= _BERNOULLI_MAX:
        raise ValueError(f"n_max must be in 0..{_BERNOULLI_MAX}")
    bs = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * bs[j]
        bs.append(-acc / (n + 1))
    return [float(b) for b in bs]


# The package's one Bernoulli table, B_0..B_64.
_B = bernoulli_numbers(_BERNOULLI_MAX)


# A jet about the center c holds a truncated Laurent series in eps = s - c
# on its last axis: the coefficients of eps^-1, eps^0, ..., eps^n.  A
# product with a pole factor needs the other factor one order higher, so
# its top slot is not exact and evaluators carry one order more than read.
# Rounding floor of a jet coefficient, relative to max(1, |coefficient|):
# 16x the worst error seen against mpmath at orders -1..12.
_JET_REL_ERR = 2.0 ** -36


def _jet_mul(x, y):
    """Product of two jets; the eps^-2 slot (pole times pole) is dropped."""
    n2 = x.shape[-1]
    out = x[..., 1:2] * y  # eps^0 of x times every slot of y
    out[..., :-1] += x[..., :1] * y[..., 1:]
    for i in range(2, n2):
        # eps^(i-1) * eps^(j-1) lands in slot i + j - 1
        out[..., i - 1:] += x[..., i:i + 1] * y[..., :n2 - i + 1]
    return out


def _jet_pow(x, c, n: int):
    """Jet of x^-s about s = c for x > 0: x^-c sum_k (-log x)^k/k! eps^k."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.broadcast(x, c).shape + (n + 2,), dtype=complex)
    out[..., 1] = x ** -np.asarray(c, dtype=complex)
    mlog = -np.log(x)
    for k in range(1, n + 1):
        out[..., k + 1] = out[..., k] * mlog / k
    return out


def _jet_recip(c, n: int):
    """Jet of 1/(s-1) about s = c; where c = 1 it is the pole slot alone."""
    d = np.asarray(c, dtype=complex)[..., None] - 1.0
    pole = d == 0
    taylor = -(-1.0 / np.where(pole, 1.0, d)) ** np.arange(1, n + 2)
    return np.concatenate([pole, np.where(pole, 0.0, taylor)], axis=-1)


def _em_corrections(c, terms):
    """sum_j B_2j/(2j)! (s)_{2j-1} terms_j over j = 1..J, on jets about c.

    ``terms`` has shape (..., J, n+2).  A zero of (s)_{2j-1} meets a pole
    of terms_j inside one jet product.
    """
    c = np.asarray(c, dtype=complex)[..., None]
    j_len, n2 = terms.shape[-2:]
    rising = [np.zeros(c.shape[:-1] + (n2,), dtype=complex)]  # (s)_0, (s)_1, ...
    rising[0][..., 1] = 1.0
    for i in range(2 * j_len - 1):
        # (s)_{i+1} = (s)_i (c + i + eps); eps moves every slot up by one
        nxt = rising[-1] * (c + i)
        nxt[..., 2:] += rising[-1][..., 1:-1]
        rising.append(nxt)
    coefs = np.array([_B[2 * j] / math.factorial(2 * j) for j in range(1, j_len + 1)])
    poch = np.stack(rising[1::2], axis=-2)  # (s)_{2j-1}, j = 1..J
    return (coefs[:, None] * _jet_mul(poch, terms)).sum(axis=-2)


def _gauss_cell(order: int):
    """Gauss-Legendre nodes/weights mapped to the unit interval (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


_TAIL_TERMS = 3  # Euler-Maclaurin correction terms kept in the tail


def _sawtooth(G, a, h, s, k, q, tol):
    """integral_0^inf (y-[y]) G(s, a+h*y) dy over an array of a > 0.

    ``G(sigma, A)`` returns (values, err) and obeys the rules of A^(-sigma):
    d/dA G(sigma) = -sigma G(sigma+1), integral_A^inf G(sigma) =
    G(sigma-1, A)/(sigma-1).  A Gauss rule covers the cells of [0, N), where
    the sawtooth is smooth.  Beyond N its mean 1/2 and the periodic-Bernoulli
    corrections leave G at shifted exponents at A_N = a+h*N.  N is the least
    count whose first omitted correction is below tol/2, given
    |G(s+2J, A)| <= k A^(-q); N > QUAD_MAX_CELLS raises AccuracyError before
    any evaluation.  err is tol/2 plus the errors of G (1/2 per cell, the
    sawtooth mean) plus rounding.
    """
    a = np.asarray(a, dtype=float)
    # (exponent, coefficient) of each tail term; the last is the first omitted
    tail = [(s - 1.0, 0.5 / (h * (s - 1.0)))] + [
        (s + 2 * j - 2, -_B[2 * j] / math.factorial(2 * j) * h ** (2 * j - 2)
         * math.prod(s + i for i in range(2 * j - 2)))  # (s)_{2j-2}
        for j in range(1, _TAIL_TERMS + 2)]
    # smallest N with the first omitted correction below tol/2
    base = (abs(tail[-1][1]) * k / (0.5 * tol)) ** (1.0 / q)
    n_cells = max(1, int(math.ceil((base - float(np.min(a))) / h)))
    if n_cells > QUAD_MAX_CELLS:
        raise AccuracyError(
            f"cell budget exhausted ({n_cells} > {QUAD_MAX_CELLS})")
    xi, wts = _gauss_cell(QUAD_CELL_ORDER)
    g, g_err = G(s, a[..., None, None] + h * (np.arange(n_cells)[:, None] + xi))
    vals = np.tensordot(g * xi, wts, axes=([-1], [0])).sum(axis=-1)
    err = 0.5 * tol + 0.5 * n_cells * g_err
    for sig, coef in tail[:-1]:
        g, g_err = G(sig, a + h * n_cells)
        vals = vals + coef * g
        err += abs(coef) * g_err
    err += 1e-15 * float(np.max(np.abs(vals))) * math.sqrt(n_cells)
    return vals, float(err)


def _frac1d_core(a, c, s, tol):
    """Vectorized integral_0^inf (x-[x]) (a+cx)^(-s) dx over an array of a.

    ``tol`` is the absolute tolerance of the analytic tail.  Returns
    (values, error_bound).  Caller guarantees Re(s) > 1 and a > 0.
    """
    return _sawtooth(lambda sig, x: (x ** -sig, 0.0), a, c, s, 1.0,
                     s.real + 2 * _TAIL_TERMS, tol)


def frac_part_integral_1d(a, c, s, with_error: bool = False):
    """integral_0^inf (x-[x]) (a+cx)^(-s) dx for Re(s) > 1.

    Integrated cell-by-cell over [j, j+1] where the sawtooth is smooth,
    with an Euler-Maclaurin tail beyond the last cell.  ``with_error``
    additionally returns the absolute error bound.
    """
    s = complex(s)
    if not (a > 0 and c > 0):
        raise ValueError("a and c must be positive")
    if s.real <= 1:
        raise DomainError("frac_part_integral_1d requires Re(s) > 1")
    vals, err = _frac1d_core(np.asarray(a, dtype=float), c, s, QUAD_TAIL_TOL)
    value = complex(vals)
    return (value, err) if with_error else value


def frac_part_integral_2d(alpha, v, w, s, with_error: bool = False):
    """integral_0^inf integral_0^inf (x-[x])(y-[y]) (alpha+v*y+w*x)^(-s) dx dy.

    Requires Re(s) > 2.  The inner x-integral I(A; w, sigma) is the 1-D
    sawtooth integral at A = alpha+v*y.  It obeys the two rules of
    A^(-sigma), d/dA I(sigma) = -sigma I(sigma+1) and integral_A^inf
    I(sigma) = I(sigma-1, A)/(sigma-1), so the outer y-integral is the same
    cell-plus-tail scheme with I in place of the power.  Since x-[x] < 1,
    |I(sigma, A)| <= A^(1-sigma)/(w (sigma-1)), which sizes the outer cells.
    """
    s = complex(s)
    if not (alpha > 0 and v > 0 and w > 0):
        raise ValueError("alpha, v, w must be positive")
    if s.real <= 2:
        raise DomainError("frac_part_integral_2d requires Re(s) > 2")
    q = s.real + 2 * _TAIL_TERMS - 1
    vals, err = _sawtooth(
        lambda sig, x: _frac1d_core(x, w, sig, QUAD_TAIL_TOL / 10.0),
        alpha, v, s, 1.0 / (w * q), q, QUAD_TAIL_TOL)
    value = complex(vals)
    return (value, err) if with_error else value


def richardson_extrapolate(values, model: int):
    """Accelerate a sequence whose remainder decays like log^p(M)/M.

    ``values`` is a sequence of (M, y) samples at increasing (ideally
    geometric) M; ``model`` is the log power p.  Successively eliminates
    the remainder basis log^p(M)/M, ..., 1/M, log^p(M)/M^2, ... with the
    E-algorithm.  Returns (limit, err) where err is the magnitude of the
    last correction.
    """
    if len(values) < 3:
        raise ValueError("need at least 3 samples")
    if model < 0:
        raise ValueError("model power must be non-negative")
    ms = np.array([float(m) for m, _ in values])
    ys = np.array([float(y) for _, y in values])
    if np.any(ms[1:] <= ms[:-1]):
        raise ValueError("M values must be strictly increasing")
    if np.all(ys == ys[0]):
        return float(ys[0]), 0.0

    n = len(ys)
    funcs = []
    b = 1
    while len(funcs) < n - 1:
        for a in range(model, -1, -1):
            funcs.append((a, b))
            if len(funcs) == n - 1:
                break
        b += 1
    g = [np.log(ms) ** a / ms ** b for a, b in funcs]
    return e_algorithm(ys, g)


def e_algorithm(ys, remainder_funcs):
    """Brezinski E-algorithm: eliminate the given remainder basis in order.

    ``remainder_funcs`` are arrays of the basis functions sampled at the
    same points as ``ys``.  Returns (limit, err) with err the size of the
    final correction.
    """
    n = len(ys)
    e = np.asarray(ys, dtype=float)
    g = [np.asarray(gj, dtype=float) for gj in remainder_funcs]
    prev_last = e[-1]
    for k in range(min(n - 1, len(g))):
        gk = g[k]
        denom = gk[1:] - gk[:-1]
        e = (gk[1:] * e[:-1] - gk[:-1] * e[1:]) / denom
        new_g = []
        for j in range(len(g)):
            if j <= k:
                new_g.append(None)
            else:
                gj = g[j]
                new_g.append((gk[1:] * gj[:-1] - gk[:-1] * gj[1:]) / denom)
        g = new_g
        if len(e) > 1:
            prev_last = e[-1]
    limit = float(e[-1])
    err = abs(limit - float(prev_last))
    return limit, err


def contour_coefficients(f, spec: ContourSpec, pole_order: int = 0):
    """Laurent coefficients c_{-pole_order}..c_{max_order} of f about the center.

    Trapezoidal rule on the circle; spectrally accurate when f is analytic
    on the closed disc apart from a pole of order <= pole_order at the
    center.  Deterministic for a fixed spec.
    """
    coeffs, _ = contour_coefficients_with_error(f, spec, pole_order)
    return coeffs


def contour_coefficients_with_error(f, spec: ContourSpec, pole_order: int = 0):
    """Like :func:`contour_coefficients` plus per-coefficient error estimates.

    The estimate is the difference against the half-resolution rule obtained
    from every other node (free: it reuses the same samples).
    """
    if pole_order not in (0, 1):
        raise ValueError("pole_order must be 0 or 1")
    n = spec.nodes
    theta = 2.0 * np.pi * np.arange(n) / n
    z = spec.center + spec.radius * np.exp(1j * theta)
    try:
        samples = np.asarray(f(z), dtype=complex)
        if samples.shape != z.shape:
            raise TypeError
    except TypeError:
        samples = np.array([complex(f(zi)) for zi in z])
    if not np.all(np.isfinite(samples)):
        raise ArithmeticError("non-finite sample on the contour")

    def _extract(vals):
        nn = len(vals)
        fft = np.fft.fft(vals) / nn
        out = []
        for m in range(-pole_order, spec.max_order + 1):
            out.append(fft[m % nn] * spec.radius ** (-m))
        return np.array(out)

    full = _extract(samples)
    half = _extract(samples[::2])
    errs = np.abs(full - half) + 1e-16 * float(np.max(np.abs(samples)))
    return list(full), list(errs)


def central_difference(f, x, h):
    """First derivative by central differences, O(h^4) accurate.

    The central difference at h and at h/2, combined by one Richardson
    step; returns (value, err) with err taken from the h vs h/2
    discrepancy.
    """
    def stencil(step):
        return (-0.5 * f(x - step) + 0.5 * f(x + step)) / step

    d1 = stencil(h)
    d2 = stencil(h / 2.0)
    return (4.0 * d2 - d1) / 3.0, abs(d2 - d1) / 3.0
