"""Shared numerical kernels.

Bernoulli numbers, jets in s, the Euler-Maclaurin sum and the Hurwitz jet,
the sawtooth integrals (1-D in closed form, 2-D by Gauss cells), sequence
extrapolation by an exact fit (``richardson_extrapolate``),
and circle-contour extraction of Taylor/Laurent coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import HURWITZ_J, QUAD_CELL_ORDER, QUAD_MAX_CELLS, QUAD_TAIL_TOL
from .errors import AccuracyError, DomainError

__all__ = [
    "ContourSpec",
    "bernoulli_numbers",
    "frac_part_integral_1d",
    "frac_part_integral_2d",
    "richardson_extrapolate",
    "contour_coefficients",
    "contour_coefficients_with_error",
    "central_difference",
]

_BERNOULLI_MAX = 64
# the row budget, which bounds the jets' memory: the longest Euler-Maclaurin
# head and head block, a row sum's rows a group, the limit formula's rows,
# the 2-D rule's points a call
_CHUNK = 8192


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


# The package's one Bernoulli table, B_0..B_64, and B_k/k! beside it.
_B = bernoulli_numbers(_BERNOULLI_MAX)
_B_FACT = [b / math.factorial(k) for k, b in enumerate(_B)]


# A jet about the center c holds a truncated Laurent series in eps = s - c
# on its first axis: the coefficients of eps^-1, eps^0, ..., eps^n.  A jet
# of elements of shape E is (n+2, *E), so every slot is one contiguous
# array over the elements; structural axes (the correction index j, the
# head row m) come next and the element axes trail, so centers and
# arguments broadcast as they would without the jet.  A product with a pole
# factor needs the other factor one order higher, so its top slot is not
# exact and evaluators carry one order more than read.  A jet's dtype
# follows its center (``_center``): float64 about a real center, complex128
# about a complex one.  numpy's float64 power rounds differently in its
# SIMD, strided and 0-d loops, picked by the shape of the batch, which
# would leave a batch unequal to its scalar calls: x^-c stays a complex
# power whose real part is taken, and integer powers are products
# (``_jet_recip``, the cut of ``_hurwitz_jet``).  The Euler-Maclaurin
# tails multiply G by the rising-factorial jets (s)_{2j-1}; ``_rising``
# fills one table of them in place, and a row sum builds it once on the
# Hurwitz centers c + k and hands its shift-0 row to the outer tail, so
# both levels share it.
# Rounding floor of a jet coefficient, relative to max(1, |coefficient|):
# 16x the worst error seen against mpmath at orders -1..12.
_JET_REL_ERR = 2.0 ** -36


def _center(c):
    """The center c of a jet as an array: complex128 where c is complex,
    else float64; an array already of that dtype is not copied."""
    c = np.asarray(c)
    return c.astype(complex if c.dtype.kind == "c" else float, copy=False)


def _sum_in_order(x):
    """x (n+2, R, *E) summed over R from 0 in index order, whatever E is.
    numpy reduces the innermost axis pairwise, which rounds differently,
    and any other axis row by row, in index order, which keeps a batch
    bitwise equal to scalar calls.  Where E holds one element, R would be
    innermost, so R goes to the front of a contiguous copy; elsewhere the
    copy would cost more than the sum."""
    if math.prod(x.shape[2:]) > 1:
        return np.add.reduce(x, axis=1, initial=0.0)
    return np.add.reduce(x.swapaxes(0, 1).copy(), axis=0, initial=0.0)


def _jet_mul(x, y):
    """Product of two jets; the eps^-2 slot (pole times pole) is dropped.
    A jet with fewer element axes gains them after its slot axis, so the
    elements broadcast as numpy broadcasts them."""
    nd = max(x.ndim, y.ndim)
    x, y = (z.reshape(z.shape[:1] + (1,) * (nd - z.ndim) + z.shape[1:])
            for z in (x, y))
    n2 = len(x)
    out = x[1:2] * y  # eps^0 of x times every slot of y
    out[:-1] += x[:1] * y[1:]
    for i in range(2, n2):
        # eps^(i-1) * eps^(j-1) lands in slot i + j - 1
        out[i - 1:] += x[i:i + 1] * y[:n2 - i + 1]
    return out


def _jet_pow(x, c, n: int):
    """Jet of x^-s about s = c for x > 0: x^-c sum_k (-log x)^k/k! eps^k."""
    x, c = np.asarray(x, dtype=float), _center(c)
    out = np.zeros((n + 2,) + np.broadcast(x, c).shape, dtype=c.dtype)
    power = x ** -c.astype(complex, copy=False)
    out[1] = power if c.dtype == complex else power.real
    mlog = -np.log(x)
    for k in range(1, n + 1):
        out[k + 1] = out[k] * mlog / k
    return out


def _jet_recip(c, n: int):
    """Jet of 1/(s-1) about s = c; where c = 1 it is the pole slot alone."""
    d = _center(c) - 1.0
    pole = d == 0
    step = np.full((n + 1,) + d.shape, -1.0 / np.where(pole, 1.0, d))
    taylor = -np.cumprod(step, axis=0)  # (-1/d)^k, k = 1..n+1
    return np.concatenate([pole[None], np.where(pole, 0.0, taylor)])


def _head_length(c, a, h, j_len: int, power: int):
    """Terms to sum before the Euler-Maclaurin cut A = a + h*N, per element.

    The smallest N whose bound on the first omitted correction of
    ``_em_tail`` (j = J+1), summed over every jet slot, is at most 2^-53
    min(1, A^(power-Re c)), the size of the leading tail term; where Re c
    < power-1 the head's terms grow faster than their index, and the
    target is 2^-53 A^(1+power-Re c), the rounding floor of the head's
    absolute sum, since a longer head loses more to cancellation than it
    gains.  For A >= 1 the slot sums of a jet product are at most the
    product of the slot sums: (s)_{2J+1} gives prod_{i<=2J} (|c+i|+1), and
    the jet of A^(-s) about c gives A^(-Re c) sum_k |log A|^k/k! <=
    A^(1-Re c).  G = A^(-s) (power 0) thus contributes A^(-Re c-2J);
    G = zeta_H(s, A) (power 1) contributes sum_m (A+m)^(1-sigma) <= A^(-e)
    (1 + 1/e) at sigma = Re c+2J+1, with e = Re c+2J-1.  Both read
    K A^(-e), e = Re c+2J-power and K = |B_{2J+2}|/(2J+2)! h^(2J+1)
    prod_i (|c+i|+1) (1 + power/e), so the target holds for A >= A* =
    max(1, (2^53 K)^(1/2J), (2^53 K)^(1/e)), or (2^53 K)^(1/(2J+1)) where
    Re c < power-1.  Raises AccuracyError where e <= 0 (or c is NaN), as
    the bound fails, and where N exceeds the row budget _CHUNK.  c and a
    broadcast; c need not match a's shape.
    """
    c = np.asarray(c, dtype=complex)
    a = np.asarray(a, dtype=float)
    e = c.real + 2 * j_len - power
    if not np.all(e > 0):
        raise AccuracyError("no Euler-Maclaurin head length meets the bound "
                            f"at Re s <= {power - 2 * j_len}")
    log_k = (math.log(2.0 ** 53 * abs(_B_FACT[2 * j_len + 2])
                      * h ** (2 * j_len + 1))
             + np.log(np.abs(c[..., None] + np.arange(2 * j_len + 1)) + 1.0)
             .sum(axis=-1) + np.log1p(power / e))
    with np.errstate(over="ignore"):
        cut = np.exp(np.maximum(0.0, log_k / np.where(
            c.real < power - 1, 2 * j_len + 1, np.minimum(2 * j_len, e))))
    n = np.maximum(np.ceil((cut - a) / h), 0.0)
    if not np.all(n <= _CHUNK):
        raise AccuracyError(f"Euler-Maclaurin head length {np.max(n):.3g} "
                            f"exceeds {_CHUNK} terms: |s| or w/v is too large")
    return n.astype(int)


def _rising(c, n2: int, j_len: int):
    """Jets of (s)_{2j-1} about s = c, j = 1..J+1, shape (n2, J+1, *C) for
    C the shape of c (an array of the jet's dtype, ``_center``).

    One (2J+2, n2, *C) table holds (s)_0, ..., (s)_{2J+1}, filled in place
    by two ufunc calls a step: (s)_{i+1} = (s)_i (c + i + eps), where eps
    moves every slot up by one.  The odd rows are returned as a view.
    """
    table = np.zeros((2 * j_len + 2, n2) + c.shape, dtype=c.dtype)
    table[0, 1] = 1.0
    steps = c + np.arange(2 * j_len + 1).reshape((-1,) + (1,) * c.ndim)
    rows, upper, lower = list(table), list(table[:, 2:]), list(table[:, 1:-1])
    for i, step in enumerate(steps):
        np.multiply(rows[i], step, out=rows[i + 1])
        np.add(upper[i + 1], lower[i], out=upper[i + 1])
    return table[1::2].swapaxes(0, 1)


def _em_tail(c, h, head, cut, poch):
    """sum_{m>=0} G(s, A+h*m) by Euler-Maclaurin on jets about s = c.

    G obeys the rules of A^(-s): d/dA G(s) = -s G(s+1), integral_A^inf
    G(s) = G(s-1, A)/(s-1).  ``head`` (n+2, *E) is the jet of the terms
    before the cut A_M; ``cut`` (n+2, J+3, *E) holds G(s+k, A_M) for k = -1,
    0, 1, 3, .., 2J+1; ``poch`` (n+2, J+1, *C) holds (s)_{2j-1}, j = 1..J+1
    (``_rising``), with C of E's rank; c broadcasts against E.  The
    Hurwitz level builds poch, and the row sum hands the outer level the
    first J+1 rows of the Hurwitz level's table at shift 0.  Returns head
    + G(s-1)/(h(s-1)) + G(s)/2 + sum_{j<=J} B_2j/(2j)! h^(2j-1) (s)_{2j-1}
    G(s+2j-1), the sum in the order of j; a zero of (s)_{2j-1} meets a
    pole of G in one jet product.  Raises AccuracyError where the first
    omitted term, j = J+1, is NaN or exceeds the rounding floor in a slot
    below the top.
    """
    n2, j_len = cut.shape[0], cut.shape[1] - 3
    out = head + _jet_mul(cut[:, 0], _jet_recip(c, n2 - 2)) / h + 0.5 * cut[:, 1]
    coefs = np.array([_B_FACT[2 * j] * h ** (2 * j - 1)
                      for j in range(1, j_len + 2)])
    terms = (coefs.reshape((-1,) + (1,) * (head.ndim - 1))
             * _jet_mul(poch, cut[:, 2:]))
    out = out + _sum_in_order(terms[:, :-1])
    omitted = np.abs(terms[:-1, -1])  # the top slot is not read
    if not np.all(omitted <= _JET_REL_ERR * np.maximum(1.0, np.abs(out[:-1]))):
        raise AccuracyError(
            f"Euler-Maclaurin truncation error up to {np.max(omitted):.3g}",
            value=out, achieved=float(np.max(omitted)))
    return out


def _hurwitz_jet(c, a, n: int, poch=None):
    """Jet of zeta_H(s, a) about s = c, slots eps^-1..eps^n, shape (n+2, *E)
    for E the broadcast shape of c and a.

    ``_em_tail`` with G = A^(-s), h = 1 and HURWITZ_J corrections at the
    cut A = N + a, where G(s+k) is A^(-k) A^(-s).  The head length N is
    chosen per element by ``_head_length`` (power 0): the least N whose
    first omitted correction is below 2^-53 of the tail; it refuses where
    none is, or where N exceeds _CHUNK.  Head terms are built only for the
    elements with N > 0 (on a lattice of rows, the few nearest the origin),
    zeroed beyond each element's own N and summed in order, in blocks of
    at most _CHUNK jet elements: the sum so far is row 0 of the next
    block's, so the bits do not depend on the blocks and a batch is
    bitwise equal to scalar calls.  ``poch`` is ``_rising``(c, n+2,
    HURWITZ_J) with c of E's rank, built here unless the caller hands it
    over to share it.
    """
    c = _center(c)
    a = np.asarray(a, dtype=float)
    size = _head_length(c, a, 1.0, HURWITZ_J, 0)
    head = np.zeros((n + 2,) + size.shape, dtype=c.dtype)
    some = size > 0
    if np.any(some):
        a_some, c_some = (np.broadcast_to(x, size.shape)[some] for x in (a, c))
        top, step = size.max(), max(1, _CHUNK // a_some.size)
        for lo in range(0, top, step):
            m = np.arange(lo, min(lo + step, top))[:, None]
            terms = np.where(m < size[some], _jet_pow(a_some + m, c_some, n), 0.0)
            head[:, some] = _sum_in_order(
                np.concatenate([head[:, None, some], terms], axis=1))
    base = a + size
    # A^(-k), k = -1, 0, 1, 3, .., 2J+1, by products (see the jet notes)
    pows = np.empty((HURWITZ_J + 3,) + base.shape)
    pows[0], pows[1], pows[2] = base, 1.0, 1.0 / base
    pows[3:] = pows[2] * pows[2]
    np.multiply.accumulate(pows[2:], axis=0, out=pows[2:])
    cut = pows * _jet_pow(base, c, n)[:, None]
    if poch is None:
        poch = _rising(c.reshape((1,) * (size.ndim - c.ndim) + c.shape),
                       n + 2, HURWITZ_J)
    return _em_tail(c, 1.0, head, cut, poch)


def _frac_1d(a, c, s, zh):
    """I_1 of ``frac_part_integral_1d`` and its bar from zh, the jet of
    zeta_H(s-1, a/c) about s; the jets follow s, real or complex."""
    pow_a = _jet_pow(a, s, 1)
    terms = np.stack([
        a * pow_a,
        a * a / c * _jet_mul(pow_a, _jet_recip(s - 1.0, 1)),
        -c * _jet_mul(_jet_pow(c, s, 1), zh)], axis=1)
    bracket = _sum_in_order(terms)
    bracket[0] = 0.0  # the bracket is analytic at s = 2
    value = _jet_mul(bracket, _jet_recip(s, 1))[1] / c
    err = _JET_REL_ERR * float(np.abs(terms[:2]).max()) / (c * abs(s - 1.0))
    return value, err


def frac_part_integral_1d(a, c, s, with_error: bool = False):
    """integral_0^inf (x-[x]) (a+cx)^(-s) dx for Re(s) > 1, in closed form.

    Summing the cells by parts gives I_1 = [a^(1-s) + a^(2-s)/(c(s-2))
    - c^(1-s) zeta_H(s-1, a/c)] / (c(s-1)), taken on jets about s so that
    the poles of the last two terms at s = 2 cancel exactly.  The bar
    (``with_error``) is the jet floor of the largest bracket term over
    c|s-1|; it covers the cancellation near s = 2 and at large a/c.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    if not (0 < a < math.inf and 0 < c < math.inf):
        raise ValueError("a and c must be finite and positive")
    if s.real <= 1:
        raise DomainError("frac_part_integral_1d requires Re(s) > 1")
    value, err = _frac_1d(a, c, s, _hurwitz_jet(s - 1.0, a / c, 1))
    return (complex(value), err) if with_error else complex(value)


_TAIL_TERMS = 5  # Euler-Maclaurin correction terms kept in the 2-D tail


def _gauss_rule(n: int):
    """Gauss-Legendre nodes and weights on (0, 1), by Golub-Welsch."""
    k = np.arange(1.0, n)  # off-diagonal of the Jacobi matrix: k/sqrt(4k^2-1)
    x, vec = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), 1), UPLO="U")
    return 0.5 * (x + 1.0), vec[0] ** 2


# the sawtooth cell rule, and the half-order rule that estimates its error
(_XC, _WC), (_XH, _WH) = map(_gauss_rule, (QUAD_CELL_ORDER, QUAD_CELL_ORDER // 2))


def _sawtooth_2d(alpha, h, s, extra_c, extra_a):
    """The smooth part of the 2-D sawtooth integral scaled to c = 1
    (``frac_part_integral_2d``), and the Hurwitz jets of the extra points
    zeta_H(extra_c[i], extra_a[i]), all from one ``_hurwitz_jet`` call per
    _CHUNK points.  The jets follow s, real or complex.  Returns the
    extra points' jets (3, len(extra_c)), the pieces' Gauss sums at the full
    and at the half-order rule, and the kept tail terms.
    """
    # exponent and coefficient of each tail term; the last is the first omitted
    sig = s + np.array([-1.0, *range(0, 2 * _TAIL_TERMS + 1, 2)])
    coef = np.array([0.5 / (h * (s - 1.0))] + [
        -_B_FACT[2 * j] * h ** (2 * j - 2)
        * math.prod(s + i for i in range(2 * j - 2))  # (s)_{2j-2}
        for j in range(1, _TAIL_TERMS + 2)])
    q = s.real + 2 * _TAIL_TERMS - 2  # |G| <= A^-q/(q (q+1)) at sig[-1]
    base = (abs(coef[-1]) / (q * (q + 1) * 0.5 * QUAD_TAIL_TOL)) ** (1 / q)
    # capped, so that an over-budget count fails the check below unallocated
    n_cells = max(1, math.ceil(min(QUAD_MAX_CELLS + 1, (base - alpha) / h)))
    # G turns by |Im s| log((A+1+h)/(A+1)) over a cell, a piece by at most 2
    turn = abs(s.imag) * np.log1p(h / (alpha + 1.0 + h * np.arange(n_cells)))
    pieces = np.ceil(np.clip(turn / 2.0, 1, QUAD_MAX_CELLS)).astype(int)
    if pieces.sum() > QUAD_MAX_CELLS:
        raise AccuracyError(f"cell budget of {QUAD_MAX_CELLS} pieces exhausted")
    width = np.repeat(1.0 / pieces, pieces)[:, None]
    frac = (np.concatenate([np.arange(m) for m in pieces])[:, None]
            + np.concatenate([_XC, _XH])) * width
    # G on every node of every piece, then at the cut for each kept tail
    # term, after the extra points
    y = np.append(np.repeat(np.arange(n_cells), pieces)[:, None] + frac,
                  [n_cells] * (len(sig) - 1))
    sig_y = np.append(np.full(frac.size, s), sig[:-1])
    centers = np.concatenate([extra_c, sig_y - 1.0])
    args = np.concatenate([extra_a, alpha + h * y + 1.0])
    jets = [_hurwitz_jet(centers[i:i + _CHUNK], args[i:i + _CHUNK], 1)
            for i in range(0, centers.size, _CHUNK)]
    g = np.concatenate([jet[1] for jet in jets])[len(extra_c):] / (1.0 - sig_y)
    terms = width * frac * g[:frac.size].reshape(frac.shape)
    full, half = terms[:, :len(_XC)] @ _WC, terms[:, len(_XC):] @ _WH
    return jets[0][:, :len(extra_c)], full, half, coef[:-1] * g[frac.size:]


def frac_part_integral_2d(alpha, v, w, s, with_error: bool = False):
    """integral_0^inf integral_0^inf (x-[x])(y-[y]) (alpha+v*y+w*x)^(-s) dx dy.

    Re(s) > 3.  Scaled by c^(-s) to c = max(v, w) = 1, h = min(v, w)/c, the
    inner integral at A = alpha+h*y is the 1-D closed form less its A^(1-s)
    term, which cancels the first Hurwitz term: A^(2-s)/((s-1)(s-2)) +
    G(s, A), G(sigma, A) = -zeta_H(sigma-1, A+1)/(sigma-1).  The first part
    holds the boundary layer at y = 0 and integrates to I_1(alpha; h, s-2)
    /((s-1)(s-2)), removably singular at s = 3.  G is analytic for A > -1
    and obeys the rules of A^(-sigma): Gauss cells on [0, N), cut into
    pieces over which its phase turns by at most 2 radians, then the
    sawtooth mean and Bernoulli corrections at A_N = alpha+h*N, N set by
    QUAD_TAIL_TOL/2 on the first omitted one; over QUAD_MAX_CELLS pieces
    raise AccuracyError.  ``_sawtooth_2d`` reads G and the first part's
    zeta_H in one Hurwitz call per 8192 points.  The bar adds the first
    part's, QUAD_TAIL_TOL/2, the difference against the half-order rule,
    and the jet floor.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    if not all(0 < x < math.inf for x in (alpha, v, w)):
        raise ValueError("alpha, v, w must be finite and positive")
    if s.real <= 3:
        raise DomainError("frac_part_integral_2d requires Re(s) > 3")
    c = max(v, w)
    alpha, h = alpha / c, min(v, w) / c
    s1 = s - 2.0  # the first part is I_1 at s1, from zeta_H(s1-1, alpha/h)
    jets, full, half, tails = _sawtooth_2d(alpha, h, s, [s1 - 1.0], [alpha / h])
    first, first_err = _frac_1d(alpha, h, s1, jets[:, 0])
    scale = 1.0 / ((s - 1.0) * (s - 2.0))
    value = c ** -s * complex(first * scale + full.sum() + tails.sum())
    err = c ** -s.real * (
        abs(first_err * scale) + 0.5 * QUAD_TAIL_TOL + abs(full - half).sum()
        + _JET_REL_ERR * (abs(full).sum() + abs(tails).sum()))
    return (value, float(err)) if with_error else value


def richardson_extrapolate(values, model: int):
    """Accelerate a sequence whose remainder decays like log^p(M)/M.

    ``values`` is a sequence of (M, y) samples at increasing (ideally
    geometric) M; ``model`` is the log power p.  Fits the n samples exactly
    on 1 and the first n-1 remainder functions log^p(M)/M, ..., 1/M,
    log^p(M)/M^2, ..., one linear solve with each column scaled to unit
    max first.  Returns (limit, err) where err is how far the limit moves
    when the first sample and the last function are left out.
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

    powers = [(a, b) for b in range(1, len(ms) + 1)
              for a in range(model, -1, -1)][:len(ms) - 1]
    cols = np.array([np.ones_like(ys)] + [np.log(ms) ** a / ms ** b
                                          for a, b in powers])

    def fit(cols, ys):
        cols = cols / np.abs(cols).max(axis=-1, keepdims=True)
        return np.linalg.solve(cols.T, ys[:, None])[0, 0]

    limit = fit(cols, ys)
    return float(limit), float(abs(limit - fit(cols[:-1, 1:], ys[1:])))


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


def central_difference(f, x, h, levels: int = 2):
    """First derivative by central differences, O(h^(2 levels)) accurate.

    The central differences at h, h/2, ..., h/2^(levels-1), combined by
    levels - 1 Richardson steps; returns (value, err) with err the size of
    the last step's correction.  f takes the array of all 2 levels
    abscissae (x - h, x + h, x - h/2, x + h/2, ...) in one call and returns
    their values stacked on axis 0.
    """
    if levels < 2:
        raise ValueError("levels must be at least 2")
    steps = [h / 2.0 ** j for j in range(levels)]
    vals = f(np.array([t for step in steps for t in (x - step, x + step)]))
    table = [(-0.5 * vals[2 * j] + 0.5 * vals[2 * j + 1]) / step
             for j, step in enumerate(steps)]
    for i in range(1, levels):
        r = 4.0 ** i
        err = abs(table[1] - table[0]) / (r - 1.0)
        table = [(r * b - a) / (r - 1.0) for a, b in zip(table, table[1:])]
    return table[0], err
