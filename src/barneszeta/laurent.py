"""Laurent coefficients of the Barnes double zeta-function at s = 2 and
s = 1, from the Euler-Maclaurin jet, by finite-M limit formulas at either
pole, and the constant term at s = 2 by the paper's integral
representation of zeta_2, which the package uses nowhere else.  The
limit formulas sum the M+1 Hurwitz rows of the lattice nearest the
origin, one Hurwitz call for every order, with M the least that puts the
far quadrant beyond them at least 6 max(v, w) out, and add that
quadrant, one shifted double zeta, from its large-A asymptotic series.
No fit or extrapolation in M is left.

Coefficients are raw Laurent coefficients:

    zeta_2(s) = g_{-1}/(s-c) + sum_{k>=0} g_k (s-c)^k,   c in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barnes import BarnesParams, _zeta2_jet
from .errors import AccuracyError
from .numerics import (_B_FACT, _CHUNK, _JET_REL_ERR, _frac_1d, _hurwitz_jet,
                       _jet_mul, _jet_pow, _jet_recip, _rising, _sawtooth_2d,
                       _sum_in_order)

__all__ = [
    "LaurentExpansion",
    "residue_at_2",
    "residue_at_1",
    "laurent_at_2",
    "laurent_at_1",
    "gamma0_at_2_integral",
    "gammak_at_2_limit",
    "gammak_at_1_limit",
]


@dataclass(frozen=True)
class LaurentExpansion:
    """Expansion about one of the two poles: the one record of every
    Laurent table, the double zeta's by the jet ("em") or the limit
    formula ("limit_formula") and the Hurwitz zeta's about s = 1 ("em").

    gamma_minus1 is the computed residue; err_minus1 folds in both its
    slot's error and the deviation from the exact closed form.
    """

    center: int
    gamma_minus1: float
    err_minus1: float
    gammas: tuple
    errs: tuple
    method: str

    def __post_init__(self):
        if self.center not in (1, 2):
            raise ValueError("center must be 1 or 2")
        if len(self.gammas) != len(self.errs):
            raise ValueError("gammas and errs must have equal length")

    def evaluate(self, s: complex) -> complex:
        """Reconstruct the expansion at s (principal part included)."""
        ds = s - self.center
        out = self.gamma_minus1 / ds
        for k, g in enumerate(self.gammas):
            out += g * ds ** k
        return out


def _weight_product(p: BarnesParams) -> float:
    vw = p.v * p.w
    if vw == 0.0:
        raise ValueError("v*w underflows to 0")
    return vw


def residue_at_2(p: BarnesParams) -> float:
    """Exact residue of zeta_2 at s = 2."""
    return 1.0 / _weight_product(p)


def residue_at_1(p: BarnesParams) -> float:
    """Exact residue of zeta_2 at s = 1."""
    return (p.v + p.w - 2.0 * p.alpha) / (2.0 * _weight_product(p))


def _read_slots(center, slots, errs, exact_residue, method):
    """The record of slots eps^-1..eps^k of a jet about s = center, with
    their errors errs (one per slot, or one for all).  Raises
    AccuracyError where a value or an error is not finite."""
    errs = np.broadcast_to(errs, slots.shape)
    g_m1 = float(slots[0])
    err_m1 = float(errs[0]) + abs(g_m1 - exact_residue)
    if not np.all(np.isfinite([*slots, *errs, err_m1])):
        raise AccuracyError(f"Laurent record about s = {center} is not finite",
                            value=slots)
    return LaurentExpansion(
        center=center,
        gamma_minus1=g_m1,
        err_minus1=err_m1,
        gammas=tuple(map(float, slots[1:])),
        errs=tuple(map(float, errs[1:])),
        method=method,
    )


def _laurent_jet(p, center, exact_residue, k_max):
    if not 0 <= k_max <= 12:
        raise ValueError("k_max must be in 0..12")
    slots = _zeta2_jet(float(center), p, k_max + 1)[:k_max + 2]
    # the error is about the same absolute size in every slot and the
    # largest slots set it, so every slot read shares one bar
    bar = _JET_REL_ERR * max(1.0, float(np.max(np.abs(slots))))
    return _read_slots(center, slots, bar, exact_residue, "em")


def laurent_at_2(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max of zeta_2 about s = 2 (jet route)."""
    return _laurent_jet(p, 2, residue_at_2(p), k_max)


def laurent_at_1(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max of zeta_2 about s = 1 (jet route)."""
    return _laurent_jet(p, 1, residue_at_1(p), k_max)


def gamma0_at_2_integral(p: BarnesParams) -> float:
    """Constant term at s = 2 via the paper's integral representation of
    zeta_2 for Re(s) > 1: alpha^(2-s)/(vw(s-1)(s-2)) - alpha^(-s)
    + v^(-s) zeta_H(s, alpha/v) + w^(-s) zeta_H(s, alpha/w)
    - (w/v) I_1(alpha; w, s) - (v/w) I_1(alpha; v, s) + vw s(s+1) I_2(s+2),
    I_1 and I_2 the 1-D and 2-D sawtooth integrals.  The first term
    carries both poles and gives g_0(2) its -(1+log alpha)/(vw); the rest
    is regular at s = 2 and is taken there.

    With lo = min(v, w) and hi = max(v, w), the boundary layer of I_2(s+2)
    is hi^(-s-2) I_1(alpha/hi; lo/hi, s)/(s(s+1)), and I_1(a/l; c/l, s) =
    l^s I_1(a; c, s), so it adds (lo/hi) I_1(alpha; lo, s) to the sum:
    exactly the 1-D term of weight lo/hi, which it cancels.  The rest
    reads zeta_H(s, alpha/v), zeta_H(s, alpha/w), the jet of zeta_H(s-1,
    alpha/hi) for I_1(alpha; hi, s) and the 2-D nodes and tail points from
    one ``_hurwitz_jet`` call (per 8192 points, ``_sawtooth_2d``), in
    float64 as s is real.
    """
    s = 2.0
    alpha, v, w = p.alpha, p.v, p.w
    lo, hi = sorted((v, w))
    jets, full, _, tails = _sawtooth_2d(alpha / hi, lo / hi, s + 2.0,
                                        [s, s, s - 1.0],
                                        [alpha / v, alpha / w, alpha / hi])
    regular = (
        -alpha ** (-s)
        + v ** (-s) * jets[1, 0]
        + w ** (-s) * jets[1, 1]
        - (hi / lo) * _frac_1d(alpha, hi, s, jets[:, 2])[0]
        + v * w * s * (s + 1.0) * hi ** (-s - 2.0) * (full.sum() + tails.sum())
    )
    return float(regular.real - (1.0 + math.log(alpha)) / (v * w))


# (s)_0..(s)_62 about each pole in 15 slots: Gamma ratios for k_max <= 12
_POLE_RISING = {c: _rising(np.asarray(float(c)), 15, len(_B_FACT) - 3)
                for c in (1, 2)}


def _far_series(p: BarnesParams, center: int, start: float, n: int):
    """Jet about s = center, slots eps^-1..eps^n, of zeta_2(s, start; v, w)
    from the large-A series of its Mellin form (Barnes 1901; Matsumoto
    1998), k = 0..64 over the Bernoulli table:
        zeta_2(s, A; v, w) ~ sum_k C_k Gamma(s+k-2)/Gamma(s) A^(2-s-k),
        C_k = (-1)^k sum_{i+j=k} B_i B_j v^(i-1) w^(j-1)/(i! j!).
    C_k A^(2-k) is A^2/(vw) (hi/A)^k times one convolution of B_i/i!
    (-lo/hi)^i with B_j/j! (-1)^j, lo, hi = min, max(v, w), finite where C_k
    alone would overflow; the order of v and w does not change its bits.
    The Gamma ratio is 1/((s-1)(s-2)), 1/(s-1), 1, then (s)_{k-2}, read
    from the pole's ``_rising`` table, for n <= 12.  A term's size is its
    largest slot eps^0..eps^n.  The asymptotic series is cut before its
    smallest pair of adjacent sizes (an even C_k vanishes at some v/w),
    and that pair is its truncation error.  Returns the cut series, the
    truncation error and the kept terms' summed |jets|, its rounding scale.
    """
    lo, hi = min(p.v, p.w), max(p.v, p.w)
    b = np.array(_B_FACT)
    k = np.arange(len(b))
    ratio = np.column_stack([
        _jet_mul(_jet_recip(center - 1, n + 1), _jet_recip(center, n + 1)),
        _jet_recip(center, n + 1), _POLE_RISING[center][:n + 3]])
    with np.errstate(over="ignore", invalid="ignore"):
        coef = (np.convolve(b * (-lo / hi) ** k, b * (-1.0) ** k)[:len(b)]
                * (hi / start) ** k * start ** 2 / (lo * hi))
        terms = _jet_mul(ratio, coef * _jet_pow(start, center, n + 1)[:, None])[:n + 2]
        mags = np.abs(terms)
        pairs = np.nan_to_num(mags[1:].max(axis=0), nan=np.inf)
        pairs = pairs[:-1] + pairs[1:]
    cut = int(np.argmin(pairs))
    return terms[:, :cut].sum(axis=1), pairs[cut], mags[:, :cut].sum(axis=1)


def _limit_formula(p: BarnesParams, center: int, k_max: int):
    """Finite-M limit-formula record of g_{-1}..g_k_max about s = c = center.

    With lo, hi = min, max(v, w), the rows m <= M of the lattice sum over
    n are Hurwitz zetas and the rows m > M a shifted double zeta, exactly:
        zeta_2(s, alpha) = hi^(-s) sum_{m<=M} zeta_H(s, (alpha+m lo)/hi)
                           + zeta_2(s, alpha+(M+1) lo).
    M is the least M >= 0 whose far start A = alpha+(M+1) lo is at least
    6 hi, M = max(0, ceil((6 hi - alpha)/lo) - 1), where the series'
    smallest term is about e^(-12 pi) ~ 4e-17 of its first.  The M+1 rows
    are one ``_hurwitz_jet`` call summed in row order, and the shifted
    double zeta is ``_far_series``; g_k(c) is slot k of their sum, with no
    fit, the pole slot g_{-1} included.  err, per slot, is the series'
    truncation error plus 2^-50 times the summed magnitudes of the rows
    (times |hi^(-s)|) and of the series' terms.  Raises AccuracyError
    where a slot or its error is not finite (``_read_slots``) and, as w/v
    is too far from 1, where M+1 exceeds the 2-D rule's row budget
    ``_CHUNK`` (hi/lo above about 1,365) or the truncation error exceeds
    the jet's floor _JET_REL_ERR max(1, |g_k|), k >= 0, and ValueError
    where alpha+(v+w)*M >= 1e15: beyond it the log powers cancel badly.
    Returns a LaurentExpansion, method "limit_formula".
    """
    if not 0 <= k_max <= 12:
        raise ValueError("k_max must be in 0..12")
    lo, hi = min(p.v, p.w), max(p.v, p.w)
    # float until it is known to fit: hi/lo may overflow it to inf
    m = max(0.0, np.ceil((6.0 * hi - p.alpha) / lo) - 1.0)
    if m + 1 > _CHUNK:
        raise AccuracyError(f"limit formula needs M = {m:.6g}, beyond "
                            f"{_CHUNK} rows: w/v is too far from 1")
    m = int(m)
    if p.alpha + (p.v + p.w) * m >= 1e15:
        raise ValueError(f"alpha + (v+w)*M must be below 1e15, at M = {m}")
    # a pole of the rows at s = 1 needs one order more of hi^(-s)
    n = k_max + (center == 1)
    rows = _hurwitz_jet(center, (p.alpha + lo * np.arange(m + 1)) / hi, n)
    power = _jet_pow(hi, center, n)
    heads = _jet_mul(power, _sum_in_order(rows))[:k_max + 2]
    scale = _jet_mul(np.abs(power), _sum_in_order(np.abs(rows)))[:k_max + 2]
    far, trunc, far_scale = _far_series(p, center, p.alpha + (m + 1) * lo, k_max)
    g = heads + far
    err = trunc + 2.0 ** -50 * (scale + far_scale)
    exact = residue_at_2(p) if center == 2 else residue_at_1(p)
    # a non-finite slot refuses first, under its own name
    record = _read_slots(center, g, err, exact, "limit_formula")
    if not trunc <= _JET_REL_ERR * np.min(np.maximum(1.0, np.abs(g[1:]))):
        raise AccuracyError(f"limit formula at M = {m}: the far-quadrant series "
                            f"is off by up to {trunc:.3g}, as w/v is too far from 1",
                            value=g[1:], achieved=float(trunc))
    return record


def gammak_at_2_limit(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max at s = 2, k_max <= 12 (limit formula)."""
    return _limit_formula(p, 2, k_max)


def gammak_at_1_limit(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max at s = 1, k_max <= 12 (limit formula)."""
    return _limit_formula(p, 1, k_max)
