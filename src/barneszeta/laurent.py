"""Laurent coefficients of the Barnes double zeta-function at s = 2 and
s = 1, from the Euler-Maclaurin jet, by finite-M limit formulas at either
pole, and by the closed integral representation of the constant term at
s = 2.  The limit formulas sum M+1 = 363 Hurwitz rows of the lattice, one
Hurwitz call for every order, and add the far quadrant beyond them, one
shifted double zeta, from its large-A asymptotic series.  No fit or
extrapolation in M is left.

Coefficients are raw Laurent coefficients:

    zeta_2(s) = g_{-1}/(s-c) + sum_{k>=0} g_k (s-c)^k,   c in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barnes import BarnesParams, _integral_rep_regular, _zeta2_jet
from .errors import AccuracyError
from .numerics import (_B_FACT, _JET_REL_ERR, _hurwitz_jet, _jet_mul, _jet_pow,
                       _jet_recip, _sum_in_order)

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


def residue_at_2(p: BarnesParams) -> float:
    """Exact residue of zeta_2 at s = 2."""
    return 1.0 / (p.v * p.w)


def residue_at_1(p: BarnesParams) -> float:
    """Exact residue of zeta_2 at s = 1."""
    return (p.v + p.w - 2.0 * p.alpha) / (2.0 * p.v * p.w)


def _read_slots(center, slots, errs, exact_residue, method):
    """The record of slots eps^-1..eps^k of a jet about s = center, with
    their errors errs (one per slot, or one for all)."""
    errs = np.broadcast_to(errs, slots.shape)
    g_m1 = float(slots[0])
    return LaurentExpansion(
        center=center,
        gamma_minus1=g_m1,
        err_minus1=float(errs[0]) + abs(g_m1 - exact_residue),
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
    """Constant term at s = 2 via the closed integral representation,
    g_0(2) = R(2) - (1+log alpha)/(v w): R is ``_integral_rep_regular``, and
    the rational term alpha^(2-s)/(vw(s-1)(s-2)) gives the log term.
    """
    return float(_integral_rep_regular(2.0, p).real
                 - (1.0 + math.log(p.alpha)) / (p.v * p.w))


def _far_series(p: BarnesParams, center: int, start: float, n: int):
    """Jet about s = center, slots eps^-1..eps^n, of zeta_2(s, start; v, w)
    from the large-A series of its Mellin form (Barnes 1901; Matsumoto
    1998), k = 0..64 over the Bernoulli table:
        zeta_2(s, A; v, w) ~ sum_k C_k Gamma(s+k-2)/Gamma(s) A^(2-s-k),
        C_k = (-1)^k sum_{i+j=k} B_i B_j v^(i-1) w^(j-1)/(i! j!).
    C_k A^(2-k) is A^2/(vw) (hi/A)^k times one convolution of B_i/i!
    (-lo/hi)^i with B_j/j! (-1)^j, lo, hi = min, max(v, w), finite where C_k
    alone would overflow; the order of v and w does not change its bits.
    The Gamma ratio is 1/((s-1)(s-2)), 1/(s-1), 1, then (s)_{k-2}.  A
    term's size is its largest slot eps^0..eps^n.  The asymptotic series
    is cut before its smallest pair of adjacent sizes (an even C_k
    vanishes at some v/w), and that pair is its truncation error.  Returns
    the cut series, the truncation error and the kept terms' summed |jets|,
    its rounding scale.
    """
    lo, hi = min(p.v, p.w), max(p.v, p.w)
    b = np.array(_B_FACT)
    k = np.arange(len(b))
    ratio = np.zeros((n + 3, len(b)))
    ratio[:, 0] = _jet_mul(_jet_recip(center - 1, n + 1), _jet_recip(center, n + 1))
    ratio[:, 1] = _jet_recip(center, n + 1)
    # (s)_m = prod_{i<m} (c+i) (1 + eps/(c+i)): slot j is the prefix
    # product times e_j(m) = sum_{i<m} e_{j-1}(i)/(c+i), e_0 = 1
    steps = center + np.arange(len(b) - 3.0)
    rising = ratio[1:, 2:]
    rising[0] = 1.0
    for j in range(1, n + 2):
        np.cumsum(rising[j - 1, :-1] / steps, out=rising[j, 1:])
    rising *= np.cumprod(np.append(1.0, steps))
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
    At M = 362 the M+1 rows are one ``_hurwitz_jet`` call summed in row
    order, and the shifted double zeta is ``_far_series``; g_k(c) is slot
    k of their sum, with no fit, the pole slot g_{-1} included.  err, per
    slot, is the series' truncation error plus 2^-50 times the summed
    magnitudes of the rows (times |hi^(-s)|) and of the series' terms.
    Raises AccuracyError where the truncation error exceeds the jet's floor
    _JET_REL_ERR max(1, |g_k|), k >= 0, as w/v is too far from 1, and
    ValueError where alpha+(v+w)*362 >= 1e15: beyond it the log powers
    cancel badly.  Returns a LaurentExpansion, method "limit_formula".
    """
    if not 0 <= k_max <= 4:
        raise ValueError("k_max must be in 0..4")
    m = 362
    if p.alpha + (p.v + p.w) * m >= 1e15:
        raise ValueError(f"alpha + (v+w)*{m} must be below 1e15")
    lo, hi = min(p.v, p.w), max(p.v, p.w)
    # a pole of the rows at s = 1 needs one order more of hi^(-s)
    n = k_max + (center == 1)
    rows = _hurwitz_jet(center, (p.alpha + lo * np.arange(m + 1)) / hi, n)
    power = _jet_pow(hi, center, n)
    heads = _jet_mul(power, _sum_in_order(rows))[:k_max + 2]
    scale = _jet_mul(np.abs(power), _sum_in_order(np.abs(rows)))[:k_max + 2]
    far, trunc, far_scale = _far_series(p, center, p.alpha + (m + 1) * lo, k_max)
    g = heads + far
    if not trunc <= _JET_REL_ERR * np.min(np.maximum(1.0, np.abs(g[1:]))):
        raise AccuracyError(f"limit formula at M = {m}: the far-quadrant series "
                            f"is off by up to {trunc:.3g}, as w/v is too far from 1",
                            value=g[1:], achieved=float(trunc))
    err = trunc + 2.0 ** -50 * (scale + far_scale)
    exact = residue_at_2(p) if center == 2 else residue_at_1(p)
    return _read_slots(center, g, err, exact, "limit_formula")


def gammak_at_2_limit(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max at s = 2, k_max <= 4 (limit formula)."""
    return _limit_formula(p, 2, k_max)


def gammak_at_1_limit(p: BarnesParams, k_max: int) -> LaurentExpansion:
    """Coefficients g_{-1}..g_k_max at s = 1, k_max <= 4 (limit formula)."""
    return _limit_formula(p, 1, k_max)
