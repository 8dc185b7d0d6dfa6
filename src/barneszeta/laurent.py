"""Laurent coefficients of the Barnes double zeta-function at s = 2 and
s = 1, from the Euler-Maclaurin jet, by finite-M limit formulas at either
pole, and by the closed integral representation of the constant term at
s = 2.  The limit formulas sum the lattice as Hurwitz row heads minus
strips of outer row sums, one Hurwitz call over max(M)+1 rows for every
order, add the closed-form jet of the integral outside the square with its
Euler-Maclaurin edge and corner terms, and extrapolate in M by an exact fit
on log^a(M)/M^b, b >= c+1.

Coefficients are raw Laurent coefficients:

    zeta_2(s) = g_{-1}/(s-c) + sum_{k>=0} g_k (s-c)^k,   c in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barnes import BarnesParams, _integral_rep_regular, _row_sum_jet, _zeta2_jet
from .errors import ConsistencyError
from .hurwitz import _hurwitz_jet
from .numerics import (_JET_REL_ERR, _fit_limit, _jet_mul, _jet_pow, _jet_recip,
                       _remainder_basis)

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
    """Expansion about one of the two poles.

    gamma_minus1 is the computed residue; err_minus1 folds in both the
    rounding floor and the deviation from the exact closed form.
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


def _laurent_jet(p, center, exact_residue, k_max):
    if not 0 <= k_max <= 12:
        raise ValueError("k_max must be in 0..12")
    jet = _zeta2_jet(float(center), p, k_max + 1)
    g_m1 = float(jet[0])
    gammas = tuple(float(g) for g in jet[1:k_max + 2])
    # the error is about the same absolute size in every slot and the
    # largest slots set it, so every slot read shares one bar
    bar = _JET_REL_ERR * max(1.0, float(np.max(np.abs(jet[:k_max + 2]))))
    return LaurentExpansion(
        center=center,
        gamma_minus1=g_m1,
        err_minus1=bar + abs(g_m1 - exact_residue),
        gammas=gammas,
        errs=(bar,) * len(gammas),
        method="em",
    )


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


def _lattice_jet(p: BarnesParams, center: int, k_max: int, ms):
    """Jet about s = center, slots eps^-1..eps^k_max, of sum_{m,n<=M} A^-s,
    one element per M in ms: slot k is (-1)^k/k! sum log^k(A)/A^center.

    Rows over n are exact Hurwitz differences, sum_{n<=M} A^-s = w^-s
    [zeta_H(s, a_m) - zeta_H(s, a_m+M+1)], a_m = (alpha+m v)/w.  The heads
    are one prefix sum over the max(M)+1 jets of one Hurwitz call.  Each
    M's strip of tails is T(alpha+(M+1)w) - T(alpha+(M+1)(v+w)), T the
    outer row sum (``_row_sum_jet``), all from one call; v <= w keeps its
    step v/w <= 1.  Jets with a pole (T, and the heads at s = 1) take one
    order more.  The pole slot of head minus strip cancels and is set to 0:
    the jet is entire.
    """
    alpha, v, w = p.alpha, min(p.v, p.w), max(p.v, p.w)
    n = k_max + (center == 1)
    ms = np.array(ms)
    a = (alpha + v * np.arange(ms.max() + 1)) / w
    heads = np.cumsum(_hurwitz_jet(center, a, n), axis=1)[:, ms]
    starts = alpha + (ms + 1) * np.array([[w], [v + w]])
    outer = _row_sum_jet(center, starts, v, w, n + 1)[:-1]
    rows = heads - (outer[:, 0] - outer[:, 1])
    rows[0] = 0.0
    return _jet_mul(_jet_pow(w, center, n), rows)[:k_max + 2]


def _counterterm_jet(p: BarnesParams, center: int, ms, n: int):
    """Jet about s = center, slots eps^-1..eps^n, of what the square
    [0, M]^2 leaves out of zeta_2, one element per M, to second
    Euler-Maclaurin order.

    With A_v = alpha+vM, A_w = alpha+wM and A_2 = alpha+(v+w)M it is the
    integral outside the square,
        (A_v^(2-s) + A_w^(2-s) - A_2^(2-s)) / (vw(s-1)(s-2)),
    plus the edge terms, half the near-edge integrals beyond M minus half
    the far-edge integrals,
        [A_v^(1-s)/v + A_w^(1-s)/w - (A_w^(1-s) - A_2^(1-s))/v
         - (A_v^(1-s) - A_2^(1-s))/w] / (2(s-1)),
    plus the corner terms, with q = (v/w + w/v)/12,
        (q - 1/4)(A_v^(-s) + A_w^(-s)) - (q + 1/4) A_2^(-s):
    the -g/2 and -B_2/2 g' terms of the 1-D Euler-Maclaurin formula along
    each axis, whose line integrals of a derivative reduce to corner values
    since d/dx f = (v/w) d/dy f.  Each term is meromorphic in s, so they
    hold about either pole; the lattice jet being entire, the pole slot is
    the residue.  Added to the lattice jet, slot k leaves
    O(log^k(M)/M^(center+1)).  The factors of the pole terms are taken one
    order higher, since a pole shifts the slots down.
    """
    alpha, v, w = p.alpha, p.v, p.w
    a = alpha + np.array([v, w, v + w])[:, None] * np.array(ms, dtype=float)
    # x^(2-s), x^(1-s) and x^-s are _jet_pow at center-2, center-1 and
    # center; 1/(s-2) and 1/(s-1) are _jet_recip at center-1 and center
    square = np.array([1.0, 1.0, -1.0]) / (v * w)
    edges = np.array([1 / v - 1 / w, 1 / w - 1 / v, 1 / v + 1 / w]) / 2
    q = (v / w + w / v) / 12
    corners = np.array([q - 0.25, q - 0.25, -q - 0.25])
    outside = np.einsum("j,kjm->km", square, _jet_pow(a, center - 2, n + 1))
    edge = np.einsum("j,kjm->km", edges, _jet_pow(a, center - 1, n + 1))
    jet = _jet_mul(_jet_mul(outside, _jet_recip(center - 1, n + 1)) + edge,
                   _jet_recip(center, n + 1))
    return jet[:n + 2] + np.einsum("j,kjm->km", corners, _jet_pow(a, center, n))


def _extrapolate(ms, ys, log_powers, b0: int, scale):
    """Limits of the rows of samples ys at ms, row k with a remainder that
    is a series in log^a(M)/M^b, b >= b0, a = log_powers[k]..0: the exact
    fit of the n samples on the first n-1 of these functions, all rows in
    one solve (``_fit_limit``).  err is three times the largest move of the
    limit when the last sample, the last two or the first is left out, each
    with as many functions fewer; the last two catch a remainder that is
    not yet in its asymptotic regime, as on lopsided weights.  To it adds
    the rounding floor 2^-52 scale[k] sum_i |w_i|: the limit is sum_i w_i
    y_i, the weights from one fit of the identity, and scale[k] bounds the
    size of the terms that each sample of row k is the sum of.  Returns
    (value, err) per row.
    """
    n = len(ms)
    funcs = np.array([_remainder_basis(ms, q, b0) for q in log_powers])
    value = _fit_limit(ys, funcs)
    moves = [np.abs(value - _fit_limit(ys[:, lo:hi], funcs[:, :hi - lo - 1, lo:hi]))
             for lo, hi in ((0, n - 1), (0, n - 2), (1, n))]
    rows = len(funcs)
    weights = _fit_limit(np.broadcast_to(np.eye(n), (rows, n, n)),
                         np.broadcast_to(funcs[:, None], (rows, n, n - 1, n)))
    floor = 2.0 ** -52 * scale * np.abs(weights).sum(axis=1)
    return [(float(v), 3.0 * float(max(mv)) + float(f))
            for v, f, *mv in zip(value, floor, *moves)]


# the limit formulas' M: 16*2^(j/2) rounded, j = 0..9, up to 362
_M_LIST = tuple(round(16 * 2 ** (j / 2)) for j in range(10))


def _limit_formula(p: BarnesParams, center: int, k_max: int):
    """Finite-M limit-formula values of g_0..g_k_max about s = c = center.

    g_k(c) = lim_M slot k of [ sum_{m,n<=M} A^(-s) + counterterm(M) ],
    A = alpha+m*v+n*w: ``_lattice_jet`` plus ``_counterterm_jet`` at every
    M of _M_LIST.  Once the divergence guard has passed every k, the
    samples are extrapolated on log^a(M)/M^b, a = k+c-1..0, b >= c+1, every
    k in one batch (``_extrapolate``); at c = 1 the extra log power of
    c = 2 moved g_0(1) by up to 2.4e-6 against 9.4e-10 without it.  The
    rounding floor of err takes as scale the largest lattice slot plus the
    largest counterterm slot over M, since each sample is their sum.
    alpha+(v+w)*max(M) must stay below 1e15: beyond it the log powers
    cancel badly.  Returns a tuple of (value, err), one per k.
    """
    if not 0 <= k_max <= 4:
        raise ValueError("k_max must be in 0..4")
    if p.alpha + (p.v + p.w) * _M_LIST[-1] >= 1e15:
        raise ValueError(f"alpha + (v+w)*{_M_LIST[-1]} must be below 1e15")

    lattice = _lattice_jet(p, center, k_max, _M_LIST)[1:]
    counter = _counterterm_jet(p, center, _M_LIST, k_max)[1:]
    ys = lattice + counter
    for k, y in enumerate(ys):
        d1, d2 = abs(y[-1] - y[-2]), abs(y[-2] - y[-3])
        if d1 > 10.0 * d2 and d1 > 1e-6:
            raise ConsistencyError(
                f"finite-M samples of g_{k} diverge non-monotonically; "
                f"last corrections {d2:.3g} -> {d1:.3g}")
    ms = np.array(_M_LIST, dtype=float)
    scale = np.abs(lattice).max(axis=1) + np.abs(counter).max(axis=1)
    return tuple(_extrapolate(ms, ys, np.arange(k_max + 1) + center - 1,
                              center + 1, scale))


def gammak_at_2_limit(p: BarnesParams, k_max: int):
    """(value, err) of g_0..g_k_max at s = 2, k_max <= 4 (limit formula)."""
    return _limit_formula(p, 2, k_max)


def gammak_at_1_limit(p: BarnesParams, k_max: int):
    """(value, err) of g_0..g_k_max at s = 1, k_max <= 4 (limit formula)."""
    return _limit_formula(p, 1, k_max)
