"""Double zeta evaluation: direct sum, continuation, integral
representation, s-derivatives at the origin, log Gamma_2, psi_2."""

import math

import mpmath
import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    hurwitz_zeta,
    log_gamma2,
    polygamma2,
    zeta2,
    zeta2_direct,
    zeta2_integral_rep,
    zeta2_s_derivatives_at_0,
)
from barneszeta.errors import AccuracyError, DomainError, PoleError
from barneszeta.numerics import ContourSpec, contour_coefficients

from conftest import ZETA2, ZETA3, ZETA4, ZETA_PRIME_M1, brute_zeta2


class TestParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            BarnesParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BarnesParams(1.0, -1.0, 1.0)

    def test_swapped(self):
        p = BarnesParams(1.0, 2.0, 3.0)
        assert p.swapped() == BarnesParams(1.0, 3.0, 2.0)


class TestDirect:
    def test_diagonal_count_zeta3(self):
        # alpha=v=w=1: sum over m+n=N has multiplicity N+1, so the full
        # double sum at s=4 collapses to zeta(3)
        val, err = zeta2_direct(4.0, BarnesParams(1, 1, 1), 4000,
                                with_error=True)
        assert abs(val.real - ZETA3) <= err
        assert err < 1e-6

    def test_brute_force_oracle(self):
        p = BarnesParams(1.0, 1.0, 2.0)
        ref = brute_zeta2(3.0, p, 10_000)
        val, err = zeta2_direct(3.0, p, 10_000, with_error=True)
        assert abs(val - ref) < 1e-12
        assert err < 1e-3

    def test_error_bound_covers_rounding(self):
        # At M = 2048 the tail is negligible and float64 rounding of the
        # 2049^2 terms dominates the error.
        p = BarnesParams(0.2855, 1.3282, 2.6563)
        s = 5.396 + 12.245j
        val, err = zeta2_direct(s, p, 2048, with_error=True)
        assert abs(val - zeta2(s, p)) <= err

    def test_monotone_in_m(self):
        p = BarnesParams(0.7, 1.3, 2.1)
        v1 = zeta2_direct(2.5, p, 100).real
        v2 = zeta2_direct(2.5, p, 200).real
        assert v2 >= v1

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta2_direct(2.0, BarnesParams(1, 1, 1), 100)


class TestZeta2:
    def test_equal_weights_reduction(self):
        # zeta_2(s, alpha; v, v) = v^-s [zeta_H(s-1,a) + (1-a) zeta_H(s,a)]
        for alpha, v in [(1.0, 1.0), (0.5, 1.0), (2.0, 2.0), (0.3, 0.9)]:
            p = BarnesParams(alpha, v, v)
            a = alpha / v
            for s in (4.0, 3.0, 2.5 + 1.0j, 0.5 + 2.0j, -0.5 + 0.0j, 0.0):
                lhs = zeta2(s, p)
                rhs = v ** (-complex(s)) * (hurwitz_zeta(complex(s) - 1, a)
                                            + (1 - a) * hurwitz_zeta(s, a))
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_zeta_at_zero(self):
        # zeta_2(0, 1; 1, 1) = zeta(-1) = -1/12
        assert abs(zeta2(0.0, BarnesParams(1, 1, 1)) + 1.0 / 12.0) < 1e-11

    def test_pole_hit_points(self):
        # at s = 2 - 2j the outer correction j evaluates zeta_H at its pole,
        # cancelled by the zero of (s)_{2j-1}; zeta_2(s, 1; 1, 1) = zeta(s-1)
        # gives zeta(-3) = 1/120 and zeta(-5) = -1/252.  The s = -4 error
        # is the known Re s < 0 cancellation, not the pole hit.
        p = BarnesParams(1, 1, 1)
        for s, exact, tol in ((-2.0, 1.0 / 120.0, 1e-6),
                              (-4.0, -1.0 / 252.0, 1e-2)):
            val = zeta2(s, p)
            assert np.isfinite(val)
            assert abs(val - exact) <= tol * abs(exact)

    def test_agrees_with_direct_within_tail(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = BarnesParams(*(0.5 + 2.0 * rng.random(3)))
            s = complex(3.0, float(-2.0 + 4.0 * rng.random()))
            direct, tail = zeta2_direct(s, p, 4000, with_error=True)
            assert abs(zeta2(s, p) - direct) <= tail

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        p = BarnesParams(0.8, 1.4, 2.3)
        for lam in (0.5, 2.0, 3.0):
            q = BarnesParams(lam * p.alpha, lam * p.v, lam * p.w)
            s = complex(3.0, float(-5.0 + 10.0 * rng.random()))
            lhs = zeta2(s, q)
            rhs = lam ** (-s) * zeta2(s, p)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_symmetry(self):
        p = BarnesParams(0.7, 1.3, 2.1)
        for s in (3.0, 0.5 + 2.0j, -0.5 + 0.0j):
            assert abs(zeta2(s, p) - zeta2(s, p.swapped())) < 1e-10

    def test_row_removal_recurrence(self):
        # removing the m=0 row: zeta_2(s,alpha) - zeta_2(s,alpha+v)
        # = w^-s zeta_H(s, alpha/w)
        rng = np.random.default_rng(9)
        for _ in range(3):
            p = BarnesParams(*(0.5 + 2.0 * rng.random(3)))
            s = complex(3.0, float(-5.0 + 10.0 * rng.random()))
            shifted = BarnesParams(p.alpha + p.v, p.v, p.w)
            lhs = zeta2(s, p) - zeta2(s, shifted)
            rhs = p.w ** (-s) * hurwitz_zeta(s, p.alpha / p.w)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_vectorized_matches_scalar(self):
        p = BarnesParams(0.7, 1.3, 2.1)
        s = np.array([3.0 + 0j, 0.5 + 2j, -0.5 + 0j])
        vec = zeta2(s, p)
        for si, vi in zip(s, vec):
            assert vi == zeta2(complex(si), p)

    def test_pole_errors(self):
        p = BarnesParams(1, 1, 1)
        with pytest.raises(PoleError):
            zeta2(1.0, p)
        with pytest.raises(PoleError):
            zeta2(2.0, p)
        with pytest.raises(PoleError):
            zeta2(np.array([3.0, 2.0]), p)


class TestIntegralRep:
    def test_against_continuation(self):
        for p in (BarnesParams(1, 1, 1), BarnesParams(0.7, 1.3, 2.1)):
            for s in (2.5, 1.5, 3.0):
                assert abs(zeta2_integral_rep(s, p) - zeta2(s, p)) < 1e-6

    def test_against_direct(self):
        p = BarnesParams(2.0, 3.0, 1.0)
        direct, tail = zeta2_direct(3.0, p, 8000, with_error=True)
        assert abs(zeta2_integral_rep(3.0, p) - direct) <= tail + 1e-6

    def test_residue_limit(self):
        # (s-2) * zeta2_integral_rep -> 1/(vw) along a real sequence
        p = BarnesParams(0.7, 1.3, 2.1)
        res = 1.0 / (p.v * p.w)
        errs = [abs((s - 2.0) * zeta2_integral_rep(s, p) - res)
                for s in (2.1, 2.01, 2.001)]
        assert errs[-1] < errs[0]
        assert errs[-1] < 5e-3

    def test_domain(self):
        p = BarnesParams(1, 1, 1)
        with pytest.raises(DomainError):
            zeta2_integral_rep(0.5, p)
        with pytest.raises(PoleError):
            zeta2_integral_rep(2.0, p)


class TestDerivativesAtZero:
    def test_unit_parameters(self):
        # zeta_2(s,1;1,1) = zeta(s-1): value zeta(-1), slope zeta'(-1)
        d = zeta2_s_derivatives_at_0(BarnesParams(1, 1, 1), 1)
        assert abs(d[0].real + 1.0 / 12.0) < 1e-10
        assert abs(d[1].real - ZETA_PRIME_M1) < 1e-9

    def test_imaginary_parts_vanish(self):
        d = zeta2_s_derivatives_at_0(BarnesParams(0.7, 1.3, 2.1), 3)
        assert all(abs(dk.imag) < 1e-10 for dk in d)


class TestLogGamma2:
    def test_unit_parameters(self):
        assert abs(log_gamma2(BarnesParams(1, 1, 1)) - ZETA_PRIME_M1) < 1e-9

    def test_shifted_reduction(self):
        # zeta_2(s,2;1,1) = zeta_H(s-1,2) - zeta_H(s,2); slope at 0 via an
        # independent contour over the Hurwitz module only
        spec = ContourSpec(center=0.0, radius=0.5, nodes=128, max_order=1)
        c = contour_coefficients(
            lambda z: hurwitz_zeta(z - 1.0, 2.0) - hurwitz_zeta(z, 2.0),
            spec, pole_order=0)
        assert abs(log_gamma2(BarnesParams(2, 1, 1)) - c[1].real) < 1e-9

    def test_exp_is_finite_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = BarnesParams(*(0.3 + 3.0 * rng.random(3)))
            g = math.exp(log_gamma2(p))
            assert math.isfinite(g) and g > 0


class TestPolygamma2:
    def test_zeroth_delegates(self):
        p = BarnesParams(0.7, 1.3, 2.1)
        assert polygamma2(0, p) == log_gamma2(p)

    def test_first_derivative_unit(self):
        # psi_2'(1;1,1) = -g_0(1,1;1,1) = 1/2 (s=1 Laurent constant term)
        assert abs(polygamma2(1, BarnesParams(1, 1, 1)) - 0.5) < 1e-6

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            polygamma2(-1, BarnesParams(1, 1, 1))

    def test_overflow_raises(self):
        # (k-1)! leaves float64 beyond k = 171
        p = BarnesParams(1, 1, 1)
        assert math.isfinite(polygamma2(171, p))
        with pytest.raises(AccuracyError):
            polygamma2(200, p)

    def test_higher_orders_unit(self):
        # psi_2^(k) = (-1)^k (k-1)! zeta_2(k) for k >= 3, and
        # zeta_2(s, 1; 1, 1) = zeta(s-1)
        p = BarnesParams(1, 1, 1)
        for k, expected in ((3, -2.0 * ZETA2), (4, 6.0 * ZETA3),
                            (5, -24.0 * ZETA4)):
            assert abs(polygamma2(k, p) - expected) < 1e-10

    def test_fourth_order_against_row_sum(self):
        # zeta_2(4) = w^-4 sum_m zeta_H(4, (alpha+m v)/w), summed by mpmath
        alpha, v, w = 0.7, 1.3, 2.1
        ref = 6.0 * float(mpmath.nsum(
            lambda m: mpmath.zeta(4, (alpha + v * m) / w), [0, mpmath.inf])
            / mpmath.mpf(w) ** 4)
        assert abs(ref - 25.603) < 1e-3
        assert abs(polygamma2(4, BarnesParams(alpha, v, w)) - ref) < 1e-10 * ref
