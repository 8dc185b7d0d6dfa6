"""Double zeta evaluation: direct sum, continuation, s-derivatives at the
origin, log Gamma_2, psi_2."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barneszeta import (
    BarnesParams,
    hurwitz_zeta,
    log_gamma2,
    polygamma2,
    zeta2,
    zeta2_direct,
    zeta2_s_derivatives_at_0,
)
from barneszeta import barnes, numerics
from barneszeta.barnes import _row_sum_jet, _zeta2_jet
from barneszeta.config import EM_ORDER, HURWITZ_J
from barneszeta.errors import AccuracyError, DomainError, PoleError
from barneszeta.numerics import _head_length, _hurwitz_jet, _rising

from conftest import (ZETA2, ZETA3, ZETA4, ZETA_PRIME_M1, brute_zeta2,
                      zeta2_commensurate_mpmath, zeta2_row_sum_mpmath)


class TestParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            BarnesParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BarnesParams(1.0, -1.0, 1.0)
        for bad in (math.inf, math.nan):
            for triple in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(ValueError, match="finite and positive"):
                    BarnesParams(*triple)

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

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf,
                                   complex(3.0, math.inf),
                                   complex(3.0, math.nan)])
    @pytest.mark.parametrize("with_error", [False, True])
    def test_non_finite_s_refused(self, s, with_error):
        # refused before any arithmetic: NaN and inf pass Re(s) > 2 or
        # fail it, and the sum and its bound would both read NaN
        with pytest.raises(DomainError, match="s must be finite"):
            zeta2_direct(s, BarnesParams(1, 1, 1), 10, with_error=with_error)


class TestZeta2:
    def test_non_finite_value_refused(self):
        # the row sum overflows before w^(-s) scales it back: the true
        # value is 2.154e105, and NaN used to be returned; in a batch one
        # such point refuses the batch
        p = BarnesParams(0.7, 2.0, 2.0)
        for s in (680.0, np.array([3.0, 680.0])):
            with pytest.raises(AccuracyError, match="zeta2 is not a finite"):
                zeta2(s, p)
        with pytest.raises(AccuracyError, match="zeta2 is not a finite"):
            zeta2(1000.0, BarnesParams(0.7, 1.3, 2.1))

    def test_large_finite_values_within_mpmath(self):
        # finite values this far out are right: worst seen 6.1e-14
        for s, alpha, v in ((300.0, 0.7, 2.0), (650 + 10j, 0.7, 1.0),
                            (400 + 30j, 0.3, 1.0)):
            ref = complex(zeta2_commensurate_mpmath(s, alpha, 1, 1, v))
            val = zeta2(s, BarnesParams(alpha, v, v))
            assert abs(val - ref) <= 1e-12 * abs(ref), (s, val, ref)

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
        # (2.8e-9 seen, 8.8e-12 at s = -2) is the Re s < 0 cancellation,
        # not the pole hit.
        p = BarnesParams(1, 1, 1)
        for s, exact, tol in ((-2.0, 1.0 / 120.0, 1e-10),
                              (-4.0, -1.0 / 252.0, 1e-7)):
            val = zeta2(s, p)
            assert np.isfinite(val)
            assert abs(val - exact) <= tol * abs(exact)

    def test_agrees_with_direct_within_tail(self):
        # the direct row sum in mpmath, its tail in closed form; worst
        # error seen 4.9e-16.  A 4001^2 float64 grid could only check
        # zeta2 to its tail bound, 4e-5 to 3e-4
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = BarnesParams(*(0.5 + 2.0 * rng.random(3)))
            s = complex(3.0, float(-2.0 + 4.0 * rng.random()))
            ref = zeta2_row_sum_mpmath(s, p.alpha, p.v, p.w)
            assert abs(zeta2(s, p) - ref) <= 1e-13 * abs(ref)

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
        # row counts from 8 to 120, past the former cap of 64: the shorter
        # heads are zero-padded up to the longest, which must not change a
        # single bit
        s = np.array([-3.0 + 0j, 0.5 + 2j, 3.0 + 0j, 0.5 + 30j, -8 + 10j,
                      0.5 + 100j])
        rows = _head_length(s, p.alpha / p.w, p.v / p.w, EM_ORDER, 1)
        assert len(np.unique(rows)) == len(s) and rows.max() > 64
        vec = zeta2(s, p)
        for si, vi in zip(s, vec):
            assert vi == zeta2(complex(si), p)

    def test_row_sum_vectorized_over_alpha(self):
        # the theorem-2 alpha slope batches the outer row sum over its
        # start alpha; row counts from 1 to 121 are zero-padded up to
        # the longest.  A scalar call sums its head rows on the innermost
        # axis, where a pairwise sum would round differently from the
        # batch.  Real centers run in float64, complex ones in complex128
        v, w = 1.3, 2.1
        alphas = np.array([0.01, 0.7, 3.0, 30.0, 2.1 * 65, 3.4 * 4097, 1e4])
        counts = set()
        for c in (2.0, 1.0, 0.5 + 30j, 0.5 + 100j):
            rows = _head_length(c, alphas / w, v / w, EM_ORDER, 1)
            assert len(np.unique(np.maximum(rows, 1))) >= 3
            counts.update(np.maximum(rows, 1))
            vec = _row_sum_jet(c, alphas, v, w, 4)
            assert vec.dtype == np.result_type(c, float)
            for ai, vi in zip(alphas, vec.T):
                assert np.array_equal(vi, _row_sum_jet(c, ai, v, w, 4))
        assert min(counts) == 1 and max(counts) > 64

    def test_row_budget_groups_keep_the_bits(self, monkeypatch):
        # rows x elements past _CHUNK: the elements go in groups within the
        # row budget, and every element of the batch must equal its scalar
        # call bit for bit, in the batch's shape
        groups, whole = [], barnes._row_sum_rows

        def spied(c, alpha, size, v, w, n):
            groups.append(size.size * (size.max() + EM_ORDER + 3))
            return whole(c, alpha, size, v, w, n)

        monkeypatch.setattr(barnes, "_row_sum_rows", spied)
        p = BarnesParams(0.7, 1.3, 2.1)
        # 200 points with 10 to 45 head rows each
        s = (np.linspace(-3.0, 6.0, 200)
             + 1j * np.linspace(40.0, -40.0, 200)).reshape(2, 100)
        vec = zeta2(s, p)
        # the theorem-2 alpha slope batches one center over many alpha
        c, alphas = 0.5 + 30j, np.geomspace(0.01, 30.0, 300)
        jets = _row_sum_jet(c, alphas, p.v, p.w, 3)
        assert len(groups) == 4 and max(groups) <= numerics._CHUNK, groups
        monkeypatch.undo()
        for idx, vi in np.ndenumerate(vec):
            assert vi == zeta2(complex(s[idx]), p), idx
        for ai, ji in zip(alphas[::3], jets[:, ::3].T):
            assert np.array_equal(ji, _row_sum_jet(c, ai, p.v, p.w, 3))

    def test_row_sum_batch_at_rising_zeros(self):
        # at c = 0 and c = -3 a zero of (s)_{2j-1} meets a pole of
        # G(s+2j-1) in one jet product, at both levels; batches over alpha
        # and over c must still equal scalar calls bit for bit
        v, w = 1.3, 2.1
        alphas = np.array([0.01, 0.7, 3.0, 30.0, 2.1 * 65])
        for c in (0.0, -3.0):
            vec = _row_sum_jet(c, alphas, v, w, 4)
            for ai, vi in zip(alphas, vec.T):
                assert vi.tobytes() == _row_sum_jet(c, ai, v, w, 4).tobytes()
        cs = np.array([0.0, -3.0, -1.0, 0.5, 2.5])
        vec = _row_sum_jet(cs, 0.7, v, w, 4)
        for ci, vi in zip(cs, vec.T):
            assert vi.tobytes() == _row_sum_jet(ci, 0.7, v, w, 4).tobytes()

    @pytest.mark.parametrize("triple", [(0.7, 1.3, 2.1), (2.5, 0.5, 2.5),
                                        (5.0, 5.0, 5.0), (0.1, 0.1, 0.1),
                                        (0.1, 0.1, 4.9)])
    @pytest.mark.parametrize("power", [1, 2])
    def test_strip_matches_row_by_row(self, triple, power):
        # _row_sum_jet's row-removal identity: the outer row sum at two
        # starts differs by M+1 rows, sum_{m<=M} zeta_H(s, a_m+M+1), which
        # is checked against the sum of its M+1 Hurwitz jets, slots
        # eps^0..eps^3
        alpha, v, w = triple
        a = (alpha + v * np.arange(65)) / w
        for m in (16, 64):
            outer = _row_sum_jet(power, [alpha + (m + 1) * w,
                                         alpha + (m + 1) * (v + w)], v, w, 5)
            strip = (outer[:, 0] - outer[:, 1])[1:5]
            ref = _hurwitz_jet(power, a[:m + 1] + m + 1, 5)[1:5].sum(axis=1)
            err = np.abs(strip - ref)
            if v / w > 0.1:
                assert np.all(err <= 1e-14 * np.abs(ref)), (m, err / np.abs(ref))
            else:
                # v/w = 1/49: the strip is about 150x smaller than the row
                # sums it is the difference of, and that sets its error
                scale = np.abs(outer[:, 0]) + np.abs(outer[:, 1])
                assert np.all(err <= 1e-15 * scale[1:5]), (m, err / scale[1:5])

    def test_one_rising_table(self, monkeypatch):
        # the Hurwitz level builds the table on its centers c + k, and the
        # outer level reads its shift-0 row: one build per row sum
        count = []

        def counted(c, n2, m):
            count.append(m)
            return _rising(c, n2, m)

        monkeypatch.setattr(numerics, "_rising", counted)
        monkeypatch.setattr(barnes, "_rising", counted)
        for c in (0.5, -3.0, 2.3 + 25j, np.array([0.0, 2.0, 0.5 + 30j])):
            count.clear()
            _row_sum_jet(c, 0.7, 1.3, 2.1, 4)
            assert count == [2 * HURWITZ_J + 1], (c, count)
        count.clear()
        zeta2(np.array([0.5 + 2j, 3.0 + 0j]), BarnesParams(0.7, 1.3, 2.1))
        assert count == [2 * HURWITZ_J + 1]

    def test_near_zero(self):
        # a fixed 64-row head leaves 1.7e-10 relative here; worst seen 1.9e-13
        ref = zeta2_commensurate_mpmath(0.001, 0.7, 1, 2, 1.0)
        val = zeta2(0.001, BarnesParams(0.7, 1.0, 2.0))
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_value_at_zero_across_alpha(self):
        # zeta_2(0, alpha; v, w) = alpha^2/(2vw) - alpha(v+w)/(2vw)
        # + (v^2+w^2+3vw)/(12vw), at the alphas the theorem-2 suites
        # difference on (2; 3, 1); worst error seen 4.6e-14
        v, w = 3.0, 1.0
        for da in (-5e-3, -2.5e-3, 2.5e-3, 5e-3):
            alpha = 2.0 + da
            exact = (alpha ** 2 / (2 * v * w) - alpha * (v + w) / (2 * v * w)
                     + (v * v + w * w + 3 * v * w) / (12 * v * w))
            jet = _zeta2_jet(0.0, BarnesParams(alpha, v, w), 1)
            assert abs(jet[1] - exact) <= 5e-13

    def test_pole_errors(self):
        p = BarnesParams(1, 1, 1)
        with pytest.raises(PoleError):
            zeta2(1.0, p)
        with pytest.raises(PoleError):
            zeta2(2.0, p)
        with pytest.raises(PoleError):
            zeta2(np.array([3.0, 2.0]), p)

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan,
                                   complex(2.0, math.inf), [3.0, math.nan]])
    def test_non_finite_s_refused(self, s):
        # refused before any arithmetic; the jet would carry it to an
        # AccuracyError "truncation error up to nan"
        with pytest.raises(DomainError, match="s must be finite"):
            zeta2(s, BarnesParams(1, 1, 1))


_weight = st.floats(0.2, 5.0)
_s_off_poles = st.builds(complex, st.floats(0.5, 6.0), st.floats(-50.0, 50.0)) \
    .filter(lambda s: abs(s - 1.0) >= 0.05 and abs(s - 2.0) >= 0.05)


class TestZeta2Properties:
    # Random draws through both Euler-Maclaurin levels; over 500 draws of
    # the same ranges the worst scaled errors were 1.3e-13 (symmetry),
    # 6e-14 (homogeneity) and 1e-13 (row removal).
    @settings(derandomize=True, deadline=None)
    @given(_weight, _weight, _weight, _s_off_poles)
    def test_symmetry(self, alpha, v, w, s):
        p = BarnesParams(alpha, v, w)
        rhs = zeta2(s, p.swapped())
        assert abs(zeta2(s, p) - rhs) <= 1e-11 * max(1.0, abs(rhs))

    @settings(derandomize=True, deadline=None)
    @given(_weight, _weight, _weight, st.floats(0.25, 4.0), _s_off_poles)
    def test_homogeneity(self, alpha, v, w, c, s):
        lhs = zeta2(s, BarnesParams(c * alpha, c * v, c * w))
        rhs = c ** (-s) * zeta2(s, BarnesParams(alpha, v, w))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))

    @settings(derandomize=True, deadline=None)
    @given(_weight, _weight, _weight, _s_off_poles)
    def test_row_removal(self, alpha, v, w, s):
        lhs = (zeta2(s, BarnesParams(alpha, v, w))
               - zeta2(s, BarnesParams(alpha + v, v, w)))
        rhs = w ** (-s) * hurwitz_zeta(s, alpha / w)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


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
        # zeta_2(s,2;1,1) = zeta_H(s-1,2) - zeta_H(s,2); its slope at 0 from
        # mpmath's Hurwitz derivatives; worst seen 3.1e-14
        ref = float(mpmath.zeta(-1, 2, 1) - mpmath.zeta(0, 2, 1))
        assert abs(log_gamma2(BarnesParams(2, 1, 1)) - ref) < 1e-12

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
