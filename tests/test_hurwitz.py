"""Hurwitz/Riemann zeta continuation and Stieltjes-constant extraction."""

import math

import mpmath
import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    LaurentExpansion,
    hurwitz_zeta,
    riemann_zeta,
    stieltjes_constants,
    zeta2,
)
from barneszeta.config import HURWITZ_J, HURWITZ_M
from barneszeta.errors import AccuracyError, DomainError, PoleError
from barneszeta.numerics import (_JET_REL_ERR, _head_length, _hurwitz_jet,
                                 _jet_pow)

from conftest import (GAMMA0_HALF, RAW_STIELTJES_1, ZETA2, ZETA3, ZETA4,
                      zeta2_commensurate_mpmath)


class TestHurwitzZeta:
    def test_zeta3_direct_sum(self):
        m = np.arange(1, 2_000_001)
        direct = float(np.sum(m ** -3.0)) + 0.5 * 2_000_000.5 ** -2.0
        assert abs(hurwitz_zeta(3.0, 1.0).real - direct) < 1e-12
        assert abs(hurwitz_zeta(3.0, 1.0).real - ZETA3) < 1e-13

    def test_half_argument(self):
        assert abs(hurwitz_zeta(2.0, 0.5).real - math.pi ** 2 / 2) < 1e-12

    def test_s_zero_linear_form(self):
        for a in (0.25, 0.5, 1.0, 2.0, 3.7):
            assert abs(hurwitz_zeta(0.0, a).real - (0.5 - a)) < 1e-12

    def test_negative_argument(self):
        assert abs(riemann_zeta(-1.0).real + 1.0 / 12.0) < 1e-13
        # zeta_H(-1, a) = -(a^2 - a + 1/6)/2
        for a in (0.5, 1.0, 2.5):
            closed = -(a * a - a + 1.0 / 6.0) / 2.0
            assert abs(hurwitz_zeta(-1.0, a).real - closed) < 1e-12

    def test_riemann_delegation(self):
        assert riemann_zeta(4.0) == hurwitz_zeta(4.0, 1.0)
        assert abs(riemann_zeta(2.0).real - ZETA2) < 1e-13
        assert abs(riemann_zeta(4.0).real - ZETA4) < 1e-13

    def test_complex_continuation_against_mpmath(self):
        # At sigma < 0 the Euler-Maclaurin head terms grow like (m+a)^|sigma|
        # and cancel; the head is only as long as the remainder bound needs,
        # and the worst error seen at sigma < 0.5 was 4.7e-12.
        rng = np.random.default_rng(7)
        for _ in range(12):
            s = complex(-3.0 + 7.0 * rng.random(), -10.0 + 20.0 * rng.random())
            if abs(s - 1.0) < 0.1:
                continue
            a = float(0.25 + 2.0 * rng.random())
            ref = complex(mpmath.zeta(s, a))
            val = hurwitz_zeta(s, a)
            tol = 1e-10 if s.real < 0.5 else 1e-11
            assert abs(val - ref) <= tol * max(1.0, abs(ref))

    def test_direct_sum_consistency(self):
        # the draws of the former 3e6-term direct-sum comparison, whose
        # tolerance was its tail bound (1e-12 to 2.8e-11); worst seen 5e-16
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = complex(2.5 + 3.5 * rng.random(), -5 + 10 * rng.random())
            a = float(0.25 + 1.75 * rng.random())
            ref = complex(mpmath.zeta(s, a))
            assert abs(hurwitz_zeta(s, a) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_m_j_robustness(self):
        for sig in np.linspace(-3.0, 4.0, 6):
            for t in (0.0, 10.0):
                s = complex(sig, t)
                if abs(s - 1.0) < 0.1:
                    continue
                for a in (0.25, 0.5, 1.0):
                    val = hurwitz_zeta(s, a)
                    ref = complex(mpmath.zeta(s, a))
                    # cancellation at sigma < 0 (see continuation test);
                    # worst seen 3.9e-12
                    tol = 1e-10
                    assert abs(val - ref) < tol * max(1.0, abs(val))

    def test_beyond_head_length_reach_raises(self):
        # HURWITZ_M = 64 terms cannot resolve |Im s| = 1000: the value
        # would be about 3e7 off, so it must not be returned.
        with pytest.raises(AccuracyError):
            hurwitz_zeta(0.5 + 1000j, 0.3)
        with pytest.raises(AccuracyError):
            zeta2(0.5 + 1000j, BarnesParams(0.7, 1.0, 1.0))
        # at lopsided weights the outer level refuses first; the values
        # would be 2.7e-10 and 7.6e-11 off relative, 18x and 5x the floor
        for p in (BarnesParams(0.1, 4.9, 0.1), BarnesParams(0.1, 0.1, 4.9)):
            with pytest.raises(AccuracyError):
                zeta2(0.5 + 160j, p)
        # there the sums overflow to NaN, which must raise as well
        with np.errstate(all="ignore"), pytest.raises(AccuracyError):
            hurwitz_zeta(0.5 + 1e200j, 0.3)

    def test_within_head_length_reach_returns(self):
        s = 0.5 + 100j
        ref = complex(mpmath.zeta(s, 0.3))
        assert abs(hurwitz_zeta(s, 0.3) - ref) < 1e-11 * abs(ref)
        assert np.isfinite(zeta2(s, BarnesParams(0.7, 1.0, 1.0)))
        # (0.1; 4.9, 0.1) has weights 49:1 with t = 0.1
        s = 0.5 + 130j
        ref = zeta2_commensurate_mpmath(s, 0.1, 49, 1, 0.1)
        assert abs(zeta2(s, BarnesParams(0.1, 4.9, 0.1)) - ref) < 1e-10 * abs(ref)

    def test_vectorized_matches_scalar(self):
        s = np.array([2.5 + 1j, -0.5 + 0j, 3.0 + 0j])
        vec = hurwitz_zeta(s, 0.7)
        for si, vi in zip(s, vec):
            assert vi == hurwitz_zeta(complex(si), 0.7)
        # a batch whose elements sum heads of different lengths, zero to
        # HURWITZ_M, must still match scalar calls bit for bit
        s = np.array([-2.5 + 0j, 0.5 + 3j, 2.0 + 0j, 6.0 - 40j])[:, None]
        a = np.geomspace(0.01, 1e4, 7)
        sizes = _head_length(s, a, 1.0, HURWITZ_J, 0, HURWITZ_M)
        assert len(np.unique(sizes)) > 4 and sizes.min() == 0
        vec = hurwitz_zeta(s, a)
        for (i, j), vi in np.ndenumerate(vec):
            assert vi == hurwitz_zeta(complex(s[i, 0]), float(a[j]))

    def test_jet_on_lattice_rows_matches_scalar(self):
        # the limit formula's rows a_m = (alpha+m v)/w: head terms are built
        # only for the rows with a head, the first few; every slot of the
        # batch must equal the scalar call bit for bit
        a = (2.5 + 0.5 * np.arange(300)) / 2.5
        for c in (2.0, 1.0, 0.5 + 30j):
            sizes = _head_length(c, a, 1.0, HURWITZ_J, 0, HURWITZ_M)
            assert 0 < np.count_nonzero(sizes) < len(a) // 2
            jet = _hurwitz_jet(c, a, 4)
            assert jet.shape == (6, len(a))
            for i in [*np.flatnonzero(sizes), *range(0, len(a), 7)]:
                assert np.array_equal(jet[:, i], _hurwitz_jet(c, a[i], 4))

    def test_real_center_jets_are_float64(self):
        # a real center keeps the jet in float64.  It is not bitwise the
        # real part of the complex-center jet, since numpy's complex / int
        # rounds differently from float / int, but within 4 ulp of it
        a = np.geomspace(0.01, 1e4, 400)
        for c in (1.0, 2.0, 3):
            for jet, ref in ((_jet_pow(a, c, 6), _jet_pow(a, complex(c), 6)),
                             (_hurwitz_jet(c, a, 6),
                              _hurwitz_jet(complex(c), a, 6))):
                assert jet.dtype == np.float64 and ref.dtype == np.complex128
                assert np.all(ref.imag == 0)
                ulp = 2.0 ** -52 * np.maximum(1.0, np.abs(ref.real))
                assert np.all(np.abs(jet - ref.real) <= 4 * ulp), c

    def test_pole_and_domain_errors(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, -1.0)
        # a non-finite a is refused, not carried into the head length
        for a in (math.inf, math.nan, [0.5, math.inf]):
            with pytest.raises(ValueError, match="finite and positive"):
                hurwitz_zeta(2.0, a)
        # so is a non-finite s, before any arithmetic
        for s in (math.inf, math.nan, complex(2.0, math.inf), [2.0, math.inf]):
            with pytest.raises(DomainError, match="s must be finite"):
                hurwitz_zeta(s, 0.5)


class TestStieltjes:
    def test_euler_stieltjes_values(self):
        table = stieltjes_constants(1.0, 4)
        for k, expected in enumerate(RAW_STIELTJES_1):
            assert abs(table.gammas[k] - expected) < 1e-10

    def test_raw_convention_vs_mpmath(self):
        # raw coefficient g_k = (-1)^k/k! * classical Stieltjes constant
        table = stieltjes_constants(1.0, 6)
        for k in range(7):
            classical = float(mpmath.stieltjes(k))
            raw = (-1) ** k / math.factorial(k) * classical
            assert abs(table.gammas[k] - raw) < 1e-10

    def test_within_error_bars_vs_mpmath(self):
        for a in (0.05, 0.3, 1.0):
            table = stieltjes_constants(a, 10)
            for k in range(11):
                raw = ((-1) ** k / math.factorial(k)
                       * float(mpmath.stieltjes(k, a)))
                assert abs(table.gammas[k] - raw) <= table.errs[k], (a, k)

    def test_half_argument_gamma0(self):
        table = stieltjes_constants(0.5, 0)
        assert abs(table.gammas[0] - GAMMA0_HALF) < 1e-10

    def test_g0_is_minus_digamma(self):
        # g_0(a) = -psi(a); worst seen 2.8e-14
        for a in (0.01, 0.1, 0.3, 0.5, 0.8, 1.0):
            psi = float(mpmath.digamma(a))
            g0 = stieltjes_constants(a, 0).gammas[0]
            assert abs(g0 + psi) <= 1e-12 * max(1.0, abs(psi)), a

    def test_laurent_reconstruction(self):
        for a in (0.5, 1.0):
            table = stieltjes_constants(a, 12)
            for theta in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                s = 1.0 + 0.1 * complex(math.cos(theta), math.sin(theta))
                series = 1.0 / (s - 1.0) + sum(
                    g * (s - 1.0) ** k for k, g in enumerate(table.gammas))
                assert abs(series - hurwitz_zeta(s, a)) < 1e-8

    def test_table_validation(self):
        for a in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                stieltjes_constants(a, 2)
        with pytest.raises(ValueError):
            LaurentExpansion(center=1, gamma_minus1=1.0, err_minus1=0.0,
                             gammas=(1.0,), errs=(), method="em")
        with pytest.raises(ValueError):
            stieltjes_constants(1.0, 17)

    def test_table_is_laurent_record(self):
        # the one Laurent record, about s = 1: the pole slot is the
        # residue 1 and every slot carries its own jet floor
        table = stieltjes_constants(0.3, 6)
        assert isinstance(table, LaurentExpansion)
        assert (table.center, table.method) == (1, "em")
        assert len(table.gammas) == len(table.errs) == 7
        assert abs(table.gamma_minus1 - 1.0) <= table.err_minus1 <= 1e-10
        for g, e in zip(table.gammas, table.errs):
            assert e == _JET_REL_ERR * max(1.0, abs(g))
        s = 1.05
        assert abs(table.evaluate(s) - hurwitz_zeta(s, 0.3)) < 1e-8
