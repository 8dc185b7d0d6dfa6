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
from barneszeta.config import HURWITZ_J
from barneszeta.errors import AccuracyError, DomainError, PoleError
from barneszeta.numerics import (_CHUNK, _JET_REL_ERR, _head_length,
                                 _hurwitz_jet, _jet_pow)

from conftest import (GAMMA0_HALF, RAW_STIELTJES_1, ZETA2, ZETA3, ZETA4,
                      zeta2_commensurate_mpmath)


class TestHurwitzZeta:
    def test_non_finite_value_refused(self):
        # 0.3^-700 overflows: the true value, about 1e366, is no float64,
        # and inf used to be returned
        for s in (700.0, np.array([3.0, 700.0])):
            with pytest.raises(AccuracyError, match="hurwitz_zeta is not a "
                                                    "finite"):
                hurwitz_zeta(s, 0.3)
        # 7.3e156, still finite: within 4.5e-14 of mpmath
        ref = complex(mpmath.zeta(300, 0.3))
        assert abs(hurwitz_zeta(300.0, 0.3) - ref) <= 1e-12 * abs(ref)

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
        # the head would need about 1e208 terms, far beyond the row budget
        with pytest.raises(AccuracyError):
            hurwitz_zeta(0.5 + 1e200j, 0.3)

    def test_refuses_head_beyond_row_budget(self):
        # |Im s| = 2e4 needs about 2.1e4 head terms, past _CHUNK
        with pytest.raises(AccuracyError, match=f"exceeds {_CHUNK} terms"):
            hurwitz_zeta(0.5 + 2e4j, 0.3)
        with pytest.raises(AccuracyError, match=f"exceeds {_CHUNK} terms"):
            zeta2(0.5 + 1e4j, BarnesParams(0.7, 1.0, 1.0))

    def test_refuses_where_no_head_meets_the_bound(self):
        # e = Re s + 2J - power <= 0: Re s <= -24 for zeta_H, Re s <= -19
        # for the row sum of zeta_2, which at -20.5 was 8.3e26 off
        with pytest.raises(AccuracyError, match="no Euler-Maclaurin head"):
            hurwitz_zeta(-24.0 + 1j, 0.7)
        with pytest.raises(AccuracyError, match="no Euler-Maclaurin head"):
            zeta2(-20.5, BarnesParams(0.7, 1.0, 1.0))

    def test_former_cap_refusals_are_accurate(self):
        # the head-length cap of 64 refused these; the value at 1000i
        # would have been about 3e7 off.  Worst seen 2.6e-12
        s = 0.5 + 1000j
        ref = complex(mpmath.zeta(s, 0.3))
        assert abs(hurwitz_zeta(s, 0.3) - ref) <= 1e-11 * abs(ref)
        ref = _REACH_ZETA2[s, 0.7, 1, 1, 1.0]
        assert abs(zeta2(s, BarnesParams(0.7, 1.0, 1.0)) - ref) <= 1e-11 * abs(ref)
        # at lopsided weights the outer level refused first; the reference
        # is zeta2_commensurate_mpmath(s, 0.1, 49, 1, 0.1), computed once
        s = 0.5 + 160j
        ref = -4.28278384897247 - 4.788873738387842j
        for p in (BarnesParams(0.1, 4.9, 0.1), BarnesParams(0.1, 0.1, 4.9)):
            assert abs(zeta2(s, p) - ref) <= 1e-11 * abs(ref)

    def test_growing_terms_keep_short_heads(self):
        # at Re s < -1 the head's terms grow, and a head sized for an
        # absolute 2^-53 cancels in float64: at -6+100i it was 1.2e-5
        # (zeta_H) and 1.2e-2 (zeta_2) off.  Worst seen 1.1e-10 and
        # 4.3e-10; the former cap of 64 terms gave 4.7e-11 and 4.4e-9
        s = -6 + 100j
        ref = complex(mpmath.zeta(s, 0.7))
        assert abs(hurwitz_zeta(s, 0.7) - ref) <= 3e-10 * abs(ref)
        ref = zeta2_commensurate_mpmath(s, 0.7, 1, 1, 1.0)
        assert abs(zeta2(s, BarnesParams(0.7, 1.0, 1.0)) - ref) <= 3e-9 * abs(ref)
        # at -10+50i no head meets the jet floor, so both refuse; the cap
        # of 64 returned values 1.8e-5 and 1.2e-3 off
        with pytest.raises(AccuracyError, match="truncation error"):
            hurwitz_zeta(-10 + 50j, 0.7)
        with pytest.raises(AccuracyError, match="truncation error"):
            zeta2(-10 + 50j, BarnesParams(0.7, 1.0, 1.0))

    def test_within_head_length_reach_returns(self):
        s = 0.5 + 100j
        ref = complex(mpmath.zeta(s, 0.3))
        assert abs(hurwitz_zeta(s, 0.3) - ref) < 1e-11 * abs(ref)
        assert np.isfinite(zeta2(s, BarnesParams(0.7, 1.0, 1.0)))
        # (0.1; 4.9, 0.1) has weights 49:1 with t = 0.1
        s = 0.5 + 130j
        ref = 1.858771487093599 - 2.103060484020174j  # as at 160i
        assert abs(zeta2(s, BarnesParams(0.1, 4.9, 0.1)) - ref) < 1e-10 * abs(ref)

    def test_vectorized_matches_scalar(self):
        s = np.array([2.5 + 1j, -0.5 + 0j, 3.0 + 0j])
        vec = hurwitz_zeta(s, 0.7)
        for si, vi in zip(s, vec):
            assert vi == hurwitz_zeta(complex(si), 0.7)
        # a batch whose elements sum heads of different lengths, from zero
        # to dozens, must still match scalar calls bit for bit
        s = np.array([-2.5 + 0j, 0.5 + 3j, 2.0 + 0j, 6.0 - 40j])[:, None]
        a = np.geomspace(0.01, 1e4, 7)
        sizes = _head_length(s, a, 1.0, HURWITZ_J, 0)
        assert len(np.unique(sizes)) > 4 and sizes.min() == 0
        vec = hurwitz_zeta(s, a)
        for (i, j), vi in np.ndenumerate(vec):
            assert vi == hurwitz_zeta(complex(s[i, 0]), float(a[j]))

    def test_head_blocks_carry_the_sum(self):
        # 0.5+8000i needs a head of 7,558 terms.  Beside four more
        # elements with heads, the batch sums it in blocks of _CHUNK // 5
        # rows, a scalar call in one block; the sum so far opens each
        # block, so the bits must not differ
        s = np.array([0.5 + 8000j, 0.5 + 3j, -2.5 + 0j, 6.0 - 40j, 3.0 + 0j])
        sizes = _head_length(s, 0.3, 1.0, HURWITZ_J, 0)
        assert np.count_nonzero(sizes) * sizes.max() > _CHUNK
        vec = hurwitz_zeta(s, 0.3)
        for si, vi in zip(s, vec):
            assert vi == hurwitz_zeta(complex(si), 0.3)
        ref = complex(mpmath.zeta(s[0], 0.3))
        assert abs(vec[0] - ref) <= 1e-11 * abs(ref)

    def test_jet_on_lattice_rows_matches_scalar(self):
        # the limit formula's rows a_m = (alpha+m v)/w: head terms are built
        # only for the rows with a head, the first few; every slot of the
        # batch must equal the scalar call bit for bit
        a = (2.5 + 0.5 * np.arange(300)) / 2.5
        for c in (2.0, 1.0, 0.5 + 30j):
            sizes = _head_length(c, a, 1.0, HURWITZ_J, 0)
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


# References for TestReach, computed once with mpmath: zeta_H by
# mpmath.zeta at 30 digits, zeta_2 by conftest.zeta2_commensurate_mpmath,
# (s, alpha, p, q, t) for the weights (p t, q t)
_REACH_HURWITZ = {
    ((0.5+150j), 0.1): (4.0513217857990425+0.5400322501174631j),
    ((0.5-150j), 0.7): (-3.7309895031950964-1.2497571155744056j),
    ((0.5+150j), 3.3): (0.7084813949481529+1.157263837689653j),
    ((0.5+1000j), 0.1): (-1.1764799222395772-0.19215475008205007j),
    ((0.5-1000j), 0.7): (-0.26767870705726055+1.6710763231931627j),
    ((0.5+1000j), 3.3): (3.574623393957538-0.13118978518099284j),
    ((0.5+3000j), 0.1): (-4.432230531812208+1.2028772081627035j),
    ((0.5-3000j), 0.7): (-1.1616605237191178+1.8950924043363848j),
    ((0.5+3000j), 3.3): (1.7832979296981823-1.0015352766345655j),
    ((2+150j), 0.1): (98.19569508234622-19.152625372520568j),
    ((2-150j), 0.7): (-2.2657622044188717-0.21099702435115256j),
    ((2+150j), 3.3): (-0.048876778849792836+0.09688108509648609j),
    ((2+1000j), 0.1): (-97.28324284755641+19.230001039137598j),
    ((2-1000j), 0.7): (0.013321586063584696+2.2930111901395596j),
    ((2+1000j), 3.3): (0.13403161757558055-0.06671954073343261j),
    ((2+3000j), 0.1): (-82.94327102872687+56.80466476974695j),
    ((2-3000j), 0.7): (-0.7950824595879926-1.6240980998086925j),
    ((2+3000j), 3.3): (0.022954367414149364-0.07751614258897509j),
    ((6+150j), 0.1): (982486.6504963099-186333.05075779842j),
    ((6-150j), 0.7): (-8.483178927920768+0.7610307427895846j),
    ((6+150j), 3.3): (-0.0006818135463882414+0.000201896610257158j),
    ((6+1000j), 0.1): (-979602.3227165219+200944.09394746035j),
    ((6-1000j), 0.7): (0.8466358360945814+8.46777474636365j),
    ((6+1000j), 3.3): (0.0008382168794004898-0.00023188289836313438j),
    ((6+3000j), 0.1): (-821382.7367549965+570378.2434369475j),
    ((6-3000j), 0.7): (-2.639051472522672-8.053406340296949j),
    ((6+3000j), 3.3): (0.0005798985483706856-0.0003613895809146714j),
}
_REACH_ZETA2 = {
    ((0.5+150j), 0.7, 1, 1, 1.0): (-36.80764962183786+1.63107247384361j),
    ((0.5+150j), 0.7, 1, 2, 1.0): (-19.62720735110826+1.3661330849339135j),
    ((0.5+150j), 0.1, 49, 1, 0.1): (1.6472981632564527+1.2853185971233596j),
    ((2.5+150j), 0.7, 1, 1, 1.0): (-2.8818622148877315+0.4345564871601818j),
    ((2.5+150j), 0.7, 1, 2, 1.0): (-2.661638096962136+0.14672811406114816j),
    ((2.5+150j), 0.1, 49, 1, 0.1): (259.4257746240884-58.306582319123j),
    ((0.5+500j), 0.7, 1, 1, 1.0): (8.086956800572374-80.798570257707j),
    ((0.5+500j), 0.7, 1, 2, 1.0): (4.223905014153259-41.3679354455062j),
    ((0.5+500j), 0.1, 49, 1, 0.1): (2.5157742851777307-8.677564042371102j),
    ((2.5+500j), 0.7, 1, 1, 1.0): (-1.4074725129140457+0.7712751548085474j),
    ((2.5+500j), 0.7, 1, 2, 1.0): (-1.564890661222353+1.1775398481922768j),
    ((2.5+500j), 0.1, 49, 1, 0.1): (96.44937487064183+319.05479222677803j),
    ((0.5+1000j), 0.7, 1, 1, 1.0): (-53.34703566215248-49.303852092992585j),
    ((0.5+1000j), 0.7, 1, 2, 1.0): (-26.50139143128521-26.097053624619353j),
    ((0.5+1000j), 0.1, 49, 1, 0.1): (5.693832403513458-7.438307534145818j),
    ((2.5+1000j), 0.7, 1, 1, 1.0): (-0.0167608784710806-2.8871572370263294j),
    ((2.5+1000j), 0.7, 1, 2, 1.0): (0.15041449393633552-2.685872385604661j),
    ((2.5+1000j), 0.1, 49, 1, 0.1): (-290.7222646812329+90.87331534394986j),
}


class TestReach:
    """The head lengths follow (s, a) with no cap: on this mpmath grid every
    point is within 1e-11 relative (worst seen 1.9e-12 for zeta_H, 4.9e-12
    for zeta_2, both at Re s = 0.5)."""

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 6.0])
    def test_hurwitz_grid(self, sigma):
        for (s, a), ref in _REACH_HURWITZ.items():
            if s.real == sigma:
                assert abs(hurwitz_zeta(s, a) - ref) <= 1e-11 * abs(ref), (s, a)

    @pytest.mark.parametrize("t", [150.0, 500.0, 1e3])
    def test_zeta2_grid(self, t):
        # zeta_2 is symmetric in v, w, so one reference serves both orders,
        # which sum rows of step h = v/w and w/v
        for (s, alpha, p, q, step), ref in _REACH_ZETA2.items():
            if s.imag != t:
                continue
            for v, w in ((p * step, q * step), (q * step, p * step)):
                val = zeta2(s, BarnesParams(alpha, v, w))
                assert abs(val - ref) <= 1e-11 * abs(ref), (s, v, w)


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
