"""Laurent coefficients of the double zeta at both poles, from the
Euler-Maclaurin jet, the closed integral form of the s=2 constant term,
and the finite-M limit formulas."""

import math

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    LaurentExpansion,
    gamma0_at_2_integral,
    gammak_at_2_limit,
    hurwitz_zeta,
    laurent_at_1,
    laurent_at_2,
    residue_at_1,
    residue_at_2,
    stieltjes_constants,
    zeta2,
)
from barneszeta.laurent import _lattice_log_sums

from conftest import (EULER, LAURENT_V_EQ_W, RAW_STIELTJES_1, ZETA_PRIME_0,
                      brute_lattice_log_sums)


class TestResidues:
    def test_closed_forms(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = BarnesParams(*(0.3 + 3.0 * rng.random(3)))
            assert residue_at_2(p) == 1.0 / (p.v * p.w)
            assert residue_at_1(p) == (p.v + p.w - 2 * p.alpha) / (2 * p.v * p.w)

    def test_contour_matches_exact(self, fixed_suite):
        for p in fixed_suite:
            e2 = laurent_at_2(p, 0)
            e1 = laurent_at_1(p, 0)
            assert abs(e2.gamma_minus1 - residue_at_2(p)) < 1e-10
            assert abs(e1.gamma_minus1 - residue_at_1(p)) < 1e-10


class TestLaurentAt2:
    def test_unit_parameters_match_riemann(self):
        # zeta_2(s,1;1,1) = zeta(s-1), so the s=2 coefficients are the raw
        # Stieltjes coefficients of zeta about its pole
        exp = laurent_at_2(BarnesParams(1, 1, 1), 4)
        for k, expected in enumerate(RAW_STIELTJES_1):
            assert abs(exp.gammas[k] - expected) < 1e-10

    def test_half_alpha_constant_term(self):
        # zeta_2(s,1/2;1,1) = zeta_H(s-1,1/2) + (1/2) zeta_H(s,1/2), so
        # g_0(2) = g_0^H(1/2) + (1/2) zeta_H(2,1/2) = Euler + 2 log 2 + pi^2/4
        expected = EULER + 2 * math.log(2.0) + math.pi ** 2 / 4.0
        exp = laurent_at_2(BarnesParams(0.5, 1.0, 1.0), 0)
        assert abs(exp.gammas[0] - expected) < 1e-10

    def test_reconstruction_on_circle(self, fixed_suite):
        for p in fixed_suite:
            exp = laurent_at_2(p, 12)
            for theta in np.linspace(0.0, 2 * math.pi, 6, endpoint=False):
                s = 2.0 + 0.25 * complex(math.cos(theta), math.sin(theta))
                assert abs(exp.evaluate(s) - zeta2(s, p)) < 1e-8

    def test_error_estimate_honest(self):
        # equal-weight reduction oracle for the constant term
        p = BarnesParams(0.5, 1.0, 1.0)
        exp = laurent_at_2(p, 0)
        table = stieltjes_constants(0.5, 0)
        oracle = table.gammas[0] + 0.5 * hurwitz_zeta(2.0, 0.5).real
        assert abs(exp.gammas[0] - oracle) <= max(exp.errs[0], 1e-9)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            laurent_at_2(BarnesParams(1, 1, 1), 13)


class TestLaurentAt1:
    def test_unit_parameters(self):
        # zeta(s-1) about s=1: residue 0, value zeta(0) = -1/2,
        # slope zeta'(0) = -log(2 pi)/2
        exp = laurent_at_1(BarnesParams(1, 1, 1), 1)
        assert abs(exp.gamma_minus1) < 1e-10
        assert abs(exp.gammas[0] + 0.5) < 1e-10
        assert abs(exp.gammas[1] - ZETA_PRIME_0) < 1e-9

    def test_half_alpha_residue(self):
        exp = laurent_at_1(BarnesParams(0.5, 1.0, 1.0), 0)
        assert abs(exp.gamma_minus1 - 0.5) < 1e-10

    def test_reconstruction_on_circle(self):
        p = BarnesParams(0.7, 1.3, 2.1)
        exp = laurent_at_1(p, 12)
        for theta in np.linspace(0.0, 2 * math.pi, 6, endpoint=False):
            s = 1.0 + 0.25 * complex(math.cos(theta), math.sin(theta))
            assert abs(exp.evaluate(s) - zeta2(s, p)) < 1e-8


class TestJetAgainstMpmath:
    @pytest.mark.parametrize("key", sorted(LAURENT_V_EQ_W),
                             ids=lambda k: f"alpha={k[0]},v=w={k[1]},s={k[2]}")
    def test_orders_minus1_to_12(self, key):
        alpha, v, center = key
        fn = laurent_at_1 if center == 1 else laurent_at_2
        exp = fn(BarnesParams(alpha, v, v), 12)
        assert exp.method == "em"
        got = (exp.gamma_minus1, *exp.gammas)
        bars = (exp.err_minus1, *exp.errs)
        for k, (g, e, ref) in enumerate(zip(got, bars, LAURENT_V_EQ_W[key]),
                                        start=-1):
            err = abs(g - ref)
            assert err <= 1e-11 * max(1.0, abs(ref)), (k, err)
            assert err <= e, (k, err, e)


class TestExpansionDataclass:
    def test_center_validation(self):
        with pytest.raises(ValueError):
            LaurentExpansion(center=3, gamma_minus1=0.0, err_minus1=0.0,
                             gammas=(), errs=(), method="em")
        with pytest.raises(ValueError):
            LaurentExpansion(center=2, gamma_minus1=0.0, err_minus1=0.0,
                             gammas=(1.0,), errs=(), method="em")

    def test_evaluate_principal_part(self):
        exp = LaurentExpansion(center=2, gamma_minus1=3.0, err_minus1=0.0,
                               gammas=(1.0, 2.0), errs=(0.0, 0.0),
                               method="em")
        s = 2.5
        assert exp.evaluate(s) == 3.0 / 0.5 + 1.0 + 2.0 * 0.5


class TestGamma0At2Integral:
    def test_unit_parameters_euler(self):
        assert abs(gamma0_at_2_integral(BarnesParams(1, 1, 1)) - EULER) < 1e-8

    def test_matches_contour(self, fixed_suite):
        for p in fixed_suite:
            exp = laurent_at_2(p, 0)
            assert abs(gamma0_at_2_integral(p) - exp.gammas[0]) < 1e-6

    def test_scaling_identity(self):
        # homogeneity: g_0(2) of (la, lv, lw) = (g_0(2) - log l/(vw)) / l^2
        p = BarnesParams(0.7, 1.3, 2.1)
        base = gamma0_at_2_integral(p)
        for lam in (0.5, 2.0):
            q = BarnesParams(lam * p.alpha, lam * p.v, lam * p.w)
            expected = (base - math.log(lam) / (p.v * p.w)) / lam ** 2
            assert abs(gamma0_at_2_integral(q) - expected) < 1e-6


class TestGammakAt2Limit:
    def test_matches_contour(self, fixed_suite):
        for p in fixed_suite:
            exp = laurent_at_2(p, 2)
            for k, (val, err) in enumerate(gammak_at_2_limit(p, 2)):
                assert abs(val - exp.gammas[k]) < 1e-4

    def test_unaccelerated_path(self):
        p = BarnesParams(1, 1, 1)
        # two samples: no Richardson step
        (val, err), = gammak_at_2_limit(p, 0, m_list=[512, 1024])
        assert abs(val - EULER) < 5e-2
        assert err > 0

    def test_validation(self):
        p = BarnesParams(1, 1, 1)
        with pytest.raises(ValueError):
            gammak_at_2_limit(p, -1)
        with pytest.raises(ValueError):
            gammak_at_2_limit(p, 0, m_list=[8, 32, 64])

    def test_orders_beyond_four_rejected(self):
        # the Richardson model is only checked up to k = 4; beyond it the
        # samples are far from converged at the default M
        with pytest.raises(ValueError):
            gammak_at_2_limit(BarnesParams(1, 1, 1), 5)


class TestLatticeLogSums:
    @pytest.mark.parametrize("triple", [(0.7, 1.3, 2.1), (2.5, 0.5, 2.5),
                                        (0.1, 4.9, 0.1)])
    def test_row_differences_match_brute_grid(self, triple):
        p = BarnesParams(*triple)
        ms = (16, 64, 1024)
        sums2 = _lattice_log_sums(p, 2, ms)
        sums1 = _lattice_log_sums(p, 0, ms, power=1)
        for m in ms:
            for k in range(3):
                ref = brute_lattice_log_sums(p, k, m, 2)
                assert abs(sums2[m][k] - ref) <= 1e-13 * abs(ref), (m, k)
            ref = brute_lattice_log_sums(p, 0, m, 1)
            assert abs(sums1[m][0] - ref) <= 1e-13 * abs(ref), m
