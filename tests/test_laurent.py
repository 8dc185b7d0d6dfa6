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
    gammak_at_1_limit,
    gammak_at_2_limit,
    hurwitz_zeta,
    laurent_at_1,
    laurent_at_2,
    residue_at_1,
    residue_at_2,
    stieltjes_constants,
    zeta2,
)
from barneszeta import barnes, hurwitz, laurent, numerics
from barneszeta.numerics import _hurwitz_jet
from barneszeta.laurent import _limit_formula

from conftest import (EULER, LAURENT_LOPSIDED_S1, LAURENT_V_EQ_W,
                      RAW_STIELTJES_1, ZETA_PRIME_0)


class TestResidues:
    def test_closed_forms(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = BarnesParams(*(0.3 + 3.0 * rng.random(3)))
            assert residue_at_2(p) == 1.0 / (p.v * p.w)
            assert residue_at_1(p) == (p.v + p.w - 2 * p.alpha) / (2 * p.v * p.w)

    def test_jet_matches_exact(self, fixed_suite):
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

    def test_lopsided_weights_within_bars(self):
        # every slot's error is about the absolute size that g_0, g_1 set
        exp = laurent_at_1(BarnesParams(0.1, 4.9, 0.1), 8)
        got = (exp.gamma_minus1, *exp.gammas)
        bars = (exp.err_minus1, *exp.errs)
        for k, (g, e, ref) in enumerate(zip(got, bars, LAURENT_LOPSIDED_S1),
                                        start=-1):
            assert abs(g - ref) <= e, (k, abs(g - ref), e)


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

    def test_matches_jet(self, fixed_suite):
        for p in fixed_suite:
            exp = laurent_at_2(p, 0)
            assert abs(gamma0_at_2_integral(p) - exp.gammas[0]) < 1e-6

    def test_one_hurwitz_call(self, monkeypatch):
        # zeta_H(s, alpha/v), zeta_H(s, alpha/w), the 1-D closed form's
        # zeta_H(s-1, alpha/max(v, w)) and the 2-D nodes in one call; the
        # two hurwitz_zeta and four sawtooth calls made six
        count = []

        def counted(c, a, n, poch=None):
            count.append(np.broadcast(np.asarray(c), np.asarray(a)).size)
            return _hurwitz_jet(c, a, n, poch)

        for mod in (numerics, hurwitz, barnes, laurent):
            monkeypatch.setattr(mod, "_hurwitz_jet", counted)
        gamma0_at_2_integral(BarnesParams(2.5, 0.5, 2.5))
        assert len(count) == 1, count

    def test_scaling_identity(self):
        # homogeneity: g_0(2) of (la, lv, lw) = (g_0(2) - log l/(vw)) / l^2
        p = BarnesParams(0.7, 1.3, 2.1)
        base = gamma0_at_2_integral(p)
        for lam in (0.5, 2.0):
            q = BarnesParams(lam * p.alpha, lam * p.v, lam * p.w)
            expected = (base - math.log(lam) / (p.v * p.w)) / lam ** 2
            assert abs(gamma0_at_2_integral(q) - expected) < 1e-6


class TestGammakAt2Limit:
    def test_matches_jet(self, fixed_suite):
        for p in fixed_suite:
            exp = laurent_at_2(p, 2)
            for k, val in enumerate(gammak_at_2_limit(p, 2).gammas):
                assert abs(val - exp.gammas[k]) < 1e-8

    @pytest.mark.parametrize("triple", [
        (1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 2.0), (2.0, 3.0, 1.0),
        (0.7, 1.3, 2.1), (2.5, 0.5, 2.5), (0.1, 4.9, 0.1), (0.1, 0.1, 4.9),
        (5.0, 5.0, 5.0), (1.569, 2.171, 0.239), (3.5667, 0.10588, 2.5665)])
    def test_err_bounds_error(self, triple):
        # the fixed five, the certify anchor, both lopsided triples, large
        # alpha, and two triples whose g_4(1) samples once jumped at M =
        # 1024: the reported err plus the jet's bar covers the gap, about
        # either pole
        p = BarnesParams(*triple)
        for center, jet, limit in ((2, laurent_at_2, gammak_at_2_limit),
                                   (1, laurent_at_1, gammak_at_1_limit)):
            exp, lim = jet(p, 4), limit(p, 4)
            for k, (val, err) in enumerate(zip(lim.gammas, lim.errs)):
                gap = abs(val - exp.gammas[k])
                assert gap <= err + exp.errs[k], (center, k, gap, err)

    def test_counterterm_jet_pole_is_residue(self):
        # the rows carry a pole (M+1)/hi at s = 1 and none at s = 2, so
        # the series carries the pole of zeta_2(s, A) itself: its residue,
        # whatever the start A
        p = BarnesParams(0.7, 1.3, 2.1)
        for m in (16, 362):
            start = p.alpha + (m + 1) * p.v
            jet = laurent._far_series(p, 2, start, 3)[0]
            assert jet.shape == (5,)
            assert abs(jet[0] - residue_at_2(p)) <= 1e-15 * residue_at_2(p)
            jet = laurent._far_series(p, 1, start, 3)[0]
            res = residue_at_1(BarnesParams(start, p.v, p.w))
            assert abs(jet[0] - res) <= 1e-15 * abs(res)

    @pytest.mark.parametrize("triple", [(0.7, 1.3, 2.1), (0.1, 4.9, 0.1),
                                        (3.5667, 0.10588, 2.5665)])
    def test_far_series_matches_jet(self, triple):
        # the far quadrant, zeta_2(s, alpha+363 lo; v, w), from its
        # large-A series against the Euler-Maclaurin jet, slots
        # eps^-1..eps^4, about either pole
        p = BarnesParams(*triple)
        start = p.alpha + 363 * min(p.v, p.w)
        for center in (1, 2):
            series, trunc, _ = laurent._far_series(p, center, start, 4)
            # the jet's top slot is not exact next to a pole: one more
            jet = barnes._zeta2_jet(float(center), BarnesParams(start, p.v, p.w),
                                    5)[:6]
            assert trunc < 1e-18
            assert np.all(np.abs(series - jet) <= 1e-13 * np.abs(jet)), \
                (center, np.abs(series / jet - 1))

    def test_no_outer_row_sum(self, monkeypatch):
        # the route shares only the Hurwitz evaluator with the jet: it
        # makes no call to the double zeta's outer Euler-Maclaurin row sum
        def refuse(*args):
            raise AssertionError("outer row sum called")

        monkeypatch.setattr(barnes, "_row_sum_jet", refuse)
        monkeypatch.setattr(laurent, "_row_sum_jet", refuse, raising=False)
        p = BarnesParams(0.7, 1.3, 2.1)
        for center, jet in ((2, laurent_at_2), (1, laurent_at_1)):
            with pytest.raises(AssertionError):
                jet(p, 4)
            assert len(_limit_formula(p, center, 4).gammas) == 5

    @pytest.mark.parametrize("triple", [(0.1, 4.9, 0.1), (2.5, 0.5, 2.5),
                                        (0.7, 2.1, 1.3)])
    def test_swap_symmetric(self, triple):
        # the rows run along min(v, w) whichever way (v, w) is given
        p = BarnesParams(*triple)
        for center in (1, 2):
            assert (_limit_formula(p, center, 4)
                    == _limit_formula(p.swapped(), center, 4))

    def test_hurwitz_work_of_default_limit(self, monkeypatch):
        # one call for the M+1 = 363 Hurwitz rows and nothing else
        count = []

        def counted(c, a, n, poch=None):
            count.append(np.broadcast(np.asarray(c), np.asarray(a)).size)
            return _hurwitz_jet(c, a, n, poch)

        monkeypatch.setattr(barnes, "_hurwitz_jet", counted)
        monkeypatch.setattr(laurent, "_hurwitz_jet", counted)
        gammak_at_2_limit(BarnesParams(0.7, 1.3, 2.1), 2)
        assert count == [363], count

    def test_pole_slot_is_residue(self, fixed_suite):
        # the route's own pole slot, on the fixed five and the eight
        # triples of the CI limit-formula step: at s = 1 it is (M+1)/hi
        # of the rows cancelled against the series', and lands within
        # 1e-12 of the closed form all the same
        ci = [(0.1, 4.9, 0.1), (0.1, 0.1, 4.9), (0.1, 0.1, 0.1),
              (5.0, 5.0, 5.0), (2.5, 0.5, 2.5),
              (3.1075792861307994, 0.11289069276886864, 4.560995172522605),
              (1.569, 2.171, 0.239), (3.5667, 0.10588, 2.5665)]
        for p in [*fixed_suite, *(BarnesParams(*t) for t in ci)]:
            for limit, residue in ((gammak_at_2_limit, residue_at_2),
                                   (gammak_at_1_limit, residue_at_1)):
                exp, res = limit(p, 4), residue(p)
                assert exp.method == "limit_formula"
                assert exp.center == (2 if limit is gammak_at_2_limit else 1)
                gap = abs(exp.gamma_minus1 - res)
                assert gap <= 1e-12 * max(1.0, abs(res)), (p, gap)

    def test_validation(self):
        p = BarnesParams(1, 1, 1)
        with pytest.raises(ValueError):
            gammak_at_2_limit(p, -1)
        # alpha + (v+w)M at or above 1e15 is refused, not thinned out
        with pytest.raises(ValueError, match=r"alpha \+ \(v\+w\)\*362"):
            gammak_at_2_limit(BarnesParams(1, 2e12, 2e12), 0)

    def test_orders_beyond_four_rejected(self):
        # the values and their err are only checked up to k = 4
        with pytest.raises(ValueError):
            gammak_at_2_limit(BarnesParams(1, 1, 1), 5)
