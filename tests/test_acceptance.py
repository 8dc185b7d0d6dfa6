"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line with its pinned tolerance so
a log scrape shows the full scorecard; the assert mirrors the printed
verdict.
"""

import math
import time

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    cli,
    gamma0_at_2_integral,
    gammak_at_2_limit,
    hurwitz_zeta,
    laurent_at_1,
    laurent_at_2,
    residue_at_1,
    residue_at_2,
    stieltjes_constants,
    verify_bounds,
    verify_theorem2_altsum,
    verify_theorem2_derivative,
    zeta2,
    zeta2_s_derivatives_at_0,
)
from barneszeta.numerics import central_difference
from barneszeta.verify import default_parameter_suite

from conftest import EULER, RAW_STIELTJES_1, ZETA_PRIME_0


def verdict(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, desc


@pytest.fixture(scope="module")
def ten_triples():
    return default_parameter_suite()


class TestAcceptance:
    def test_01_residue_s2(self, ten_triples):
        started = time.perf_counter()
        worst = max(abs(laurent_at_2(p, 0).gamma_minus1 - residue_at_2(p))
                    for p in ten_triples)
        elapsed = time.perf_counter() - started
        ok = worst < 1e-10 and elapsed < 5.0
        verdict(1, ok, f"s=2 residue, 10 triples: max err {worst:.2e} "
                       f"(tol 1e-10), {elapsed:.2f}s (budget 5s)")

    def test_02_residue_s1(self, ten_triples):
        worst = max(abs(laurent_at_1(p, 0).gamma_minus1 - residue_at_1(p))
                    for p in ten_triples)
        verdict(2, worst < 1e-10,
                f"s=1 residue, 10 triples: max err {worst:.2e} (tol 1e-10)")

    def test_03_equal_weight_reduction(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        count = 0
        while count < 40:
            s = complex(-0.5 + 4.5 * rng.random(), -5.0 + 10.0 * rng.random())
            if abs(s - 1.0) < 0.1 or abs(s - 2.0) < 0.1:
                continue
            count += 1
            alpha, v = float(0.3 + 1.7 * rng.random()), float(0.5 + rng.random())
            a = alpha / v
            lhs = zeta2(s, BarnesParams(alpha, v, v))
            rhs = v ** (-s) * (hurwitz_zeta(s - 1.0, a)
                               + (1.0 - a) * hurwitz_zeta(s, a))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        verdict(3, worst < 1e-9,
                f"v=w reduction on 40 random s: max err {worst:.2e} (tol 1e-9)")

    def test_04_stieltjes_match_at_s2(self):
        exp = laurent_at_2(BarnesParams(1, 1, 1), 4)
        table = stieltjes_constants(1.0, 4)
        worst = max(abs(exp.gammas[k] - table.gammas[k]) for k in range(5))
        g0_err = abs(exp.gammas[0] - 0.5772156649)
        ok = worst < 1e-8 and g0_err < 1e-8
        verdict(4, ok, f"s=2 coefficients vs Hurwitz route, k=0..4: "
                       f"max err {worst:.2e}, g_0 err {g0_err:.2e} (tol 1e-8)")

    def test_05_s1_expansion_unit(self):
        exp = laurent_at_1(BarnesParams(1, 1, 1), 1)
        e_res = abs(exp.gamma_minus1)
        e_g0 = abs(exp.gammas[0] + 0.5)
        e_g1 = abs(exp.gammas[1] - ZETA_PRIME_0)
        ok = e_res < 1e-10 and e_g0 < 1e-8 and e_g1 < 1e-7
        verdict(5, ok, f"s=1 expansion at (1,1,1): residue {e_res:.2e} "
                       f"(1e-10), g_0 {e_g0:.2e} (1e-8), g_1 {e_g1:.2e} (1e-7)")

    def test_06_gamma0_integral_rep(self, fixed_suite):
        worst, slowest = 0.0, 0.0
        for p in fixed_suite:
            started = time.perf_counter()
            val = gamma0_at_2_integral(p)
            slowest = max(slowest, time.perf_counter() - started)
            worst = max(worst, abs(val - laurent_at_2(p, 0).gammas[0]))
        ok = worst < 1e-6 and slowest < 10.0
        verdict(6, ok, f"constant-term integral vs jet, 5 sets: "
                       f"max err {worst:.2e} (tol 1e-6), slowest "
                       f"{slowest:.2f}s (budget 10s)")

    def test_07_limit_formulas(self, fixed_suite):
        worst = 0.0
        for p in fixed_suite:
            exp = laurent_at_2(p, 2)
            for k, val in enumerate(gammak_at_2_limit(p, 2).gammas):
                worst = max(worst, abs(val - exp.gammas[k]))
        verdict(7, worst < 1e-8,
                f"finite-M limit formulas k=0..2, 5 sets: "
                f"max err {worst:.2e} (tol 1e-8)")

    def test_08_derivative_relation(self, fixed_suite):
        worst = 0.0
        for p in fixed_suite:
            rep = verify_theorem2_derivative(p, k_max=3, tol=1e-6)
            worst = max(worst, max(c.abs_err for c in rep.checks))

        def value_at_0(alpha):
            return zeta2_s_derivatives_at_0(
                BarnesParams(alpha, 1.0, 1.0), 0)[0].real

        closed_worst = 0.0
        for alpha in (0.5, 1.0, 1.7):
            d, _ = central_difference(
                lambda xs: np.array([value_at_0(x) for x in xs]), alpha, 1e-2)
            closed_worst = max(closed_worst, abs(-d - (1.0 - alpha)))
        ok = worst < 1e-6 and closed_worst < 1e-8
        verdict(8, ok, f"s=1 coefficients vs alpha-derivatives k=-1..3, "
                       f"5 sets: max err {worst:.2e} (tol 1e-6); closed-form "
                       f"residue check {closed_worst:.2e} (tol 1e-8)")

    def test_09_alternating_sum(self, fixed_suite):
        worst = 0.0
        for p in fixed_suite:
            rep = verify_theorem2_altsum(p, k_max=3, tol=1e-4)
            worst = max(worst, max(c.abs_err for c in rep.checks))
        rep0 = verify_theorem2_altsum(BarnesParams(1, 1, 1), k_max=0)
        euler_err = abs(rep0.checks[0].lhs - EULER)
        ok = worst < 1e-4 and euler_err < 1e-4
        verdict(9, ok, f"alternating-sum relation k=0..3, 5 sets: max err "
                       f"{worst:.2e} (tol 1e-4); k=0 at (1,1,1) lands on "
                       f"Euler within {euler_err:.2e}")

    def test_10_coefficient_bounds(self):
        rep = verify_bounds()
        verdict(10, rep.passed,
                f"classical coefficient bounds, k=1..10: "
                f"{sum(c.passed for c in rep.checks)}/{len(rep.checks)} hold")

    def test_11_structural_identities(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(5):
            p = BarnesParams(*(0.3 + 3.0 * rng.random(3)))
            s = complex(3.0, float(-4.0 + 8.0 * rng.random()))
            lam = float(0.5 + 2.0 * rng.random())
            q = BarnesParams(lam * p.alpha, lam * p.v, lam * p.w)
            worst = max(worst, abs(zeta2(s, q) - lam ** (-s) * zeta2(s, p))
                        / max(1.0, abs(zeta2(s, p))))
            worst = max(worst, abs(zeta2(s, p) - zeta2(s, p.swapped())))
            shifted = BarnesParams(p.alpha + p.v, p.v, p.w)
            rec = p.w ** (-s) * hurwitz_zeta(s, p.alpha / p.w)
            worst = max(worst, abs(zeta2(s, p) - zeta2(s, shifted) - rec)
                        / max(1.0, abs(rec)))
        verdict(11, worst < 1e-10,
                f"homogeneity/symmetry/row-removal, random triples: "
                f"max err {worst:.2e} (tol 1e-10)")

    def test_12_full_verify_cli(self, capsys):
        started = time.perf_counter()
        code = cli.main(["verify", "--suite", "all"])
        elapsed = time.perf_counter() - started
        capsys.readouterr()
        ok = code == 0 and elapsed < 180.0
        verdict(12, ok, f"cli verify --suite all: exit {code}, "
                        f"{elapsed:.1f}s (budget 180s)")
