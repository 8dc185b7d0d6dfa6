"""Core numeric kernels: Bernoulli numbers, sawtooth integrals, contour
coefficient extraction, sequence acceleration, finite differences."""

import math

import numpy as np
import pytest

from barneszeta import (
    ContourSpec,
    bernoulli_numbers,
    contour_coefficients,
    frac_part_integral_1d,
    frac_part_integral_2d,
    richardson_extrapolate,
)
from barneszeta.errors import DomainError
from barneszeta.hurwitz import hurwitz_zeta
from barneszeta.numerics import _frac1d_core, central_difference, e_algorithm

from conftest import (EULER, I2_1114, brute_frac_1d, brute_frac_2d,
                      sawtooth_1d_mpmath)


class TestBernoulli:
    def test_known_values(self):
        b = bernoulli_numbers(12)
        assert b[0] == 1.0
        assert b[1] == -0.5
        assert b[2] == pytest.approx(1.0 / 6.0, abs=0)
        assert b[4] == pytest.approx(-1.0 / 30.0, abs=0)
        assert b[12] == pytest.approx(-691.0 / 2730.0, rel=1e-15)

    def test_recurrence_identity(self):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0 for 1 <= n <= 64
        b = bernoulli_numbers(64)
        for n in range(1, 65):
            acc = sum(math.comb(n + 1, j) * b[j] for j in range(n + 1))
            scale = max(abs(math.comb(n + 1, j) * b[j]) for j in range(n + 1))
            assert abs(acc) <= 1e-12 * max(scale, 1.0)

    def test_odd_indices_vanish(self):
        b = bernoulli_numbers(63)
        assert all(b[k] == 0.0 for k in range(3, 64, 2))


class TestContour:
    def test_simple_pole(self):
        spec = ContourSpec(center=2.0, radius=0.5, nodes=64, max_order=4)
        c = contour_coefficients(lambda z: 1.0 / (z - 2.0), spec, pole_order=1)
        assert abs(c[0] - 1.0) < 1e-12
        assert all(abs(ck) < 1e-12 for ck in c[1:])

    def test_exp_taylor(self):
        spec = ContourSpec(center=0.0, radius=1.0, nodes=64, max_order=8)
        c = contour_coefficients(np.exp, spec, pole_order=0)
        for k, ck in enumerate(c):
            assert abs(ck - 1.0 / math.factorial(k)) < 1e-12

    def test_hurwitz_pole(self):
        spec = ContourSpec(center=1.0, radius=0.5, nodes=128, max_order=2)
        c = contour_coefficients(lambda z: hurwitz_zeta(z, 1.0), spec,
                                 pole_order=1)
        assert abs(c[0] - 1.0) < 1e-12
        assert abs(c[1] - EULER) < 1e-12

    def test_node_and_radius_invariance(self):
        cases = [
            (lambda z: 1.0 / (z - 2.0), 2.0, 1, (0.3, 0.6)),
            (np.exp, 0.0, 0, (0.5, 1.0)),
            (lambda z: hurwitz_zeta(z, 1.0), 1.0, 1, (0.25, 0.5)),
        ]
        for f, center, po, radii in cases:
            base = contour_coefficients(
                f, ContourSpec(center=center, radius=radii[0], nodes=128,
                               max_order=3), po)
            doubled = contour_coefficients(
                f, ContourSpec(center=center, radius=radii[0], nodes=256,
                               max_order=3), po)
            moved = contour_coefficients(
                f, ContourSpec(center=center, radius=radii[1], nodes=128,
                               max_order=3), po)
            drift = max(abs(a - b) for a, b in zip(base, doubled))
            assert drift < 1e-10
            drift = max(abs(a - b) for a, b in zip(base, moved))
            assert drift < 1e-10

    def test_node_floor_enforced(self):
        with pytest.raises(ValueError):
            ContourSpec(center=0.0, radius=0.5, nodes=8, max_order=4)


class TestRichardson:
    def test_constant_sequence(self):
        val, err = richardson_extrapolate([(2 ** k, 3.5) for k in range(4, 9)],
                                          model=0)
        assert val == 3.5
        assert err == 0.0

    def test_pure_1_over_m(self):
        samples = [(2 ** k, 1.0 + 1.0 / 2 ** k) for k in range(4, 11)]
        val, _ = richardson_extrapolate(samples, model=0)
        assert abs(val - 1.0) < 1e-6

    def test_euler_constant_limit(self):
        samples = []
        for m in [2 ** k for k in range(6, 14)]:
            h = float(np.sum(1.0 / np.arange(1, m + 1)))
            samples.append((m, h - math.log(m)))
        val, _ = richardson_extrapolate(samples, model=0)
        assert abs(val - EULER) < 1e-8

    def test_exact_model_elimination(self):
        ms = np.array([2.0 ** k for k in range(4, 10)])
        ys = 2.0 + 3.0 * np.log(ms) / ms - 1.7 / ms
        val, _ = richardson_extrapolate(list(zip(ms, ys)), model=1)
        assert abs(val - 2.0) < 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([(16, 1.0), (32, 1.1)], model=1)
        with pytest.raises(ValueError):
            richardson_extrapolate([(32, 1.0), (16, 1.1), (64, 1.2)], model=1)

    def test_e_algorithm_exact_basis(self):
        ms = np.array([2.0 ** k for k in range(4, 9)])
        ys = 5.0 + 2.0 / ms + 0.3 / ms ** 2
        val, _ = e_algorithm(ys, [1.0 / ms, 1.0 / ms ** 2])
        assert abs(val - 5.0) < 1e-10


class TestFracPart1D:
    def test_one_minus_euler(self):
        # int_0^inf (x-[x])/(1+x)^2 dx = 1 - Euler
        val = frac_part_integral_1d(1.0, 1.0, 2.0)
        assert abs(val.real - (1.0 - EULER)) < 1e-10
        assert abs(val.imag) < 1e-14

    def test_brute_force_oracle(self):
        # a=2, c=3, s=2 against a plain midpoint rule
        ref1 = brute_frac_1d(2.0, 3.0, 2.0, 400.0, 1.0 / 1024)
        ref2 = brute_frac_1d(2.0, 3.0, 2.0, 400.0, 1.0 / 2048)
        ref = (4.0 * ref2 - ref1) / 3.0
        val = frac_part_integral_1d(2.0, 3.0, 2.0)
        assert abs(val.real - ref) < 1e-8

    def test_closed_form_within_bar(self, fixed_suite):
        # the (alpha, v) and (alpha, w) pairs verify_theorem1 integrates
        for p in fixed_suite:
            for c in (p.v, p.w):
                val, err = frac_part_integral_1d(p.alpha, c, 2.0,
                                                 with_error=True)
                assert abs(val - sawtooth_1d_mpmath(p.alpha, c, 2)) <= err

    def test_error_bound_refines(self):
        v1, e1 = _frac1d_core(1.0, 1.0, 2.5 + 0j, 1e-8)
        v2, e2 = _frac1d_core(1.0, 1.0, 2.5 + 0j, 5e-9)
        assert e2 <= e1
        assert abs(v1 - v2) <= e1 + e2

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            frac_part_integral_1d(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            frac_part_integral_1d(-1.0, 1.0, 2.0)


class TestFracPart2D:
    def test_closed_loop_value(self):
        val = frac_part_integral_2d(1.0, 1.0, 1.0, 4.0)
        assert abs(val.real - I2_1114) < 1e-9
        assert abs(val.imag) < 1e-14

    def test_brute_force_oracle(self):
        ref1 = brute_frac_2d(1.0, 2.0, 3.0, 5.0, 24.0, 1.0 / 128)
        ref2 = brute_frac_2d(1.0, 2.0, 3.0, 5.0, 24.0, 1.0 / 256)
        ref = (4.0 * ref2 - ref1) / 3.0
        val = frac_part_integral_2d(1.0, 2.0, 3.0, 5.0)
        assert abs(val.real - ref) < 1e-6

    def test_error_estimate_honest(self):
        val, err = frac_part_integral_2d(1.0, 1.0, 1.0, 4.0, with_error=True)
        assert abs(val.real - I2_1114) <= max(err, 1e-9)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            frac_part_integral_2d(1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            frac_part_integral_2d(0.0, 1.0, 1.0, 4.0)


class TestCentralDifference:
    def test_first_four_orders(self):
        val, _ = central_difference(math.sin, 1.0, 2e-2)
        assert abs(val - math.cos(1.0)) < 1e-9

    def test_halving_reduces_error(self):
        exact = math.cos(1.0)
        e_h, _ = central_difference(math.sin, 1.0, 2e-2)
        e_h2, _ = central_difference(math.sin, 1.0, 1e-2)
        assert abs(e_h2 - exact) * 3.5 < abs(e_h - exact)
