"""Certification suites: check/report plumbing and the identity suites
themselves on known parameter sets."""

import math

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    Check,
    VerificationReport,
    default_parameter_suite,
    estimate_C,
    run_suites,
    verify_bounds,
    verify_reduction,
    verify_theorem1,
    verify_theorem2_altsum,
    verify_theorem2_derivative,
    zeta2_s_derivatives_at_0,
)
from barneszeta.numerics import central_difference
from barneszeta.verify import _make_check, _bound_check

from conftest import EULER


class TestCheckPlumbing:
    def test_make_check_pass_fail(self):
        ok = _make_check("x", 1.0, 1.0 + 1e-12, 1e-10)
        bad = _make_check("x", 1.0, 1.1, 1e-10)
        assert ok.passed and not bad.passed

    def test_relative_tolerance_path(self):
        # huge values differing by small relative amounts still pass
        c = _make_check("x", 1e12, 1e12 * (1 + 1e-11), 1e-10)
        assert c.passed

    def test_bound_check(self):
        assert _bound_check("b", 0.5, 1.0).passed
        assert not _bound_check("b", 1.5, 1.0).passed

    def test_check_roundtrip(self):
        c = _make_check("roundtrip", 2.0, 2.5, 1e-3)
        assert Check.from_dict(c.to_dict()) == c

    def test_failed_check_carries_exception_text(self, monkeypatch):
        import barneszeta.verify as verify_mod

        def broken(p):
            raise RuntimeError("quadrature went away")

        monkeypatch.setattr(verify_mod, "gamma0_at_2_integral", broken)
        rep = verify_theorem1(BarnesParams(1, 1, 1), k_max=0)
        bad = next(c for c in rep.checks if c.id == "gamma0_integral_rep")
        assert not bad.passed
        assert bad.error == "quadrature went away"
        assert Check.from_dict(bad.to_dict()) == bad
        # the other checks did not raise, and a record without the key
        # reads back as None
        ok = next(c for c in rep.checks if c.id == "residue_s2")
        assert ok.error is None
        legacy = {k: v for k, v in ok.to_dict().items() if k != "error"}
        assert Check.from_dict(legacy) == ok


class TestReport:
    def _report(self):
        checks = [_make_check("b_second", 1.0, 1.0, 1e-10),
                  _make_check("a_first", 2.0, 2.0, 1e-10)]
        return VerificationReport("demo", checks, {"alpha": 1.0}, {})

    def test_checks_sorted_by_id(self):
        rep = self._report()
        assert [c.id for c in rep.checks] == ["a_first", "b_second"]

    def test_json_roundtrip(self):
        rep = self._report()
        back = VerificationReport.from_json(rep.to_json())
        assert back.suite == rep.suite
        assert back.checks == rep.checks
        assert back.passed

    def test_csv_header_and_rows(self):
        rows = list(self._report().csv_rows())
        assert rows[0] == "id,lhs,rhs,abs_err,rel_err,tol,pass"
        assert len(rows) == 3
        assert rows[1].startswith("a_first,")
        assert rows[1].endswith(",true")


class TestParameterSuite:
    def test_deterministic(self):
        assert default_parameter_suite(1) == default_parameter_suite(1)
        assert default_parameter_suite(1) != default_parameter_suite(2)

    def test_shape(self):
        suite = default_parameter_suite(n_random=3)
        assert len(suite) == 8
        assert suite[0] == BarnesParams(1.0, 1.0, 1.0)
        assert all(0.1 < p.alpha <= 5.0 for p in suite[5:])


class TestTheorem1:
    def test_unit_parameters(self):
        rep = verify_theorem1(BarnesParams(1, 1, 1), k_max=2)
        assert rep.passed
        g0 = next(c for c in rep.checks if c.id == "gamma0_limit_formula")
        assert abs(g0.lhs - EULER) < 1e-9

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            verify_theorem1(BarnesParams(1, 1, 1), k_max=5)


class TestTheorem2:
    def test_derivative_suite_passes(self):
        rep = verify_theorem2_derivative(BarnesParams(0.7, 1.3, 2.1), k_max=3)
        assert rep.passed
        assert {c.id for c in rep.checks} == {
            "deriv_k-1", "deriv_k+0", "deriv_k+1", "deriv_k+2", "deriv_k+3"}

    def test_k_minus1_closed_form(self):
        # v=w=1: residue at s=1 is 1-alpha, and -d/dalpha of the s=0 value
        # must match it; probe the finite difference explicitly
        def f(alpha):
            return zeta2_s_derivatives_at_0(
                BarnesParams(alpha, 1.0, 1.0), 0)[0].real

        for alpha in (0.5, 1.0, 1.7):
            val, _ = central_difference(f, alpha, 1e-2)
            assert abs(-val - (1.0 - alpha)) < 1e-8

    def test_fd_order_two(self):
        # halving h must cut the central-difference error by >= 3x; the
        # s=0 value itself is polynomial in alpha at v=w=1, so probe the
        # s-slope coefficient, which is not
        def f(alpha):
            return zeta2_s_derivatives_at_0(
                BarnesParams(alpha, 1.0, 1.0), 1)[1].real

        exact, _ = central_difference(f, 0.8, 2e-2)
        e_h = abs(central_difference(f, 0.8, 0.2)[0] - exact)
        e_h2 = abs(central_difference(f, 0.8, 0.1)[0] - exact)
        assert e_h2 * 3.0 < e_h

    def test_small_alpha_reports_every_order(self):
        # alpha below fd_step: the alpha step shrinks to alpha/4, so each
        # order gets a real check instead of one failed suite
        rep = verify_theorem2_derivative(BarnesParams(0.004, 1, 1), k_max=0)
        assert {c.id for c in rep.checks} == {"deriv_k-1", "deriv_k+0"}
        for c in rep.checks:
            assert math.isfinite(c.lhs) and math.isfinite(c.rhs)
            assert c.error is None
        assert next(c for c in rep.checks if c.id == "deriv_k-1").passed

    def test_altsum_unit_parameters(self):
        rep = verify_theorem2_altsum(BarnesParams(1, 1, 1), k_max=3)
        assert rep.passed
        # k=0: -d/da g_{-1}(1) + d/da g_0(1) evaluated at alpha=1 gives
        # 1 + (Euler - 1) + ... = Euler = g_0(2); spot the rhs value
        k0 = next(c for c in rep.checks if c.id == "altsum_k0")
        assert abs(k0.rhs - EULER) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_theorem2_derivative(BarnesParams(1, 1, 1), k_max=4)
        with pytest.raises(ValueError):
            verify_theorem2_altsum(BarnesParams(1, 1, 1), k_max=4)


class TestReduction:
    def test_requires_equal_weights(self):
        with pytest.raises(ValueError):
            verify_reduction(BarnesParams(1.0, 1.0, 2.0), [3.0])

    def test_grid_passes(self):
        grid = [complex(sig, t) for sig in (-0.5, 0.5, 3.0) for t in (-2.0, 1.5)]
        rep = verify_reduction(BarnesParams(0.5, 1.0, 1.0), grid)
        assert rep.passed

    def test_unattainable_tolerance_fails(self):
        rep = verify_reduction(BarnesParams(1.0, 1.0, 1.0), [3.0 + 1.0j],
                               tol=1e-30)
        assert not rep.passed

    def test_run_suites_passes_tol_through(self):
        reports = run_suites(("reduction",), tol=0.0)
        assert all(c.tol == 0.0 for r in reports for c in r.checks)


class TestBounds:
    def test_default_suite_passes(self):
        rep = verify_bounds()
        assert rep.passed
        assert len(rep.checks) == 4 * 10 + 10

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_bounds(k_max=0)
        with pytest.raises(ValueError):
            verify_bounds(a_list=(2.0,))


class TestEstimateC:
    def test_alpha_independent_and_symmetric(self):
        grid = [BarnesParams(a, 1.0, 2.0) for a in (0.5, 1.0, 1.5)]
        est = estimate_C(grid)
        assert est.spread < 1e-4
        assert not est.warning
        swapped = estimate_C([BarnesParams(a, 2.0, 1.0)
                              for a in (0.5, 1.0, 1.5)])
        assert abs(est.value - swapped.value) < 1e-6

    def test_unit_weights_value(self):
        est = estimate_C([BarnesParams(a, 1.0, 1.0) for a in (0.5, 1.0)])
        # fitted-log normalization lands near 1 + log 2
        assert abs(est.value - (1.0 + math.log(2.0))) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_C([BarnesParams(1.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            estimate_C([BarnesParams(1.0, 1.0, 1.0),
                        BarnesParams(1.0, 1.0, 2.0)])


class TestRunSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suites(["nope"])

    def test_single_suite(self):
        reports = run_suites(["bounds"])
        assert len(reports) == 1
        assert reports[0].suite == "bounds"
        assert reports[0].passed

    def test_reduction_suite_passes(self):
        reports = run_suites(["reduction"])
        assert len(reports) == 3
        assert all(r.passed for r in reports)
