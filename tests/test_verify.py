"""Certification suites: check/report plumbing and the identity suites
themselves on known parameter sets."""

import copy
import math

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    Check,
    VerificationReport,
    default_parameter_suite,
    run_suites,
    verify_bounds,
    verify_reduction,
    verify_theorem1,
    verify_theorem1_s1,
    verify_theorem2_altsum,
    verify_theorem2_derivative,
    zeta2_s_derivatives_at_0,
)
from barneszeta.config import SNAPSHOT
from barneszeta.numerics import central_difference
from barneszeta.verify import TOL_INTEGRAL, _bound_check, _make_check

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fails(self, bad):
        # a non-finite side fails; for NaN, max() would keep it as the
        # scale (rel_err 0) and max(0.0, nan) would drop the excess
        for lhs, rhs in ((bad, 1.0), (1.0, bad), (bad, bad)):
            c = _make_check("m", lhs, rhs, 1e-9)
            assert not c.passed, (lhs, rhs, c)
            assert not _bound_check("b", lhs, rhs).passed, (lhs, rhs)
        assert not _make_check("m", complex(1.0, bad), 1.0, 1e-9).passed
        assert math.isnan(_make_check("m", math.nan, 1.0, 1e-9).rel_err)
        assert math.isnan(_bound_check("b", math.nan, 1.0).abs_err)

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

    def test_config_shared(self):
        # every report holds the one SNAPSHOT, and its JSON is the one a
        # private copy gives
        a, b = VerificationReport("a", []), VerificationReport("b", [])
        assert a.config is b.config is SNAPSHOT
        own = VerificationReport("a", [], config=copy.deepcopy(SNAPSHOT))
        assert a.to_json() == own.to_json()
        assert a.to_dict() == own.to_dict()

    def test_to_dict_config_is_a_copy(self):
        # editing a serialised report must not reach SNAPSHOT
        before = copy.deepcopy(SNAPSHOT)
        d = VerificationReport("a", []).to_dict()
        d["config"]["quad"]["cell_order"] = -1
        d["config"]["em_order"] = -1
        assert SNAPSHOT == before
        assert VerificationReport("b", []).to_dict()["config"] == before

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
        suite = default_parameter_suite()
        assert len(suite) == 10
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

    def test_lopsided_limit_formula_to_k4(self):
        # w/v = 40: the fitted route was 1.04e-5 relative off at k = 4 under
        # a first-order counterterm; 363 Hurwitz rows and the far
        # quadrant's series bring it to about 1e-14, well inside TOL_LIMIT
        rep = verify_theorem1(BarnesParams(3.1075792861307994,
                                           0.11289069276886864,
                                           4.560995172522605), k_max=4)
        assert rep.passed, [c for c in rep.checks if not c.passed]

    def test_integral_form_tolerance(self):
        # worst min(abs, rel) error seen 2.1e-13 over four 1,000-triple sweeps
        # of (0.1, 5]^3, 5.2e-13 at another seed; tol= still overrides
        p = BarnesParams(0.7, 1.3, 2.1)
        for tol, want in ((None, TOL_INTEGRAL), (1e-3, 1e-3)):
            rep = verify_theorem1(p, k_max=0, tol=tol)
            check = next(c for c in rep.checks if c.id == "gamma0_integral_rep")
            assert check.tol == want and check.passed

    def test_check_ids_shared_between_reports(self):
        # the ids are module constants: reports hold one copy, same order
        p = BarnesParams(1, 1, 1)
        for suite, ids in (
                (lambda: verify_theorem1(p, k_max=2),
                 ["gamma0_integral_rep", "gamma0_limit_formula",
                  "gamma1_limit_formula", "gamma2_limit_formula", "residue_s2"]),
                (lambda: verify_theorem1_s1(p),
                 ["gamma0_limit_formula_s1", "gamma1_limit_formula_s1",
                  "residue_s1"]),
                (lambda: verify_theorem2_derivative(p),
                 ["deriv_k+0", "deriv_k+1", "deriv_k+2", "deriv_k+3",
                  "deriv_k-1"]),
                (lambda: verify_theorem2_altsum(p),
                 ["altsum_k0", "altsum_k1", "altsum_k2", "altsum_k3"])):
            a, b = suite(), suite()
            assert [c.id for c in a.checks] == ids
            assert all(x.id is y.id for x, y in zip(a.checks, b.checks))

    def test_lopsided_integral_form(self):
        # boundary layers of width alpha/max(v, w) = 1/49 and 1/50; the
        # sawtooth integrals take them in closed form
        for p in (BarnesParams(0.1, 4.9, 0.1), BarnesParams(0.1, 0.1, 4.9),
                  BarnesParams(0.1, 5.0, 5.0)):
            rep = verify_theorem1(p)
            assert rep.passed, p
            check = next(c for c in rep.checks if c.id == "gamma0_integral_rep")
            assert check.abs_err <= 1e-10, p


class TestTheorem1S1:
    def test_unit_parameters(self):
        rep = verify_theorem1_s1(BarnesParams(1, 1, 1))
        assert rep.passed
        assert {c.id for c in rep.checks} == {
            "residue_s1", "gamma0_limit_formula_s1", "gamma1_limit_formula_s1"}
        g0 = next(c for c in rep.checks if c.id == "gamma0_limit_formula_s1")
        assert g0.abs_err < 1e-9


class TestTheorem2:
    def test_derivative_suite_passes(self):
        rep = verify_theorem2_derivative(BarnesParams(0.7, 1.3, 2.1), k_max=3)
        assert rep.passed
        assert {c.id for c in rep.checks} == {
            "deriv_k-1", "deriv_k+0", "deriv_k+1", "deriv_k+2", "deriv_k+3"}

    def test_k_minus1_closed_form(self):
        # v=w=1: residue at s=1 is 1-alpha, and -d/dalpha of the s=0 value
        # must match it; probe the finite difference explicitly
        def f(alphas):
            return np.array([zeta2_s_derivatives_at_0(
                BarnesParams(a, 1.0, 1.0), 0)[0].real for a in alphas])

        for alpha in (0.5, 1.0, 1.7):
            val, _ = central_difference(f, alpha, 1e-2)
            assert abs(-val - (1.0 - alpha)) < 1e-8

    def test_fd_order_two(self):
        # halving h must cut the central-difference error by >= 3x; the
        # s=0 value itself is polynomial in alpha at v=w=1, so probe the
        # s-slope coefficient, which is not
        def f(alphas):
            return np.array([zeta2_s_derivatives_at_0(
                BarnesParams(a, 1.0, 1.0), 1)[1].real for a in alphas])

        exact, _ = central_difference(f, 0.8, 2e-2)
        e_h = abs(central_difference(f, 0.8, 0.2)[0] - exact)
        e_h2 = abs(central_difference(f, 0.8, 0.1)[0] - exact)
        assert e_h2 * 3.0 < e_h

    def test_small_alpha_reports_every_order(self):
        # the alpha steps are fractions of alpha, so each order gets a real
        # check instead of one failed suite
        rep = verify_theorem2_derivative(BarnesParams(0.004, 1, 1), k_max=0)
        assert {c.id for c in rep.checks} == {"deriv_k-1", "deriv_k+0"}
        for c in rep.checks:
            assert math.isfinite(c.lhs) and math.isfinite(c.rhs)
            assert c.error is None
        assert next(c for c in rep.checks if c.id == "deriv_k-1").passed

    @pytest.mark.parametrize("triple", [(0.1, 4.9, 0.1), (0.1, 0.1, 4.9),
                                        (0.1, 5.0, 5.0), (0.1, 1.0, 1.0),
                                        (0.05, 2.0, 3.0)])
    def test_small_alpha_passes(self, triple):
        # a step of 5e-3 at alpha = 0.1 left an h^4 error of 1.6e-6
        # relative at k = 3; steps relative to alpha keep it below 1e-7
        p = BarnesParams(*triple)
        assert verify_theorem2_derivative(p, k_max=3).passed
        assert verify_theorem2_altsum(p, k_max=3).passed

    @pytest.mark.parametrize("triple", [(0.3, 0.5, 2.5),
                                        (0.33535, 2.03273, 1.42613),
                                        (0.34487, 2.46809, 2.47384),
                                        (0.55862, 1.11065, 2.05339),
                                        (2.5, 0.5, 2.5)])
    def test_error_steady_over_alpha(self, triple):
        # a step fixed in alpha left 1.3e-7 at alpha = 0.34 and 3e-11 at
        # alpha = 2.5; steps relative to alpha keep every order near the
        # jets' own rounding
        p = BarnesParams(*triple)
        checks = (verify_theorem2_derivative(p, k_max=3).checks
                  + verify_theorem2_altsum(p, k_max=3).checks)
        assert max(min(c.abs_err, c.rel_err) for c in checks) < 1e-9

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

    def test_theorem1_s1_on_fixed_triples(self):
        reports = [r for r in run_suites(["theorem1"])
                   if r.suite == "theorem1_s1"]
        fixed = default_parameter_suite()[:5]
        assert [r.params for r in reports] == [
            {"alpha": p.alpha, "v": p.v, "w": p.w} for p in fixed]
        assert all(r.passed for r in reports)
