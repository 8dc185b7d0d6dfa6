"""Core numeric kernels: Bernoulli numbers, Euler-Maclaurin head lengths,
sawtooth integrals, contour coefficient extraction, sequence acceleration,
finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barneszeta import (
    ContourSpec,
    bernoulli_numbers,
    contour_coefficients,
    frac_part_integral_1d,
    frac_part_integral_2d,
    richardson_extrapolate,
)
from barneszeta.config import EM_ORDER, HURWITZ_J
from barneszeta import laurent, numerics
from barneszeta.errors import AccuracyError, DomainError
from barneszeta.hurwitz import _hurwitz_jet, hurwitz_zeta
from barneszeta.numerics import (
    _B,
    _CHUNK,
    _head_length,
    _jet_mul,
    _jet_pow,
    _rising,
    _sum_in_order,
    central_difference,
)

from conftest import (EULER, I2_1114, brute_frac_1d, brute_frac_2d,
                      sawtooth_1d_mpmath, sawtooth_2d_mpmath)


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


def _first_omitted(c, h, j_len, g):
    """|B_{2J+2}/(2J+2)! h^(2J+1) (s)_{2J+1} G(s+2J+1)| per slot below the
    top, the term ``_em_tail`` checks, for the jet g of G(s+2J+1) about c."""
    rising = np.zeros_like(g)
    rising[1] = 1.0
    for i in range(2 * j_len + 1):
        nxt = rising * (c + i)
        nxt[2:] += rising[1:-1]
        rising = nxt
    coef = _B[2 * j_len + 2] / math.factorial(2 * j_len + 2) * h ** (2 * j_len + 1)
    return np.abs(coef * _jet_mul(rising, g))[:-1]


def _omitted_bound(c, cut, h, j_len, power):
    """K cut^(-e), e = Re c + 2J - power: the bound ``_head_length`` documents."""
    e = c.real + 2 * j_len - power
    k = (abs(_B[2 * j_len + 2]) / math.factorial(2 * j_len + 2)
         * h ** (2 * j_len + 1) * (1 + power / e)
         * math.prod(abs(c + i) + 1 for i in range(2 * j_len + 1)))
    return k * cut ** -e


def _check_head_length(c, a, h, j_len, power, floor, g):
    """The head length rule at one (c, a): ``g(cut)`` is the jet of
    G(s+2J+1, cut) that ``_em_tail`` receives."""
    size = int(_head_length(c, a, h, j_len, power))
    assert 0 <= size <= _CHUNK

    def met(cut, slack=1.0):
        if c.real < power - 1:  # the head's absolute sum sets the target
            target = 2.0 ** -53 * cut ** (1 + power - c.real)
        else:
            target = 2.0 ** -53 * min(1.0, cut ** (power - c.real))
        return _omitted_bound(c, cut, h, j_len, power) <= slack * target

    cut = a + h * max(size, floor)
    assert np.all(_first_omitted(c, h, j_len, g(cut))
                  <= (1 + 1e-9) * _omitted_bound(c, cut, h, j_len, power))
    assert cut >= 1.0 and met(cut)
    if size > 0:  # the least count: one fewer misses the target
        prev = a + h * (size - 1)
        assert prev < 1.0 or not met(prev, 1 - 1e-9)


_em_c = st.builds(complex, st.floats(-2.0, 8.0), st.floats(-1000.0, 1000.0))
_em_param = st.floats(0.1, 5.0)


class TestHeadLength:
    # Both Euler-Maclaurin levels: the bound holds the first omitted
    # correction, is below 2^-53 of the tail, and the head is the shortest
    # that gets there; with no cap, |Im c| reaches 1000 here.
    @settings(derandomize=True, deadline=None)
    @given(_em_c, st.floats(math.log(0.01), math.log(1e4)).map(math.exp),
           st.integers(1, 6))
    def test_inner_level(self, c, a, n):
        _check_head_length(
            c, a, 1.0, HURWITZ_J, 0, 0,
            lambda cut: _jet_pow(cut, c + 2 * HURWITZ_J + 1, n))

    @settings(derandomize=True, deadline=None)
    @given(_em_c, _em_param, _em_param, _em_param, st.integers(1, 6))
    def test_outer_level(self, c, alpha, v, w, n):
        _check_head_length(
            c, alpha / w, v / w, EM_ORDER, 1, 1,
            lambda cut: _hurwitz_jet(c + 2 * EM_ORDER + 1, cut, n))

    def test_refuses_where_unreachable(self):
        # no head meets the target at Re c + 2J <= power, nor for NaN; at
        # 0.5+1e4i the head would be longer than the row budget, and one
        # such element refuses its whole batch
        for c in (-24.0, complex(np.nan)):
            with pytest.raises(AccuracyError, match="no Euler-Maclaurin head"):
                _head_length(c, 0.7, 1.0, HURWITZ_J, 0)
        with pytest.raises(AccuracyError, match="no Euler-Maclaurin head"):
            _head_length(-19.0, 0.3, 0.6, EM_ORDER, 1)
        with pytest.raises(AccuracyError, match=f"exceeds {_CHUNK} terms"):
            _head_length(np.array([0.5 + 1e4j, 2.0]), 0.7, 1.0, HURWITZ_J, 0)


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

    def test_exact_model(self):
        # a sequence on the model's own basis: the fit is exact
        ms = np.array([2.0 ** k for k in range(4, 9)])
        ys = 5.0 + 2.0 / ms + 0.3 / ms ** 2
        val, _ = richardson_extrapolate(list(zip(ms, ys)), model=0)
        assert abs(val - 5.0) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([(16, 1.0), (32, 1.1)], model=1)
        with pytest.raises(ValueError):
            richardson_extrapolate([(32, 1.0), (16, 1.1), (64, 1.2)], model=1)


class TestSumInOrder:
    def test_matches_loop_bitwise(self):
        # index order, from +0.0, over every shape the jets use
        rng = np.random.default_rng(7)
        for shape in ((3, 12), (4, 64), (3, 1), (5, 9, 4), (3, 12, 2, 3)):
            x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
                * 10.0 ** rng.integers(-8, 8, shape)
            x[:, ::3] = -0.0
            loop = np.zeros(x.shape[:1] + x.shape[2:], dtype=complex)
            for i in range(x.shape[1]):
                loop += x[:, i]
            out = _sum_in_order(x)
            assert out.tobytes() == loop.tobytes()


def _rising_by_steps(c, n2, j_len):
    """The reference for ``_rising``: (s)_{2j-1}, j = 1..J+1, by the
    step-by-step recurrence with a new jet per step, then stacked."""
    rising = [np.zeros((n2,) + c.shape, dtype=c.dtype)]  # (s)_0, (s)_1, ...
    rising[0][1] = 1.0
    for i in range(2 * j_len + 1):
        nxt = rising[-1] * (c + i)
        nxt[2:] += rising[-1][1:-1]
        rising.append(nxt)
    return np.stack(rising[1::2], axis=1)


class TestRising:
    def test_matches_steps_bitwise(self):
        # the zeros of (s)_k at c = 0, -1, -3 and the signs of the zero
        # slots must come out as the loop makes them; the tails read the
        # odd rows
        centers = [np.asarray(c) for c in (0.0, -1.0, -3.0, 1.0, 2.0,
                                            -8.5 + 10j, 2.3 + 50j)]
        centers.append(np.array([[-3.0], [0.0], [0.5], [2.0], [7.25]]))
        for c in centers:
            for n2 in (3, 7, 14):
                for j_len in (10, 12):
                    got = _rising(c, n2, 2 * j_len + 1)
                    assert got.shape == (n2, 2 * j_len + 2) + c.shape
                    want = _rising_by_steps(c, n2, j_len)
                    assert got.dtype == want.dtype
                    assert got[:, 1::2].tobytes() == want.tobytes(), \
                        (c, n2, j_len)

    def test_shorter_table_is_a_prefix(self):
        # a table of fewer rows or slots is a prefix of a longer one: the
        # row sum's outer level reads (s)_1..(s)_{2 EM_ORDER+1} of the
        # Hurwitz level's table, (s)_0..(s)_{2 HURWITZ_J+1}, and the far
        # series the first n+3 slots of its pole table
        for c in (np.asarray(0.5), np.asarray(-2.0 + 3j), np.asarray(-3.0),
                  np.array([0.0, -1.0, 2.5])):
            long = _rising(c, 7, 2 * HURWITZ_J + 1)
            assert long[:, 1:2 * EM_ORDER + 2:2].tobytes() == \
                _rising_by_steps(c, 7, EM_ORDER).tobytes()
            for n2, m in ((7, 2 * EM_ORDER + 1), (3, 2 * HURWITZ_J + 1),
                          (2, 3)):
                assert _rising(c, n2, m).tobytes() == \
                    np.ascontiguousarray(long[:n2, :m + 1]).tobytes()

    def test_pole_tables(self):
        # the far series reads (s)_0..(s)_62 about each pole, in 15 slots,
        # from a table built at import, which is a runtime call's bits
        for c in (1, 2):
            table = laurent._POLE_RISING[c]
            assert table.shape == (15, 63)
            assert table.tobytes() == \
                _rising(np.asarray(float(c)), 15, 62).tobytes()


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
        # the (alpha, v) and (alpha, w) pairs verify_theorem1 integrates,
        # then a boundary layer of width a/c = 1/49, s near the cancelling
        # poles at 2 and near the pole at 1, oscillation, and large a/c
        cases = [(p.alpha, c, 2.0) for p in fixed_suite for c in (p.v, p.w)]
        cases += [(0.1, 4.9, 3.0), (0.1, 4.9, 2.0001), (0.1, 4.9, 2.0),
                  (0.7, 2.1, 1.1 + 20j), (0.3, 2.5, 2.5),
                  (0.3, 2.5, 2 + 1e-9), (0.3, 2.5, 1 + 1e-7),
                  (1e4, 0.5, 3.5)]
        for a, c, s in cases:
            val, err = frac_part_integral_1d(a, c, s, with_error=True)
            assert abs(val - sawtooth_1d_mpmath(a, c, s)) <= err, (a, c, s)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            frac_part_integral_1d(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            frac_part_integral_1d(-1.0, 1.0, 2.0)
        for a, c in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite and positive"):
                frac_part_integral_1d(a, c, 2.5)
        for s in (math.inf, math.nan, complex(2.5, math.inf)):
            with pytest.raises(DomainError, match="s must be finite"):
                frac_part_integral_1d(1.0, 1.0, s)

    def test_non_finite_value_refused(self):
        # 0.3^(1-s) overflows; NaN used to be returned
        for with_error in (False, True):
            with pytest.raises(AccuracyError,
                               match="frac_part_integral_1d is not a finite"):
                frac_part_integral_1d(0.3, 1.0, 800.0, with_error=with_error)


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
        # s = 3 is a removable singularity of the split, so Re s > 3
        for s in (1.5, 2.5, 3.0, 3.0 + 5j):
            with pytest.raises(DomainError):
                frac_part_integral_2d(1.0, 1.0, 1.0, s)
        with pytest.raises(ValueError):
            frac_part_integral_2d(0.0, 1.0, 1.0, 4.0)
        for triple in ((math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
                       (1.0, 1.0, math.inf), (1.0, math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite and positive"):
                frac_part_integral_2d(*triple, 4.0)
        for s in (math.inf, math.nan, complex(4.0, math.inf)):
            with pytest.raises(DomainError, match="s must be finite"):
                frac_part_integral_2d(1.0, 1.0, 1.0, s)

    def test_refusals(self):
        # the cell budget is checked before any Hurwitz work; below it, the
        # Hurwitz jets refuse where a head would exceed the row budget
        with pytest.raises(AccuracyError, match="cell budget"):
            frac_part_integral_2d(1.0, 1.0, 1.0, 3.5 + 1e6j)
        with pytest.raises(AccuracyError, match=f"exceeds {_CHUNK} terms"):
            frac_part_integral_2d(1.0, 1.0, 1.0, 3.5 + 1e4j)

    def test_non_finite_value_refused(self):
        # NaN used to be returned; at c = 1e-3, c^(-s) overflows in a
        # Python scalar power, which raised OverflowError
        for args in ((0.3, 1.0, 1.0, 800.0), (1e-3, 1e-3, 1e-3, 800.0)):
            for with_error in (False, True):
                with pytest.raises(AccuracyError,
                                   match="frac_part_integral_2d is not a finite"):
                    frac_part_integral_2d(*args, with_error=with_error)

    def test_two_chunks_match_one_call(self, monkeypatch):
        # 8,431 Hurwitz points: calls of 8,192 and 239, and the same bits
        # as one call over all of them, as a batch equals scalar calls
        sizes = []

        def counted(c, a, n, poch=None):
            sizes.append(np.size(c))
            return _hurwitz_jet(c, a, n, poch)

        monkeypatch.setattr(numerics, "_hurwitz_jet", counted)
        args = (0.1, 5.0, 5.0, 4.5 + 185j)
        split = frac_part_integral_2d(*args, with_error=True)
        assert sizes == [8192, 239], sizes
        monkeypatch.setattr(numerics, "_CHUNK", 1 << 20)
        assert frac_part_integral_2d(*args, with_error=True) == split
        assert sizes[2:] == [8431], sizes

    def test_one_hurwitz_call(self, monkeypatch):
        # the boundary layer's zeta_H and the nodes share one call
        count = []

        def counted(c, a, n, poch=None):
            count.append(np.size(c))
            return _hurwitz_jet(c, a, n, poch)

        monkeypatch.setattr(numerics, "_hurwitz_jet", counted)
        frac_part_integral_2d(1.0, 2.0, 3.0, 5.0)
        assert len(count) == 1, count

    def test_swap_symmetric(self):
        for alpha, v, w, s in [(0.1, 4.9, 0.1, 4.0), (0.7, 1.3, 2.1, 3.5 + 20j)]:
            assert (frac_part_integral_2d(alpha, v, w, s, with_error=True)
                    == frac_part_integral_2d(alpha, w, v, s, with_error=True))

    def test_within_bar_up_to_im_150(self):
        # commensurate (alpha; p t, q t), against the integral representation
        # solved for the 2-D integral; the phase of the integrand turns by up
        # to 150 log 2 over the first cell, so the cells are cut into pieces
        for alpha, p, q, t in [(1.0, 1, 1, 1.0), (0.7, 1, 2, 1.0),
                               (0.1, 1, 1, 5.0)]:
            for s in (3.5, 5.0, 3.5 + 20j, 3.5 + 50j, 5.0 + 100j, 3.5 + 150j):
                val, err = frac_part_integral_2d(alpha, p * t, q * t, s,
                                                 with_error=True)
                ref = sawtooth_2d_mpmath(alpha, p, q, t, s)
                assert abs(val - ref) <= err, (alpha, p, q, t, s)


    def test_within_bar_at_im_300(self):
        # past the former head-length cap: every Gauss node's Hurwitz point
        # carries a head of its own, a few hundred terms here
        val, err = frac_part_integral_2d(1.0, 1.0, 1.0, 3.5 + 300j,
                                         with_error=True)
        assert abs(val - sawtooth_2d_mpmath(1.0, 1, 1, 1.0, 3.5 + 300j)) <= err


class TestCentralDifference:
    def test_first_four_orders(self):
        val, _ = central_difference(np.sin, 1.0, 2e-2)
        assert abs(val - math.cos(1.0)) < 1e-9

    def test_halving_reduces_error(self):
        exact = math.cos(1.0)
        e_h, _ = central_difference(np.sin, 1.0, 2e-2)
        e_h2, _ = central_difference(np.sin, 1.0, 1e-2)
        assert abs(e_h2 - exact) * 3.5 < abs(e_h - exact)

    def test_more_levels_raise_the_order(self):
        # each Richardson step removes the next even power of h
        errs = [abs(central_difference(np.sin, 1.0, 0.2, levels=n)[0]
                    - math.cos(1.0)) for n in (2, 3, 4)]
        assert errs[0] > 1e-7 and errs[1] < 1e-9 and errs[2] < 1e-12

    def test_err_is_last_correction(self):
        val, err = central_difference(np.exp, 0.0, 0.2, levels=3)
        assert abs(val - 1.0) <= err

    def test_batched_takes_every_abscissa_at_once(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return np.stack([np.sin(x), np.cos(x)], axis=-1)

        val, _ = central_difference(f, 1.0, 0.1, levels=3)
        assert calls == [(6,)]
        assert np.allclose(val, [math.cos(1.0), -math.sin(1.0)],
                           rtol=0, atol=1e-10)

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            central_difference(np.sin, 1.0, 0.1, levels=1)
