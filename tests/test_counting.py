"""Unit tests for Lorentzian reconstruction and the counting integral."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resdelay.counting import (
    count_resonances,
    gamma_from_peak,
    lorentzian_sum,
    reconstruction_report,
)
from resdelay.errors import NoConvergence, SpuriousIncluded
from resdelay.numerics import Curve, find_extrema, newton_complex
from resdelay.poles import RESONANCE, SPURIOUS, Pole
from resdelay.reflect import ExpStep, reflection_time_delay
from resdelay.scattering import (
    DeltaShell,
    SquareWell,
    time_delay_delta_shell_analytic,
    time_delay_square_well_analytic,
)


def res_pole(e0, gamma):
    return Pole(complex(e0, -gamma / 2), residual=0.0, classification=RESONANCE)


class TestLorentzianSum:
    def test_peak_height(self):
        assert lorentzian_sum([res_pole(5.0, 0.2)], 5.0) == pytest.approx(10.0)

    def test_half_width(self):
        p = [res_pole(5.0, 0.2)]
        assert lorentzian_sum(p, 5.1) == pytest.approx(5.0)
        assert lorentzian_sum(p, 4.9) == pytest.approx(5.0)

    def test_spurious_rejected(self):
        bad = Pole(1.0 - 2.0j, residual=0.0, classification=SPURIOUS)
        with pytest.raises(SpuriousIncluded):
            lorentzian_sum([bad], 1.0)

    def test_array_matches_scalar_sum(self):
        poles = [res_pole(2.0, 0.3), res_pole(5.0, 0.2), res_pole(7.5, 1.1)]
        e = np.linspace(0.5, 10.0, 97)
        ref = [sum((p.gamma / 2) / ((float(x) - p.position) ** 2 + p.gamma**2 / 4)
                   for p in poles) for x in e]
        got = lorentzian_sum(poles, e)
        assert isinstance(got, np.ndarray) and got.shape == e.shape
        np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=0)
        assert isinstance(lorentzian_sum(poles, 5.0), float)

    def test_no_poles_gives_zeros_shaped_like_E(self):
        e = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(lorentzian_sum([], e), np.zeros(5))
        assert lorentzian_sum([], 1.0) == 0.0

    @given(
        e0=st.floats(1.0, 50.0),
        gamma=st.floats(0.01, 5.0),
        e=st.floats(0.0, 60.0),
    )
    @settings(max_examples=200)
    def test_positive_and_symmetric(self, e0, gamma, e):
        p = [res_pole(e0, gamma)]
        v = lorentzian_sum(p, e)
        assert v > 0
        mirrored = lorentzian_sum(p, 2 * e0 - e)
        assert v == pytest.approx(mirrored, rel=1e-12)


class TestCountResonances:
    def test_single_lorentzian_counts_one(self):
        e0, gamma = 50.0, 1.0

        def lor(e):
            return (gamma / 2) / ((e - e0) ** 2 + gamma**2 / 4)

        rep = count_resonances(lor, 0.0, 1e4, tol=1e-9)
        # arctan antiderivative over the truncated window
        exact = (
            math.atan(2 * (1e4 - e0) / gamma) + math.atan(2 * e0 / gamma)
        ) / math.pi
        assert rep.n_R == pytest.approx(exact, abs=1e-6)
        assert rep.n_R == pytest.approx(1.0, abs=0.005)
        assert rep.N == 0 or rep.near_integer

    def test_zero_function(self):
        rep = count_resonances(lambda e: 0.0, 0.0, 10.0, tol=1e-10)
        assert rep.n_R == 0.0

    def test_split_fields_consistent(self):
        rep = count_resonances(lambda e: 0.5, 1.0, 10.0, tol=1e-10)
        assert rep.n_R == pytest.approx(rep.N + rep.Delta, abs=1e-12)
        assert 0.0 <= rep.Delta < 1.0

    def test_additivity(self):
        def f(e):
            return math.sin(e) ** 2 / (1 + e)

        tol = 1e-9
        ab = count_resonances(f, 1.0, 5.0, tol).n_R
        bc = count_resonances(f, 5.0, 9.0, tol).n_R
        ac = count_resonances(f, 1.0, 9.0, tol).n_R
        assert ab + bc == pytest.approx(ac, abs=2 * tol + 1e-9)

    def test_finite_difference_delay_over_a_wide_range(self):
        # the reflection delay is a central difference: its noise at the
        # dip (E = 2.04, inside the first initial panel [2, 8.2]) must not
        # exhaust the quadrature's depth
        step = ExpStep(1.0, 1.0, 1.31)

        def delay(e):
            return reflection_time_delay(step, e)

        tol = 1e-7
        whole = count_resonances(delay, 2.000002, 200.0, tol).n_R
        split = (count_resonances(delay, 2.000002, 10.0, tol).n_R
                 + count_resonances(delay, 10.0, 200.0, tol).n_R)
        assert whole == pytest.approx(split, abs=tol / math.pi)

    def test_lorentzian_comb(self):
        # isolated narrow resonances each contribute ~1
        centers = [10.0, 30.0, 50.0]
        gamma = 0.05

        def comb(e):
            return sum(
                (gamma / 2) / ((e - c) ** 2 + gamma**2 / 4) for c in centers
            )

        rep = count_resonances(comb, 0.0, 60.0, tol=1e-9)
        expected = len(centers)
        # each pole leaks Gamma/(pi * distance-to-boundary) at worst
        assert rep.n_R == pytest.approx(expected, abs=0.01)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            count_resonances(lambda e: 0.0, 5.0, 1.0, tol=1e-8)
        # entirely below the threshold guard: nothing to integrate
        with pytest.raises(ValueError):
            count_resonances(lambda e: 0.0, 0.0, 1e-7, tol=1e-8)

    def test_reported_range_is_the_integrated_range(self):
        # the lower limit is raised to the threshold guard, and reported so
        m = DeltaShell(V0=10, a=1)
        rep = count_resonances(
            lambda e: time_delay_delta_shell_analytic(m, e), 0.0, 10.0
        )
        assert rep.E_range[0] == 1e-6
        assert rep.E_range[1] == 10.0

    def test_delta_shell_against_closed_form_phase(self):
        # criterion 4 (V0=10, a=1, E up to 170): the delay integrates to the
        # phase change of tan(delta_bar) = k tan(ka) / (k + aV0 tan(ka)),
        # with delta_bar(0) = 0 and four branches climbed by E = 170
        mpmath = pytest.importorskip("mpmath")
        m = DeltaShell(V0=10, a=1)

        def phase_bar(E):  # principal value
            k = mpmath.sqrt(E)
            t = mpmath.tan(k)
            return mpmath.atan(k * t / (k + 10 * t))

        with mpmath.workdps(30):
            full = float(4 + phase_bar(170) / mpmath.pi)
            # the integral starts at the 1e-6 threshold guard of
            # count_resonances, which leaves out this sliver
            sliver = float(phase_bar(1e-6) / mpmath.pi)
        rep = count_resonances(
            lambda e: time_delay_delta_shell_analytic(m, e), 0.0, 170.0,
            tol=1e-8,
        )
        assert full == pytest.approx(4.111927, abs=1e-6)
        assert rep.n_R == pytest.approx(full - sliver, abs=1e-6)


class TestGammaFromPeak:
    def test_inversion(self):
        assert gamma_from_peak(10.0) == pytest.approx(0.2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_from_peak(0.0)

    def test_duality_with_find_extrema(self):
        e0, gamma = 5.0, 0.3
        e = np.linspace(2.0, 8.0, 6000)
        v = (gamma / 2) / ((e - e0) ** 2 + gamma**2 / 4)
        peak = max(
            (p for p in find_extrema(Curve(e, v)) if p.kind == "max"),
            key=lambda p: p.height,
        )
        assert gamma_from_peak(peak.height) == pytest.approx(gamma, rel=1e-3)


class TestReconstructionReport:
    def test_round_trip_is_exact(self):
        poles = [res_pole(2.0, 0.4), res_pole(6.0, 0.8)]
        e = np.linspace(0.5, 10.0, 500)
        v = np.array([lorentzian_sum(poles, x) for x in e])
        rep = reconstruction_report(Curve(e, v), poles)
        assert rep.max_rel_error < 1e-12
        assert rep.l2_rel_error < 1e-12

    def test_l2_bounded_by_max(self):
        poles = [res_pole(2.0, 0.4)]
        e = np.linspace(0.5, 10.0, 500)
        v = np.array([lorentzian_sum(poles, x) for x in e]) * 1.05
        rep = reconstruction_report(Curve(e, v), poles)
        assert rep.l2_rel_error <= rep.max_rel_error + 1e-15

    def test_extra_pole_worsens_fit(self):
        true = [res_pole(2.0, 0.4)]
        e = np.linspace(0.5, 10.0, 500)
        v = np.array([lorentzian_sum(true, x) for x in e])
        clean = reconstruction_report(Curve(e, v), true)
        polluted = reconstruction_report(
            Curve(e, v), true + [res_pole(5.0, 6.0)]
        )
        assert polluted.max_rel_error > clean.max_rel_error

    def test_square_well_floor_is_the_energy_lorentzian_form(self):
        # criterion 3 (V0=5, a=10, l=0, [0.5, 10]).  Mittag-Leffler form of
        # Sbar = exp(2i delta_bar) in k = sqrt(E): a resonance pole
        # k_n = kappa - i*gamma (with its mirror -kappa - i*gamma) adds
        # 2gamma/((k -+ kappa)^2 + gamma^2) to d(2 delta_bar)/dk, a bound
        # (virtual) state at k = i*b (-i*b) adds -+2b/(k^2 + b^2), and the
        # poles beyond |k| = 45 add a near-constant tail for k <= sqrt(10)
        m = SquareWell(V0=5, a=10, l=0)

        def cond(k):  # (residual, d/dk) with dp/dk = k/p
            p = cmath.sqrt(k * k + m.V0)
            c, s = cmath.cos(p * m.a), cmath.sin(p * m.a)
            f_p = 1j * k * m.a * c - c + p * m.a * s
            return 1j * k * s - p * c, 1j * s + f_p * k / p

        seeds = [complex(x, y) for x in np.linspace(0.05, 45.0, 300)
                 for y in (-0.1, -0.3)]
        seeds += [complex(0.0, y) for y in np.linspace(-2.3, 2.3, 231)]
        roots = []
        for seed in seeds:
            try:
                z = newton_complex(cond, seed, tol=1e-12, max_iter=60)
            except (NoConvergence, ZeroDivisionError, OverflowError):
                continue
            if abs(z) > 45.0 or z.real < -1e-9:
                continue
            if all(abs(z - q) > 1e-8 for q in roots):
                roots.append(z)
        axis = [z for z in roots if abs(z.real) < 1e-9]
        res = [z for z in roots if abs(z.real) >= 1e-9]
        # floor(sqrt(V0) a / pi + 1/2) bound states
        assert sum(1 for z in axis if z.imag > 0) == 7

        e = np.linspace(0.5, 10.0, 500)
        k = np.sqrt(e)
        slope = sum(
            2 * -z.imag / ((k - z.real) ** 2 + z.imag**2)
            + 2 * -z.imag / ((k + z.real) ** 2 + z.imag**2)
            for z in res
        ) + sum(-2 * z.imag / (k * k + z.imag**2) for z in axis)
        exact = np.array([time_delay_square_well_analytic(m, x) for x in e])
        tail = exact * 4 * k - slope
        assert np.ptp(tail) < 1e-3
        k_plane = (slope + np.mean(tail)) / (4 * k)
        assert np.max(np.abs(k_plane / exact - 1)) < 1e-3

        # the Breit-Wigner sum of the same 136 resonances stays above 5%
        poles = [Pole(z * z, 0.0, RESONANCE) for z in res if (z * z).real > 0]
        assert len(poles) == 136
        rep = reconstruction_report(Curve(e, exact), poles)
        assert rep.max_rel_error > 0.05
