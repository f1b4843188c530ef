"""Unit tests for the exponential-step reflection module."""
import cmath
import math

import numpy as np
import pytest

import scalar_oracle

from resdelay import reflect
from resdelay.counting import count_resonances
from resdelay.errors import (
    SeriesNonConvergence,
    ThresholdBranchPoint,
    VanishingAmplitude,
)
from resdelay.numerics import find_extrema
from resdelay.reflect import (
    ExpStep,
    reflection_amplitude,
    reflection_time_delay,
    reflectivity_curve,
    theta_curve,
)

STEP = ExpStep(V1=1.0, V2=1.0, a=1.31)


def mp_reflection_amplitude(mpmath, E):
    """r(E) of STEP from the matching formula with mpmath's J_nu."""
    k = mpmath.sqrt(E)
    p = mpmath.sqrt(mpmath.mpf(E) - STEP.threshold)
    q = mpmath.sqrt(STEP.V2)
    nu, z = -2j * p * STEP.a, 2 * q * STEP.a
    J = mpmath.besselj(nu, z)
    Jp = mpmath.besselj(nu, z, derivative=1)
    return (1j * k * J + q * Jp) / (1j * k * J - q * Jp)


class TestExpStep:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ExpStep(V1=1.0, V2=0.0, a=1.0)
        with pytest.raises(ValueError):
            ExpStep(V1=1.0, V2=1.0, a=-1.0)

    def test_threshold(self):
        assert STEP.threshold == pytest.approx(2.0)


class TestReflectionAmplitude:
    def test_total_reflection_below_threshold(self):
        for e in (0.3, 1.0, 1.5, 1.9):
            assert abs(reflection_amplitude(STEP, e)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_flux_bound_above_threshold(self):
        for e in np.linspace(2.01, 10.0, 40):
            assert abs(reflection_amplitude(STEP, float(e))) <= 1 + 1e-10

    def test_high_energy_transparency(self):
        assert abs(reflection_amplitude(STEP, 10.0)) ** 2 < 0.1

    def test_branch_point_rejected(self):
        with pytest.raises(ThresholdBranchPoint):
            reflection_amplitude(STEP, 2.0)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            reflection_amplitude(STEP, -1.0)

    @pytest.mark.parametrize("E", [2.01, 2.0445, 4.0, 10.0])
    def test_against_mpmath(self, E):
        # same matching formula, with mpmath's complex-order J_nu; 2.0445 is
        # the reflectivity dip where |r| ~ 0.005
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mp_reflection_amplitude(mpmath, E))
        assert abs(reflection_amplitude(STEP, E) - ref) < 1e-12


class TestReflectivityCurve:
    def test_single_dip_in_printed_window(self):
        curve = reflectivity_curve(STEP, 2.000002, 4.0, 4000)
        dips = [p for p in find_extrema(curve) if p.kind == "min"]
        assert len(dips) == 1
        assert dips[0].position == pytest.approx(2.0445, abs=1e-3)

    def test_two_grid_determinism(self):
        n = 256
        c1 = reflectivity_curve(STEP, 2.1, 6.0, n)
        c2 = reflectivity_curve(STEP, 2.1, 6.0, 2 * n - 1)
        # every node of the coarse grid is a node of the fine grid
        assert np.allclose(c1.values, c2.values[::2], atol=1e-10, rtol=0)

    def test_j0_zero_deepens_dip(self):
        # 2qa at the first zero of J_0 gives the deepest dip
        z0 = 2.404825557695773
        tuned = ExpStep(V1=1.0, V2=1.0, a=z0 / 2.0)
        off = ExpStep(V1=1.0, V2=1.0, a=1.0)

        def dip_depth(step):
            c = reflectivity_curve(step, 2.000002, 4.0, 4000)
            lows = [p for p in find_extrema(c) if p.kind == "min"]
            return min(p.height for p in lows) if lows else 1.0

        assert dip_depth(tuned) < dip_depth(off)


class TestThetaCurve:
    def test_unwrapped_continuity(self):
        curve = theta_curve(STEP, 2.000002, 10.0, 300)
        assert np.max(np.abs(np.diff(curve.values))) < math.pi

    def test_inflexion_at_delay_extremum(self):
        curve = theta_curve(STEP, 2.01, 2.1, 800)
        second = np.diff(curve.values, 2)
        # delay extremum at ~2.0445: the second difference changes sign there
        signs = np.sign(second)
        flips = np.where(np.diff(signs) != 0)[0]
        assert len(flips) >= 1
        e_flip = curve.energies[flips + 1]
        assert np.min(np.abs(e_flip - 2.0445)) < 0.01


class TestReflectionTimeDelay:
    def test_constant_slope_phase(self):
        # synthetic r = e^{icE} has delay identically c; emulate via the
        # algebraic formula the module uses
        c = 0.7

        def delay_of(e, h=1e-6):
            r0 = cmath.exp(1j * c * e)
            dr = (
                cmath.exp(1j * c * (e + h)) - cmath.exp(1j * c * (e - h))
            ) / (2 * h)
            return (r0.conjugate() * dr).imag / abs(r0) ** 2

        assert delay_of(3.1) == pytest.approx(c, rel=1e-9)

    def test_extremum_near_dip(self):
        grid = np.linspace(2.02, 2.08, 1200)
        vals = [reflection_time_delay(STEP, float(e)) for e in grid]
        e_ext = grid[int(np.argmin(vals))]
        assert e_ext == pytest.approx(2.0445, abs=0.005)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            reflection_time_delay(STEP, 1.5)

    def test_n_r_stable_in_upper_cutoff(self):
        values = []
        for e_hi in (4.0, 6.0, 10.0):
            rep = count_resonances(
                lambda e: reflection_time_delay(STEP, e), 2.000002, e_hi,
                tol=1e-7,
            )
            values.append(rep.n_R)
        assert max(values) - min(values) < 0.1

    def test_n_r_is_the_phase_change_against_mpmath(self):
        # criterion 6: n_R is (theta(4) - theta(E_lo))/pi.  theta falls by
        # about pi across the near-zero of r at the 2.0445 dip, so the
        # integral is negative; the principal arguments miss one -2pi turn
        mpmath = pytest.importorskip("mpmath")
        e_lo, e_hi = 2.000002, 4.0
        with mpmath.workdps(30):
            raw = float(
                mpmath.arg(mp_reflection_amplitude(mpmath, e_hi))
                - mpmath.arg(mp_reflection_amplitude(mpmath, e_lo))
            )
        rep = count_resonances(
            lambda e: reflection_time_delay(STEP, e), e_lo, e_hi, tol=1e-7
        )
        assert 0 < raw < math.pi
        assert rep.n_R == pytest.approx(raw / math.pi - 2.0, abs=1e-6)
        assert rep.n_R == pytest.approx(-1.1210, abs=1e-4)


# ---------------------------------------------------------------------------
# arrays of energies: the scalar loop of tests/scalar_oracle.py is the
# reference
# ---------------------------------------------------------------------------

def random_steps(n, seed=11):
    rng = np.random.default_rng(seed)
    return [
        ExpStep(V1=v1, V2=v2, a=a)
        for v1, v2, a in zip(
            rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.5, n)
        )
    ]


# a zero of r: a 2-D Newton solve of r(E; a) = 0 at V1 = V2 = 1
ZERO_STEP, ZERO_E = ExpStep(V1=1.0, V2=1.0, a=1.3159672603073558), 2.0442305153429157


class TestArrays:
    @pytest.mark.parametrize("step", random_steps(8))
    def test_amplitude_matches_scalar_loop(self, step):
        # below and above the barrier top, skipping the branch point
        e = np.linspace(0.05, step.threshold + 8.0, 400)
        e = e[np.abs(e - step.threshold) >= 1e-9]
        got = reflection_amplitude(step, e)
        ref = np.array([scalar_oracle.reflection_amplitude(step, float(x)) for x in e])
        assert got.shape == e.shape and got.dtype == complex
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("step", random_steps(8))
    def test_delay_matches_scalar_loop(self, step):
        e = np.linspace(step.threshold + 2e-6, 10.0, 400)
        got = reflection_time_delay(step, e)
        ref = np.array([scalar_oracle.reflection_time_delay(step, float(x)) for x in e])
        assert got.shape == e.shape and got.dtype == float
        assert np.all(np.abs(got - ref) <= 1e-8 * (1.0 + np.abs(ref)))

    def test_amplitude_row_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        e = np.array([0.3, 1.9, 2.01, 2.0445, 4.0, 10.0])
        with mpmath.workdps(30):
            ref = np.array([complex(mp_reflection_amplitude(mpmath, x)) for x in e])
        assert np.all(np.abs(reflection_amplitude(STEP, e) - ref) < 1e-12)

    def test_kind_follows_input(self):
        assert isinstance(reflection_amplitude(STEP, 3.0), complex)
        assert isinstance(reflection_time_delay(STEP, 3.0), float)
        e = np.linspace(3.0, 4.0, 6).reshape(2, 3)
        assert reflection_amplitude(STEP, e).shape == (2, 3)
        assert reflection_time_delay(STEP, e).shape == (2, 3)

    @pytest.mark.parametrize(
        "E", [3.0, np.linspace(2.5, 9.0, 40), np.linspace(2.5, 9.0, 40).reshape(5, 8)]
    )
    def test_delay_is_one_bessel_call(self, monkeypatch, E):
        # r at E, E + h and E - h is one stacked amplitude call, for a float
        # as for an array
        calls = []
        original = reflect.bessel_j

        def counted(nu, z):
            calls.append(np.shape(nu))
            return original(nu, z)

        monkeypatch.setattr(reflect, "bessel_j", counted)
        reflection_time_delay(STEP, E)
        assert calls == [(3,) + np.shape(E)]

    def test_stacked_amplitude_is_bit_identical(self):
        # bessel_j stops each order by its own rule, so r of a batch is r of
        # each part, bit for bit: stacking the delay's energies changes no
        # digit
        e = np.linspace(2.01, 10.0, 57)
        parts = [e, e + 1e-6 * e, e - 1e-6 * e]
        whole = reflection_amplitude(STEP, np.concatenate(parts))
        apart = np.concatenate([reflection_amplitude(STEP, p) for p in parts])
        assert np.array_equal(whole, apart)
        one_by_one = np.array([reflection_amplitude(STEP, float(x)) for x in e])
        assert np.array_equal(whole[:e.size], one_by_one)

    def test_reflectivity_curve_matches_scalar_loop(self):
        curve = reflectivity_curve(STEP, 2.000002, 10.0, 300)
        ref = [
            abs(scalar_oracle.reflection_amplitude(STEP, float(x))) ** 2
            for x in curve.energies
        ]
        assert np.allclose(curve.values, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "fn, step, bad, exc",
        [
            (reflection_amplitude, STEP, 0.0, ValueError),
            (reflection_amplitude, STEP, -1.0, ValueError),
            (reflection_amplitude, STEP, 2.0 + 5e-10, ThresholdBranchPoint),
            # |z| = 2*sqrt(V2)*a = 60 leaves the series regime
            (reflection_amplitude, ExpStep(1.0, 100.0, 3.0), 150.0, ValueError),
            (reflection_time_delay, STEP, 2.0 + 5e-7, ValueError),
            (reflection_time_delay, STEP, 1.5, ValueError),
            (reflection_time_delay, ZERO_STEP, ZERO_E, VanishingAmplitude),
            # |z| = 40: J_nu's series cancels (2.2% off mpmath unguarded)
            (reflection_amplitude, ExpStep(1.0, 100.0, 2.0), 105.0,
             SeriesNonConvergence),
        ],
    )
    def test_error_parity(self, fn, step, bad, exc):
        with pytest.raises(exc):
            fn(step, bad)
        e = np.array([step.threshold + 1.0, bad, step.threshold + 3.0])
        with pytest.raises(exc):
            fn(step, e)
