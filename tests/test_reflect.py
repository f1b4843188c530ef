"""Unit tests for the exponential-step reflection module."""
import cmath
import json
import math

import numpy as np
import pytest

import scalar_oracle

from resdelay import reflect
from resdelay.cli import main
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

# (V1, V2, a) of four expstep bench pool instances: r5/i6 and r0/i3, where
# the quadrature of the delay is biased by 4.0e-7 and 5.6e-7 just above the
# barrier top, r2/i0, where theta falls by more than pi, and r4/i0, where
# n_R is within 3e-4 of -1
POOL_STEPS = [
    ("1.9587", "1.0467", "2.4255"),
    ("1.9986", "1.4353", "2.4335"),
    ("0.9559", "1.8712", "0.9810"),
    ("0.9637", "1.8493", "2.0535"),
]


def mp_reflection_amplitude(mpmath, E, step=STEP):
    """r(E) of ``step`` from the matching formula with mpmath's J_nu."""
    k = mpmath.sqrt(E)
    p = mpmath.sqrt(mpmath.mpf(E) - step.threshold)
    q = mpmath.sqrt(step.V2)
    nu, z = -2j * p * step.a, 2 * q * step.a
    J = mpmath.besselj(nu, z)
    Jp = mpmath.besselj(nu, z, derivative=1)
    return (1j * k * J + q * Jp) / (1j * k * J - q * Jp)


def mp_reflection_time_delay(mpmath, E, step=STEP):
    """The delay Im(r'/r) of ``step`` at 30 digits, r' by ``mpmath.diff``."""
    with mpmath.workdps(30):
        E = mpmath.mpf(E)
        r = mp_reflection_amplitude(mpmath, E, step)
        dr = mpmath.diff(lambda e: mp_reflection_amplitude(mpmath, e, step), E)
        return float(mpmath.im(dr / r))


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
    @pytest.mark.parametrize("step", [("1.0", "1.0", "1.31"), *POOL_STEPS])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
    def test_coarse_start_reads_the_fine_change(self, step, n):
        # the delay guides the unwrap: from as few as 2 start points it
        # bisects to where theta falls by nearly pi across the dip, which a
        # continuity unwrap of 2 to 8 principal values missed by a full turn
        model = ExpStep(*map(float, step))
        lo = model.threshold + 2e-6
        fine = theta_curve(model, lo, 10.0, 2000).values
        coarse = theta_curve(model, lo, 10.0, n).values
        assert coarse[-1] - coarse[0] == pytest.approx(fine[-1] - fine[0], abs=1e-12)

    @pytest.mark.parametrize("e_lo", [0.5, 2.0, 2.0 + 1e-6])
    def test_rejects_energies_below_the_delays_domain(self, e_lo):
        # the unwrap needs the delay, defined above the barrier top + 1e-6
        with pytest.raises(ValueError):
            theta_curve(STEP, e_lo, 10.0, 300)

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
        # synthetic r = N/D = e^{icE} with N = e^{icE/2}, D = e^{-icE/2} has
        # delay identically c; emulate via the algebraic formula the module
        # uses, Im(N'/N - D'/D)
        c = 0.7

        def delay_of(e):
            n, d = cmath.exp(0.5j * c * e), cmath.exp(-0.5j * c * e)
            return (0.5j * c * n / n - (-0.5j * c) * d / d).imag

        assert delay_of(3.1) == pytest.approx(c, rel=1e-15)

    @pytest.mark.parametrize(
        "step", [STEP] + [ExpStep(*map(float, s)) for s in POOL_STEPS]
    )
    def test_against_mpmath_from_the_barrier_top(self, step):
        # the exact slope holds right above the barrier top, where the
        # central difference it replaced was 1.3e-3 off at thr + 2e-6
        mpmath = pytest.importorskip("mpmath")
        e = step.threshold + np.concatenate(
            ([2e-6, 1e-5, 1e-4, 1e-3, 1e-2], np.linspace(0.1, 10.0 - step.threshold, 10))
        )
        got = reflection_time_delay(step, e)
        ref = np.array([mp_reflection_time_delay(mpmath, x, step) for x in e])
        assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))

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


def step_count(tmp_path, step, *extra):
    v1, v2, a = step
    argv = ["step", "--V1", v1, "--V2", v2, "--a", a, "--out", str(tmp_path)]
    assert main(argv + list(extra)) == 0
    return json.loads((tmp_path / "step_report.json").read_text())["count"]


class TestStepCount:
    """The ``step`` pipeline's n_R is the change of its unwrapped theta over
    pi."""

    @pytest.mark.parametrize("step", POOL_STEPS)
    def test_n_r_is_the_phase_change_against_mpmath(self, tmp_path, step):
        mpmath = pytest.importorskip("mpmath")
        count = step_count(tmp_path, step)
        model = ExpStep(*map(float, step))
        e_lo, e_hi = count["E_range"]
        with mpmath.workdps(30):
            raw = float(
                mpmath.arg(mp_reflection_amplitude(mpmath, e_hi, model))
                - mpmath.arg(mp_reflection_amplitude(mpmath, e_lo, model))
            )
        # the whole turns from the quadrature of the delay, which agrees to
        # its bias
        quad = count_resonances(
            lambda e: reflection_time_delay(model, e), e_lo, e_hi, tol=1e-8
        )
        assert count["n_R"] == pytest.approx(quad.n_R, abs=1e-6)
        turns = round((math.pi * quad.n_R - raw) / (2 * math.pi))
        expected = (raw + 2 * math.pi * turns) / math.pi
        assert count["n_R"] == pytest.approx(expected, abs=1e-10)
        assert count["quadrature_tol"] == 0.0

    @pytest.mark.parametrize("step", POOL_STEPS)
    def test_n_r_does_not_depend_on_the_grid(self, tmp_path, step):
        # theta is unwrapped from the shared grid of max(--grid, 2000)
        # points, so a coarse --grid changes nothing and a fine one only
        # adds samples
        default = step_count(tmp_path / "default", step)
        coarse = step_count(tmp_path / "coarse", step, "--grid", "5")
        fine = step_count(tmp_path / "fine", step, "--grid", "2500")
        assert coarse == default
        assert 2000 <= default["evaluations"] < 2500 <= fine["evaluations"]
        assert fine["n_R"] == pytest.approx(default["n_R"], abs=1e-12)


class TestStepCurves:
    @pytest.mark.parametrize("step", POOL_STEPS)
    def test_curves_are_the_amplitude_and_the_delay(self, tmp_path, step):
        # the reflectivity and delay curves share one evaluation of r; each
        # is, bit for bit, the public function at the same energies
        v1, v2, a = step
        argv = ["step", "--V1", v1, "--V2", v2, "--a", a, "--format", "json"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        curves = {c["label"]: c for c in report["curves"]}
        refl, delay = curves["reflectivity"], curves["reflection_time_delay"]
        e = np.array(refl["energies"])
        model = ExpStep(*map(float, step))
        assert delay["energies"] == refl["energies"]
        r = reflection_amplitude(model, e)
        assert np.array_equal(refl["values"], np.abs(r) ** 2)
        assert np.array_equal(delay["values"], reflection_time_delay(model, e))


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
        # the reference is a 30-digit mpmath delay, one energy at a time, on
        # every 16th sample of the array (5 ms each), the first included
        mpmath = pytest.importorskip("mpmath")
        e = np.linspace(step.threshold + 2e-6, 10.0, 400)
        got = reflection_time_delay(step, e)
        assert got.shape == e.shape and got.dtype == float
        ref = np.array([mp_reflection_time_delay(mpmath, x, step) for x in e[::16]])
        assert np.all(np.abs(got[::16] - ref) <= 1e-10 * np.abs(ref))

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
        # r and dr/dE come from one call on the orders at E, with their
        # order derivatives, for a float as for an array
        calls = []
        original = reflect.bessel_j

        def counted(nu, z, **kwargs):
            calls.append(np.shape(nu))
            return original(nu, z, **kwargs)

        monkeypatch.setattr(reflect, "bessel_j", counted)
        reflection_time_delay(STEP, E)
        assert calls == [np.shape(E)]

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
