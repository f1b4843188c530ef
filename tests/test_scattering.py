"""Unit tests for the solvable models: S-matrices, phase shifts, time delays."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resdelay import scattering
from resdelay.counting import count_resonances
from resdelay.numerics import find_extrema
from resdelay.scattering import (
    DeltaShell,
    SquareWell,
    delay_curve,
    phase_shift_bar,
    phase_shift_sweep,
    s_matrix,
    time_delay,
    time_delay_delta_shell_analytic,
    time_delay_square_well_analytic,
)


def s_bar_mp(mpmath, V0, a, l, E):
    """S-bar at the working precision from besselj/bessely through the
    interior logarithmic derivative, the textbook matching form."""
    E = mpmath.mpc(E)
    k, p = mpmath.sqrt(E), mpmath.sqrt(E + V0)

    def sph(f, n, z):
        return mpmath.sqrt(mpmath.pi / (2 * z)) * f(n + 0.5, z)

    def with_deriv(f, z):  # (f_l, f_l') by f_l' = f_{l-1} - (l+1) f_l / z
        v = sph(f, l, z)
        return v, sph(f, l - 1, z) - (l + 1) * v / z

    j_in, jp_in = with_deriv(mpmath.besselj, p * a)
    g = p * jp_in / j_in
    j, jp = with_deriv(mpmath.besselj, k * a)
    y, yp = with_deriv(mpmath.bessely, k * a)
    h1, h1p, h2, h2p = j + 1j * y, jp + 1j * yp, j - 1j * y, jp - 1j * yp
    s_full = (k * h2p - g * h2) / (k * h1p - g * h1)
    return -s_full * h1 / h2


class TestModelInvariants:
    def test_square_well_requires_positive_range(self):
        with pytest.raises(ValueError):
            SquareWell(V0=5, a=-1, l=0)

    def test_square_well_l_cap(self):
        with pytest.raises(ValueError):
            SquareWell(V0=5, a=1, l=31)

    def test_delta_shell_requires_repulsive(self):
        with pytest.raises(ValueError):
            DeltaShell(V0=-1, a=1)


class TestSMatrix:
    def test_free_limit_is_hard_sphere_subtracted_plane_wave(self):
        # V0 = 0 forces p = k; Eq. reduces to S = -e^{2ika}
        s = s_matrix(SquareWell(V0=0, a=10, l=0), 1.0)
        assert s == pytest.approx(-cmath.exp(2j * 10), abs=1e-12)

    @pytest.mark.parametrize("E", np.linspace(0.5, 10.0, 20))
    def test_unitarity_square_well(self, E):
        s = s_matrix(SquareWell(V0=5, a=10, l=0), float(E))
        assert abs(abs(s) - 1) < 1e-10

    @pytest.mark.parametrize("E", np.linspace(1.0, 170.0, 20))
    def test_unitarity_delta_shell(self, E):
        s = s_matrix(DeltaShell(V0=10, a=1), float(E))
        assert abs(abs(s) - 1) < 1e-10

    @given(
        v0=st.floats(-8.0, 20.0),
        a=st.floats(0.5, 12.0),
        l=st.integers(0, 10),
        e=st.floats(0.05, 60.0),
    )
    @settings(max_examples=300, deadline=None)
    # p = 0 (E = -V0), for l = 0 and l >= 1
    @example(v0=-1.0, a=1.0, l=0, e=1.0)
    @example(v0=-1.0, a=1.0, l=3, e=1.0)
    # |j_9(pa)| < 1e-14 at a regular point of S
    @example(v0=-7.239560965455908, a=1.3938459207619869, l=9, e=7.267540667158215)
    def test_unitarity_property(self, v0, a, l, e):
        s = s_matrix(SquareWell(V0=v0, a=a, l=l), e)
        assert abs(abs(s) - 1) < 1e-10

    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_continuous_at_interior_threshold(self, l):
        # p = 0 at E = -V0 is a removable 0/0 of the entire form
        m = SquareWell(V0=-1, a=1, l=l)
        s = s_matrix(m, 1.0)
        assert abs(abs(s) - 1) < 1e-10
        assert abs(s - s_matrix(m, 1.0 + 1e-9)) < 1e-8

    @staticmethod
    def s_bar_mpmath(mpmath, V0, a, l, E):
        """40-digit S-bar, see :func:`s_bar_mp`."""
        with mpmath.workdps(40):
            return complex(s_bar_mp(mpmath, V0, a, l, E))

    @pytest.mark.parametrize("l", [0, 1, 3, 9, 10])
    @pytest.mark.parametrize(
        "V0, a, E",
        [
            (5.0, 10.0, 0.05),
            (5.0, 10.0, 1.0),
            (5.0, 10.0, 7.3),
            (-1.0, 1.0, 1.0 + 1e-6),  # pa = 1e-3
            # the point where |j_9(pa)| < 1e-14
            (-7.239560965455908, 1.3938459207619869, 7.267540667158215),
            # (pa)^2 = q inside the interior-threshold series band |q| < 1e-3
            (-3.0, 2.0, 3.0 + 1e-6 / 4),
            (-3.0, 2.0, 3.0 - 1e-6 / 4),
            (-3.0, 2.0, 3.0 + 9.9e-4 / 4),
            # under a barrier below its top (E + V0 < 0, outside the band),
            # and at E < 0: |S| = 1 cannot see a wrong sheet's sign flip
            (-5.0, 1.0, 3.0),
            (-3.0, 2.0, 1.0),
            (-3.0, 2.0, -1.0),
        ],
    )
    def test_real_axis_against_mpmath(self, l, V0, a, E):
        mpmath = pytest.importorskip("mpmath")
        ref = self.s_bar_mpmath(mpmath, V0, a, l, E)
        s = s_matrix(SquareWell(V0=V0, a=a, l=l), E)
        assert abs(s - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize(
        "l, E",
        [(l, E) for E in (-2.0, -6.0) for l in (0, 1, 3, 9)]
        + [(10, -2.0), pytest.param(10, -6.0, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="j_10(pa) at pa = 10i, on the upward j row at |z| >= l, is "
                   "1.9e-12 relative off, and S 6.0e-12"))],
    )
    def test_negative_energy_against_mpmath(self, l, E):
        # ka = i sqrt(-E) a lies on the positive imaginary axis (14.1i and
        # 24.5i here), where h1_l(ka) decays like e^(-|ka|); the s-wave
        # does not use it
        mpmath = pytest.importorskip("mpmath")
        ref = self.s_bar_mpmath(mpmath, 5.0, 10.0, l, E)
        s = s_matrix(SquareWell(V0=5.0, a=10.0, l=l), E)
        assert abs(s - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize(
        "l, pole", [(9, 0.38499 - 0.479894j), (10, 0.541725 - 0.574161j)]
    )
    @pytest.mark.parametrize("offset", [1e-3, -1e-3, 1e-3j, -1e-3j, 7e-4 + 7e-4j])
    def test_near_poles_against_mpmath(self, l, pole, offset):
        # criterion-2 poles of the V0 = 5, a = 10 well
        mpmath = pytest.importorskip("mpmath")
        E = pole + offset
        ref = self.s_bar_mpmath(mpmath, 5.0, 10.0, l, E)
        s = s_matrix(SquareWell(V0=5, a=10, l=l), E)
        assert abs(s - ref) <= 1e-9 * abs(ref)

    def test_rigid_wall_limit_of_delta_shell(self):
        # an impenetrable shell decouples the interior: delta_bar -> 0 mod pi
        d = phase_shift_bar(DeltaShell(V0=1e6, a=1), math.pi**2)
        assert min(abs(d % math.pi), math.pi - abs(d % math.pi)) < 1e-3


class TestOutgoing:
    # one model per branch of _outgoing, with whether F carries the
    # hard-sphere factor (h = 1, dh/dE = 0)
    BRANCHES = [
        (DeltaShell(V0=10, a=1), 2.0, True),
        (SquareWell(V0=5, a=10, l=0), 2.0, True),
        (SquareWell(V0=-5, a=1, l=0), 5.0 + 1e-4, False),  # series band
        (SquareWell(V0=-5, a=1, l=3), 5.0 + 1e-4, False),  # series band
        (SquareWell(V0=5, a=10, l=3), 2.0, False),
        (SquareWell(V0=-1000, a=30, l=1), 1.0, False),  # thick barrier
    ]

    @pytest.mark.parametrize("model, E, carried", BRANCHES)
    def test_four_python_numbers_for_a_number(self, model, E, carried):
        result = scattering._outgoing(model, E, series=True)
        assert [type(v) for v in result] == [complex] * 2 + [
            float if carried else complex
        ] * 2
        assert (result[2:] == (1.0, 0.0)) == carried

    def test_clip_only_where_im_pa_is_beyond_the_bound(self):
        # the copy-and-clip of every element, bit for bit, on random arrays
        # with elements beyond |Im pa| = 300; z itself where none is
        rng = np.random.default_rng(64)
        for scale in (1.0, 100.0, 1000.0):
            z = rng.normal(size=200) * scale + 1j * rng.normal(size=200) * scale
            ref = z.copy()
            ref.imag = np.clip(ref.imag, -scattering._MAX_IM_PA, scattering._MAX_IM_PA)
            before = z.copy()
            clipped = scattering._clip_imag(z)
            assert clipped.tobytes() == ref.tobytes()
            assert z.tobytes() == before.tobytes()
            big = (np.abs(z.imag) > scattering._MAX_IM_PA).any()
            assert big == (scale > 100.0) and (clipped is z) == (not big)

    @pytest.mark.parametrize("model", [
        SquareWell(V0=-1000, a=30, l=0),  # |Im pa| up to 949: clipped
        SquareWell(V0=-1000, a=30, l=3),
        SquareWell(V0=5, a=10, l=3),
    ])
    def test_real_and_complex_arrays_give_the_same_bits(self, model):
        E = np.random.default_rng(1).uniform(0.1, 50.0, 64)
        for a, b in zip(scattering._outgoing(model, E),
                        scattering._outgoing(model, E.astype(complex))):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_band_split_puts_h_back_in_place(self):
        # an s-wave array reaching into the band: h1_0(ka) inside, 1 outside
        m = SquareWell(V0=-5, a=1, l=0)
        f, df, h, dh = scattering._outgoing(m, np.array([6.0, 5.0 + 1e-4]), series=True)
        assert (h[0], dh[0]) == (1, 0)
        assert (h[1], dh[1]) == scattering._outgoing(m, 5.0 + 1e-4, series=True)[2:]


class TestPhaseShift:
    def test_free_case(self):
        # S = -e^{2ika} in the free limit, so delta_bar = ka + pi/2 (mod pi);
        # the constant offset drops out of every energy derivative
        d = phase_shift_bar(SquareWell(V0=0, a=2, l=0), 1.0)
        x = (d - 2.0 - math.pi / 2) % math.pi
        assert min(x, math.pi - x) < 1e-10

    def test_delta_shell_threshold(self):
        d = phase_shift_bar(DeltaShell(V0=10, a=1), 1e-8)
        assert abs(d) < 1e-4

    def test_sweep_is_continuous(self):
        grid = np.linspace(0.1, 10.0, 400)
        curve = phase_shift_sweep(SquareWell(V0=5, a=10, l=0), grid)
        jumps = np.abs(np.diff(curve.values))
        assert np.max(jumps) < math.pi / 2

    def test_sweep_matches_reference_unwrap_loop(self):
        # reference: add the multiple of pi that keeps each step within pi/2
        m = SquareWell(V0=5, a=10, l=0)
        grid = np.linspace(0.1, 10.0, 400)
        raw = [phase_shift_bar(m, E) for E in grid]
        ref = [raw[0]]
        for r in raw[1:]:
            ref.append(r + math.pi * round((ref[-1] - r) / math.pi))
        values = phase_shift_sweep(m, grid).values
        assert np.max(np.abs(values - raw)) > 3.0  # several branch crossings
        assert np.allclose(values, ref, rtol=0, atol=1e-12)

    def test_l1_two_resolution_consistency(self):
        m = SquareWell(V0=5, a=10, l=1)
        coarse = phase_shift_sweep(m, np.linspace(0.1, 5.0, 200))
        fine = phase_shift_sweep(m, np.linspace(0.1, 5.0, 400))
        # shared nodes: every other fine node is close to a coarse node only
        # approximately, so compare the value at E = 5 after both sweeps
        d = (coarse.values[-1] - fine.values[-1]) % math.pi
        assert min(d, math.pi - d) < 1e-6


class TestL1ThresholdAgainstMpmath:
    """Criterion 5 (V0=5, a=10, l=1): delta_bar really dips below zero just
    above threshold, and the counting integral is its phase change."""

    MODEL = SquareWell(V0=5, a=10, l=1)

    @staticmethod
    def phase_bar(mpmath, E):
        """Principal hard-sphere-subtracted l=1 phase from the elementary
        closed forms of j_1 and y_1."""
        E = mpmath.mpf(E)
        k, p = mpmath.sqrt(E), mpmath.sqrt(E + 5)

        def j1(z):  # (j_1, j_1')
            j0, j = mpmath.sin(z) / z, mpmath.sin(z) / z**2 - mpmath.cos(z) / z
            return j, j0 - 2 * j / z

        def y1(z):  # (y_1, y_1')
            y0, y = -mpmath.cos(z) / z, -mpmath.cos(z) / z**2 - mpmath.sin(z) / z
            return y, y0 - 2 * y / z

        ji, jpi = j1(p * 10)
        g = p * jpi / ji
        j, jp = j1(k * 10)
        y, yp = y1(k * 10)
        tan_d = (k * jp - g * j) / (k * yp - g * y)
        tan_h = j / y
        return mpmath.atan((tan_d - tan_h) / (1 + tan_d * tan_h))

    @pytest.mark.parametrize("E", [1e-6, 0.05])
    def test_threshold_phase_is_negative(self, E):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(self.phase_bar(mpmath, E))
        # remove the pi/2 offset of the -h1/h2 convention (test_free_case)
        d = (phase_shift_bar(self.MODEL, E) - math.pi / 2) % math.pi
        d = d - math.pi if d > math.pi / 2 else d
        assert ref < 0
        assert d == pytest.approx(ref, rel=1e-8)

    def test_counting_integral_is_the_phase_change(self):
        # five peaks lie below E = 10, but the broad fifth resonance
        # (9.152 - 0.837i) is cut at E = 10 and the threshold dip costs
        # 0.055, so n_R = 4.862 and N = floor(n_R) = 4
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(
                5 + (self.phase_bar(mpmath, 10) - self.phase_bar(mpmath, 1e-6))
                / mpmath.pi
            )
        rep = count_resonances(
            lambda e: time_delay(self.MODEL, e), 0.0, 10.0, tol=1e-7
        )
        assert rep.n_R == pytest.approx(ref, abs=1e-6)
        assert rep.N == 4


class TestTimeDelay:
    def test_free_limit(self):
        t = time_delay(SquareWell(V0=0, a=10, l=0), 4.0)
        assert t == pytest.approx(10.0 / (2 * math.sqrt(4.0)), rel=1e-8)

    @pytest.mark.parametrize("E", [0.5, 1.0, 2.5, 4.0, 6.5, 8.0, 10.0])
    def test_square_well_oracle(self, E):
        m = SquareWell(V0=5, a=10, l=0)
        assert time_delay(m, E) == pytest.approx(
            time_delay_square_well_analytic(m, E), rel=1e-6
        )

    @pytest.mark.parametrize("E", [1.0, 8.3, 34.1, 78.9, 120.0, 170.0])
    def test_delta_shell_oracle(self, E):
        m = DeltaShell(V0=10, a=1)
        assert time_delay(m, E) == pytest.approx(
            time_delay_delta_shell_analytic(m, E), rel=1e-6
        )

    def test_dense_oracle_equivalence(self):
        m = SquareWell(V0=5, a=10, l=0)
        for E in np.linspace(0.1, 10.0, 200):
            exact = time_delay_square_well_analytic(m, float(E))
            assert time_delay(m, float(E)) == pytest.approx(exact, rel=1e-6)

    @staticmethod
    def delay_mpmath(V0, a, l, E):
        """d(delta_bar)/dE of a 30-digit delta_bar = arg(S_bar)/2."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            return float(mpmath.diff(
                lambda e: mpmath.arg(s_bar_mp(mpmath, V0, a, l, e)) / 2, E
            ))

    @pytest.mark.parametrize(
        "l, E",
        [(l, E) for l in (1, 3, 9, 10) for E in (0.3, 1.7, 4.4, 9.1)]
        + [(1, 1e-6)],  # the first sample of `sqwell --l 1`
    )
    def test_higher_l_against_mpmath(self, l, E):
        # a central difference of the S-matrix was 1.1% off at E = 1e-6
        ref = self.delay_mpmath(5, 10, l, E)
        t = time_delay(SquareWell(V0=5, a=10, l=l), E)
        assert t == pytest.approx(ref, rel=1e-12)

    @pytest.mark.xfail(strict=True,
                       reason="j_30(pa) at pa = 30i is 7.8e-5 relative off")
    def test_l30_under_a_barrier_against_mpmath(self):
        # pa = 30i lies on the imaginary axis with |pa| = l, where the upward
        # j_l recurrence loses digits, and the delay is 1.1e-4 relative off
        # (ROADMAP item 3).  The delay is 8.5e-22 here, so the check is
        # relative only
        t = time_delay(SquareWell(V0=-10, a=10, l=30), 1.0)
        ref = self.delay_mpmath(-10, 10, 30, 1.0)
        assert abs(t - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("l", [0, 1, 9])
    @pytest.mark.parametrize("q", [1.8e-15, -1.8e-15, 1e-6, -1e-6, 9.9e-4, 1.01e-3])
    def test_near_interior_threshold_against_mpmath(self, l, q):
        # (pa)^2 = q around E = -V0 = 3: a chain rule through dp/dE = 1/(2p)
        # loses ~eps/q there (O(1) one ulp away), the series branch does not
        V0, a = -3.0, 2.0
        E = -V0 + q / a**2
        t = time_delay(SquareWell(V0=V0, a=a, l=l), E)
        assert t == pytest.approx(self.delay_mpmath(V0, a, l, E), rel=1e-10)

    @staticmethod
    def count_calls(monkeypatch, evaluate):
        # "sph_bessel" counts the passes of the private kernel (_sph_jh),
        # the only spherical-Bessel call of _outgoing, series form included
        calls = {"sph_bessel": 0, "s_matrix": 0}

        def counted(name, key):
            fn = getattr(scattering, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(scattering, name, wrapper)

        counted("_sph_jh", "sph_bessel")
        counted("s_matrix", "s_matrix")
        evaluate()
        return calls

    def test_evaluation_counts(self, monkeypatch):
        # the outgoing condition and its slope: j_l(pa) and h_l(ka), which
        # also gives the hard-sphere term, in one pass
        m = SquareWell(V0=5, a=10, l=3)
        calls = self.count_calls(monkeypatch, lambda: time_delay(m, 2.0))
        assert calls == {"sph_bessel": 1, "s_matrix": 0}

    def test_array_evaluation_counts(self, monkeypatch):
        # an array outside the band is one outgoing-condition call: one
        # pass for j_l(pa) and h_l(ka), and none for the s-wave and the
        # delta shell
        E = np.linspace(0.5, 10.0, 200)
        for m, n in ((SquareWell(V0=5, a=10, l=3), 1),
                     (SquareWell(V0=5, a=10, l=0), 0), (DeltaShell(V0=10, a=1), 0)):
            calls = self.count_calls(monkeypatch, lambda: time_delay(m, E))
            assert calls == {"sph_bessel": n, "s_matrix": 0}

    def test_s_matrix_evaluation_counts(self, monkeypatch):
        # the outgoing condition on each sheet: one pass each for j_l(pa)
        # and h_l(+-ka)
        m = SquareWell(V0=5, a=10, l=3)
        calls = self.count_calls(monkeypatch, lambda: s_matrix(m, 2.0))
        assert calls["sph_bessel"] == 2

    @pytest.mark.parametrize("n", [50, 500])
    def test_phase_shift_sweep_is_one_s_matrix_call(self, monkeypatch, n):
        # the whole grid is one s_matrix call, so the sph_bessel count does
        # not grow with the grid; one scalar s_matrix call per energy made
        # 4 calls per energy
        m = SquareWell(V0=5, a=10, l=3)
        grid = np.linspace(0.1, 10.0, n)
        calls = self.count_calls(monkeypatch, lambda: phase_shift_sweep(m, grid))
        assert calls == {"sph_bessel": 2, "s_matrix": 1}

    @pytest.mark.filterwarnings("error")
    def test_s_matrix_array_through_the_interior_threshold(self):
        # split at the band as time_delay is; a float's quotient is rounded
        # by Python, an array's by numpy
        m = SquareWell(V0=-5, a=1, l=3)
        E = np.union1d(np.linspace(4.9, 5.1, 201), np.linspace(4.9995, 5.0005, 11))
        assert np.count_nonzero(np.abs(E - 5.0) < 1e-3) > 1
        got = s_matrix(m, E)
        ref = np.array([s_matrix(m, float(e)) for e in E])
        assert np.all(np.abs(got - ref) <= 1e-15)
        assert np.all(np.abs(np.abs(got) - 1) < 1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_array_through_the_interior_threshold(self, l):
        # the grid holds E = -V0 = 5 and reaches into the band on both
        # sides: the array splits there, warns of nothing, and agrees with
        # one energy at a time
        m = SquareWell(V0=-5, a=1, l=l)
        E = np.union1d(np.linspace(4.9, 5.1, 2001), [5.0, 5.0 + 1e-3])
        q = np.abs(E - 5.0)  # (pa)^2
        assert np.count_nonzero(q < 1e-3) > 1
        t = time_delay(m, E)
        ref = np.array([time_delay(m, float(e)) for e in E])
        # numpy rounds complex products and quotients differently from
        # Python; just outside the band either path loses ~l eps/q (the
        # chain rule through dp/dE), so the two differ by that much there
        tol = 1e-13 + 8 * l * np.finfo(float).eps / np.maximum(q, 1e-3)
        assert np.all(np.abs(t - ref) <= tol * np.abs(ref))
        t2 = time_delay(m, E[:6].reshape(2, 3))
        assert t2.shape == (2, 3)
        assert np.all(np.abs(t2.ravel() - ref[:6]) <= 1e-13 * np.abs(ref[:6]))

    def test_array_of_non_positive_energies_rejected(self):
        with pytest.raises(ValueError):
            time_delay(SquareWell(V0=5, a=10, l=1), np.array([1.0, 0.0]))

    def test_integrable_across_the_narrow_l5_resonance(self):
        # the quadrature used to chase central-difference noise down to a
        # 6e-14-wide panel near E = 0.16604 and raise MaxDepthExceeded
        m = SquareWell(V0=2.5836, a=6.9964, l=5)
        rep = count_resonances(lambda e: time_delay(m, e), 1e-6, 10.0, tol=1e-8)
        # oracle: the phase change on a grid refined around the resonance
        grid = np.union1d(
            np.linspace(1e-6, 10.0, 1001), np.linspace(0.14604, 0.18604, 1001)
        )
        sweep = phase_shift_sweep(m, grid)
        ref = (sweep.values[-1] - sweep.values[0]) / math.pi
        assert rep.n_R == pytest.approx(ref, abs=1e-8)
        assert rep.N == 4


class TestAnalyticDelays:
    def test_square_well_free_limit(self):
        assert time_delay_square_well_analytic(
            SquareWell(V0=0, a=10, l=0), 4.0
        ) == pytest.approx(2.5, rel=1e-12)

    def test_square_well_numeric_derivative_oracle(self):
        m = SquareWell(V0=5, a=10, l=0)
        h = 1e-5
        grid = np.array([1.0 - h, 1.0, 1.0 + h])
        sweep = phase_shift_sweep(m, grid)
        deriv = (sweep.values[2] - sweep.values[0]) / (2 * h)
        assert time_delay_square_well_analytic(m, 1.0) == pytest.approx(
            deriv, abs=1e-7
        )

    def test_square_well_rejects_higher_l(self):
        with pytest.raises(ValueError):
            time_delay_square_well_analytic(SquareWell(V0=5, a=10, l=1), 1.0)

    @pytest.mark.parametrize("V0, a", [(-1, 1), (-3, 2), (-7.5, 0.7)])
    def test_square_well_at_interior_threshold(self, V0, a):
        # p = 0 at E = -V0: numerator and denominator both vanish like p^3
        m, E = SquareWell(V0=V0, a=a, l=0), float(-V0)
        t = time_delay_square_well_analytic(m, E)
        for e in (E - 1e-7, E + 1e-7):
            assert time_delay_square_well_analytic(m, e) == pytest.approx(
                t, abs=1e-6
            )
        assert time_delay(m, E) == pytest.approx(t, abs=1e-12)
        # l >= 1: the outgoing condition vanishes with j_l(pa) there
        for l in (1, 3, 9):
            m = SquareWell(V0=V0, a=a, l=l)
            t = time_delay(m, E)
            assert math.isfinite(t)
            for e in (E - 1e-7, E + 1e-7):
                assert time_delay(m, e) == pytest.approx(t, abs=1e-6)

    def test_delay_curve_in_the_threshold_band(self):
        # the closed form loses accuracy just above p = 0 (0.4165788 here);
        # the curve's array call takes the series form there
        m = SquareWell(V0=-1, a=1, l=0)
        t = delay_curve(m, 1 + 1e-12, 2, 5).values[0]
        assert t == pytest.approx(time_delay(m, 1 + 1e-12), rel=1e-12)
        assert abs(time_delay_square_well_analytic(m, 1 + 1e-12) - t) > 1e-6

    def test_removable_singularity_is_finite(self):
        # cos(pa) = 0 at p a = pi/2: E = (pi/(2a))^2 - V0
        m = SquareWell(V0=-5, a=2, l=0)  # barrier: p = sqrt(E - 5)
        e_sing = (math.pi / (2 * 2)) ** 2 + 5.0
        t = time_delay_square_well_analytic(m, e_sing)
        assert math.isfinite(t)

    def test_delta_shell_free_limit(self):
        t = time_delay_delta_shell_analytic(DeltaShell(V0=1e-9, a=1), 4.0)
        assert t == pytest.approx(0.25, abs=1e-8)

    def test_delta_shell_finite_at_cutoff(self):
        t = time_delay_delta_shell_analytic(DeltaShell(V0=10, a=1), 170.0)
        assert math.isfinite(t)

    def test_delta_shell_first_peak_below_rigid_wall_energy(self):
        m = DeltaShell(V0=10, a=1)
        grid = np.linspace(5.0, 12.0, 4000)
        vals = [time_delay_delta_shell_analytic(m, float(e)) for e in grid]
        i = int(np.argmax(vals))
        assert 7.0 < grid[i] < math.pi**2  # slightly below pi^2 ~ 9.87


class TestInflexionInvariant:
    def test_phase_has_inflexion_at_each_delay_peak(self):
        m = SquareWell(V0=5, a=10, l=0)
        curve = delay_curve(m, 0.05, 10.0, 2000)
        peaks = [p for p in find_extrema(curve) if p.kind == "max"]
        assert peaks
        sweep = phase_shift_sweep(m, curve.energies)
        second = np.diff(sweep.values, 2)
        for pk in peaks:
            i = int(np.argmin(np.abs(curve.energies - pk.position)))
            lo, hi = max(i - 3, 0), min(i + 3, len(second))
            window = second[lo:hi]
            assert np.min(window) < 0 < np.max(window)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: DeltaShell(1.0, 0.0), "radius a must be positive"),
        (lambda: DeltaShell(1.0, -2.0), "radius a must be positive"),
        (lambda: phase_shift_bar(SquareWell(5.0, 1.0), 0.0), "E must be positive"),
        (lambda: phase_shift_sweep(SquareWell(5.0, 1.0), np.array([-1.0, 1.0])),
         "E must be positive"),
        (lambda: time_delay_square_well_analytic(SquareWell(5.0, 1.0), 0.0),
         "E must be positive"),
        (lambda: time_delay_delta_shell_analytic(DeltaShell(5.0, 1.0),
                                                 np.array([1.0, -1.0])),
         "E must be positive"),
    ],
    ids=["shell-a-zero", "shell-a-negative", "phase-bar", "phase-sweep",
         "well-analytic", "shell-analytic"],
)
def test_argument_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
