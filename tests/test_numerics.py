"""Unit tests for the special-function / root-finding / quadrature substrate."""
import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resdelay.errors import (
    BranchAmbiguity,
    MaxDepthExceeded,
    NoConvergence,
    PoleOfGamma,
    SeriesNonConvergence,
    ZeroArgument,
)
from resdelay.numerics import (
    Curve,
    bessel_j,
    complex_gamma,
    find_extrema,
    integrate,
    newton_complex,
    sph_bessel,
)
from resdelay.scattering import DeltaShell, delay_function

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# complex_gamma
# ---------------------------------------------------------------------------

class TestComplexGamma:
    @pytest.mark.parametrize("z, expected", [(1.0, 1.0), (5.0, 24.0)])
    def test_integer_values(self, z, expected):
        assert complex_gamma(z) == pytest.approx(expected, rel=1e-12)

    def test_half(self):
        assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize(
        "z", [2.5 + 1.5j, -3.2 + 0.7j, 0.1 - 4.0j, 10.0 + 10.0j, -0.5 - 0.5j]
    )
    def test_against_mpmath(self, z):
        ref = complex(mpmath.gamma(z))
        assert complex_gamma(z) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 1e-13j])
    def test_pole_rejection(self, z):
        with pytest.raises(PoleOfGamma):
            complex_gamma(z)

    @given(
        st.complex_numbers(
            min_magnitude=0.05, max_magnitude=20.0, allow_nan=False
        )
    )
    @settings(max_examples=200)
    def test_recurrence(self, z):
        # Gamma(z+1) = z Gamma(z); skip draws too close to the poles
        if abs(z.imag) < 1e-3 and z.real < 0.5:
            return
        lhs = complex_gamma(z + 1)
        rhs = z * complex_gamma(z)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# bessel_j
# ---------------------------------------------------------------------------

class TestBesselJ:
    def test_origin(self):
        v, d = bessel_j(0.0, 0.0)
        assert v == pytest.approx(1.0)
        assert d == pytest.approx(0.0)

    def test_first_zero_of_j0(self):
        v, _ = bessel_j(0.0, 2.404825557695773)
        assert abs(v) < 1e-9

    def test_small_argument_j1(self):
        v, _ = bessel_j(1.0, 0.001)
        assert v == pytest.approx(0.0005, abs=1e-9)

    @pytest.mark.parametrize(
        "nu, z",
        [
            (0.5, 1.0),
            (-1.3 + 0.4j, 2.5),
            (2.0 - 3.0j, 0.7 + 0.1j),
            (-2j * 1.31 * cmath.sqrt(0.0445), 2.62),  # reflectometry regime
            (3.7, 4.0),
        ],
    )
    def test_value_and_derivative_against_mpmath(self, nu, z):
        v, d = bessel_j(nu, z)
        ref_v = complex(mpmath.besselj(nu, z))
        ref_d = complex(mpmath.besselj(nu, z, derivative=1))
        assert v == pytest.approx(ref_v, rel=1e-10, abs=1e-12)
        assert d == pytest.approx(ref_d, rel=1e-9, abs=1e-11)

    @given(
        nu_re=st.floats(-3.0, 3.0),
        nu_im=st.floats(-2.0, 2.0),
        z=st.floats(0.5, 5.0),
    )
    @settings(max_examples=100)
    def test_cross_order_wronskian(self, nu_re, nu_im, z):
        # J_nu J'_-nu - J'_nu J_-nu = -2 sin(nu pi)/(pi z)
        nu = complex(nu_re, nu_im)
        if abs(nu - round(nu.real)) < 0.05 and abs(nu.imag) < 0.05:
            return  # identity degenerates at integer order
        jp, dp = bessel_j(nu, z)
        jm, dm = bessel_j(-nu, z)
        lhs = jp * dm - dp * jm
        rhs = -2.0 * cmath.sin(nu * cmath.pi) / (cmath.pi * z)
        assert abs(lhs - rhs) <= 1e-8 * max(1e-30, abs(rhs))

    def test_branch_ambiguity_at_origin(self):
        with pytest.raises(BranchAmbiguity):
            bessel_j(-0.5, 0.0)

    def test_argument_cap(self):
        with pytest.raises(ValueError):
            bessel_j(0.0, 60.0)


# ---------------------------------------------------------------------------
# complex_gamma and bessel_j on arrays: the scalar loop is the reference
# ---------------------------------------------------------------------------

def assert_rel_close(got, ref, rel=1e-12):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= rel * np.abs(ref))


def scalar_loop(fn, xs, *args):
    return [fn(complex(x), *args) for x in xs]


# orders of the reflectometry regime: -2i p a above the barrier top (p
# real) and real positive below it (p imaginary)
_P = np.sqrt(np.linspace(-2.0, 8.0, 41) + 0j)
REFLECT_ORDERS = -2j * _P * 1.31


def random_complex(seed, n, scale):
    re, im = np.random.default_rng(seed).normal(scale=scale, size=(2, n))
    return re + 1j * im


RNG_ORDERS = random_complex(7, 60, 3.0)
NEGATIVE_ORDERS = np.array([-0.5, -1.3 + 0.4j, -2.7 - 1.1j, -9.5, -0.2j])


class TestComplexGammaArray:
    def test_matches_scalar_loop(self):
        # half the draws have Re(z) < 0.5: the reflection branch
        z = random_complex(3, 200, 4.0)
        assert np.mean(z.real < 0.5) > 0.3
        assert_rel_close(complex_gamma(z), scalar_loop(complex_gamma, z))

    def test_shape_and_real_input(self):
        z = np.array([[1.0, 5.0], [0.5, -0.5]])
        got = complex_gamma(z)
        assert got.shape == (2, 2) and got.dtype == complex
        assert_rel_close(got.ravel(), scalar_loop(complex_gamma, z.ravel()))
        assert complex_gamma(np.array(0.3 + 1j)).shape == ()

    @pytest.mark.parametrize("pole", [0.0, -7.0, -3.0 + 1e-13j])
    def test_pole_parity(self, pole):
        with pytest.raises(PoleOfGamma):
            complex_gamma(pole)
        with pytest.raises(PoleOfGamma):
            complex_gamma(np.array([2.5 + 1j, pole, 0.3]))


class TestBesselJArray:
    @pytest.mark.parametrize("z", [2.62, 0.3, 7.0 + 1.0j])
    @pytest.mark.parametrize(
        "nu", [REFLECT_ORDERS, RNG_ORDERS, NEGATIVE_ORDERS],
        ids=["reflect", "random", "negative"],
    )
    def test_matches_scalar_loop(self, nu, z):
        J, dJ = bessel_j(nu, z)
        ref = scalar_loop(bessel_j, nu, z)
        assert_rel_close(J, [r[0] for r in ref])
        assert_rel_close(dJ, [r[1] for r in ref])

    def test_row_against_mpmath(self):
        nu = REFLECT_ORDERS[::4]
        J, dJ = bessel_j(nu, 2.62)
        ref_v = [complex(mpmath.besselj(n, 2.62)) for n in nu]
        ref_d = [complex(mpmath.besselj(n, 2.62, derivative=1)) for n in nu]
        assert_rel_close(J, ref_v, rel=1e-10)
        assert_rel_close(dJ, ref_d, rel=1e-9)

    def test_shape_and_empty(self):
        J, dJ = bessel_j(REFLECT_ORDERS[:6].reshape(2, 3), 2.62)
        assert J.shape == dJ.shape == (2, 3)
        J, dJ = bessel_j(np.array([], dtype=complex), 2.62)
        assert J.shape == dJ.shape == (0,)
        J, dJ = bessel_j(np.array(REFLECT_ORDERS[3]), 2.62)
        assert J.shape == dJ.shape == ()
        assert J == pytest.approx(bessel_j(REFLECT_ORDERS[3], 2.62)[0], rel=1e-12)

    def test_origin(self):
        J, dJ = bessel_j(np.array([0.0, 1.0, 2.5 + 1j]), 0.0)
        assert np.array_equal(J, [1, 0, 0]) and np.array_equal(dJ, [0, 0.5, 0])

    @pytest.mark.parametrize(
        "bad, z, exc",
        [
            (-0.5, 0.0, BranchAmbiguity),
            (1.0, 60.0, ValueError),
            # 1/Gamma(nu + 1) counts as zero, so the series never starts
            (-1.0 + 1e-13, 1.0, SeriesNonConvergence),
            (-1.0, 1.0, ZeroDivisionError),
        ],
    )
    def test_error_parity(self, bad, z, exc):
        with pytest.raises(exc):
            bessel_j(bad, z)
        with pytest.raises(exc):
            bessel_j(np.array([0.5, bad, 2.0 + 1j]), z)


# ---------------------------------------------------------------------------
# sph_bessel
# ---------------------------------------------------------------------------

class TestSphBessel:
    def test_l0_at_half_pi(self):
        j, jp, n, np_, h1, h1p = sph_bessel(0, math.pi / 2)
        assert j == pytest.approx(2 / math.pi, abs=1e-12)
        assert n == pytest.approx(0.0, abs=1e-12)

    def test_small_argument_l1(self):
        # j_1(z) = z/3 (1 - z^2/10 + ...), so the linear limit holds to z^2/10
        j, *_ = sph_bessel(1, 0.01)
        assert j == pytest.approx(0.01 / 3, rel=2e-5)
        assert j == pytest.approx(0.01 / 3 * (1 - 0.01**2 / 10), rel=1e-8)

    def test_zero_argument_rejected(self):
        with pytest.raises(ZeroArgument):
            sph_bessel(3, 0.0)

    @pytest.mark.parametrize(
        "l, z",
        [
            (5, 3.7), (9, 1.2), (10, 22.0), (2, 0.3),
            # complex z, upward and Miller branches
            (4, 2.5 + 0.5j), (6, -8.0 + 3.0j), (10, 0.5 - 4.0j), (3, 1.5j),
            # negative real z: the -k sheet of the S-matrix
            (0, -2.5), (3, -2.5), (7, -12.0), (12, -3.0),
            # Miller without and with an overflow rescale of the recurrence
            (30, 0.5), (30, 0.5j), (30, 1e-4), (20, -1e-6),
        ],
    )
    def test_against_mpmath(self, l, z):
        j, jp, n, np_, h1, h1p = sph_bessel(l, z)

        def sph(nu):
            # j_nu(t) = sqrt(pi)/2 (t/2)^nu / Gamma(nu + 3/2) 0F1(; nu + 3/2;
            # -t^2/4): an integer power, so no branch cut on the negative axis
            def f(t):
                b = nu + mpmath.mpf(1.5)
                return (mpmath.sqrt(mpmath.pi) / 2 * (t / 2) ** nu
                        / mpmath.gamma(b) * mpmath.hyp0f1(b, -t * t / 4))
            return f

        # n_l = (-1)^(l+1) j_(-l-1)
        sph_j, sph_n = sph(l), lambda t: (-1) ** (l + 1) * sph(-l - 1)(t)
        zm = mpmath.mpc(z)
        ref = {
            "j": (j, sph_j(zm)),
            "jp": (jp, mpmath.diff(sph_j, zm)),
            "n": (n, sph_n(zm)),
            "np_": (np_, mpmath.diff(sph_n, zm)),
        }
        for name, (got, want) in ref.items():
            want = complex(want)
            assert abs(got - want) <= 1e-12 * abs(want), name
        assert h1 == pytest.approx(complex(ref["j"][1] + 1j * ref["n"][1]), rel=1e-12)
        assert h1p == pytest.approx(jp + 1j * np_, rel=1e-15)

    @given(
        l=st.integers(0, 10),
        re=st.floats(0.1, 20.0),
        im=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=150)
    def test_wronskian(self, l, re, im):
        z = complex(re, im)
        if not 0.1 <= abs(z) <= 20.0:
            return
        j, jp, n, np_, _, _ = sph_bessel(l, z)
        w = j * np_ - jp * n
        ref = 1.0 / (z * z)
        assert abs(w - ref) <= 1e-9 * abs(ref)

    def test_hankel_derivative_consistency(self):
        # h1' must equal j' + i n'
        for l, z in ((0, 1.0), (4, 2.5 + 0.5j), (10, 8.0)):
            j, jp, n, np_, h1, h1p = sph_bessel(l, z)
            assert h1p == pytest.approx(jp + 1j * np_, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# newton_complex
# ---------------------------------------------------------------------------

class TestNewtonComplex:
    def test_square_root_of_minus_one(self):
        z = newton_complex(lambda z: (z * z + 1, 2 * z), 0.5 + 0.8j, 1e-12, 50)
        assert z == pytest.approx(1j, abs=1e-10)

    def test_cube_root_of_unity(self):
        z = newton_complex(lambda z: (z**3 - 1, 3 * z * z), 1.2, 1e-12, 50)
        assert z == pytest.approx(1.0, abs=1e-10)

    def test_one_evaluation_per_iterate(self):
        # f returns (f, f'): each call is at a new Newton iterate, none is
        # spent on differencing the slope
        visited = []

        def f(z):
            visited.append(z)
            return z**3 - 1, 3 * z * z

        z = newton_complex(f, 1.2, 1e-12, 50)
        assert visited[0] == 1.2 and visited[-1] == z
        for a, b in zip(visited, visited[1:]):
            assert b == a - (a**3 - 1) / (3 * a * a)

    def test_pole_condition_seed(self):
        # s-wave outgoing-wave condition of a depth-5, range-2 well
        def f(E):
            k = cmath.sqrt(E)
            p = cmath.sqrt(E + 5)
            t = cmath.tan(p * 2)
            f_k = 1j * t
            f_p = 2j * k * (1 + t * t) - 1
            return 1j * k * t - p, f_k / (2 * k) + f_p / (2 * p)

        z = newton_complex(f, 9 - 4j, 1e-10, 60)
        assert z.real == pytest.approx(9.38265, abs=1e-4)
        assert z.imag == pytest.approx(-4.43007, abs=1e-4)

    def test_no_convergence_carries_state(self):
        with pytest.raises(NoConvergence) as err:
            newton_complex(lambda z: (z * z + 1, 2 * z), 10.0 + 0j, 1e-14, 3)
        assert err.value.last_iterate is not None
        assert err.value.residual > 0

    def test_residual_guarantee(self):
        tol = 1e-9
        z = newton_complex(lambda z: (cmath.exp(z) - 2, cmath.exp(z)), 0.5, tol, 50)
        assert abs(cmath.exp(z) - 2) <= tol


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

class TestIntegrate:
    def test_polynomial(self):
        q = integrate(lambda x: x * x, 0.0, 1.0, 1e-12)
        assert q.value == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_cubic_needs_no_bisection(self):
        # Simpson is exact on cubics: the 32 initial panels share their
        # edges, so 33 edges + 32 midpoints + 64 quarter points
        q = integrate(lambda x: x**3, 0.0, 1.0, 1e-8)
        assert q.value == pytest.approx(0.25, abs=1e-15)
        assert q.evaluations == 129

    def test_delta_shell_delay_evaluations(self):
        # one error budget spends its evaluations where the delay peaks
        q = integrate(delay_function(DeltaShell(10.0, 1.0)), 1e-6, 170.0, 1e-8)
        assert q.evaluations <= 4000

    def test_sine(self):
        q = integrate(math.sin, 0.0, math.pi, 1e-12)
        assert q.value == pytest.approx(2.0, abs=1e-10)

    def test_lorentzian_truncation_matches_arctan(self):
        e0, gamma = 3.0, 0.4

        def lor(e):
            return (gamma / 2) / ((e - e0) ** 2 + gamma**2 / 4)

        a, b = e0 - 50 * gamma, e0 + 50 * gamma
        q = integrate(lor, a, b, 1e-10)
        # antiderivative arctan((E-E0)/(Gamma/2)): each tail loses
        # pi/2 - atan(100), so the truncated value is 2 atan(100)
        exact = 2 * math.atan(100.0)
        assert q.value == pytest.approx(exact, abs=1e-6)

    def test_reversal_antisymmetry(self):
        fwd = integrate(math.exp, 0.0, 2.0, 1e-10).value
        bwd = integrate(math.exp, 2.0, 0.0, 1e-10).value
        assert fwd == pytest.approx(-bwd, abs=1e-12)

    def test_non_integrable_feature(self):
        # pole at 1/3 (never hit exactly by the dyadic sample points)
        with pytest.raises(MaxDepthExceeded):
            integrate(lambda x: 1.0 / (x - 1.0 / 3.0), 0.0, 1.0, 1e-12)

    def test_nan_at_a_node_raises(self):
        # 0.5 is an initial panel edge; a NaN estimate must never be accepted
        with pytest.raises(MaxDepthExceeded):
            integrate(lambda x: math.nan if x == 0.5 else x, 0.0, 1.0, 1e-8)

    def test_unreachable_tolerance_raises(self):
        # round-off keeps the error sum above tol = 0 at every depth; the
        # panel cap ends the bisection instead of exhausting memory
        with pytest.raises(MaxDepthExceeded):
            integrate(math.sin, 0.0, math.pi, 0.0)

    def test_reports_evaluations(self):
        q = integrate(math.cos, 0.0, 1.0, 1e-8)
        assert q.evaluations > 0
        assert 0 <= q.error_bound <= 1e-8


# ---------------------------------------------------------------------------
# Curve / find_extrema
# ---------------------------------------------------------------------------

class TestCurve:
    def test_rejects_non_monotone_energies(self):
        with pytest.raises(ValueError):
            Curve(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(np.array([0.0, 1.0]), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Curve(np.array([0.0, 1.0, 2.0]), np.array([0.0, np.inf, 1.0]))


class TestFindExtrema:
    def test_single_lorentzian(self):
        e0, gamma = 5.0, 0.5
        e = np.linspace(e0 - 10 * gamma, e0 + 10 * gamma, 801)
        v = (gamma / 2) / ((e - e0) ** 2 + gamma**2 / 4)
        peaks = [p for p in find_extrema(Curve(e, v)) if p.kind == "max"]
        assert len(peaks) == 1
        step = e[1] - e[0]
        assert abs(peaks[0].position - e0) <= step
        assert peaks[0].height == pytest.approx(2 / gamma, rel=0.01)

    def test_parabola_on_nonuniform_grid(self):
        # tables may be nonuniform: a uniform-step vertex formula put this
        # maximum at 0.7065, with a height of 3.048 above the true 3
        e = np.array([-1.0, 0.0, 1.0, 3.0, 3.5])
        (peak,) = find_extrema(Curve(e, 3.0 - (e - 1.2) ** 2))
        assert peak.kind == "max"
        assert peak.position == pytest.approx(1.2, abs=1e-12)
        assert peak.height == pytest.approx(3.0, abs=1e-12)

    def test_monotone_curve_is_empty(self):
        e = np.linspace(0, 1, 50)
        assert find_extrema(Curve(e, e**2)) == []

    def test_two_lorentzians(self):
        def lor(e, e0, g):
            return (g / 2) / ((e - e0) ** 2 + g**2 / 4)

        e = np.linspace(0.5, 10.0, 4000)
        v = lor(e, 2.0, 0.5) + lor(e, 8.0, 0.5)
        maxima = [p for p in find_extrema(Curve(e, v)) if p.kind == "max"]
        assert len(maxima) == 2
        assert maxima[0].position == pytest.approx(2.0, rel=0.01)
        assert maxima[1].position == pytest.approx(8.0, rel=0.01)

    def test_endpoints_never_reported(self):
        e = np.linspace(0, 2 * math.pi, 100)
        peaks = find_extrema(Curve(e, np.cos(e)))
        for p in peaks:
            assert e[0] < p.position < e[-1]
