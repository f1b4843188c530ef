"""Unit tests for the special-function / root-finding / quadrature substrate."""
import cmath
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scalar_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from resdelay import numerics
from resdelay.errors import (
    BranchAmbiguity,
    MaxDepthExceeded,
    NoConvergence,
    PoleOfGamma,
    SeriesNonConvergence,
    ZeroArgument,
)
from resdelay.numerics import (
    JOIN,
    Curve,
    bessel_j,
    complex_gamma,
    find_extrema,
    integrate,
    newton_complex,
    sph_bessel,
)
from resdelay.scattering import DeltaShell, time_delay

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

    @pytest.mark.parametrize("z", [7.0, 15.0, 25.0])
    def test_accepted_sums_are_within_the_roundoff_bound(self, z):
        # the step's order at E - V1 - V2 = 4, a = 1.31: the series cancels
        # more as z grows, and whatever it returns is good to 1e-8
        nu = -5.24j
        v, d = bessel_j(nu, z)
        ref_v = complex(mpmath.besselj(nu, z))
        ref_d = complex(mpmath.besselj(nu, z, derivative=1))
        assert abs(v - ref_v) + abs(d - ref_d) <= 1e-8 * (abs(ref_v) + abs(ref_d))

    def test_branch_ambiguity_at_origin(self):
        # z**nu has no limit; at nu = -n, J_{-n} = (-1)^n J_n does, but the
        # origin still takes only nu = 0, nu = 1 and Re(nu) > 1
        for nu in (-0.5, -1.0, -2.0 + 1j):
            with pytest.raises(BranchAmbiguity):
                bessel_j(nu, 0.0)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 1.5, 2.5 + 1j, 3.0, 2.2 - 4j])
    def test_origin_is_the_limit(self, nu):
        mpmath = pytest.importorskip("mpmath")
        J, dJ = bessel_j(nu, 0.0)
        with mpmath.workdps(30):
            z = mpmath.mpf("1e-40")
            ref = mpmath.besselj(nu, z), mpmath.besselj(nu, z, derivative=1)
        assert abs(J - complex(ref[0])) <= 1e-12
        assert abs(dJ - complex(ref[1])) <= 1e-12

    @pytest.mark.parametrize("nu", [1j, -3.5j, 0.5, 0.9, 1.0 + 1j, 1.0 - 2j])
    def test_origin_without_a_limit_raises(self, nu):
        # (z/2)**nu turns through every phase (Re nu = 0), or dJ/dz grows
        # like z**(nu - 1) (Re nu < 1) or turns (Re nu = 1, nu != 1), so
        # mpmath's values at z = 1e-10 and 1e-20 are far apart
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            at = [(mpmath.besselj(nu, z), mpmath.besselj(nu, z, derivative=1))
                  for z in (mpmath.mpf("1e-10"), mpmath.mpf("1e-20"))]
        apart = abs(at[0][0] - at[1][0]) + abs(at[0][1] - at[1][1])
        assert apart > 0.1
        with pytest.raises(BranchAmbiguity):
            bessel_j(nu, 0.0)
        with pytest.raises(BranchAmbiguity):
            bessel_j(np.array([0.0, nu, 2.0]), 0.0)

    def test_argument_cap(self):
        with pytest.raises(ValueError):
            bessel_j(0.0, 60.0)


# ---------------------------------------------------------------------------
# complex_gamma and bessel_j on arrays: a scalar mpmath loop is the reference
# ---------------------------------------------------------------------------

def assert_rel_close(got, ref, rel=1e-12):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= rel * np.abs(ref))


def mp_gamma(z):
    return complex(mpmath.gamma(z))


def mp_bessel_j(nu, z):
    return complex(mpmath.besselj(nu, z)), complex(mpmath.besselj(nu, z, derivative=1))


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
        assert_rel_close(complex_gamma(z), scalar_loop(mp_gamma, z))

    def test_shape_and_real_input(self):
        z = np.array([[1.0, 5.0], [0.5, -0.5]])
        got = complex_gamma(z)
        assert got.shape == (2, 2) and got.dtype == complex
        assert_rel_close(got.ravel(), scalar_loop(mp_gamma, z.ravel()))
        assert complex_gamma(np.array(0.3 + 1j)).shape == ()

    @pytest.mark.parametrize("lo, hi", [(142.5, 171.5), (-170.5, -141.5)])
    def test_far_along_the_real_axis(self, lo, hi):
        # |log Gamma| nears 709: the product form once overflowed to NaN
        # here, on both sides of the reflection
        z = np.linspace(lo, hi, 80) + np.array([0.0, 0.1j, -0.3j])[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = complex_gamma(z)
        assert_rel_close(got.ravel(), scalar_loop(mp_gamma, z.ravel()))

    @pytest.mark.parametrize("im", [200.0, 300.0, 400.0, -200.0, -300.0, -400.0])
    def test_far_up_the_imaginary_axis(self, im):
        # on the reflected side sin(pi z) overflows once |Im z| passes about
        # 226, though |Gamma| is still about 1e-273 at |Im z| = 400
        z = np.array([0.3, -0.7]) + 1j * im
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = complex_gamma(z)
        assert_rel_close(got, scalar_loop(mp_gamma, z))

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
        ref = scalar_loop(mp_bessel_j, nu, z)
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
            # the terms reach 1e7 and cancel to J ~ 0.1
            (-5.24j, 40.0, SeriesNonConvergence),
            # the step's order -2i sqrt(E - 2) a at a = 1.31: near E = 3e4
            # the first terms pass 1e300, and at E = 1e6 Gamma(nu + 1)
            # underflows to zero; both once warned and returned inf or nan
            (-453.78j, 2.62, SeriesNonConvergence),
            (-2620j, 2.62, SeriesNonConvergence),
        ],
    )
    def test_error_parity(self, bad, z, exc):
        with pytest.raises(exc):
            bessel_j(bad, z)
        with pytest.raises(exc):
            bessel_j(np.array([0.5, bad, 2.0 + 1j]), z)

    @pytest.mark.parametrize(
        "nu, z", [(-3.0 + 1e-13j, 1.5), (-2.0 + 1e-9, 1.5), (-1.0 + 1e-13, 1.0)]
    )
    def test_near_pole_orders_against_mpmath(self, nu, z):
        # Gamma(nu + 1) is near a pole: the first term comes from the
        # reflected log Gamma, whose sine keeps its digits there
        ref_v = complex(mpmath.besselj(nu, z))
        ref_d = complex(mpmath.besselj(nu, z, derivative=1))
        for J, dJ in (bessel_j(nu, z), bessel_j(np.array([0.5, nu]), z)):
            assert_rel_close(np.ravel(J)[-1:], [ref_v])
            assert_rel_close(np.ravel(dJ)[-1:], [ref_d])

    @pytest.mark.parametrize(
        "z, edge, order_derivative",
        [(0.3, 437.64, False), (2.62, 439.02, False), (7.07, 439.64, False),
         (0.3, 436.31, True), (2.62, 437.88, True), (7.07, 438.61, True)],
    )
    def test_overflow_edge_of_the_imaginary_order_axis(self, z, edge, order_derivative):
        # from the order -i edge on, the first term's |J| + |dJ/dz| (or its
        # order derivatives') passes 1e300; the edge is pinned to 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            below = bessel_j(-1j * (edge - 0.05), z, order_derivative=order_derivative)
            assert all(cmath.isfinite(x) for x in below)
            for y in (edge + 0.05, edge + 1.0, 2.0 * edge):
                with pytest.raises(SeriesNonConvergence):
                    bessel_j(-1j * y, z, order_derivative=order_derivative)

    @pytest.mark.parametrize("z", [1.0, 2.62, 7.0 + 1.0j])
    def test_negative_integer_orders(self, z):
        # the series divides by zero at an order -n; J_{-n} = (-1)^n J_n
        nu = np.array([-1.0, -2.0, -3.0, -7.0, -1.0 + 0.5j])
        J, dJ = bessel_j(nu, z)
        ref = scalar_loop(mp_bessel_j, nu, z)
        assert_rel_close(J, [r[0] for r in ref])
        assert_rel_close(dJ, [r[1] for r in ref])
        for i, n in enumerate(nu):
            assert bessel_j(n, z) == (J[i], dJ[i])
        assert bessel_j(-1.0, 1.0)[0] == pytest.approx(-0.440050585744933, rel=1e-14)


# the step's orders -2i p a: p from 1e-3 to 5.3, a up to 2.5
STEP_ORDERS = -1j * np.geomspace(0.01, 14.0, 15)


def mp_order_derivatives(nu, z):
    """(dJ/dnu, d2J/dz dnu) of mpmath's besselj at 40 digits."""
    with mpmath.workdps(40):
        nu = mpmath.mpc(nu)
        return (
            complex(mpmath.diff(lambda v: mpmath.besselj(v, z), nu)),
            complex(mpmath.diff(lambda v: mpmath.besselj(v, z, derivative=1), nu)),
        )


class TestBesselJOrderDerivative:
    @pytest.mark.parametrize("z", [1.0, 2.62, 7.07])
    @pytest.mark.parametrize(
        "nu", [STEP_ORDERS, np.array([0.0, 0.3 + 1.0j, 2.5 - 0.5j, -0.4 + 0.2j])],
        ids=["step", "general"],
    )
    def test_against_mpmath(self, nu, z):
        *_, nJ, ndJ = bessel_j(nu, z, order_derivative=True)
        ref = scalar_loop(mp_order_derivatives, nu, z)
        assert_rel_close(nJ, [r[0] for r in ref])
        assert_rel_close(ndJ, [r[1] for r in ref])

    @pytest.mark.parametrize("z", [0.3, 2.62, 7.07])
    def test_value_and_z_derivative_keep_their_bits(self, z):
        # the order derivatives keep an order in the loop after J stops,
        # but J and dJ/dz are stored at J's own stopping step
        J, dJ, *_ = bessel_j(STEP_ORDERS, z, order_derivative=True)
        assert np.array_equal(J, bessel_j(STEP_ORDERS, z)[0])
        assert np.array_equal(dJ, bessel_j(STEP_ORDERS, z)[1])
        one = bessel_j(complex(STEP_ORDERS[4]), z, order_derivative=True)
        assert all(isinstance(x, complex) for x in one)
        assert one[:2] == bessel_j(complex(STEP_ORDERS[4]), z)

    def test_digamma_is_the_log_derivative_of_gamma(self):
        z = np.array([0.5, 1.0, 1.0 - 0.01j, 1.0 - 14j, 3.7 + 2.0j, 20.0])
        ref = [complex(mpmath.digamma(x)) for x in z]
        assert_rel_close(numerics._log_gamma(z)[1], ref, rel=1e-13)

    def test_log_gamma_against_mpmath(self):
        # the digamma points and the step's order line 1 - iy, out to the
        # overflow edge of the first term near y = 437
        z = np.array([0.5, 1.0, 1.0 - 0.01j, 1.0 - 14j, 3.7 + 2.0j, 20.0,
                      1.0 - 1j, 1.0 - 100j, 1.0 - 437j])
        log_gamma, psi = numerics._log_gamma(z)
        ref = np.array([complex(mpmath.loggamma(x)) for x in z])
        assert np.all(np.abs(log_gamma - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        assert_rel_close(psi, [complex(mpmath.digamma(x)) for x in z], rel=1e-13)

    def test_one_lanczos_loop_per_call(self, monkeypatch):
        # log Gamma(nu + 1) and psi(nu + 1) come from one Lanczos loop,
        # without complex_gamma's pole test
        calls = {"lanczos": 0, "complex_gamma": 0}
        lanczos, gamma = numerics._log_gamma, numerics.complex_gamma

        def counted(name, fn):
            def wrapper(z):
                calls[name] += 1
                return fn(z)
            return wrapper

        monkeypatch.setattr(numerics, "_log_gamma", counted("lanczos", lanczos))
        monkeypatch.setattr(numerics, "complex_gamma", counted("complex_gamma", gamma))
        bessel_j(STEP_ORDERS, 2.62, order_derivative=True)
        assert calls == {"lanczos": 1, "complex_gamma": 0}

    @pytest.mark.parametrize("bad, z", [(-0.5, 2.0), (-1.3 + 0.4j, 2.0), (1.0, 0.0)])
    def test_domain(self, bad, z):
        with pytest.raises(ValueError):
            bessel_j(bad, z, order_derivative=True)
        with pytest.raises(ValueError):
            bessel_j(np.array([0.5, bad]), z, order_derivative=True)

    @pytest.mark.parametrize("bad, z", [(-5.24j, 40.0), (-453.78j, 2.62)])
    def test_error_parity(self, bad, z):
        # the cancelling and the overflowing series of TestBesselJArray
        with pytest.raises(SeriesNonConvergence):
            bessel_j(np.array([0.5, bad, 2.0 + 1j]), z, order_derivative=True)


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

    # against 50-digit mpmath, j_30 is 7.8e-5 relative off at 30i and j_20
    # 2.3e-8 at 20i, where the upward j row runs (|z| >= l); the upward h1
    # row has a relative error of 12.5 at (30, -20i) and 4.9e-6 at
    # (20, -15i), below the axis at |z| < l, where h2_l catches up with h1_l
    @pytest.mark.parametrize(
        "l, z, which",
        [
            pytest.param(l, z, which, marks=pytest.mark.xfail(strict=True, reason=why))
            for l, z, which, why in [
                (30, 30j, "j", "upward j_l loses digits off the axis at |z| >= l"),
                (20, 20j, "j", "upward j_l loses digits off the axis at |z| >= l"),
                (30, -20j, "h1", "upward h1_l loses digits below the axis at |z| < l"),
                (20, -15j, "h1", "upward h1_l loses digits below the axis at |z| < l"),
            ]
        ],
    )
    def test_large_order_off_the_axis_against_mpmath(self, l, z, which):
        j, _, _, _, h1, _ = sph_bessel(l, z)
        with mpmath.workdps(50):
            zm = mpmath.mpc(z)
            scale = mpmath.sqrt(mpmath.pi / (2 * zm))
            ref = scale * mpmath.besselj(l + 0.5, zm)
            if which == "h1":
                ref += 1j * scale * mpmath.bessely(l + 0.5, zm)
            ref = complex(ref)
        got = j if which == "j" else h1
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("l", [1, 3, 10])
    def test_hankel_above_the_axis_against_mpmath(self, l):
        # h1_l decays like e^(-Im z) above the axis, where j_l + i n_l used
        # to cancel (h1_1 was 9e-5 relative off at 15i and 0 from 20i on)
        def sph_h1(nu, t):
            scale = mpmath.sqrt(mpmath.pi / (2 * t))
            return scale * (mpmath.besselj(nu + 0.5, t)
                            + 1j * mpmath.bessely(nu + 0.5, t))

        z = 1j * np.linspace(5.0, 40.0, 36)
        _, _, _, _, h1, h1p = sph_bessel(l, z)
        with mpmath.workdps(50):
            for y, got, gotp in zip(z, h1, h1p):
                zm = mpmath.mpc(y)
                want = complex(sph_h1(l, zm))
                # h1_l' = h1_(l-1) - (l + 1)/z h1_l
                wantp = complex(sph_h1(l - 1, zm) - (l + 1) / zm * sph_h1(l, zm))
                assert abs(got - want) <= 1e-13 * abs(want)
                assert abs(gotp - wantp) <= 1e-13 * abs(wantp)

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

    @pytest.mark.parametrize(
        "l, bound", [(0, 1e-14), (1, 1e-14), (3, 1e-14), (10, 1e-12), (30, 1e-12)]
    )
    def test_matches_the_cmath_loop(self, l, bound):
        # upward and Miller branches, both sheets of k.  numpy and Python
        # round complex products and quotients differently, and the
        # recurrences carry that: on these points the largest relative
        # difference measured was 4.5e-15 (l = 0, 1), 2.7e-15 (l = 3),
        # 4.0e-13 (l = 10) and 5.0e-13 (l = 30)
        z = np.concatenate((
            random_complex(5, 40, 6.0).real + 1j * random_complex(7, 40, 1.0).imag,
            random_complex(8, 40, 20.0).real + 1j * random_complex(9, 40, 2.0).imag,
            [-2.5, 0.3, 12.0 + 1.0j, -40.0, 35.0 - 0.5j],
        ))
        if l:
            z = np.append(z, [1e-4, -1e-6j])  # Miller, rescaled at l = 30
            assert np.count_nonzero(np.abs(z) < l) >= 3  # Miller
            assert np.count_nonzero(np.abs(z) >= l) >= 3  # upward
        got = np.array(sph_bessel(l, z))
        want = np.array([scalar_oracle.sph_bessel(l, complex(x)) for x in z]).T
        scale = np.abs(want)
        # h1 = j + i n cancels where Im z > 0: measured against |j| + |n|
        scale[4:] = scale[0:2] + scale[2:4]
        assert np.all(np.abs(got - want) <= bound * scale)

    @pytest.mark.parametrize("l", [1, 3, 10, 30])
    def test_batch_element_is_the_point_alone(self, l):
        # each Miller element starts at its own order and is rescaled on its
        # own, so a batch mixing branches, starts and rescaled elements
        # changes no bit
        z = np.concatenate(
            (random_complex(11, 60, 0.6 * l), [-2.5, 0.3, 12.0 + 1.0j, 1e-4, -1e-6j])
        )
        got = sph_bessel(l, z.reshape(-1, 1))
        for i, x in enumerate(z):
            alone = sph_bessel(l, np.array([x]))
            for col, want in zip(got, alone):
                assert col.shape == (len(z), 1)
                assert col[i, 0] == want[0]  # bit for bit
            assert sph_bessel(l, complex(x)) == tuple(c[0] for c in alone)

    def test_array_shapes(self):
        for out in sph_bessel(2, np.array(1.5 - 0.5j)):
            assert out.shape == () and out.dtype == complex
        assert sph_bessel(2, np.array(1.5 - 0.5j))[0] == sph_bessel(2, 1.5 - 0.5j)[0]
        for out in sph_bessel(2, np.array([], dtype=complex)):
            assert out.shape == (0,)
        j, *_ = sph_bessel(1, np.array([1.0, 2.0]))
        assert j.dtype == complex

    def test_array_zero_argument_rejected(self):
        with pytest.raises(ZeroArgument):
            sph_bessel(3, np.array([1.0, 0.0, 2.0]))


def separate_passes(l, x, sin_x, cos_x, y):
    """The rows of numerics._sph_jh, each from a pass of its own: j_l at x
    (upward, then Miller where |x| < l) and h1_l at y (upward from
    h1_0 = -i e^(iy)/y)."""
    j0 = sin_x / x
    j, jp = numerics._upward(l, x, j0, sin_x / (x * x) - cos_x / x)
    miller = np.abs(x) < l
    if miller.any():
        j[miller], jp[miller] = numerics._miller(l, x[miller], j0[miller])
    e = np.exp(1j * y)
    return (j, jp, *numerics._upward(l, y, -1j * e / y, -1j * e / (y * y) - e / y))


def points(seed, n, r_lo, r_hi):
    """n complex points with |z| uniform in [r_lo, r_hi) at random angles."""
    rng = np.random.default_rng(seed)
    r, angle = rng.uniform((r_lo, 0.0), (r_hi, 2 * math.pi), (n, 2)).T
    return r * np.exp(1j * angle)


class TestStackedPass:
    # the outgoing condition's one pass: j_l at the interior x = pa and h1_l
    # at the exterior y = ka, stacked as the rows [j(x), h1(y)].  Only the
    # j rows run Miller, so "no_exterior_miller" is the case whose y all
    # lie at |y| >= l, where h1_l never loses to h2_l
    THICK = np.array([2.0 + 400.0j, 35.0 - 350.0j, 0.5 + 900.0j])  # |Im x| > 300

    @classmethod
    def arguments(cls, l, case):
        below, above = (lambda seed, n: points(seed, n, 0.05 * l, 0.95 * l),
                        lambda seed, n: points(seed, n, 1.05 * l, 3.0 * l))
        mixed_x = np.concatenate((below(l, 6), [1e-4, -1e-6j], above(l + 1, 6)))
        mixed_y = np.concatenate((above(l + 2, 5), below(l + 3, 5)))
        return {
            "mixed": (mixed_x, mixed_y),
            "thick_barrier": (np.concatenate((mixed_x, cls.THICK)), mixed_y),
            "one_element": (below(l + 4, 1), above(l + 5, 1)),
            "no_interior_miller": (np.concatenate((above(l + 6, 4), cls.THICK)), mixed_y),
            "no_exterior_miller": (mixed_x, above(l + 7, 4)),
            "no_interior_rows": (np.empty(0, dtype=complex), mixed_y),
        }[case]

    @pytest.mark.parametrize("case", [
        "mixed", "thick_barrier", "one_element", "no_interior_miller",
        "no_exterior_miller", "no_interior_rows",
    ])
    @pytest.mark.parametrize("l", [1, 5, 10, 20, 30])
    def test_equals_the_separate_passes(self, l, case):
        x, y = self.arguments(l, case)
        clipped = x.copy()
        clipped.imag = np.clip(x.imag, -300.0, 300.0)
        sin_x, cos_x = np.sin(clipped), np.cos(clipped)
        got = numerics._sph_jh(l, x, sin_x, cos_x, y)
        want = separate_passes(l, x, sin_x, cos_x, y)
        assert [g.shape for g in got] == [x.shape] * 2 + [y.shape] * 2
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()  # bit for bit
        # sph_bessel is the same pass: h1 at y, and j at the x not clipped
        for g, public in zip(got[2:], sph_bessel(l, y)[4:]):
            assert g.tobytes() == public.tobytes()
        free = x == clipped
        for g, public in zip(got[:2], sph_bessel(l, x[free])[:2]):
            assert g[free].tobytes() == public.tobytes()

    def test_cases_cover_both_branches(self):
        # each case reaches the Miller and upward j rows it is named for,
        # and h1 rows on both sides of |y| = l and of the real axis
        for l in (1, 5, 10, 20, 30):
            x, y = self.arguments(l, "mixed")
            assert (np.abs(x) < l).any() and (np.abs(x) >= l).any()
            assert (np.abs(y) < l).any() and (np.abs(y) >= l).any()
            assert (y.imag > 0).any() and (y.imag < 0).any()
            assert (np.abs(self.arguments(l, "no_interior_miller")[0]) >= l).all()
            assert (np.abs(self.arguments(l, "no_exterior_miller")[1]) >= l).all()

    def test_shapes_follow_each_argument(self):
        x, y = points(1, 6, 0.5, 8.0).reshape(2, 3), points(2, 4, 0.5, 8.0).reshape(4, 1)
        got = numerics._sph_jh(5, x, np.sin(x), np.cos(x), y)
        assert [g.shape for g in got] == [(2, 3)] * 2 + [(4, 1)] * 2
        flat = numerics._sph_jh(
            5, x.ravel(), np.sin(x).ravel(), np.cos(x).ravel(), y.ravel()
        )
        for g, f in zip(got, flat):
            assert g.ravel().tobytes() == f.tobytes()

    def test_zero_argument_on_either_side(self):
        x, y = points(3, 3, 0.5, 2.0), points(4, 3, 0.5, 2.0)
        for bad_x, bad_y in ((np.append(x, 0.0), y), (x, np.append(y, 0.0))):
            with pytest.raises(ZeroArgument):
                numerics._sph_jh(3, bad_x, np.sin(bad_x), np.cos(bad_x), bad_y)


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
        # s-wave outgoing-wave condition of a depth-5, range-2 well; f gets
        # the array of iterates, so it is written in numpy
        def f(E):
            k = np.sqrt(E)
            p = np.sqrt(E + 5)
            t = np.tan(p * 2)
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
        z = newton_complex(lambda z: (np.exp(z) - 2, np.exp(z)), 0.5, tol, 50)
        assert abs(cmath.exp(z) - 2) <= tol

    def test_zero_slope_raises(self):
        with pytest.raises(NoConvergence) as err:
            newton_complex(lambda z: (z * z + 1, 2 * z), 0.0, 1e-12, 50)
        assert err.value.last_iterate == 0 and err.value.residual == 1.0

    def test_tol_must_be_positive_and_finite(self):
        # a NaN tol stopped no seed (NoConvergence at residual 0.0), and an
        # infinite one took every seed for a root
        for tol in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                newton_complex(lambda z: (z * z + 1, 2 * z), 0.5 + 0.8j, tol, 50)


class TestNewtonBatch:
    @staticmethod
    def square(z):
        return z * z + 1, 2 * z

    def test_mixed_seeds_find_both_roots(self):
        seeds = np.array([0.5 + 0.8j, -1 - 1j, 2 + 0.1j, -3 - 0.2j, 0.1 - 5j])
        roots, residuals, outcomes = newton_complex(self.square, seeds, 1e-12, 50)
        assert list(outcomes) == ["converged"] * 5
        # each seed goes to the root of its half plane
        assert np.allclose(roots, np.where(seeds.imag > 0, 1j, -1j), atol=1e-10)
        assert np.all(residuals <= 1e-12)
        assert np.all(residuals == np.abs(roots * roots + 1))

    def test_each_seed_is_its_own_run(self):
        # a batch element takes the same steps, and the same number, as
        # the seed run alone
        seeds = np.array([0.5 + 0.8j, 3 - 7j, 1e3 + 1j, -0.2 - 0.01j])
        roots, residuals, outcomes = newton_complex(self.square, seeds, 1e-12, 50)
        for i, seed in enumerate(seeds):
            alone = newton_complex(self.square, seeds[i:i + 1], 1e-12, 50)
            assert (roots[i], residuals[i], outcomes[i]) == tuple(a[0] for a in alone)
            assert newton_complex(self.square, complex(seed), 1e-12, 50) == roots[i]

    def test_failing_seeds_are_flagged_alone(self):
        # a zero slope, a NaN value and a seed out of steps leave the
        # converging seeds as they would be alone
        def f(z):
            value, slope = self.square(z)
            return np.where(z.real > 100, np.nan, value), slope

        seeds = np.array([0.5 + 0.8j, 0.0, 200.0 + 1j, -1 - 1j, -1e30 + 0j])
        roots, residuals, outcomes = newton_complex(f, seeds, 1e-12, 20)
        assert list(outcomes) == [
            "converged", "zero_slope", "non_finite", "converged", "no_convergence"
        ]
        assert roots[1] == 0 and residuals[1] == 1.0
        assert roots[2] == seeds[2] and residuals[2] == math.inf
        assert residuals[4] > 1e12
        good = newton_complex(f, seeds[[0, 3]], 1e-12, 20)
        assert np.array_equal(roots[[0, 3]], good[0])
        assert np.array_equal(residuals[[0, 3]], good[1])

    def test_one_call_per_round(self):
        calls = []

        def f(z):
            calls.append(z.size)
            return self.square(z)

        seeds = np.array([1j + 1e-3, 0.5 + 0.8j, 1e3 + 1j])
        newton_complex(f, seeds, 1e-12, 50)
        # every round evaluates only the seeds still running, so the size
        # falls as seeds stop, and there is at most max_iter + 1 rounds
        assert calls[0] == 3 and calls[-1] == 1
        assert calls == sorted(calls, reverse=True) and len(calls) <= 51

    def test_until_stops_the_seeds_still_running(self):
        # the rule sees the round and the seeds that stopped in it, in seed
        # order: the zero slope in round 0, none in round 1, the first root
        # in round 2.  Once it holds, the seeds still running end there as
        # stopped, each with its last iterate and its |f| there
        seen, calls = [], []

        def until(i, roots, outcomes):
            seen.append((i, roots.tolist(), outcomes.tolist()))
            return i == 2

        def f(z):
            calls.append(z.size)
            return self.square(z)

        seeds = np.array([1j + 1e-3, 0.5 + 0.8j, 1e3 + 1j, -1 - 1j, 0.0])
        roots, residuals, outcomes = newton_complex(f, seeds, 1e-12, 50, until=until)
        free = newton_complex(self.square, seeds, 1e-12, 50)
        assert calls == [5, 4, 4]
        assert seen == [(0, [0j], ["zero_slope"]), (1, [], []),
                        (2, [free[0][0]], ["converged"])]
        assert list(outcomes) == ["converged", "stopped", "stopped", "stopped",
                                  "zero_slope"]
        assert roots[0] == free[0][0] and residuals[0] == free[1][0]
        for i in (1, 2, 3):
            assert residuals[i] == abs(roots[i] * roots[i] + 1) > 1e-12

    def test_until_is_asked_after_every_round(self):
        # the seed converges in round 24; the 24 rounds before it stop no
        # seed, and the rule sees them with empty arrays
        asked = []
        newton_complex(self.square, np.array([1e3 + 1j]), 1e-12, 50,
                       until=lambda i, r, o: asked.append((i, o.size)) or False)
        assert asked == [(i, 0) for i in range(24)] + [(24, 1)]

    def test_late_seeds_take_the_steps_they_take_alone(self):
        # held seeds that the rule lets join after round 1 are evaluated
        # from round 2 with the seeds still running, and take the steps
        # they take alone, max_iter - 2 of them
        calls = []

        def f(z):
            calls.append(z.size)
            return self.square(z)

        seeds = np.array([0.5 + 0.8j, 3 - 7j, 1e3 + 1j, -0.2 - 0.01j, 2 + 1j])
        held = np.array([False, True, False, True, False])
        roots, residuals, outcomes = newton_complex(
            f, seeds, 1e-12, 12, until=lambda i, r, o: i == 1 and JOIN, held=held
        )
        assert calls[:3] == [3, 3, 5]
        assert len(calls) <= 13
        for i, seed in enumerate(seeds):
            steps = 10 if held[i] else 12
            alone = newton_complex(self.square, seeds[i:i + 1], 1e-12, steps)
            assert (roots[i], residuals[i], outcomes[i]) == tuple(a[0] for a in alone)
        assert outcomes[2] == "no_convergence"

    def test_late_seeds_join_after_the_others_stopped(self):
        # the running seed converges in round 0; the rule is still asked in
        # rounds 1 to 3, which evaluate nothing, and the held seed joins in
        # round 4 with 46 steps
        calls, asked = [], []

        def f(z):
            calls.append(z.size)
            return self.square(z)

        def until(i, roots, outcomes):
            asked.append(i)
            return i == 3 and JOIN

        seeds = np.array([1j, 0.5 + 0.8j])
        roots, _, outcomes = newton_complex(f, seeds, 1e-12, 50, until=until,
                                            held=[False, True])
        alone = newton_complex(self.square, seeds[1:], 1e-12, 46)
        assert calls[0] == 1 and set(calls[1:]) == {1}
        assert asked[:4] == [0, 1, 2, 3]
        assert list(outcomes) == ["converged", "converged"]
        assert roots[1] == alone[0][0]

    def test_until_stops_the_seeds_still_to_join(self):
        # the rule holds in round 0, before the held seeds join: they end
        # as stopped at the seed itself, never evaluated
        calls = []

        def f(z):
            calls.append(z.size)
            return self.square(z)

        seeds = np.array([1j, 0.5 + 0.8j, -1 - 1j])
        roots, residuals, outcomes = newton_complex(
            f, seeds, 1e-12, 50, until=lambda i, r, o: True,
            held=[False, True, True]
        )
        assert calls == [1]
        assert list(outcomes) == ["converged", "stopped", "stopped"]
        assert np.array_equal(roots[1:], seeds[1:])
        assert np.isnan(residuals[1:]).all()

    def test_held_seeds_the_rule_never_lets_join_are_stopped(self):
        calls = []

        def f(z):
            calls.append(z.size)
            return self.square(z)

        seeds = np.array([1j, 0.5 + 0.8j])
        roots, residuals, outcomes = newton_complex(
            f, seeds, 1e-12, 5, until=lambda i, r, o: False, held=[False, True]
        )
        assert calls == [1]
        assert list(outcomes) == ["converged", "stopped"]
        assert roots[1] == seeds[1] and math.isnan(residuals[1])

    def test_empty_batch(self):
        roots, residuals, outcomes = newton_complex(
            self.square, np.array([], dtype=complex), 1e-12, 50
        )
        assert roots.shape == residuals.shape == outcomes.shape == (0,)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

class TestIntegrate:
    def test_polynomial(self):
        q = integrate(lambda x: x * x, 0.0, 1.0, 1e-12)
        assert q.value == pytest.approx(1.0 / 3.0, abs=1e-10)

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(len(x))
            return f(x)

        return g, calls

    def test_cubic_needs_no_bisection(self):
        # Simpson is exact on cubics: the 32 initial panels share their
        # edges, so 33 edges + 32 midpoints + 64 quarter points, in one call
        f, calls = self.counted(lambda x: x**3)
        q = integrate(f, 0.0, 1.0, 1e-8)
        assert q.value == pytest.approx(0.25, abs=1e-15)
        assert q.evaluations == 129
        assert calls == [129]

    def test_delta_shell_delay_evaluations(self):
        # one error budget spends its evaluations where the delay peaks;
        # each round samples all the quarter points it adds in one call
        f, calls = self.counted(functools.partial(time_delay, DeltaShell(10.0, 1.0)))
        q = integrate(f, 1e-6, 170.0, 1e-8)
        assert q.evaluations <= 4000
        assert (q.evaluations, len(calls)) == (3221, 25)
        assert sum(calls) == q.evaluations

    def test_sine(self):
        q = integrate(np.sin, 0.0, math.pi, 1e-12)
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

    def test_empty_range_takes_no_sample(self):
        f, calls = self.counted(np.exp)
        q = integrate(f, 2.5, 2.5, 1e-10)
        assert (q.value, q.error_bound, q.evaluations) == (0.0, 0.0, 0)
        assert calls == []

    def test_reversal_antisymmetry(self):
        fwd = integrate(np.exp, 0.0, 2.0, 1e-10).value
        bwd = integrate(np.exp, 2.0, 0.0, 1e-10).value
        assert fwd == pytest.approx(-bwd, abs=1e-12)

    def test_non_integrable_feature(self):
        # pole at 1/3 (never hit exactly by the dyadic sample points)
        with pytest.raises(MaxDepthExceeded):
            integrate(lambda x: 1.0 / (x - 1.0 / 3.0), 0.0, 1.0, 1e-12)

    def test_nan_at_a_node_raises(self):
        # 0.5 is an initial panel edge; a NaN estimate must never be accepted
        with pytest.raises(MaxDepthExceeded):
            integrate(lambda x: np.where(x == 0.5, np.nan, x), 0.0, 1.0, 1e-8)

    def test_unreachable_tolerance_raises(self):
        # round-off keeps the error sum above tol = 1e-300 at every depth;
        # the panel cap ends the bisection instead of exhausting memory
        with pytest.raises(MaxDepthExceeded):
            integrate(np.sin, 0.0, math.pi, 1e-300)

    def test_tol_must_be_positive_and_finite(self):
        # a NaN tol bisected one panel per round up to the panel cap, and an
        # infinite one accepted the first estimate
        for tol in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                integrate(np.sin, 0.0, math.pi, tol)

    def test_integrand_must_return_an_array_of_its_shape(self):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 0.0, 1.0, 1e-8)

    def test_reports_evaluations(self):
        q = integrate(np.cos, 0.0, 1.0, 1e-8)
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

    @pytest.mark.parametrize("y", [(2.0, 4.0, 8.0), (5.0, 5.0, 5.0)], ids=["line", "flat"])
    def test_degenerate_triple_refines_to_the_middle_point(self, y):
        # three points on a line (here of slope 2, or flat) have no vertex
        assert numerics._parabolic_refine(0.0, 1.0, 3.0, *y) == (1.0, y[1])

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

    @pytest.mark.parametrize(
        "values, expected",
        [
            # a plateau extremum counts once, refined from its left edge
            ([0, 1, 1, 1, 0], [(1.5, "max")]),
            ([3, 2, 2, 4], [(1.5, "min")]),
            # a plateau that keeps rising, or that runs to the end, is none
            ([0, 1, 1, 2, 3], []),
            ([0, 1, 1, 1], []),
            ([2, 1, 1], []),
            # a plateau at the start has no step into it
            ([1, 1, 0, 1], [(2.0, "min")]),
        ],
    )
    def test_plateaus(self, values, expected):
        curve = Curve(np.arange(len(values), dtype=float), np.array(values, float))
        peaks = find_extrema(curve)
        assert [(p.position, p.kind) for p in peaks] == expected
        assert peaks == scalar_oracle.find_extrema(curve)

    @given(
        values=st.lists(st.integers(-2, 2), min_size=3, max_size=40),
        spacing=st.lists(st.floats(0.1, 2.0), min_size=40, max_size=40),
    )
    @settings(max_examples=300)
    def test_matches_the_sample_scan(self, values, spacing):
        # small integers make plateaus of every kind
        e = np.cumsum(spacing[: len(values)])
        curve = Curve(e, np.array(values, dtype=float))
        assert find_extrema(curve) == scalar_oracle.find_extrema(curve)


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "call, exc, match",
    [
        (lambda: numerics._sample_grid(2.0, 1.0, 10), ValueError, "e_hi > e_lo > 0"),
        (lambda: numerics._sample_grid(1.0, math.inf, 10), ValueError, "both finite"),
        (lambda: numerics._sample_grid(1.0, 2.0, 1), ValueError, "at least 2 samples"),
        (lambda: sph_bessel(-1, 1.0), ValueError, r"\[0, 30\]"),
        (lambda: sph_bessel(31, 1.0), ValueError, r"\[0, 30\]"),
        (lambda: find_extrema(Curve(np.array([1.0, 2.0]), np.array([0.0, 1.0]))),
         ValueError, "at least 3 samples"),
    ],
    ids=["grid-reversed", "grid-infinite", "grid-one-sample", "sph-l-negative",
         "sph-l-31", "extrema-two-samples"],
)
def test_argument_checks(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_quadrature_result_converts_to_its_value():
    assert float(numerics.QuadratureResult(1.25, 1e-9, 129)) == 1.25
