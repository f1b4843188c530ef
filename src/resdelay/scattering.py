"""Solvable scattering models: square well and repulsive delta shell.

Units: 2m = hbar = 1, so k = sqrt(E) outside and p = sqrt(E + V0) inside an
attractive well of depth V0 (stored depth convention: V(r<a) = -V0, positive
V0 attractive).  All complex square roots take the principal branch, which
places resonance poles at E_j - i*Gamma_j/2 in the lower half plane.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .numerics import Curve, _upward, sph_bessel

__all__ = [
    "SquareWell",
    "DeltaShell",
    "ScatteringModel",
    "s_matrix",
    "phase_shift_bar",
    "phase_shift_sweep",
    "time_delay",
    "time_delay_square_well_analytic",
    "time_delay_delta_shell_analytic",
    "delay_curve",
]

E_MIN = 1e-6  # threshold guard: k = 0 is a branch point
# |(pa)^2| below which _outgoing divides by j_l(pa); the s-wave closed form
# loses accuracy inside this band
_THRESHOLD_BAND = 1e-3
# |Im(pa)| beyond which the outgoing condition is rescaled: e^300 leaves F and
# dF/dE far from overflow, and e^-600 is far below a rounding error
_MAX_IM_PA = 300.0
# (h, dh/dE) of _outgoing where F already carries the hard-sphere factor
_NO_HARD_SPHERE = (np.float64(1.0), np.float64(0.0))


@dataclass(frozen=True)
class SquareWell:
    """V(r < a) = -V0, V(r >= a) = 0.  Positive V0 is an attractive well,
    negative V0 a repulsive barrier."""

    V0: float
    a: float
    l: int = 0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("range a must be positive")
        if not (0 <= self.l <= 30):
            raise ValueError("l must be in [0, 30]")


@dataclass(frozen=True)
class DeltaShell:
    """Repulsive shell a*V0*delta(r - a), s-wave only."""

    V0: float
    a: float

    def __post_init__(self):
        if self.V0 <= 0:
            raise ValueError("shell strength V0 must be positive")
        if self.a <= 0:
            raise ValueError("radius a must be positive")


ScatteringModel = Union[SquareWell, DeltaShell]


def s_matrix(model: ScatteringModel, E: complex | np.ndarray) -> complex | np.ndarray:
    """Hard-sphere-subtracted partial-wave S-matrix at (possibly complex) E,
    a number or a numpy array; the result is of the same kind.

    S = -F(-k)/F(k) h1_l(ka)/h1_l(-ka), with F and h from :func:`_outgoing`:
    unitary on the real axis, with the pole search's zeros as its
    lower-half-plane poles.
    """
    f_in, _, h_in, _ = _outgoing(model, E, lower=True, series=True)
    f, _, h, _ = _outgoing(model, E, series=True)
    return -f_in / f * (h / h_in)


def phase_shift_bar(model: ScatteringModel, E: float) -> float:
    """Hard-sphere-subtracted phase shift, principal value in (-pi/2, pi/2]."""
    if E <= 0:
        raise ValueError("E must be positive")
    s = s_matrix(model, E)
    return (cmath.log(s) / 2j).real


def phase_shift_sweep(model: ScatteringModel, energies: np.ndarray) -> Curve:
    """Continuity-tracked phase shift along an increasing energy grid, from
    one :func:`s_matrix` call on the whole grid.

    Branch crossings of the principal value are accumulated so the returned
    curve is smooth wherever the underlying phase is.
    """
    energies = np.asarray(energies, dtype=float)
    if not np.all(energies > 0):
        raise ValueError("E must be positive")
    raw = (np.log(s_matrix(model, energies)) / 2j).real
    out = np.unwrap(raw, period=math.pi)
    return Curve(energies, out, label="phase_shift_bar")


def _in_band(model: ScatteringModel, E: np.ndarray) -> np.ndarray:
    """Elementwise: E lies in the band |(pa)^2| < _THRESHOLD_BAND, where
    :func:`_outgoing` needs its series form (never for the delta shell)."""
    if isinstance(model, DeltaShell):
        return np.zeros(E.shape, dtype=bool)
    return np.abs((E + model.V0) * model.a**2) < _THRESHOLD_BAND


def _clip_imag(z: np.ndarray) -> np.ndarray:
    """z with its imaginary part clipped to [-_MAX_IM_PA, _MAX_IM_PA]; every
    other bit of z is kept."""
    z = z.copy()
    z.imag = np.clip(z.imag, -_MAX_IM_PA, _MAX_IM_PA)
    return z


def _interior_j(l: int, x: np.ndarray):
    """(j_l(x), j_l'(x)), both scaled by one real factor where |Im x| >
    _MAX_IM_PA (a thick barrier): there they recur upward from sin and cos
    at x with Im x clipped to that bound, as :func:`sph_bessel` recurs from
    sin and cos at x itself (|x| > 300 > l), so both share the factor
    e^(|Im x| - _MAX_IM_PA) (to within e^(-2 _MAX_IM_PA))."""
    thick = np.abs(x.imag) > _MAX_IM_PA
    if not thick.any():
        j, jp, *_ = sph_bessel(l, x)
        return j, jp
    j, jp = np.empty_like(x), np.empty_like(x)
    thin = ~thick
    j[thin], jp[thin], *_ = sph_bessel(l, x[thin])
    xt = x[thick]
    clipped = _clip_imag(xt)
    s, c = np.sin(clipped), np.cos(clipped)
    j[thick], jp[thick] = _upward(l, xt, s / xt, s / (xt * xt) - c / xt)
    return j, jp


def _outgoing(model: ScatteringModel, E, lower: bool = False, series: bool = False):
    """The outgoing (Jost) condition F of ``model`` at k = sqrt(E), or
    k = -sqrt(E) with ``lower``: ``(F, dF/dE, h, dh/dE)``.

    F is the entire form whose zeros are the S-matrix poles; dF/dE chains
    dk/dE = 1/(2k) and dp/dE = 1/(2p).  h is h1_l(ka) where F lacks the
    hard-sphere factor (l >= 1, and the series form), else the constant 1
    (and dh/dE the constant 0).  With ``series``, the elements of E in the
    band of :func:`_in_band` get F = f/j_l(pa), since f vanishes with
    j_l(pa) and the chain rule through dp/dE loses ~eps/(pa)^2 there; an
    array reaching into the band is evaluated on each side of it and put
    back in place.  Without ``series`` (Newton's residual) there is no band
    test: the slope is NaN at p = 0 and the value defined, or at l >= 1
    :func:`sph_bessel` raises.  E is a numpy array, evaluated elementwise
    (each element gets the bits it would get alone), or a number, its
    one-element case with Python numbers as the result.  E = 0, a branch
    point, raises ``ValueError``.
    """
    if not isinstance(E, np.ndarray):
        E = np.array([E], dtype=complex)
        return tuple(v.item() for v in _outgoing(model, E, lower, series))
    E = E.astype(complex)
    if (E == 0).any():
        raise ValueError("E = 0 is a branch point")
    if series:
        band = _in_band(model, E)
        if band.any() and not band.all():
            out = np.empty((4, *E.shape), dtype=complex)
            out[:, band] = np.broadcast_arrays(*_outgoing(model, E[band], lower, True))
            out[:, ~band] = np.broadcast_arrays(*_outgoing(model, E[~band], lower, False))
            return tuple(out)
        series = band.any()
    k = np.sqrt(E)
    if lower:
        k = -k
    dk = 0.5 / k

    if isinstance(model, DeltaShell):
        lam = model.a * model.V0
        ka = k * model.a
        c, s = np.cos(ka), np.sin(ka)
        # entire form of k cot(ka) + aV0 - ik = 0 (multiplied by sin ka):
        # same zero set, but no poles to derail Newton at sin ka = 0 --
        # essential in the rigid-wall limit where the roots hug those poles
        f = k * c + (lam - 1j * k) * s
        f_k = c - ka * s - 1j * s + (lam - 1j * k) * model.a * c
        return f, f_k * dk, *_NO_HARD_SPHERE

    l, a = model.l, model.a
    if series:
        # f/j_l(pa) = L h - k h' with, for q = (pa)^2 and c = 1/(2l+3),
        #   aL = pa j_l'/j_l = l - c q - c^2 q^2/(2l+5)
        #        - 2 c^3 q^3/((2l+5)(2l+7)) + O(q^4),
        # the series solution of x g' = l(l+1) - g - g^2 - x^2 (Riccati);
        # h'' comes from the spherical Bessel equation
        q = (E + model.V0) * a**2
        y, c = k * a, 1.0 / (2 * l + 3)
        t2, t3 = c * q / (2 * l + 5), 2.0 * c * q / (2 * l + 7)
        aL = l - c * q * (1.0 + t2 * (1.0 + t3))
        *_, h, hp = sph_bessel(l, y)
        f_k = (aL + 1) * hp + (y - l * (l + 1) / y) * h
        df = -a * c * (1.0 + t2 * (2.0 + 3.0 * t3)) * h + f_k * dk
        return aL / a * h - k * hp, df, h, hp * a * dk

    p = np.sqrt(E + model.V0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dp = 0.5 / p  # not finite at p = 0, and so is the slope there
    if l == 0:
        pa = p * a
        # entire form of ik tan(pa) - p = 0 (multiplied by cos pa).  Under a
        # thick barrier cos and sin grow like e^|Im pa| and would overflow:
        # beyond |Im pa| = _MAX_IM_PA they are taken at Im pa clipped to that
        # bound, which scales F and dF/dE by the same real factor (to within
        # e^(-2 _MAX_IM_PA)).  p is the same on both sheets of k, so the
        # factor cancels in s_matrix, in Im(F'/F) and in Newton's F/F'
        clipped = _clip_imag(pa)
        c, s = np.cos(clipped), np.sin(clipped)
        f = 1j * k * s - p * c
        f_p = 1j * k * a * c - c + pa * s
        return f, 1j * s * dk + f_p * dp, *_NO_HARD_SPHERE

    # entire form of p j_l'(pa)/j_l(pa) - k h1_l'(ka)/h1_l(ka) = 0; the
    # second derivatives come from the spherical Bessel equation,
    # x y''(x) = -2 y'(x) - (x - l(l+1)/x) y(x).  F and dF/dE are linear in
    # (j, j'), so the thick-barrier scaling of _interior_j cancels as in
    # the s-wave
    x, y = p * a, k * a
    j, jp = _interior_j(l, x)
    _, _, _, _, h, hp = sph_bessel(l, y)
    ll = l * (l + 1)
    f = p * jp * h - k * hp * j
    f_p = -jp * h - (x - ll / x) * j * h - y * hp * jp
    f_k = x * jp * hp + hp * j + (y - ll / y) * j * h
    return f, f_p * dp + f_k * dk, h, hp * a * dk


def time_delay(model: ScatteringModel, E: float | np.ndarray) -> float | np.ndarray:
    """Time delay T = hbar d(delta_bar)/dE, exact for every model, at a
    float or a numpy array of energies; the result is of the same kind.

    On the real axis S_bar = +-conj(F)/F h1_l(ka)/conj(h1_l(ka)) (see
    :func:`s_matrix`), so T = -Im(F'/F) + Im(h1_l'/h1_l), both derivatives
    in E.
    """
    if not np.all(E > 0):
        raise ValueError("E must be positive")
    f, df, h, dh = _outgoing(model, E, series=True)
    return -(df / f).imag + (dh / h).imag


def time_delay_square_well_analytic(
    model: SquareWell, E: float | np.ndarray
) -> float | np.ndarray:
    """Closed-form s-wave time delay of the square well, at a float or a
    numpy array of energies; the result is of the same kind.

    Evaluated in the cos^2-multiplied rearrangement, which is regular at the
    removable singularities of the tan/sec representation.  Inaccurate for
    0 < |(pa)^2| < _THRESHOLD_BAND; a reference for :func:`time_delay`.
    """
    if model.l != 0:
        raise ValueError("closed form is s-wave only")
    e = np.asarray(E, dtype=float)
    if (e <= 0).any():
        raise ValueError("E must be positive")
    k = np.sqrt(e)
    p = np.sqrt((e + model.V0).astype(complex))
    a = model.a
    sin_pa, cos_pa = np.sin(p * a), np.cos(p * a)
    num = model.V0 * sin_pa * cos_pa + a * p * k * k
    den = 2.0 * p * k * ((p * cos_pa) ** 2 + (k * sin_pa) ** 2)
    with np.errstate(invalid="ignore"):
        t = np.where(
            p == 0,  # numerator and denominator both vanish like p^3
            (a - 2.0 * model.V0 * a**3 / 3.0) / (2.0 * k * (1.0 + e * a * a)),
            (num / den).real,
        )
    return t if isinstance(E, np.ndarray) else float(t)


def time_delay_delta_shell_analytic(
    model: DeltaShell, E: float | np.ndarray
) -> float | np.ndarray:
    """Closed-form s-wave time delay of the repulsive delta shell, in the
    regular cos^2-multiplied rearrangement, at a float or a numpy array of
    energies; the result is of the same kind."""
    e = np.asarray(E, dtype=float)
    if (e <= 0).any():
        raise ValueError("E must be positive")
    k = np.sqrt(e)
    a, lam = model.a, model.a * model.V0
    s, c = np.sin(k * a), np.cos(k * a)
    num = lam * s * s + a * k * k
    den = 2.0 * k * ((k * s) ** 2 + (k * c + lam * s) ** 2)
    t = num / den
    return t if isinstance(E, np.ndarray) else float(t)


def delay_curve(
    model: ScatteringModel,
    e_min: float,
    e_max: float,
    n: int,
    label: str = "time_delay",
) -> Curve:
    """Sample :func:`time_delay` on a uniform grid."""
    grid = np.linspace(max(e_min, E_MIN), e_max, n)
    return Curve(grid, time_delay(model, grid), label=label)
