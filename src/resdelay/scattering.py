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
from typing import Callable, Union

import numpy as np

from .numerics import Curve, sph_bessel

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
    "delay_function",
    "delay_curve",
]

E_MIN = 1e-6  # threshold guard: k = 0 is a branch point
# |(pa)^2| below which _outgoing divides by j_l(pa); the s-wave closed form
# loses accuracy inside this band
_THRESHOLD_BAND = 1e-3


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


def s_matrix(model: ScatteringModel, E: complex) -> complex:
    """Hard-sphere-subtracted partial-wave S-matrix at (possibly complex) E.

    S = -F(-k)/F(k) h1_l(ka)/h1_l(-ka) (the last factor only where F, the
    outgoing condition of :func:`_outgoing`, lacks it): unitary on the real
    axis, with the pole search's zeros as its lower-half-plane poles.
    """
    f_in, _, hh_in = _outgoing(model, E, lower=True)
    f_out, _, hh = _outgoing(model, E)
    s = -f_in / f_out
    if hh is not None:
        s *= hh[0] / hh_in[0]
    return s


def phase_shift_bar(model: ScatteringModel, E: float) -> float:
    """Hard-sphere-subtracted phase shift, principal value in (-pi/2, pi/2]."""
    if E <= 0:
        raise ValueError("E must be positive")
    s = s_matrix(model, E)
    return (cmath.log(s) / 2j).real


def phase_shift_sweep(model: ScatteringModel, energies: np.ndarray) -> Curve:
    """Continuity-tracked phase shift along an increasing energy grid.

    Branch crossings of the principal value are accumulated so the returned
    curve is smooth wherever the underlying phase is.
    """
    energies = np.asarray(energies, dtype=float)
    raw = np.array([phase_shift_bar(model, E) for E in energies])
    out = np.unwrap(raw, period=math.pi)
    return Curve(energies, out, label="phase_shift_bar")


def _outgoing(
    model: ScatteringModel, E: complex, lower: bool = False, series: bool = True
) -> tuple[complex, complex, tuple[complex, complex] | None]:
    """The outgoing (Jost) condition F of ``model`` at k = sqrt(E), or
    k = -sqrt(E) with ``lower``: ``(F, dF/dE, hh)``.

    F is the entire form whose zeros are the S-matrix poles; dF/dE chains
    dk/dE = 1/(2k) and dp/dE = 1/(2p).  ``hh`` is (h1_l(ka), h1_l'(ka)) where
    F lacks the hard-sphere factor (l >= 1, and the band below), else None.
    With ``series``, F is f/j_l(pa) in the band |(pa)^2| < _THRESHOLD_BAND,
    where f vanishes with j_l(pa) and the chain rule through dp/dE loses
    ~eps/(pa)^2; without it (Newton's residual) the slope is NaN at p = 0
    and the value defined.
    """
    E = complex(E)
    if E == 0:
        raise ValueError("E = 0 is a branch point")
    k = cmath.sqrt(E)
    if lower:
        k = -k
    dk = 0.5 / k

    if isinstance(model, DeltaShell):
        lam = model.a * model.V0
        ka = k * model.a
        c, s = cmath.cos(ka), cmath.sin(ka)
        # entire form of k cot(ka) + aV0 - ik = 0 (multiplied by sin ka):
        # same zero set, but no poles to derail Newton at sin ka = 0 --
        # essential in the rigid-wall limit where the roots hug those poles
        f = k * c + (lam - 1j * k) * s
        f_k = c - ka * s - 1j * s + (lam - 1j * k) * model.a * c
        return f, f_k * dk, None

    l, a = model.l, model.a
    if series and abs(q := (E + model.V0) * a**2) < _THRESHOLD_BAND:
        # f/j_l(pa) = L h - k h' with, for q = (pa)^2 and c = 1/(2l+3),
        #   aL = pa j_l'/j_l = l - c q - c^2 q^2/(2l+5)
        #        - 2 c^3 q^3/((2l+5)(2l+7)) + O(q^4),
        # the series solution of x g' = l(l+1) - g - g^2 - x^2 (Riccati);
        # h'' comes from the spherical Bessel equation
        y, c = k * a, 1.0 / (2 * l + 3)
        t2, t3 = c * q / (2 * l + 5), 2.0 * c * q / (2 * l + 7)
        aL = l - c * q * (1.0 + t2 * (1.0 + t3))
        *_, h, hp = sph_bessel(l, y)
        f_k = (aL + 1) * hp + (y - l * (l + 1) / y) * h
        df = -a * c * (1.0 + t2 * (2.0 + 3.0 * t3)) * h + f_k * dk
        return aL / a * h - k * hp, df, (h, hp)

    p = cmath.sqrt(E + model.V0)
    dp = 0.5 / p if p else complex("nan")
    if l == 0:
        pa = p * a
        c, s = cmath.cos(pa), cmath.sin(pa)
        # entire form of ik tan(pa) - p = 0 (multiplied by cos pa)
        f = 1j * k * s - p * c
        f_p = 1j * k * a * c - c + pa * s
        return f, 1j * s * dk + f_p * dp, None

    # entire form of p j_l'(pa)/j_l(pa) - k h1_l'(ka)/h1_l(ka) = 0; the
    # second derivatives come from the spherical Bessel equation,
    # x y''(x) = -2 y'(x) - (x - l(l+1)/x) y(x)
    x, y = p * a, k * a
    j, jp, *_ = sph_bessel(l, x)
    _, _, _, _, h, hp = sph_bessel(l, y)
    ll = l * (l + 1)
    f = p * jp * h - k * hp * j
    f_p = -jp * h - (x - ll / x) * j * h - y * hp * jp
    f_k = x * jp * hp + hp * j + (y - ll / y) * j * h
    return f, f_p * dp + f_k * dk, (h, hp)


def _outgoing_with_slope(model: ScatteringModel, E: complex) -> tuple[complex, complex]:
    """Newton's residual: the bare entire form of :func:`_outgoing` and its
    E-derivative."""
    f, df, _ = _outgoing(model, E, series=False)
    return f, df


def time_delay(model: ScatteringModel, E: float) -> float:
    """Time delay T = hbar d(delta_bar)/dE, exact for every model.

    On the real axis S_bar = +-conj(F)/F, times h1_l(ka)/conj(h1_l(ka)) where
    F lacks it (see :func:`s_matrix`), so
    T = -Im(F'/F) + Im(h1_l'(ka)/h1_l(ka)) a/(2k).
    """
    if not E > 0:
        raise ValueError("E must be positive")
    f, df, hh = _outgoing(model, E)
    t = -(df / f).imag
    if hh is not None:
        h, hp = hh
        t += (hp / h).imag * model.a / (2.0 * math.sqrt(E))
    return t


def time_delay_square_well_analytic(model: SquareWell, E: float) -> float:
    """Closed-form s-wave time delay of the square well.

    Evaluated in the cos^2-multiplied rearrangement, which is regular at the
    removable singularities of the tan/sec representation.  Inaccurate for
    0 < |(pa)^2| < _THRESHOLD_BAND, which :func:`delay_function` avoids.
    """
    if model.l != 0:
        raise ValueError("closed form is s-wave only")
    if E <= 0:
        raise ValueError("E must be positive")
    k = math.sqrt(E)
    p = cmath.sqrt(complex(E + model.V0))
    a = model.a
    if p == 0:  # numerator and denominator both vanish like p^3
        return (a - 2.0 * model.V0 * a**3 / 3.0) / (2.0 * k * (1.0 + E * a * a))
    sin_pa, cos_pa = cmath.sin(p * a), cmath.cos(p * a)
    num = model.V0 * sin_pa * cos_pa + a * p * k * k
    den = 2.0 * p * k * ((p * cos_pa) ** 2 + (k * sin_pa) ** 2)
    return (num / den).real


def time_delay_delta_shell_analytic(model: DeltaShell, E: float) -> float:
    """Closed-form s-wave time delay of the repulsive delta shell, in the
    regular cos^2-multiplied rearrangement."""
    if E <= 0:
        raise ValueError("E must be positive")
    k = math.sqrt(E)
    a, lam = model.a, model.a * model.V0
    s, c = math.sin(k * a), math.cos(k * a)
    num = lam * s * s + a * k * k
    den = 2.0 * k * ((k * s) ** 2 + (k * c + lam * s) ** 2)
    return num / den


def delay_function(model: ScatteringModel) -> Callable[[float], float]:
    """The time delay of ``model`` as a function of real E.

    Uses the real-arithmetic closed forms where they hold (delta shell, and
    an s-wave well with V0 a^2 >= _THRESHOLD_BAND, so that no E > 0 enters
    the threshold band), otherwise :func:`time_delay`.
    """
    if isinstance(model, DeltaShell):
        return lambda E: time_delay_delta_shell_analytic(model, E)
    if model.l == 0 and model.V0 * model.a**2 >= _THRESHOLD_BAND:
        return lambda E: time_delay_square_well_analytic(model, E)
    return lambda E: time_delay(model, E)


def delay_curve(
    model: ScatteringModel,
    e_min: float,
    e_max: float,
    n: int,
    label: str = "time_delay",
) -> Curve:
    """Sample :func:`delay_function` on a uniform grid."""
    e_min = max(e_min, E_MIN)
    grid = np.linspace(e_min, e_max, n)
    delay = delay_function(model)
    return Curve(grid, np.array([delay(E) for E in grid]), label=label)
