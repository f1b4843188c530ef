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

from .errors import NonRealDelay
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

    Unitary on the real axis; its lower-half-plane poles are the Gamow
    resonances of the model.  Written as an incoming-over-outgoing ratio
    whose denominator is the entire form of :func:`poles.outgoing_condition`,
    so it is regular wherever S is.
    """
    E = complex(E)
    if E == 0:
        raise ValueError("E = 0 is a branch point")
    k = cmath.sqrt(E)

    if isinstance(model, DeltaShell):
        lam = model.a * model.V0
        c, s = cmath.cos(k * model.a), cmath.sin(k * model.a)
        return (k * c + (lam + 1j * k) * s) / (k * c + (lam - 1j * k) * s)

    p = cmath.sqrt(E + model.V0)
    a = model.a
    if model.l == 0:
        # divided through by p: sin(pa)/p -> a at p = 0
        sinc = cmath.sin(p * a) / p if p else a
        c = cmath.cos(p * a)
        return (1j * k * sinc + c) / (1j * k * sinc - c)

    # interior p j_l'(pa) and j_l(pa); at p = 0 only their ratio l/a survives
    if p:
        j_in, jp_in, *_ = sph_bessel(model.l, p * a)
        pjp_in = p * jp_in
    else:
        j_in, pjp_in = 1.0, model.l / a
    j, jp, n, npr, h1, h1p = sph_bessel(model.l, k * a)
    h2, h2p = j - 1j * n, jp - 1j * npr
    # full S = (p j' h2 - k h2' j) / (p j' h1 - k h1' j); multiplying by
    # e^{-2i delta_H} = -h1/h2 (tan(delta_H) = j_l/n_l) removes the hard sphere
    out = pjp_in * h1 - k * h1p * j_in
    return -(pjp_in * h2 - k * h2p * j_in) * h1 / (out * h2)


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


def time_delay(model: ScatteringModel, E: float) -> float:
    """Time delay T = hbar d(delta_bar)/dE, computed as
    -(i/2) conj(S) dS/dE with a central difference.

    Raises :class:`NonRealDelay` if the imaginary residue exceeds 1e-6.
    """
    if not E > 0:
        raise ValueError("E must be positive")
    step = min(1e-6 * max(1.0, E), 0.5 * E)
    # the exact S is unimodular on the real axis; renormalizing each sample
    # strips modulus round-off that would otherwise leak into the residue
    def s_unit(e: float) -> complex:
        s = s_matrix(model, e)
        return s / abs(s)

    s0 = s_unit(E)
    ds = (s_unit(E + step) - s_unit(E - step)) / (2.0 * step)
    t = -0.5j * s0.conjugate() * ds
    # the truncation residue of the central difference grows like
    # delta' * delta'' * step^2, so the guard scales with the delay squared
    if abs(t.imag) > 1e-6 * (1.0 + t.real * t.real):
        raise NonRealDelay(f"imaginary residue {t.imag:.3e} at E = {E}")
    return t.real


def time_delay_square_well_analytic(model: SquareWell, E: float) -> float:
    """Closed-form s-wave time delay of the square well.

    Evaluated in the cos^2-multiplied rearrangement, which is regular at the
    removable singularities of the tan/sec representation.
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


def delay_function(
    model: ScatteringModel, analytic: bool = True
) -> Callable[[float], float]:
    """The time delay of ``model`` as a function of real E.

    Uses the closed forms where available (s-wave square well, delta shell)
    unless ``analytic=False``, otherwise the numeric :func:`time_delay`.
    """
    if analytic and isinstance(model, DeltaShell):
        return lambda E: time_delay_delta_shell_analytic(model, E)
    if analytic and isinstance(model, SquareWell) and model.l == 0:
        return lambda E: time_delay_square_well_analytic(model, E)
    return lambda E: time_delay(model, E)


def delay_curve(
    model: ScatteringModel,
    e_min: float,
    e_max: float,
    n: int,
    analytic: bool = True,
    label: str = "time_delay",
) -> Curve:
    """Sample :func:`delay_function` on a uniform grid."""
    e_min = max(e_min, E_MIN)
    grid = np.linspace(e_min, e_max, n)
    delay = delay_function(model, analytic)
    return Curve(grid, np.array([delay(E) for E in grid]), label=label)
