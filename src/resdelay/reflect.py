"""Reflection from the semi-infinite exponential step
V(x) = V1 + V2*(1 - exp(-x/a)) for x >= 0, zero for x < 0.

The reflection amplitude follows from matching a plane wave at x = 0 to the
Bessel-function solution of the exponential tail; below the asymptotic
barrier top E = V1 + V2 the amplitude is unimodular (total reflection).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ThresholdBranchPoint, VanishingAmplitude
from .numerics import Curve, _sample_grid, _unwrap, bessel_j

__all__ = [
    "ExpStep",
    "reflection_amplitude",
    "reflectivity_curve",
    "theta_curve",
    "reflection_time_delay",
]


@dataclass(frozen=True)
class ExpStep:
    V1: float
    V2: float
    a: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.V1, self.V2, self.a))):
            raise ValueError("V1, V2 and a must be finite")
        if self.V2 <= 0:
            raise ValueError("V2 must be positive")
        if self.a <= 0:
            raise ValueError("a must be positive")

    @property
    def threshold(self) -> float:
        return self.V1 + self.V2


def reflection_amplitude(step: ExpStep, E: float | np.ndarray) -> complex | np.ndarray:
    """Complex reflection amplitude r(E) of the exponential step at a float
    or a numpy array of energies; the result is of the same kind.

    Principal branch: p = sqrt(E - V1 - V2) acquires a positive imaginary
    part below threshold, making |r| = 1 there.  The energies take one
    array call of :func:`bessel_j` (its argument 2*sqrt(V2)*a does not
    depend on E), and the call raises when any of them would.
    """
    N, D = _matching(step, np.asarray(E, dtype=float))
    r = N / D
    return r if isinstance(E, np.ndarray) else complex(r)


def _matching(step: ExpStep, e: np.ndarray, slope: bool = False) -> tuple:
    """Numerator and denominator of r = N/D at a float array of energies,
    N, D = i k J_nu(z) +- q J_nu'(z) with nu = -2i p a and z = 2 q a, from
    one :func:`bessel_j` call; with ``slope`` also dN/dE and dD/dE, from
    the same call's order derivatives through dnu/dE = -i a/p and
    dk/dE = 1/(2k)."""
    bad = e <= 0
    if bad.any():
        raise ValueError(f"E must be positive (E = {e[bad].flat[0]})")
    at = np.abs(e - step.threshold) < 1e-9
    if at.any():
        raise ThresholdBranchPoint(
            f"E = {e[at].flat[0]} at the branch point {step.threshold}"
        )
    k, p = np.sqrt(e), np.sqrt((e - step.threshold).astype(complex))
    q = math.sqrt(step.V2)
    J, Jp, *dJ_dnu = bessel_j(np.asarray(-2j * p * step.a), 2.0 * q * step.a,
                              order_derivative=slope)
    ikJ = 1j * k * J
    N, D = ikJ + q * Jp, ikJ - q * Jp
    if not slope:
        return N, D
    dnu = -1j * step.a / p
    d_ikJ = 1j * (J / (2.0 * k) + k * dJ_dnu[0] * dnu)
    d_qJp = q * dJ_dnu[1] * dnu
    return N, D, d_ikJ + d_qJp, d_ikJ - d_qJp


def reflectivity_curve(step: ExpStep, e_lo: float, e_hi: float, n: int) -> Curve:
    """|r(E)|^2 sampled on a uniform grid."""
    grid = _sample_grid(e_lo, e_hi, n)
    return Curve(
        grid, np.abs(reflection_amplitude(step, grid)) ** 2, label="reflectivity"
    )


def theta_curve(step: ExpStep, e_lo: float, e_hi: float, n: int) -> Curve:
    """Unwrapped reflection phase theta(E) from ``n`` uniform samples, at
    energies above the barrier top by more than 1e-6 (see
    :func:`_reflection`).  The start grid is one evaluation, and so is each
    bisection pass of the unwrap (see :func:`_theta`)."""
    grid = _sample_grid(e_lo, e_hi, n)
    return _theta(step, grid, *_reflection(step, grid))


def _theta(step: ExpStep, grid: np.ndarray, r: np.ndarray,
           delay: np.ndarray) -> Curve:
    """The theta curve from r and its delay on ``grid``.

    theta = arg r is unwrapped by :func:`~resdelay.numerics._unwrap` with
    period 2 pi, the delay picking each step's multiple of 2 pi and deciding
    where to bisect.  Modulo 2 pi, and not pi, a coarse grid still sees
    theta fall by nearly pi across a dip of the reflectivity.
    """
    def phase_delay(e):
        r_e, delay_e = _reflection(step, e)
        return np.angle(r_e), delay_e

    phi = np.angle(r)
    energies, steps = _unwrap(phase_delay, grid, phi, delay, 2.0 * math.pi)
    return Curve(energies, np.cumsum(np.concatenate((phi[:1], steps))), label="theta")


def _reflection(step: ExpStep, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r(E) and the reflection time delay hbar * d(theta)/dE at a float
    array of energies above the barrier top by more than 1e-6.

    theta = arg r, so the delay is Im(r'/r) = Im(N'/N - D'/D) with N, D, N'
    and D' from one :func:`bessel_j` call on the orders at E (see
    :func:`_matching`): dr/dE is exact, and no unwrapping is needed.  r is
    bit for bit :func:`reflection_amplitude`'s.
    """
    if (e <= step.threshold + 1e-6).any():
        raise ValueError("E must exceed the barrier top by more than 1e-6")
    N, D, dN, dD = _matching(step, e, slope=True)
    r = N / D
    vanishing = np.abs(r) < 1e-8
    if vanishing.any():
        raise VanishingAmplitude(
            f"|r| = {abs(r[vanishing].flat[0]):.2e} at E = {e[vanishing].flat[0]}"
        )
    return r, (dN / N - dD / D).imag


def reflection_time_delay(step: ExpStep, E: float | np.ndarray) -> float | np.ndarray:
    """Reflection time delay hbar * d(theta)/dE at a float or a numpy array
    of energies above the barrier top by more than 1e-6; the result is of
    the same kind.  It is exact, from the order derivatives of one
    :func:`bessel_j` call on the orders at E (see :func:`_reflection`)."""
    _, t = _reflection(step, np.asarray(E, dtype=float))
    return t if isinstance(E, np.ndarray) else float(t)
