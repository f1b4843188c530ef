"""Reflection from the semi-infinite exponential step
V(x) = V1 + V2*(1 - exp(-x/a)) for x >= 0, zero for x < 0.

The reflection amplitude follows from matching a plane wave at x = 0 to the
Bessel-function solution of the exponential tail; below the asymptotic
barrier top E = V1 + V2 the amplitude is unimodular (total reflection).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ThresholdBranchPoint, VanishingAmplitude
from .numerics import Curve, bessel_j

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
    part below threshold, making |r| = 1 there.  An array takes one array
    call of :func:`bessel_j` (its argument 2*sqrt(V2)*a does not depend on
    E) and raises when any of its energies would.
    """
    if isinstance(E, np.ndarray):
        E = E.astype(float)
        bad = E <= 0
        if bad.any():
            raise ValueError(f"E must be positive (E = {E[bad].flat[0]})")
        at = np.abs(E - step.threshold) < 1e-9
        if at.any():
            raise ThresholdBranchPoint(
                f"E = {E[at].flat[0]} at the branch point {step.threshold}"
            )
        k, p = np.sqrt(E), np.sqrt((E - step.threshold).astype(complex))
    else:
        if E <= 0:
            raise ValueError("E must be positive")
        if abs(E - step.threshold) < 1e-9:
            raise ThresholdBranchPoint(f"E = {E} at the branch point {step.threshold}")
        k, p = math.sqrt(E), cmath.sqrt(complex(E - step.threshold))
    q = math.sqrt(step.V2)
    J, Jp = bessel_j(-2j * p * step.a, 2.0 * q * step.a)
    return (1j * k * J + q * Jp) / (1j * k * J - q * Jp)


def _sample_grid(e_lo: float, e_hi: float, n: int) -> np.ndarray:
    if not (e_hi > e_lo > 0):
        raise ValueError("require e_hi > e_lo > 0")
    return np.linspace(e_lo, e_hi, n)


def reflectivity_curve(step: ExpStep, e_lo: float, e_hi: float, n: int) -> Curve:
    """|r(E)|^2 sampled on a uniform grid."""
    grid = _sample_grid(e_lo, e_hi, n)
    return Curve(
        grid, np.abs(reflection_amplitude(step, grid)) ** 2, label="reflectivity"
    )


def theta_curve(step: ExpStep, e_lo: float, e_hi: float, n: int) -> Curve:
    """Continuity-unwrapped reflection phase theta(E).

    The grid is refined adaptively wherever adjacent principal-value samples
    differ by pi or more (at most 12 passes), so the unwrapping is
    unambiguous.  The initial grid is one array evaluation; the midpoints
    are inserted one at a time.
    """
    grid = _sample_grid(e_lo, e_hi, n)
    raw = list(np.angle(reflection_amplitude(step, grid)))
    grid = list(grid)
    for _ in range(12):
        inserted = False
        i = 0
        while i < len(grid) - 1:
            d = abs(raw[i + 1] - raw[i])
            d = min(d, 2.0 * math.pi - d)
            if d >= math.pi * 0.9 and grid[i + 1] - grid[i] > 1e-12:
                mid = 0.5 * (grid[i] + grid[i + 1])
                grid.insert(i + 1, mid)
                raw.insert(i + 1, cmath.phase(reflection_amplitude(step, mid)))
                inserted = True
            i += 1
        if not inserted:
            break
    unwrapped = np.unwrap(np.array(raw))
    return Curve(np.array(grid), unwrapped, label="theta")


def reflection_time_delay(step: ExpStep, E: float | np.ndarray) -> float | np.ndarray:
    """Reflection time delay hbar * d(theta)/dE, computed algebraically from
    r and a central difference dr/dE (no unwrapping needed), at a float or a
    numpy array of energies; the result is of the same kind."""
    if isinstance(E, np.ndarray):
        E = E.astype(float)
        if (E <= step.threshold + 1e-6).any():
            raise ValueError("E must exceed the barrier top by more than 1e-6")
        h = np.minimum(1e-6 * np.maximum(1.0, E), 0.49 * (E - step.threshold))
        r0 = reflection_amplitude(step, E)
        vanishing = np.abs(r0) < 1e-8
        if vanishing.any():
            raise VanishingAmplitude(
                f"|r| = {abs(r0[vanishing].flat[0]):.2e} at E = {E[vanishing].flat[0]}"
            )
    else:
        if E <= step.threshold + 1e-6:
            raise ValueError("E must exceed the barrier top by more than 1e-6")
        h = min(1e-6 * max(1.0, E), 0.49 * (E - step.threshold))
        r0 = reflection_amplitude(step, E)
        if abs(r0) < 1e-8:
            raise VanishingAmplitude(f"|r| = {abs(r0):.2e} at E = {E}")
    dr = (
        reflection_amplitude(step, E + h) - reflection_amplitude(step, E - h)
    ) / (2.0 * h)
    return (r0.conjugate() * dr).imag / abs(r0) ** 2
