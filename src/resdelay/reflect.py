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


def reflection_amplitude(step: ExpStep, E: float) -> complex:
    """Complex reflection amplitude r(E) of the exponential step.

    Principal branch: p = sqrt(E - V1 - V2) acquires a positive imaginary
    part below threshold, making |r| = 1 there.
    """
    if E <= 0:
        raise ValueError("E must be positive")
    if abs(E - step.threshold) < 1e-9:
        raise ThresholdBranchPoint(f"E = {E} at the branch point {step.threshold}")
    k = math.sqrt(E)
    p = cmath.sqrt(complex(E - step.threshold))
    q = math.sqrt(step.V2)
    nu = -2j * p * step.a
    z = 2.0 * q * step.a
    J, Jp = bessel_j(nu, z)
    return (1j * k * J + q * Jp) / (1j * k * J - q * Jp)


def _sample_grid(e_lo: float, e_hi: float, n: int) -> np.ndarray:
    if not (e_hi > e_lo > 0):
        raise ValueError("require e_hi > e_lo > 0")
    return np.linspace(e_lo, e_hi, n)


def reflectivity_curve(step: ExpStep, e_lo: float, e_hi: float, n: int) -> Curve:
    """|r(E)|^2 sampled on a uniform grid."""
    grid = _sample_grid(e_lo, e_hi, n)
    vals = [abs(reflection_amplitude(step, E)) ** 2 for E in grid]
    return Curve(grid, np.array(vals), label="reflectivity")


def theta_curve(step: ExpStep, e_lo: float, e_hi: float, n: int) -> Curve:
    """Continuity-unwrapped reflection phase theta(E).

    The grid is refined adaptively wherever adjacent principal-value samples
    differ by pi or more (at most 12 passes), so the unwrapping is
    unambiguous.
    """
    grid = list(_sample_grid(e_lo, e_hi, n))
    raw = [cmath.phase(reflection_amplitude(step, E)) for E in grid]
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


def reflection_time_delay(step: ExpStep, E: float) -> float:
    """Reflection time delay hbar * d(theta)/dE, computed algebraically from
    r and dr/dE (no unwrapping needed)."""
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
