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
    part below threshold, making |r| = 1 there.  The energies take one
    array call of :func:`bessel_j` (its argument 2*sqrt(V2)*a does not
    depend on E), and the call raises when any of them would.
    """
    e = np.asarray(E, dtype=float)
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
    J, Jp = bessel_j(np.asarray(-2j * p * step.a), 2.0 * q * step.a)
    r = (1j * k * J + q * Jp) / (1j * k * J - q * Jp)
    return r if isinstance(E, np.ndarray) else complex(r)


def _sample_grid(e_lo: float, e_hi: float, n: int) -> np.ndarray:
    if not (e_hi > e_lo > 0):
        raise ValueError("require e_hi > e_lo > 0")
    if n < 2:
        raise ValueError(f"a curve needs at least 2 samples (n = {n})")
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
    unambiguous.  The initial grid is one array evaluation, and so are the
    midpoints each pass inserts.
    """
    grid = _sample_grid(e_lo, e_hi, n)
    raw = np.angle(reflection_amplitude(step, grid))
    for _ in range(12):
        d = np.abs(np.diff(raw))
        d = np.minimum(d, 2.0 * math.pi - d)
        split = np.flatnonzero((d >= math.pi * 0.9) & (np.diff(grid) > 1e-12))
        if not split.size:
            break
        mid = 0.5 * (grid[split] + grid[split + 1])
        grid = np.insert(grid, split + 1, mid)
        raw = np.insert(raw, split + 1, np.angle(reflection_amplitude(step, mid)))
    return Curve(grid, np.unwrap(raw), label="theta")


def reflection_time_delay(step: ExpStep, E: float | np.ndarray) -> float | np.ndarray:
    """Reflection time delay hbar * d(theta)/dE, computed algebraically from
    r and a central difference dr/dE (no unwrapping needed), at a float or a
    numpy array of energies; the result is of the same kind.

    r at E, E + h and E - h is one stacked :func:`reflection_amplitude`
    call, so one :func:`bessel_j` call, whatever the shape of E.
    """
    e = np.asarray(E, dtype=float)
    if (e <= step.threshold + 1e-6).any():
        raise ValueError("E must exceed the barrier top by more than 1e-6")
    h = np.minimum(1e-6 * np.maximum(1.0, e), 0.49 * (e - step.threshold))
    r0, r_up, r_down = reflection_amplitude(step, np.stack([e, e + h, e - h]))
    vanishing = np.abs(r0) < 1e-8
    if vanishing.any():
        raise VanishingAmplitude(
            f"|r| = {abs(r0[vanishing].flat[0]):.2e} at E = {e[vanishing].flat[0]}"
        )
    dr = (r_up - r_down) / (2.0 * h)
    t = (r0.conjugate() * dr).imag / np.abs(r0) ** 2
    return t if isinstance(E, np.ndarray) else float(t)
