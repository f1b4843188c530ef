"""Lorentzian reconstruction of time delay and the resonance-counting
integral n_R = (1/pi) * integral of T(E) dE = N + Delta."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SpuriousIncluded
from .numerics import Curve, integrate
from .poles import Pole, RESONANCE
from .scattering import E_MIN

__all__ = [
    "CountReport",
    "ReconstructionReport",
    "lorentzian_sum",
    "count_resonances",
    "gamma_from_peak",
    "reconstruction_report",
]

_INTEGER_SNAP = 1e-9


@dataclass(frozen=True)
class CountReport:
    """n_R = N + Delta over an energy window."""

    n_R: float
    N: int
    Delta: float
    E_range: tuple[float, float]
    quadrature_tol: float
    evaluations: int
    near_integer: bool = False

    @classmethod
    def from_n_R(cls, n_R: float, E_range: tuple[float, float],
                 quadrature_tol: float, evaluations: int) -> CountReport:
        """Split n_R into its integer part N and the remainder Delta."""
        N = math.floor(n_R)
        Delta = n_R - N
        near_integer = min(Delta, 1.0 - Delta) < _INTEGER_SNAP
        return cls(n_R, N, Delta, E_range, quadrature_tol, evaluations, near_integer)

    def to_dict(self) -> dict:
        return {**asdict(self), "E_range": list(self.E_range)}


@dataclass(frozen=True)
class ReconstructionReport:
    max_rel_error: float
    l2_rel_error: float
    E_range: tuple[float, float]
    poles_used: int

    def to_dict(self) -> dict:
        return {**asdict(self), "E_range": list(self.E_range)}


def lorentzian_sum(
    poles: Sequence[Pole], E: float | np.ndarray
) -> float | np.ndarray:
    """Sum of Breit-Wigner profiles (hbar = 1) over resonance poles at a
    float or an array of energies ``E``; the result is of the same kind.

    Raises :class:`SpuriousIncluded` for poles not classified Resonance:
    spurious roots spoil the reconstruction and must be filtered upstream.
    """
    E = np.asarray(E, dtype=float)
    total = np.zeros_like(E)
    for p in poles:
        if p.classification != RESONANCE:
            raise SpuriousIncluded(f"pole at {p.energy} is {p.classification}")
        g = p.gamma
        total += (g / 2.0) / ((E - p.position) ** 2 + g * g / 4.0)
    return total if total.ndim else float(total)


def count_resonances(
    delay: Callable[[float], float],
    E_lo: float,
    E_hi: float,
    tol: float = 1e-8,
) -> CountReport:
    """Resonance-counting integral n_R = (1/pi) * integral of the delay.

    The lower limit is raised to the threshold guard ``E_MIN`` (k = 0 is a
    branch point); the reported ``E_range`` is the range integrated.
    """
    if not (0 <= E_lo < E_hi) or E_hi <= E_MIN:
        raise ValueError(f"require 0 <= E_lo < E_hi and E_hi > {E_MIN}")
    lo = max(E_lo, E_MIN)
    quad = integrate(delay, lo, E_hi, tol)
    return CountReport.from_n_R(quad.value / math.pi, (lo, E_hi), tol, quad.evaluations)


def gamma_from_peak(peak_height: float) -> float:
    """Width from peak height: Gamma = 2*hbar / height (hbar = 1)."""
    if peak_height <= 0:
        raise ValueError("peak height must be positive")
    return 2.0 / peak_height


def reconstruction_report(exact: Curve, poles: Sequence[Pole]) -> ReconstructionReport:
    """Relative-error metrics of the Lorentzian sum against an exact curve.

    Samples where the exact value falls below 1% of the curve maximum are
    excluded: there the tails of omitted higher poles dominate the ratio.
    """
    if len(exact) == 0:
        raise ValueError("curve must be nonempty")
    return _reconstruction_errors(
        exact, lorentzian_sum(poles, exact.energies), len(poles)
    )


def _reconstruction_errors(
    exact: Curve, approx: np.ndarray, poles_used: int
) -> ReconstructionReport:
    """:func:`reconstruction_report` from the Lorentzian sum ``approx``
    already evaluated on ``exact.energies`` by ``poles_used`` poles."""
    cutoff = 0.01 * float(np.max(exact.values))
    mask = exact.values > cutoff
    if not np.any(mask):
        raise ValueError("no samples above the tail cutoff")
    rel = (approx[mask] - exact.values[mask]) / exact.values[mask]
    return ReconstructionReport(
        max_rel_error=float(np.max(np.abs(rel))),
        l2_rel_error=float(np.sqrt(np.mean(rel**2))),
        E_range=(float(exact.energies[0]), float(exact.energies[-1])),
        poles_used=poles_used,
    )
