"""Lorentzian reconstruction of time delay and the resonance-counting
integral n_R = (1/pi) * integral of T(E) dE = N + Delta."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import SpuriousIncluded
from .numerics import Curve, _unwrap, integrate
from .poles import Pole, RESONANCE
from .scattering import E_MIN, ScatteringModel, _phase_delay

__all__ = [
    "CountReport",
    "ReconstructionReport",
    "lorentzian_sum",
    "count_resonances",
    "count_from_phase",
    "gamma_from_peak",
    "reconstruction_report",
]

_INTEGER_SNAP = 1e-9
# the phase count's start grid: points uniform in k = sqrt(E), since a grid
# uniform in E lets delta_bar = delta + ka turn too far between the first two
# samples; and the offsets E_j + s*Gamma_j added at every pole found
_PHASE_START = 257
_POLE_OFFSETS = (0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0, -4.0, 4.0, -8.0, 8.0)


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


def _counted_start(E_lo: float, E_hi: float) -> float:
    """The start of a counted range [E_lo, E_hi], raised to the threshold
    guard ``E_MIN`` (k = 0 is a branch point); ``ValueError`` unless
    0 <= E_lo < E_hi and E_hi > E_MIN."""
    if not (0 <= E_lo < E_hi) or E_hi <= E_MIN:
        raise ValueError(f"require 0 <= E_lo < E_hi and E_hi > {E_MIN}")
    return max(E_lo, E_MIN)


def count_resonances(
    delay: Callable[[np.ndarray], np.ndarray],
    E_lo: float,
    E_hi: float,
    tol: float = 1e-8,
) -> CountReport:
    """Resonance-counting integral n_R = (1/pi) * integral of the delay,
    which maps an array of energies to an array of delays (see
    :func:`~resdelay.numerics.integrate`).

    The lower limit is raised to the threshold guard ``E_MIN`` (k = 0 is a
    branch point); the reported ``E_range`` is the range integrated.
    """
    lo = _counted_start(E_lo, E_hi)
    quad = integrate(delay, lo, E_hi, tol)
    return CountReport.from_n_R(quad.value / math.pi, (lo, E_hi), tol, quad.evaluations)


def count_from_phase(
    model: ScatteringModel,
    E_lo: float,
    E_hi: float,
    poles: Sequence[Pole],
) -> CountReport:
    """n_R of ``model`` as the change of delta_bar over pi: the theorem of
    :func:`count_resonances` read the other way round, T = d(delta_bar)/dE.

    delta_bar is unwrapped by :func:`~resdelay.numerics._unwrap` with
    period pi (phi is delta_bar mod pi only: F's real factor j_l(pa)
    changes sign), from 257 points uniform in k plus the points
    E_j + s Gamma_j, s in {0, +-1/2, +-1, +-2, +-4, +-8}, of every pole in
    ``poles`` that lie inside the range.  The exact delay, from the same
    evaluation, picks each step's multiple of pi and decides where to
    bisect.  n_R is the exact sum of the steps over pi; ``evaluations`` is
    the number of samples, and ``quadrature_tol`` is 0.0.

    The range is checked and raised to ``E_MIN`` as in
    :func:`count_resonances`.  The unwrap raises :class:`MaxDepthExceeded`
    on a phase or delay that is not finite, and on a grid still split after
    20 passes or at 65,536 samples.
    """
    E = _phase_start(E_lo, E_hi, poles)
    return _phase_count(model, E, *_phase_delay(model, E))


def _phase_start(E_lo: float, E_hi: float, poles: Sequence[Pole]) -> np.ndarray:
    """The start grid of :func:`count_from_phase`, from ``max(E_lo,
    E_MIN)`` to ``E_hi``: its points uniform in k and the points of every
    pole inside the range."""
    lo = _counted_start(E_lo, E_hi)
    E = np.linspace(math.sqrt(lo), math.sqrt(E_hi), _PHASE_START) ** 2
    E[0], E[-1] = lo, E_hi
    near = np.array([p.position + s * p.gamma for p in poles for s in _POLE_OFFSETS])
    return np.union1d(E, near[(lo < near) & (near < E_hi)])


def _phase_count(model: ScatteringModel, E: np.ndarray, phi: np.ndarray,
                 T: np.ndarray) -> CountReport:
    """The count of :func:`count_from_phase` from the phase and delay of
    ``model`` on its start grid ``E`` (:func:`_phase_start`): the unwrap,
    and n_R over the grid's range."""
    E, steps = _unwrap(partial(_phase_delay, model), E, phi, T, math.pi)
    return CountReport.from_n_R(math.fsum(steps) / math.pi,
                                (float(E[0]), float(E[-1])), 0.0, len(E))


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
