"""Gamow-Siegert pole location and resonance/spurious classification.

Pole search is a dense seed grid plus Newton iteration, run on all seeds as
one array computation, plus deduplication; the regions at stake are small
and the residual functions cheap, so nothing fancier is needed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CurveTooCoarse
from .numerics import (
    CONVERGED,
    NO_CONVERGENCE,
    NON_FINITE,
    ZERO_SLOPE,
    Curve,
    find_extrema,
    newton_complex,
)
from .scattering import ScatteringModel, SquareWell, _outgoing

__all__ = [
    "Pole",
    "SearchRegion",
    "RESONANCE",
    "SPURIOUS",
    "UNCLASSIFIED",
    "outgoing_condition",
    "find_poles",
    "classify_pole",
    "classify_poles",
]

RESONANCE = "Resonance"
SPURIOUS = "Spurious"
UNCLASSIFIED = "Unclassified"

# the reasons a seed of the pole search fails: Newton's, and an iterate at a
# branch point of the outgoing condition
BRANCH_POINT = "branch_point"
SEED_FAILURES = (NO_CONVERGENCE, NON_FINITE, ZERO_SLOPE, BRANCH_POINT)


@dataclass(frozen=True)
class Pole:
    """A located complex root E_j - i*Gamma_j/2 with classification."""

    energy: complex
    residual: float
    classification: str = UNCLASSIFIED
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.energy.imag >= 0:
            raise ValueError("stored poles must have Im(E) < 0")

    @property
    def position(self) -> float:
        return self.energy.real

    @property
    def gamma(self) -> float:
        return -2.0 * self.energy.imag

    def to_dict(self) -> dict:
        return {
            "re": self.energy.real,
            "im": self.energy.imag,
            "gamma": self.gamma,
            "residual": self.residual,
            "classification": self.classification,
            "diagnostics": {k: v for k, v in self.diagnostics.items()},
        }


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the lower-half complex E plane, with finite bounds,
    plus seed grid counts."""

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    n_re: int = 40
    n_im: int = 10

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.re_range, *self.im_range))):
            raise ValueError("the search region's bounds must be finite")
        lo, hi = self.re_range
        if not (hi > lo >= 0):
            raise ValueError("require E_hi > E_lo >= 0")
        ilo, ihi = self.im_range
        if not (ilo < ihi <= 0):
            raise ValueError("im_range must lie in the lower half plane")
        if self.n_re < 2 or self.n_im < 2:
            raise ValueError("grid counts must be >= 2")


def outgoing_condition(model: ScatteringModel, E: complex) -> complex:
    """Residual whose zeros are the S-matrix poles (purely outgoing wave at
    r = a), principal branch of all square roots.  A number is evaluated as
    a one-element array, so it gets the bits the pole search's batch gave
    it."""
    return _outgoing(model, E, series=False)[0]


def _branch_point(model: ScatteringModel, E: np.ndarray) -> np.ndarray:
    """Elementwise: the outgoing condition cannot be evaluated at E (E = 0,
    and E = -V0 at l >= 1, where its spherical-Bessel pass raises)."""
    at = E == 0
    if isinstance(model, SquareWell) and model.l >= 1:
        at |= E + model.V0 == 0
    return at


def _newton_residual(model: ScatteringModel, E: np.ndarray):
    """Newton's residual and slope on an array of iterates: the bare entire
    form of the outgoing condition, NaN at branch points."""
    at = _branch_point(model, E)
    if not at.any():
        return _outgoing(model, E)[:2]
    f = np.full(E.shape, np.nan, dtype=complex)
    df = f.copy()
    f[~at], df[~at] = _outgoing(model, E[~at])[:2]
    return f, df


def find_poles(
    model: ScatteringModel, region: SearchRegion, tol: float = 1e-9
) -> list[Pole]:
    """Launch Newton from every grid seed, all seeds as one batch; keep
    deduplicated lower-half-plane roots inside the region (in seed order),
    sorted by Re(E).

    Failed seeds are dropped.  Each pole's diagnostics record their count
    under ``seeds_failed`` and, under ``seeds_failed_by_reason``, their
    count per reason of :data:`SEED_FAILURES`: ``no_convergence`` (60
    steps), ``non_finite`` (a value, slope or step), ``zero_slope`` and
    ``branch_point`` (an iterate where the condition is undefined).
    """
    (re_lo, re_hi), (im_lo, im_hi) = region.re_range, region.im_range
    seeds_re = np.linspace(max(re_lo, 1e-6), re_hi, region.n_re)
    # quadratic spacing toward the real axis: narrow poles sit just below it
    ihi = min(im_hi, -1e-6)
    frac = np.linspace(1.0 / region.n_im, 1.0, region.n_im)
    seeds_im = ihi + (im_lo - ihi) * frac**2
    seeds = np.empty((region.n_re, region.n_im), dtype=complex)
    seeds.real, seeds.imag = seeds_re[:, None], seeds_im

    roots, residuals, outcomes = newton_complex(
        functools.partial(_newton_residual, model), seeds.ravel(), tol=tol, max_iter=60
    )
    outcomes[(outcomes == NON_FINITE) & _branch_point(model, roots)] = BRANCH_POINT
    failed = {why: int(np.count_nonzero(outcomes == why)) for why in SEED_FAILURES}
    inside = (
        (outcomes == CONVERGED)
        & (re_lo <= roots.real) & (roots.real <= re_hi)
        & (im_lo <= roots.imag) & (roots.imag < 0)
    )
    # dedup in seed order: a root is kept unless it lies within 1e-6 (1 + |z|)
    # of a root kept before it.  The first root left is kept, and drops
    # every later one that close (np.hypot rounds as Python's abs(complex))
    z, r = roots[inside], residuals[inside]
    size = np.hypot(z.real, z.imag)
    found: list[tuple[complex, float]] = []
    while z.size:
        found.append((z[0].item(), r[0].item()))
        d = z - z[0]
        far = ~(np.hypot(d.real, d.imag) < 1e-6 * (1.0 + size))
        z, r, size = z[far], r[far], size[far]
    found.sort(key=lambda zr: zr[0].real)
    return [
        Pole(
            z,
            residual=r,
            diagnostics={
                "seeds_failed": sum(failed.values()),
                "seeds_failed_by_reason": dict(failed),
            },
        )
        for z, r in found
    ]


def classify_pole(pole: Pole, delay_curve: Curve) -> Pole:
    """:func:`classify_poles` of one pole."""
    return classify_poles([pole], delay_curve)[0]


def classify_poles(poles: list[Pole], delay_curve: Curve) -> list[Pole]:
    """Fill in Resonance/Spurious classification against an exact delay
    curve, from one extremum scan of it.

    Resonance iff (a) a delay maximum lies within max(Gamma, 2*grid_step) of
    E_j AND its height is consistent with 2/Gamma (within a factor 4 — a
    narrow peak belonging to a different pole must not vouch for a broad
    spurious root), OR (b) Gamma < E_j and the curve is locally concave at
    E_j (broad-peak case).  Raises :class:`CurveTooCoarse` at the first
    pole too narrow for the grid step.
    """
    if not poles:
        return []
    e, v = delay_curve.energies, delay_curve.values
    step = delay_curve.grid_step
    span = e[-1] - e[0]
    for pole in poles:
        if step > pole.gamma / 4.0 and pole.gamma < span / 100.0:
            raise CurveTooCoarse(
                f"grid step {step:.3g} cannot resolve width {pole.gamma:.3g}"
            )
    maxima = [pk for pk in find_extrema(delay_curve) if pk.kind == "max"]

    def classify(pole: Pole) -> Pole:
        gamma = pole.gamma
        e_j = pole.position
        window = max(gamma, 2.0 * step)
        peak_found = False
        height_ratio = math.inf
        for pk in maxima:
            if abs(pk.position - e_j) > window:
                continue
            implied_gamma = 2.0 / pk.height if pk.height > 0 else math.inf
            ratio = max(implied_gamma / gamma, gamma / implied_gamma)
            height_ratio = min(height_ratio, ratio)
            if ratio <= 4.0:
                peak_found = True

        concave = False
        if gamma < e_j and e[0] <= e_j <= e[-1]:
            i = int(np.argmin(np.abs(e - e_j)))
            i = min(max(i, 1), len(e) - 2)
            concave = bool(v[i - 1] - 2.0 * v[i] + v[i + 1] < 0)

        is_resonance = peak_found or (gamma < e_j and concave)
        diag = dict(pole.diagnostics)
        diag.update(
            peak_found=peak_found,
            concave_at_pole=concave,
            peak_height_ratio=None if math.isinf(height_ratio) else float(height_ratio),
        )
        return replace(
            pole,
            classification=RESONANCE if is_resonance else SPURIOUS,
            diagnostics=diag,
        )

    return [classify(pole) for pole in poles]
