"""Gamow-Siegert pole location and resonance/spurious classification.

Pole search is a dense seed grid plus Newton iteration plus deduplication;
the regions at stake are small and the residual functions cheap, so nothing
fancier is needed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CurveTooCoarse, NoConvergence
from .numerics import Curve, find_extrema, newton_complex
from .scattering import ScatteringModel, _outgoing

__all__ = [
    "Pole",
    "SearchRegion",
    "RESONANCE",
    "SPURIOUS",
    "UNCLASSIFIED",
    "outgoing_condition",
    "find_poles",
    "classify_pole",
]

RESONANCE = "Resonance"
SPURIOUS = "Spurious"
UNCLASSIFIED = "Unclassified"


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
    """Rectangle in the lower-half complex E plane plus seed grid counts."""

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    n_re: int = 40
    n_im: int = 10

    def __post_init__(self):
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
    r = a), principal branch of all square roots."""
    return _outgoing(model, E, series=False)[0]


def find_poles(
    model: ScatteringModel, region: SearchRegion, tol: float = 1e-9
) -> list[Pole]:
    """Launch Newton from every grid seed; keep deduplicated lower-half-plane
    roots inside the region, sorted by Re(E).

    Non-converged seeds are dropped (their count is recorded on each pole's
    diagnostics under ``seeds_failed``).
    """
    (re_lo, re_hi), (im_lo, im_hi) = region.re_range, region.im_range
    seeds_re = np.linspace(max(re_lo, 1e-6), re_hi, region.n_re)
    # quadratic spacing toward the real axis: narrow poles sit just below it
    ihi = min(im_hi, -1e-6)
    frac = np.linspace(1.0 / region.n_im, 1.0, region.n_im)
    seeds_im = ihi + (im_lo - ihi) * frac**2

    # Newton's residual and slope: the bare entire form, by the defaults
    # lower=False, series=False (a bound keyword makes each call slower)
    f = functools.partial(_outgoing, model)
    roots: list[complex] = []
    failed = 0
    for sr in seeds_re:
        for si in seeds_im:
            try:
                z = newton_complex(f, complex(sr, si), tol=tol, max_iter=60)
            except (NoConvergence, ValueError, OverflowError, ZeroDivisionError):
                failed += 1
                continue
            if not (re_lo <= z.real <= re_hi and im_lo <= z.imag < 0):
                continue
            if any(abs(z - q) < 1e-6 * (1.0 + abs(z)) for q in roots):
                continue
            roots.append(z)
    roots.sort(key=lambda z: z.real)
    return [
        Pole(
            z,
            residual=abs(outgoing_condition(model, z)),
            diagnostics={"seeds_failed": failed},
        )
        for z in roots
    ]


def classify_pole(pole: Pole, delay_curve: Curve) -> Pole:
    """Fill in Resonance/Spurious classification against an exact delay curve.

    Resonance iff (a) a delay maximum lies within max(Gamma, 2*grid_step) of
    E_j AND its height is consistent with 2/Gamma (within a factor 4 — a
    narrow peak belonging to a different pole must not vouch for a broad
    spurious root), OR (b) Gamma < E_j and the curve is locally concave at
    E_j (broad-peak case).
    """
    e, v = delay_curve.energies, delay_curve.values
    step = delay_curve.grid_step
    gamma = pole.gamma
    e_j = pole.position
    span = e[-1] - e[0]
    if step > gamma / 4.0 and gamma < span / 100.0:
        raise CurveTooCoarse(
            f"grid step {step:.3g} cannot resolve width {gamma:.3g}"
        )

    window = max(gamma, 2.0 * step)
    peak_found = False
    height_ratio = math.inf
    for pk in find_extrema(delay_curve):
        if pk.kind != "max" or abs(pk.position - e_j) > window:
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

