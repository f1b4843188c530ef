"""Self-contained numerical substrate: special functions, complex root
finding, adaptive quadrature and peak detection.

Everything here is pure and deterministic; callers may evaluate grids in
parallel without coordination.
"""
from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BranchAmbiguity,
    MaxDepthExceeded,
    NoConvergence,
    PoleOfGamma,
    SeriesNonConvergence,
    ZeroArgument,
)

__all__ = [
    "Curve",
    "Peak",
    "QuadratureResult",
    "complex_gamma",
    "bessel_j",
    "sph_bessel",
    "newton_complex",
    "integrate",
    "find_extrema",
]


# ---------------------------------------------------------------------------
# curves and peaks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """A sampled real-valued function of real energy.

    Energies must be strictly increasing, values finite and of equal length.
    """

    energies: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or v.ndim != 1 or len(e) != len(v):
            raise ValueError("energies and values must be equal-length 1-D arrays")
        if len(e) >= 2 and not np.all(np.diff(e) > 0):
            raise ValueError("energies must be strictly increasing")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(v))):
            raise ValueError("curve samples must be finite")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.energies)

    @property
    def grid_step(self) -> float:
        return float(np.median(np.diff(self.energies)))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "energies": self.energies.tolist(),
            "values": self.values.tolist(),
        }


@dataclass(frozen=True)
class Peak:
    """A refined interior extremum of a curve."""

    position: float
    height: float
    kind: str  # "max" | "min"


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients; relative error below 1e-13
# over the right half plane in double precision.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _near_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    if abs(z.imag) > tol:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol


def _near_nonpositive_integers(z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Elementwise :func:`_near_nonpositive_integer`."""
    n = np.round(z.real)
    return (np.abs(z.imag) <= tol) & (n <= 0) & (np.abs(z.real - n) <= tol)


def _lanczos(z, exp):
    """Lanczos sum for Re(z) >= 0.5, on a complex scalar (``exp`` is
    ``cmath.exp``) or elementwise on an array (``np.exp``)."""
    w = z - 1.0
    s = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        s += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * exp(-t) * s


def complex_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Gamma function for complex argument.

    Uses the reflection formula for Re(z) < 0.5, Lanczos otherwise.
    Raises :class:`PoleOfGamma` within 1e-12 of a non-positive integer.
    A numpy array ``z`` is evaluated elementwise and gives an array; it
    raises when any element is near a pole.
    """
    if isinstance(z, np.ndarray):
        z = z.astype(complex)
        poles = _near_nonpositive_integers(z)
        if poles.any():
            raise PoleOfGamma(f"gamma pole at {z[poles].flat[0]}")
        flat = z.ravel()
        refl = flat.real < 0.5
        g = _lanczos(np.where(refl, 1.0 - flat, flat), np.exp)
        g[refl] = math.pi / (np.sin(math.pi * flat[refl]) * g[refl])
        return g.reshape(z.shape)
    z = complex(z)
    if _near_nonpositive_integer(z):
        raise PoleOfGamma(f"gamma pole at {z}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    return _lanczos(z, cmath.exp)


def _reciprocal_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """1/Gamma(z); zero at the poles of Gamma (elementwise on an array)."""
    if isinstance(z, np.ndarray):
        finite = ~_near_nonpositive_integers(z)
        out = np.zeros_like(z)
        out[finite] = 1.0 / complex_gamma(z[finite])
        return out
    try:
        return 1.0 / complex_gamma(z)
    except PoleOfGamma:
        return 0.0 + 0.0j


# ---------------------------------------------------------------------------
# Bessel function of complex order (ascending series)
# ---------------------------------------------------------------------------

_BESSEL_MAX_TERMS = 200
_BESSEL_MAX_ABS_Z = 50.0


def bessel_j(nu: complex | np.ndarray, z: complex):
    """Bessel function J_nu(z) of complex order and its z-derivative.

    Ascending power series with principal branch of z**nu; valid (and
    rapidly convergent) for |z| <= 50.  Returns ``(J, dJ/dz)``.

    A numpy array ``nu`` with a scalar ``z`` gives arrays of the same
    shape: the same series runs on every order at once, each order
    stopping by the scalar rule, and any order that would make the scalar
    call raise makes the array call raise the same error.
    """
    z = complex(z)
    if abs(z) > _BESSEL_MAX_ABS_Z:
        raise ValueError(f"|z| = {abs(z):.3g} outside the series regime (<= 50)")
    if isinstance(nu, np.ndarray):
        return _bessel_j_orders(nu.astype(complex), z)
    nu = complex(nu)
    if z == 0:
        if nu.real < 0:
            raise BranchAmbiguity("z**nu undefined at z = 0 for Re(nu) < 0")
        if nu == 0:
            return 1.0 + 0.0j, 0.0 + 0.0j
        if nu == 1:
            return 0.0 + 0.0j, 0.5 + 0.0j
        return 0.0 + 0.0j, 0.0 + 0.0j

    half = z / 2.0
    # k = 0 term; reciprocal gamma absorbs potential poles harmlessly
    term = cmath.exp(nu * cmath.log(half)) * _reciprocal_gamma(nu + 1.0)
    total = term
    dtotal = (nu / z) * term
    acc = abs(term)
    ratio_base = -half * half
    for k in range(1, _BESSEL_MAX_TERMS + 1):
        term = term * ratio_base / (k * (nu + k))
        total += term
        dtotal += ((nu + 2 * k) / z) * term
        acc += abs(term)
        if abs(term) < 1e-16 * acc:
            return total, dtotal
    raise SeriesNonConvergence(
        f"J_nu series exceeded {_BESSEL_MAX_TERMS} terms at nu={nu}, z={z}"
    )


def _bessel_j_orders(nu: np.ndarray, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """The series of :func:`bessel_j` on an array of orders at one z.

    The orders still summing are kept packed: one that meets the stopping
    rule has its sums stored and leaves the running arrays.
    """
    shape, nu = nu.shape, nu.ravel()
    if z == 0:
        if (nu.real < 0).any():
            raise BranchAmbiguity("z**nu undefined at z = 0 for Re(nu) < 0")
        J = np.where(nu == 0, 1.0, 0.0).astype(complex)
        dJ = np.where(nu == 1, 0.5, 0.0).astype(complex)
        return J.reshape(shape), dJ.reshape(shape)

    half = z / 2.0
    term = np.exp(nu * cmath.log(half)) * _reciprocal_gamma(nu + 1.0)
    total = term
    dtotal = (nu / z) * term
    acc = np.abs(term)
    ratio_base = -half * half
    J, dJ = np.empty_like(term), np.empty_like(term)
    left = np.arange(nu.size)  # positions of the orders still summing
    k = 0
    while left.size:
        k += 1
        if k > _BESSEL_MAX_TERMS:
            raise SeriesNonConvergence(
                f"J_nu series exceeded {_BESSEL_MAX_TERMS} terms at nu={nu[0]}, z={z}"
            )
        den = k * (nu + k)
        if not den.all():
            raise ZeroDivisionError("complex division by zero")
        term = term * ratio_base / den
        total = total + term
        dtotal = dtotal + ((nu + 2 * k) / z) * term
        acc = acc + np.abs(term)
        done = np.abs(term) < 1e-16 * acc
        if done.any():
            J[left[done]], dJ[left[done]] = total[done], dtotal[done]
            run = ~done
            left, nu, term, total, dtotal, acc = (
                x[run] for x in (left, nu, term, total, dtotal, acc)
            )
    return J.reshape(shape), dJ.reshape(shape)


# ---------------------------------------------------------------------------
# spherical Bessel / Neumann / Hankel functions
# ---------------------------------------------------------------------------

def _upward(l: int, z: complex, f0: complex, f1: complex):
    """(f_l, f_l') from f_0, f_1 by f_{k+1} = (2k+1)/z f_k - f_{k-1}, with
    f_0' = -f_1 and f_l' = f_{l-1} - (l+1)/z f_l."""
    if l == 0:
        return f0, -f1
    for k in range(1, l):
        f0, f1 = f1, (2 * k + 1) / z * f1 - f0
    return f1, f0 - (l + 1) / z * f1


def sph_bessel(l: int, z: complex):
    """Spherical Bessel j_l, Neumann n_l, outgoing Hankel h_l^(1) and their
    derivatives at complex z.

    Returns ``(j, jp, n, np_, h1, h1p)``.  n_l is computed by upward
    recurrence (always stable); j_l by downward Miller recurrence normalized
    to j_0 = sin z / z when |z| < l, upward otherwise.
    """
    if l < 0 or l > 30:
        raise ValueError("l must be in [0, 30]")
    z = complex(z)
    if abs(z) < 1e-300:
        raise ZeroArgument("spherical Bessel functions singular at z = 0")

    sin_z, cos_z = cmath.sin(z), cmath.cos(z)
    j0 = sin_z / z
    n, npr = _upward(l, z, -cos_z / z, -cos_z / (z * z) - sin_z / z)
    if abs(z) >= l or l == 0:
        j, jp = _upward(l, z, j0, sin_z / (z * z) - cos_z / z)
    else:
        # Miller: start well above l, recur down keeping f_l and f_{l-1},
        # normalize at order 0
        start = l + 20 + int(abs(z))
        fk1, fk = 0.0j, 1e-30 + 0.0j
        f_l = f_lm1 = 0.0j
        for k in range(start, -1, -1):
            fk1, fk = fk, (2 * k + 3) / z * fk - fk1
            if abs(fk) > 1e250:  # rescale to avoid overflow
                fk1, fk = fk1 * 1e-250, fk * 1e-250
                f_l, f_lm1 = f_l * 1e-250, f_lm1 * 1e-250
            if k == l:
                f_l = fk
            elif k == l - 1:
                f_lm1 = fk
        scale = j0 / fk
        j = f_l * scale
        jp = f_lm1 * scale - (l + 1) / z * j
    h1, h1p = j + 1j * n, jp + 1j * npr
    return j, jp, n, npr, h1, h1p


# ---------------------------------------------------------------------------
# complex Newton iteration
# ---------------------------------------------------------------------------

def newton_complex(
    f: Callable[[complex], tuple[complex, complex]],
    seed: complex,
    tol: float = 1e-11,
    max_iter: int = 100,
) -> complex:
    """Newton's method in the complex plane with an analytic derivative:
    ``f(z)`` returns the pair ``(f(z), f'(z))`` and is called once per
    iterate.

    Returns a point with |f(z)| <= tol or raises :class:`NoConvergence` —
    never a silent bad root.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = complex(seed)
    fz, df = f(z)
    for _ in range(max_iter):
        if abs(fz) <= tol:
            return z
        if df == 0 or not (cmath.isfinite(df) and cmath.isfinite(fz)):
            raise NoConvergence(z, abs(fz) if cmath.isfinite(fz) else math.inf)
        z_new = z - fz / df
        if not cmath.isfinite(z_new):
            raise NoConvergence(z, abs(fz))
        z = z_new
        fz, df = f(z)
    if abs(fz) <= tol:
        return z
    raise NoConvergence(z, abs(fz))


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature
# ---------------------------------------------------------------------------

@dataclass
class QuadratureResult:
    value: float
    error_bound: float
    evaluations: int

    def __float__(self):
        return self.value


_MAX_DEPTH = 40
# narrow features are easy to miss on a single coarse panel, so the range is
# pre-partitioned before bisection starts
_INITIAL_PANELS = 32
# the error sum of a noisy integrand (a finite-difference delay) or of a
# tol below round-off levels off above tol, so the panel count is capped too
_MAX_PANELS = 1 << 16


def _panel(f, depth, x0, x4, f0, f2, f4):
    """Heap entry of the panel [x0, x4] from its ends and midpoint plus two
    new samples at the quarter points: Simpson on the whole panel against
    its two halves gives the Richardson-corrected value and the error
    estimate, largest error first (a non-finite one counts as infinite)."""
    x2 = 0.5 * (x0 + x4)
    f1, f3 = f(0.5 * (x0 + x2)), f(0.5 * (x2 + x4))
    h = (x4 - x0) / 12.0
    halves = h * (f0 + 4.0 * (f1 + f3) + 2.0 * f2 + f4)
    delta = halves - 2.0 * h * (f0 + 4.0 * f2 + f4)
    err = abs(delta) / 15.0
    key = -err if math.isfinite(err) else -math.inf
    return key, x0, x4, depth, halves + delta / 15.0, (f0, f1, f2, f3, f4)


def integrate(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-8
) -> QuadratureResult:
    """Adaptive Simpson quadrature with absolute tolerance ``tol``.

    One error budget: the panel with the largest error estimate is bisected
    until the estimates sum to at most ``tol``.  Raises
    :class:`MaxDepthExceeded` when that panel is already 40 levels deep or
    the panels reach ``_MAX_PANELS``.  Reversed limits flip the sign.
    """
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    if a > b:
        r = integrate(f, b, a, tol)
        return QuadratureResult(-r.value, r.error_bound, r.evaluations)

    xs = [float(x) for x in np.linspace(a, b, _INITIAL_PANELS + 1)]
    fx = [f(x) for x in xs]
    heap = [
        _panel(f, 0, x0, x4, f0, f(0.5 * (x0 + x4)), f4)
        for x0, x4, f0, f4 in zip(xs, xs[1:], fx, fx[1:])
    ]
    heapq.heapify(heap)
    err = math.fsum(-p[0] for p in heap)
    while not err <= tol:
        neg_err, x0, x4, depth, _, (f0, f1, f2, f3, f4) = heap[0]
        if depth >= _MAX_DEPTH or len(heap) == _MAX_PANELS:
            raise MaxDepthExceeded(
                f"quadrature error {err:.3g} > tol = {tol:g} at depth {depth} "
                f"of {_MAX_DEPTH} on [{x0}, {x4}], {len(heap)} panels"
            )
        x2 = 0.5 * (x0 + x4)
        left = _panel(f, depth + 1, x0, x2, f0, f1, f2)
        right = _panel(f, depth + 1, x2, x4, f2, f3, f4)
        heapq.heapreplace(heap, left)
        heapq.heappush(heap, right)
        err += neg_err - left[0] - right[0]
        if err <= tol or math.isnan(err):
            # re-sum exactly: drops the running sum's drift, and the NaN that
            # inf - inf leaves once a non-finite panel has been bisected
            err = math.fsum(-p[0] for p in heap)
    # 4 evaluations per panel beyond the shared left end of the range
    return QuadratureResult(math.fsum(p[4] for p in heap), err, 4 * len(heap) + 1)


# ---------------------------------------------------------------------------
# extremum detection
# ---------------------------------------------------------------------------

def _parabolic_refine(x0, x1, x2, y0, y1, y2):
    """Vertex of the parabola through three points, on any (possibly
    nonuniform) spacing; falls back to the middle point when the triple is
    degenerate."""
    d01 = (y1 - y0) / (x1 - x0)
    c = ((y2 - y1) / (x2 - x1) - d01) / (x2 - x0)  # half the curvature
    if c == 0:
        return x1, y1
    m = d01 + c * (x1 - x0)  # slope at x1
    dx = max(min(-0.5 * m / c, x2 - x1), x0 - x1)  # clamp inside the bracket
    return x1 + dx, y1 + (m + c * dx) * dx


def find_extrema(curve: Curve) -> list[Peak]:
    """Interior local maxima/minima by three-point comparison, refined by
    parabolic interpolation.  Endpoints are never reported."""
    e, v = curve.energies, curve.values
    if len(e) < 3:
        raise ValueError("curve must have at least 3 samples")
    peaks: list[Peak] = []
    for i in range(1, len(e) - 1):
        if v[i] > v[i - 1] and v[i] >= v[i + 1]:
            kind, exit_step = "max", -1
        elif v[i] < v[i - 1] and v[i] <= v[i + 1]:
            kind, exit_step = "min", 1
        else:
            continue
        # ties on the right (a sampled plateau straddling the true extremum)
        # count once, at the left edge of the plateau
        if v[i] == v[i + 1] and _plateau_exit_step(v, i) != exit_step:
            continue
        x, y = _parabolic_refine(e[i - 1], e[i], e[i + 1], v[i - 1], v[i], v[i + 1])
        peaks.append(Peak(x, y, kind))
    return peaks


def _plateau_exit_step(v, i) -> int:
    """Sign of the step that ends the constant run starting at i: -1 if the
    run steps down, +1 if it steps up, 0 if it runs to the end."""
    j = i + 1
    while j < len(v) and v[j] == v[i]:
        j += 1
    if j == len(v):
        return 0
    return 1 if v[j] > v[i] else -1
