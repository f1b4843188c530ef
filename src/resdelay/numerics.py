"""Self-contained numerical substrate: special functions, complex root
finding, adaptive quadrature and peak detection.

Everything here is pure and deterministic; callers may evaluate grids in
parallel without coordination.
"""
from __future__ import annotations

import cmath
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


def _near_nonpositive_integer(z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Elementwise: z lies within ``tol`` of a pole 0, -1, -2, ... of Gamma."""
    n = np.round(z.real)
    return (np.abs(z.imag) <= tol) & (n <= 0) & (np.abs(z.real - n) <= tol)


def _lanczos(z: np.ndarray) -> np.ndarray:
    """Lanczos sum for Re(z) >= 0.5, elementwise."""
    w = z - 1.0
    s = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        s += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * np.exp(-t) * s


def complex_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Gamma function for complex argument.

    Uses the reflection formula for Re(z) < 0.5, Lanczos otherwise.
    Raises :class:`PoleOfGamma` within 1e-12 of a non-positive integer.
    A numpy array ``z`` is evaluated elementwise and gives an array of its
    shape (it raises when any element is near a pole); a number gives a
    complex.
    """
    flat = np.asarray(z, dtype=complex).ravel()
    poles = _near_nonpositive_integer(flat)
    if poles.any():
        raise PoleOfGamma(f"gamma pole at {flat[poles][0]}")
    refl = flat.real < 0.5
    g = _lanczos(np.where(refl, 1.0 - flat, flat))
    # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
    g[refl] = math.pi / (np.sin(math.pi * flat[refl]) * g[refl])
    return g.reshape(z.shape) if isinstance(z, np.ndarray) else g.item()


def _reciprocal_gamma(z: np.ndarray) -> np.ndarray:
    """1/Gamma(z), elementwise; zero at the poles of Gamma."""
    finite = ~_near_nonpositive_integer(z)
    out = np.zeros_like(z)
    out[finite] = 1.0 / complex_gamma(z[finite])
    return out


# ---------------------------------------------------------------------------
# Bessel function of complex order (ascending series)
# ---------------------------------------------------------------------------

_BESSEL_MAX_TERMS = 200
_BESSEL_MAX_ABS_Z = 50.0
# largest accepted round-off estimate of the series (see bessel_j)
_BESSEL_MAX_ROUNDOFF = 1e-8


def bessel_j(nu: complex | np.ndarray, z: complex):
    """Bessel function J_nu(z) of complex order and its z-derivative.

    Ascending power series with principal branch of z**nu, for |z| <= 50.
    Returns ``(J, dJ/dz)``: complex numbers for a number ``nu``, and arrays
    of its shape for a numpy array of orders, on which the series runs at
    once (each order stops by its own rule, and any order that would raise
    alone makes the call raise).

    Once |z| is large against |nu| the terms grow before they fall and
    cancel: :class:`SeriesNonConvergence` is raised when the round-off
    estimate 1e-16 (sum|term| + sum|dterm|) / (|J| + |dJ/dz|) exceeds 1e-8.
    It judges the pair, so a zero of J alone does not trip it.
    """
    z = complex(z)
    if abs(z) > _BESSEL_MAX_ABS_Z:
        raise ValueError(f"|z| = {abs(z):.3g} outside the series regime (<= 50)")
    orders = np.asarray(nu, dtype=complex).ravel()
    if z == 0:
        if (orders.real < 0).any():
            raise BranchAmbiguity("z**nu undefined at z = 0 for Re(nu) < 0")
        J = np.where(orders == 0, 1.0, 0.0).astype(complex)
        dJ = np.where(orders == 1, 0.5, 0.0).astype(complex)
    else:
        J, dJ = _bessel_series(orders, z)
    if isinstance(nu, np.ndarray):
        return J.reshape(nu.shape), dJ.reshape(nu.shape)
    return J.item(), dJ.item()


def _bessel_series(nu: np.ndarray, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """The series of :func:`bessel_j` on a 1-D array of orders at z != 0.

    The orders still summing are kept packed: one that meets the stopping
    rule has its sums checked and stored, and leaves the running arrays.
    """
    # at an order -n the series divides by k (nu + k) = 0 at k = n; there
    # J_{-n} = (-1)^n J_n, and the same for the derivative
    n = np.round(nu.real)
    negative_int = (nu.imag == 0) & (n < 0) & (nu.real == n)
    sign, nu = np.where(negative_int, (-1.0) ** n, 1.0), np.where(negative_int, -nu, nu)
    half = z / 2.0
    # k = 0 term; reciprocal gamma absorbs potential poles harmlessly
    term = np.exp(nu * cmath.log(half)) * _reciprocal_gamma(nu + 1.0)
    dterm = (nu / z) * term
    total, dtotal = term, dterm
    acc, dacc = np.abs(term), np.abs(dterm)
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
        term = term * ratio_base / (k * (nu + k))
        dterm = ((nu + 2 * k) / z) * term
        total = total + term
        dtotal = dtotal + dterm
        size = np.abs(term)
        acc = acc + size
        dacc = dacc + np.abs(dterm)
        done = size < 1e-16 * acc
        if done.any():
            pair = np.abs(total[done]) + np.abs(dtotal[done])
            roundoff = 1e-16 * (acc[done] + dacc[done]) / pair
            bad = ~(roundoff <= _BESSEL_MAX_ROUNDOFF)
            if bad.any():
                raise SeriesNonConvergence(
                    f"J_nu series cancels at nu={nu[done][bad][0]}, z={z}: round-off "
                    f"estimate {roundoff[bad][0]:.2g} > {_BESSEL_MAX_ROUNDOFF:g}"
                )
            J[left[done]], dJ[left[done]] = total[done], dtotal[done]
            run = ~done
            left, nu, term, total, dtotal, acc, dacc = (
                x[run] for x in (left, nu, term, total, dtotal, acc, dacc)
            )
    return sign * J, sign * dJ


# ---------------------------------------------------------------------------
# spherical Bessel / Neumann / Hankel functions
# ---------------------------------------------------------------------------

def _upward(l: int, z, f0, f1):
    """(f_l, f_l') from f_0, f_1 by f_{k+1} = (2k+1)/z f_k - f_{k-1}, with
    f_0' = -f_1 and f_l' = f_{l-1} - (l+1)/z f_l; elementwise on arrays."""
    if l == 0:
        return f0, -f1
    for k in range(1, l):
        f0, f1 = f1, (2 * k + 1) / z * f1 - f0
    return f1, f0 - (l + 1) / z * f1


def _miller(l: int, z: np.ndarray, j0: np.ndarray):
    """(j_l, j_l') on a 1-D array by downward Miller recurrence normalized to
    j_0 = sin z / z.  Each element starts at its own order l + 20 + int(|z|)
    (held at (0, 1e-30) until the loop reaches it) and is rescaled on its
    own, so it gets the bits it would get alone."""
    r = np.abs(z)
    start = l + 20 + r.astype(int)
    low = int(start.min())
    fk1, fk = np.zeros_like(z), np.full_like(z, 1e-30)
    f_l = f_lm1 = fk1
    # b and b1 bound max |fk| and max |fk1| (with a factor 2 for rounding):
    # no element is looked at for rescaling while b stays below 1e250
    g, b1, b = 2.0 / float(r.min()), 0.0, 1e-30
    for k in range(int(start.max()), -1, -1):
        new = (2 * k + 3) / z * fk - fk1
        if k > low:
            run = start >= k
            fk1, fk = np.where(run, fk, fk1), np.where(run, new, fk)
        else:
            fk1, fk = fk, new
        b1, b = b, (2 * k + 3) * g * b + 2.0 * b1
        if b > 1e250:
            size = np.abs(fk)
            big = size > 1e250  # rescale to avoid overflow
            if big.any():
                fk1, fk, f_l, f_lm1 = (
                    np.where(big, f * 1e-250, f) for f in (fk1, fk, f_l, f_lm1)
                )
                b = 1e250
            else:
                b = 2.0 * float(size.max())
        if k == l:
            f_l = fk
        elif k == l - 1:
            f_lm1 = fk
    scale = j0 / fk
    j = f_l * scale
    return j, f_lm1 * scale - (l + 1) / z * j


def _sph_j(l: int, z: np.ndarray, sin_z: np.ndarray, cos_z: np.ndarray):
    """(j_l(z), j_l'(z)) on a complex numpy array, from the given sin z and
    cos z: by upward recurrence where |z| >= l, and elsewhere by downward
    Miller recurrence normalized to j_0 = sin z / z.  Raises
    :class:`ZeroArgument` when any |z| < 1e-300."""
    r = np.abs(z)
    if (r < 1e-300).any():
        raise ZeroArgument("spherical Bessel functions singular at z = 0")
    j0 = sin_z / z
    j, jp = _upward(l, z, j0, sin_z / (z * z) - cos_z / z)
    miller = r < l
    if miller.any():
        j[miller], jp[miller] = _miller(l, z[miller], j0[miller])
    return j, jp


def sph_bessel(l: int, z: complex | np.ndarray):
    """Spherical Bessel j_l, Neumann n_l, outgoing Hankel h_l^(1) and their
    derivatives at complex z.

    Returns ``(j, jp, n, np_, h1, h1p)``: arrays of the shape of a numpy
    array ``z``, complex numbers for a number (its one-element case).  j_l
    comes from :func:`_sph_j`; n_l is computed by upward recurrence.  Every
    element gets the bits it would get alone.  Raises :class:`ZeroArgument`
    when any |z| < 1e-300.

    Both rows are accurate on the real axis.  Off it, at large l:

    - j_l loses accuracy where |z| >= l but |Im z| is large, because the
      Miller pass runs only where |z| < l (j_30 is 7.8e-5 relative off at
      30i, j_20 2.3e-8 at 20i);
    - n_l loses accuracy where |z| < l and |Im z| is large;
    - h1 = j + i n cancels for Im z > 0, and inherits both errors below the
      axis (h1_30 is 1.4e-4 relative off at -15i, h1_20 1.0e-6 at -15i).
    """
    if l < 0 or l > 30:
        raise ValueError("l must be in [0, 30]")
    if not isinstance(z, np.ndarray):
        return tuple(c.item() for c in sph_bessel(l, np.array([z], dtype=complex)))
    shape = z.shape
    z = z.astype(complex).ravel()
    sin_z, cos_z = np.sin(z), np.cos(z)
    j, jp = _sph_j(l, z, sin_z, cos_z)
    n, npr = _upward(l, z, -cos_z / z, -cos_z / (z * z) - sin_z / z)
    h1, h1p = j + 1j * n, jp + 1j * npr
    return tuple(c.reshape(shape) for c in (j, jp, n, npr, h1, h1p))


# ---------------------------------------------------------------------------
# complex Newton iteration
# ---------------------------------------------------------------------------

# per-seed outcomes of newton_complex on an array of seeds
CONVERGED = "converged"
NO_CONVERGENCE = "no_convergence"  # max_iter reached
NON_FINITE = "non_finite"  # a non-finite value, slope or step
ZERO_SLOPE = "zero_slope"


def newton_complex(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    seed: complex | np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 100,
):
    """Newton's method in the complex plane with an analytic derivative,
    run on every seed at once: ``f(z)`` maps a 1-D array of iterates to
    ``(f(z), f'(z))`` arrays, possibly followed by further items that are
    ignored, and is called once per round on the iterates still running.

    Each seed stops on its own: it converges once |f(z)| <= tol, and fails
    at a zero slope, at a non-finite value, slope or step, or after
    ``max_iter`` steps.  A numpy array of seeds returns
    ``(roots, residuals, outcomes)``, 1-D arrays in seed order: the last
    iterate, its |f| (inf where f is not finite) and one of ``CONVERGED``,
    ``NO_CONVERGENCE``, ``NON_FINITE`` and ``ZERO_SLOPE``.  A number seed
    returns a complex with |f(z)| <= tol or raises :class:`NoConvergence`
    with the last iterate and its residual -- never a silent bad root.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = np.array(seed, dtype=complex).ravel()
    roots, residuals = np.empty_like(z), np.empty(z.size)
    outcomes = np.full(z.size, NO_CONVERGENCE)
    left = np.arange(z.size)  # positions of the seeds still running
    with np.errstate(all="ignore"):  # non-finite values end their seeds
        fz, df, *_ = f(z)
        for i in range(max_iter + 1):
            # |f| rounded as Python's abs(complex) rounds it (np.abs differs
            # in the last bit), so abs(f(root)) <= tol holds for every root
            r = np.hypot(fz.real, fz.imag)
            conv = r <= tol
            z_new = z - fz / df
            if i < max_iter:
                zero = ~conv & (df == 0)
                finite = np.isfinite(fz) & np.isfinite(df) & np.isfinite(z_new)
                bad = ~(conv | zero | finite)
                stop = conv | zero | bad
            else:  # out of steps: every seed still running stops here
                zero = bad = np.zeros(z.size, dtype=bool)
                stop = np.ones(z.size, dtype=bool)
            if stop.any():
                at = left[stop]
                roots[at] = z[stop]
                residuals[at] = np.where(np.isfinite(fz[stop]), r[stop], math.inf)
                outcomes[left[conv]] = CONVERGED
                outcomes[left[zero]] = ZERO_SLOPE
                outcomes[left[bad]] = NON_FINITE
                left, z_new = left[~stop], z_new[~stop]
            if not left.size:
                break
            z = z_new
            fz, df, *_ = f(z)
    if isinstance(seed, np.ndarray):
        return roots, residuals, outcomes
    if outcomes[0] != CONVERGED:
        raise NoConvergence(roots.item(), float(residuals[0]))
    return roots.item()


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
# the error sum of a tol below round-off (a `--tol` that reaches the count
# of an exact model delay) levels off above tol, so the panel count is
# capped too
_MAX_PANELS = 1 << 16
# a round bisects the worst panels until those it leaves sum to at most
# this share of tol.  Near 1 a round bisects about what bisecting the worst
# panel one at a time would.  A smaller share spreads each round over more
# panels and leaves coarser a panel whose estimate falls slowly.  The value
# was measured when the step pipeline still integrated the reflection delay
# at the barrier top, which no program path does now: of the benchmark's 80
# step counts, 38 missed tol at 0.9 and 18 at 0.99, as many as one at a
# time, and 0.99 took fewer evaluations
_UNPICKED_SHARE = 0.99


def _interior(x0: np.ndarray, x4: np.ndarray):
    """Quarter, mid and three-quarter points of the panels [x0, x4]."""
    x2 = 0.5 * (x0 + x4)
    return 0.5 * (x0 + x2), x2, 0.5 * (x2 + x4)


def _simpson(x0: np.ndarray, x4: np.ndarray, fs: np.ndarray):
    """Values and error estimates of the panels [x0, x4] from their five
    equally spaced samples (one row of ``fs`` each): Simpson on the whole
    panel against its two halves gives the Richardson-corrected value and
    the estimate; a non-finite estimate counts as an infinite error."""
    f0, f1, f2, f3, f4 = fs.T
    h = (x4 - x0) / 12.0
    halves = h * (f0 + 4.0 * (f1 + f3) + 2.0 * f2 + f4)
    delta = halves - 2.0 * h * (f0 + 4.0 * f2 + f4)
    err = np.abs(delta) / 15.0
    err[~np.isfinite(err)] = math.inf
    return halves + delta / 15.0, err


def integrate(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float = 1e-8
) -> QuadratureResult:
    """Adaptive Simpson quadrature with absolute tolerance ``tol``.

    ``f`` maps a 1-D float array of abscissae to an array of values of the
    same shape, and is called once per round: the 32 initial panels take
    129 samples in one call.  One error budget: each later round bisects
    the panels with the largest error estimates until those left sum to at
    most 0.99 ``tol``, and samples all their new quarter points in one call,
    until the estimates sum to at most ``tol``.  Raises
    :class:`MaxDepthExceeded` when a panel to bisect is already 40 levels
    deep or the panels reach ``_MAX_PANELS``.  Reversed limits flip the
    sign.
    """
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    if a > b:
        r = integrate(f, b, a, tol)
        return QuadratureResult(-r.value, r.error_bound, r.evaluations)

    def sample(x):
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise ValueError("integrand must return an array shaped like its argument")
        return y

    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    x0, x4 = edges[:-1], edges[1:]
    xs = np.append(np.column_stack((x0, *_interior(x0, x4))).ravel(), b)
    # the rows of five samples of each panel, sharing their ends
    fs = np.lib.stride_tricks.sliding_window_view(sample(xs), 5)[::4]
    depth = np.zeros(_INITIAL_PANELS, dtype=int)
    value, err = _simpson(x0, x4, fs)
    total = math.fsum(err)
    while not total <= tol:
        worst = np.argsort(-err, kind="stable")
        left_over = np.cumsum(err[worst][::-1])[::-1]  # of worst[i:], each i
        n = np.count_nonzero(left_over > _UNPICKED_SHARE * tol)
        pick = worst[: max(1, min(n, _MAX_PANELS - len(err)))]
        i = pick[np.argmax(depth[pick])]
        if depth[i] >= _MAX_DEPTH or len(err) == _MAX_PANELS:
            raise MaxDepthExceeded(
                f"quadrature error {total:.3g} > tol = {tol:g} at depth "
                f"{depth[i]} of {_MAX_DEPTH} on [{x0[i]}, {x4[i]}], "
                f"{len(err)} panels"
            )
        # replace the picked panels by their halves, the left halves first
        p0, p4, pf = x0[pick], x4[pick], fs[pick]
        _, p2, _ = _interior(p0, p4)
        c0, c4 = np.concatenate((p0, p2)), np.concatenate((p2, p4))
        cf = np.concatenate((pf[:, [0, 0, 1, 1, 2]], pf[:, [2, 2, 3, 3, 4]]))
        q1, _, q3 = _interior(c0, c4)
        cf[:, 1], cf[:, 3] = sample(np.concatenate((q1, q3))).reshape(2, -1)
        cv, ce = _simpson(c0, c4, cf)
        total += math.fsum(ce) - math.fsum(err[pick])
        keep = np.ones(len(err), dtype=bool)
        keep[pick] = False
        x0, x4 = np.append(x0[keep], c0), np.append(x4[keep], c4)
        fs = np.concatenate((fs[keep], cf))
        value, err = np.append(value[keep], cv), np.append(err[keep], ce)
        depth = np.append(depth[keep], np.tile(depth[pick] + 1, 2))
        if total <= tol or math.isnan(total):
            # re-sum exactly: drops the running sum's drift, and the NaN that
            # inf - inf leaves once a non-finite panel has been bisected
            total = math.fsum(err)
    # 4 evaluations per panel beyond the shared left end of the range
    return QuadratureResult(math.fsum(value), total, 4 * len(err) + 1)


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
    """Interior local maxima/minima, refined by parabolic interpolation.
    Endpoints are never reported.

    A run of equal samples (a sampled plateau straddling the true extremum,
    or a single sample) is an extremum when the steps into and out of it
    go opposite ways, and counts once, at its left edge; a run that reaches
    the end of the curve is not one.
    """
    e, v = curve.energies, curve.values
    if len(e) < 3:
        raise ValueError("curve must have at least 3 samples")
    step = (v[1:] > v[:-1]).astype(int) - (v[1:] < v[:-1])
    moves = np.flatnonzero(step)  # step i goes from sample i to i + 1
    into = moves[:-1][step[moves[:-1]] != step[moves[1:]]]
    peaks: list[Peak] = []
    for i in (into + 1).tolist():
        x, y = _parabolic_refine(e[i - 1], e[i], e[i + 1], v[i - 1], v[i], v[i + 1])
        peaks.append(Peak(x, y, "max" if step[i - 1] > 0 else "min"))
    return peaks
