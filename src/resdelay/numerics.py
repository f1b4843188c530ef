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


@dataclass(frozen=True)
class Peak:
    """A refined interior extremum of a curve."""

    position: float
    height: float
    kind: str  # "max" | "min"


def _sample_grid(e_lo: float, e_hi: float, n: int) -> np.ndarray:
    """The uniform energy grid of a sampled curve: ``n`` >= 2 points from
    ``e_lo`` to ``e_hi``, with e_hi > e_lo > 0 both finite."""
    if not (math.isfinite(e_hi) and e_hi > e_lo > 0):
        raise ValueError("require e_hi > e_lo > 0, both finite")
    if n < 2:
        raise ValueError(f"a curve needs at least 2 samples (n = {n})")
    return np.linspace(e_lo, e_hi, n)


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
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _near_nonpositive_integer(z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Elementwise: z lies within ``tol`` of a pole 0, -1, -2, ... of Gamma."""
    n = np.round(z.real)
    return (np.abs(z.imag) <= tol) & (n <= 0) & (np.abs(z.real - n) <= tol)


def _log(x: np.ndarray) -> np.ndarray:
    """The principal log of a complex array, as log|x| + i arg x: numpy's
    complex log is several times slower than the real log and arctan2."""
    return np.log(np.abs(x)) + 1j * np.arctan2(x.imag, x.real)


def _log_gamma(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Gamma(z) and psi(z) = Gamma'(z)/Gamma(z), elementwise, from one
    Lanczos sum: for Re(z) >= 1/2 the log of the Lanczos form
    sqrt(2 pi) t**(w + 1/2) exp(-t) s (w = z - 1, t = w + g + 1/2) and its
    log-derivative.  For Re(z) < 1/2 log Gamma follows from the reflection
    Gamma(z) Gamma(1 - z) = pi / sin(pi z) (DLMF 5.5.3), with sin(pi z) as
    (-1)^n sin(pi (z - n)), n = round(Re z), which keeps its digits next to
    the poles; there it is defined only modulo 2 pi i (only its exp means
    anything), and psi is NaN.  No pole test: a pole gives no finite value.
    """
    refl = z.real < 0.5
    any_refl = refl.any()  # never on the step's orders: skip the np.where
    w = np.where(refl, -z, z - 1.0) if any_refl else z - 1.0
    s, ds = _LANCZOS_C[0], 0.0
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        inv = 1.0 / (w + i)
        s += c * inv
        ds -= c * inv * inv
    t = w + _LANCZOS_G + 0.5
    log_t = _log(t)
    log_gamma = _HALF_LOG_2PI + (w + 0.5) * log_t - t + _log(s)
    psi = log_t + (w + 0.5) / t - 1.0 + ds / s
    if any_refl:
        n = np.round(z.real[refl])
        sin = (-1.0) ** n * np.sin(math.pi * (z[refl] - n))
        log_gamma[refl] = _LOG_PI - _log(sin) - log_gamma[refl]
        psi[refl] = math.nan
    return log_gamma, psi


def complex_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Gamma function for complex argument: the exp of :func:`_log_gamma`.
    Raises :class:`PoleOfGamma` within 1e-12 of a non-positive integer.
    A numpy array ``z`` is evaluated elementwise and gives an array of its
    shape (it raises when any element is near a pole); a number gives a
    complex.
    """
    flat = np.asarray(z, dtype=complex).ravel()
    poles = _near_nonpositive_integer(flat)
    if poles.any():
        raise PoleOfGamma(f"gamma pole at {flat[poles][0]}")
    g = np.exp(_log_gamma(flat)[0])
    return g.reshape(z.shape) if isinstance(z, np.ndarray) else g.item()


# ---------------------------------------------------------------------------
# Bessel function of complex order (ascending series)
# ---------------------------------------------------------------------------

_BESSEL_MAX_TERMS = 200
_BESSEL_MAX_ABS_Z = 50.0
# largest accepted round-off estimate of the series (see bessel_j)
_BESSEL_MAX_ROUNDOFF = 1e-8
# largest accepted |J| + |dJ/dz| of the first term: beyond it the sums, or
# a caller's products and ratios of them, overflow
_BESSEL_MAX_FIRST_TERM = 1e300


def bessel_j(nu: complex | np.ndarray, z: complex, order_derivative: bool = False):
    """Bessel function J_nu(z) of complex order and its z-derivative.

    Ascending power series with principal branch of z**nu, for |z| <= 50;
    z = 0 takes only the orders nu = 0, nu = 1 and Re(nu) > 1, where J and
    dJ/dz tend to a limit (:class:`BranchAmbiguity` otherwise).  Returns
    ``(J, dJ/dz)``: complex numbers for a number ``nu``, and arrays of its
    shape for a numpy array of orders, on which the series runs at once
    (each order stops by its own rule, and any order that would raise alone
    makes the call raise).

    With ``order_derivative=True`` it returns ``(J, dJ/dz, dJ/dnu,
    d2J/dz dnu)``, the order derivatives summed in the same loop from
    d(term_k)/dnu = term_k (ln(z/2) - psi(nu + k + 1)) (DLMF 10.15.1), with
    psi as a running sum from psi(nu + 1), which one Lanczos loop gives
    together with log Gamma(nu + 1).  Their domain is Re(nu) > -1/2 and
    z != 0 (``ValueError`` otherwise), which holds the purely imaginary
    orders of the exponential step.  J and dJ/dz are the same bits either
    way; the order derivatives stop by their own rule once J has stopped.

    In both modes the first term (z/2)**nu / Gamma(nu + 1) is
    exp(nu ln(z/2) - log Gamma(nu + 1)) at every order, with log Gamma from
    :func:`_log_gamma`, through the reflection formula where
    Re(nu + 1) < 1/2: an order next to a negative integer keeps its digits.
    An order equal to a negative integer -n is taken as J_{-n} = (-1)^n J_n.

    Once |z| is large against |nu| the terms grow before they fall and
    cancel: :class:`SeriesNonConvergence` is raised when the round-off
    estimate 1e-16 (sum|term| + sum|dterm|) / (|J| + |dJ/dz|) exceeds 1e-8.
    It judges the pair, so a zero of J alone does not trip it, and the
    order derivatives get the same estimate of their own pair.  Far down
    the imaginary order axis Gamma(nu + 1) underflows and J overflows:
    :class:`SeriesNonConvergence` is raised, with no warning, when the
    first term's |J| + |dJ/dz| (or of its order derivatives) exceeds 1e300.
    """
    z = complex(z)
    if abs(z) > _BESSEL_MAX_ABS_Z:
        raise ValueError(f"|z| = {abs(z):.3g} outside the series regime (<= 50)")
    orders = np.asarray(nu, dtype=complex).ravel()
    if order_derivative:
        if z == 0 or (orders.real <= -0.5).any():
            raise ValueError("the order derivative needs Re(nu) > -1/2 and z != 0")
        out = _bessel_series(orders, z, order_derivative=True)
    elif z == 0:
        # J ~ (z/2)**nu / Gamma(nu + 1) and dJ/dz ~ (nu/z) J: both tend to a
        # limit only at nu = 0, nu = 1 and Re(nu) > 1
        bad = ~((orders == 0) | (orders == 1) | (orders.real > 1))
        if bad.any():
            raise BranchAmbiguity(
                f"J_nu or dJ_nu/dz has no limit at z = 0 for nu = {orders[bad][0]}"
                " (only nu = 0, nu = 1 and Re(nu) > 1 are taken there)"
            )
        out = (np.where(orders == 0, 1.0, 0.0).astype(complex),
               np.where(orders == 1, 0.5, 0.0).astype(complex))
    else:
        out = _bessel_series(orders, z)
    if isinstance(nu, np.ndarray):
        return tuple(x.reshape(nu.shape) for x in out)
    return tuple(x.item() for x in out)


def _check_roundoff(what: str, nu, z, acc, dacc, total, dtotal) -> None:
    """Raise when a finished pair of sums lost more than 1e-8 to round-off."""
    roundoff = 1e-16 * (acc + dacc) / (np.abs(total) + np.abs(dtotal))
    bad = ~(roundoff <= _BESSEL_MAX_ROUNDOFF)
    if bad.any():
        raise SeriesNonConvergence(
            f"{what} series cancels at nu={nu[bad][0]}, z={z}: round-off "
            f"estimate {roundoff[bad][0]:.2g} > {_BESSEL_MAX_ROUNDOFF:g}"
        )


def _bessel_series(nu: np.ndarray, z: complex,
                   order_derivative: bool = False) -> tuple[np.ndarray, ...]:
    """The series of :func:`bessel_j` on a 1-D array of orders at z != 0.

    Every order runs until the last one stops: one that meets the stopping
    rule has its sums checked and stored, and its later terms are not read.
    With ``order_derivative`` its order-derivative sums are stored once they
    meet the rule too, at or after J's step; J stays as stored.
    """
    # at an order -n the series divides by k (nu + k) = 0 at k = n; there
    # J_{-n} = (-1)^n J_n, and the same for the derivative
    n = np.round(nu.real)
    negative_int = (nu.imag == 0) & (n < 0) & (nu.real == n)
    sign, nu = np.where(negative_int, (-1.0) ** n, 1.0), np.where(negative_int, -nu, nu)
    half = z / 2.0
    log_half, inv_z = cmath.log(half), 1.0 / z
    # k = 0 term (z/2)**nu / Gamma(nu + 1) = exp(nu ln(z/2) - ln Gamma(nu + 1)),
    # at every order; psi(nu + 1) is read only by the order derivative,
    # whose orders have Re(nu + 1) > 1/2.  Far out along the imaginary order
    # axis Gamma(nu + 1) underflows, and the first terms overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_gamma, psi = _log_gamma(nu + 1.0)
        term = np.exp(nu * log_half - log_gamma)
        dterm = nu * inv_z * term
        over = ~(np.abs(term) + np.abs(dterm) <= _BESSEL_MAX_FIRST_TERM)
        if order_derivative:
            # d ln(term_k)/dnu = ln(z/2) - psi(nu + k + 1), here at k = 0
            dlog = log_half - psi
            nterm = term * dlog
            ndterm = term * inv_z + dterm * dlog
            over |= ~(np.abs(nterm) + np.abs(ndterm) <= _BESSEL_MAX_FIRST_TERM)
    if over.any():
        raise SeriesNonConvergence(
            f"J_nu series overflows at nu={nu[over][0]}, z={z}: its first term "
            f"exceeds {_BESSEL_MAX_FIRST_TERM:g}"
        )
    total, dtotal = term.copy(), dterm.copy()
    acc, dacc = np.abs(term), np.abs(dterm)
    J, dJ = np.empty_like(term), np.empty_like(term)
    summing = np.ones(nu.size, dtype=bool)  # orders whose J still sums
    # orders whose J is stored and whose order derivatives still sum
    waiting = np.zeros(nu.size, dtype=bool)
    left = nu.size  # orders with a sum still running
    if order_derivative:
        ntotal, ndtotal = nterm.copy(), ndterm.copy()
        nacc, ndacc = np.abs(nterm), np.abs(ndterm)
        nJ, ndJ = np.empty_like(term), np.empty_like(term)
    ratio_base = -half * half
    k = 0
    while left:
        k += 1
        if k > _BESSEL_MAX_TERMS:
            raise SeriesNonConvergence(
                f"J_nu series exceeded {_BESSEL_MAX_TERMS} terms at "
                f"nu={nu[summing | waiting][0]}, z={z}"
            )
        # one reciprocal per term, for the ratio of the terms and for psi
        inv = 1.0 / (nu + k)
        term = term * (ratio_base / k) * inv
        dterm = (nu + 2 * k) * inv_z * term
        total += term
        dtotal += dterm
        size = np.abs(term)
        acc += size
        dacc += np.abs(dterm)
        store = summing & (size < 1e-16 * acc)
        stored = np.count_nonzero(store)
        if stored:
            _check_roundoff("J_nu", nu[store], z, acc[store], dacc[store],
                            total[store], dtotal[store])
            J[store], dJ[store] = total[store], dtotal[store]
            summing ^= store
            if order_derivative:
                waiting |= store
            else:
                left -= stored
        if order_derivative:
            psi += inv
            dlog = log_half - psi
            nterm = term * dlog
            ndterm = term * inv_z + dterm * dlog
            ntotal += nterm
            ndtotal += ndterm
            nsize = np.abs(nterm)
            nacc += nsize
            ndacc += np.abs(ndterm)
            done = waiting & (nsize < 1e-16 * nacc)
            finished = np.count_nonzero(done)
            if finished:
                _check_roundoff("dJ_nu/dnu", nu[done], z, nacc[done], ndacc[done],
                                ntotal[done], ndtotal[done])
                nJ[done], ndJ[done] = ntotal[done], ndtotal[done]
                waiting ^= done
                left -= finished
    if order_derivative:
        return sign * J, sign * dJ, nJ, ndJ
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


def _sph_jh(l: int, x: np.ndarray, sin_x: np.ndarray, cos_x: np.ndarray,
            y: np.ndarray):
    """``(j, j', h1, h1')``: (j_l, j_l') at x from the given sin x and
    cos x, and (h1_l, h1_l') at y, as complex arrays of the shapes of x and
    of y, from one pass.

    The rows [j(x), h1(y)] are stacked and run through one upward
    recurrence, from f_0 = s/z and f_1 = s/z^2 - c/z, where (s, c) is
    (sin z, cos z) for j and (-i e^(iz), e^(iz)) for h1: one complex
    ``exp`` for the exterior.  One downward Miller pass (:func:`_miller`)
    then replaces the j rows where |x| < l.

    Rounding adds to the h1 row multiples of the other solutions, j_l and
    h2_l (Gautschi, SIAM Rev. 9 (1967) 24; DLMF 10.49).  Relative to h1_l
    they stay near the rounding error, except below the axis at |y| < l:
    there h2_l, which starts e^(2 Im y) times as large as h1_l at order 0,
    catches up with it, and the error grows to about 1e-16 e^(-2 Im y).

    Both recurrences are elementwise and Miller rescales each element on
    its own, so every element gets the bits it would get alone, whatever
    else is stacked with it.  Raises :class:`ZeroArgument` when any |x| or
    |y| < 1e-300.
    """
    nx, shape, x = x.size, x.shape, x.ravel()
    z = np.concatenate((x, y.ravel()))
    if (np.abs(z) < 1e-300).any():
        raise ZeroArgument("spherical Bessel functions singular at z = 0")
    e = np.exp(1j * z[nx:])
    s = np.concatenate((sin_x.ravel(), -1j * e))
    c = np.concatenate((cos_x.ravel(), e))
    f0 = s / z
    f, fp = _upward(l, z, f0, s / (z * z) - c / z)
    miller = np.abs(x) < l
    if miller.any():
        rows = slice(0, nx)  # a view: the j rows of f and fp
        f[rows][miller], fp[rows][miller] = _miller(l, x[miller], f0[rows][miller])
    return (f[:nx].reshape(shape), fp[:nx].reshape(shape),
            f[nx:].reshape(y.shape), fp[nx:].reshape(y.shape))


def sph_bessel(l: int, z: complex | np.ndarray):
    """Spherical Bessel j_l, Neumann n_l, outgoing Hankel h_l^(1) and their
    derivatives at complex z.

    Returns ``(j, jp, n, np_, h1, h1p)``: arrays of the shape of a numpy
    array ``z``, complex numbers for a number (its one-element case), from
    one :func:`_sph_jh` pass with x = y = z: j_l by upward recurrence where
    |z| >= l and by downward Miller recurrence elsewhere, h1_l by upward
    recurrence from h1_0 = -i e^(iz)/z, and n_l = -i (h1_l - j_l).  Every
    element gets the bits it would get alone.  Raises :class:`ZeroArgument`
    when any |z| < 1e-300.

    All rows are accurate on the real axis and, for h1, above it.  Off the
    axis, at large l:

    - j_l loses accuracy where |z| >= l but |Im z| is large, because the
      Miller pass runs only where |z| < l (j_30 is 7.8e-5 relative off at
      30i, j_20 2.3e-8 at 20i);
    - h1_l loses accuracy below the axis where |z| < l and |Im z| is large
      (h1_30 has a relative error of order 10 at -20i);
    - n_l inherits both errors.
    """
    if l < 0 or l > 30:
        raise ValueError("l must be in [0, 30]")
    if not isinstance(z, np.ndarray):
        return tuple(c.item() for c in sph_bessel(l, np.array([z], dtype=complex)))
    z = z.astype(complex)
    j, jp, h1, h1p = _sph_jh(l, z, np.sin(z), np.cos(z), z)
    return j, jp, -1j * (h1 - j), -1j * (h1p - jp), h1, h1p


# ---------------------------------------------------------------------------
# complex Newton iteration
# ---------------------------------------------------------------------------

# per-seed outcomes of newton_complex on an array of seeds
CONVERGED = "converged"
NO_CONVERGENCE = "no_convergence"  # max_iter reached
NON_FINITE = "non_finite"  # a non-finite value, slope or step
ZERO_SLOPE = "zero_slope"
STOPPED = "stopped"  # ended by the caller's rule, or held and never joined
# the batch rule's answer that lets the held seeds join (newton_complex)
JOIN = "join"


def newton_complex(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    seed: complex | np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 100,
    until: Callable[[int, np.ndarray, np.ndarray], object] | None = None,
    held: np.ndarray | None = None,
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
    ``NO_CONVERGENCE``, ``NON_FINITE``, ``ZERO_SLOPE`` and ``STOPPED``.  A
    number seed returns a complex with |f(z)| <= tol or raises
    :class:`NoConvergence` with the last iterate and its residual -- never
    a silent bad root.  ``tol`` must be positive and finite.

    ``held``, when given, marks the seeds of an array that wait outside the
    batch.  ``until(i, roots, outcomes)``, when given, is called after
    each round i = 0, 1, ... with the last iterates and outcomes of the
    seeds that stopped in that round, in seed order (empty where none did).
    It returns ``JOIN`` to let the held seeds join in round i + 1, so that
    each has the ``max_iter - i - 1`` steps left and the batch still makes
    at most ``max_iter + 1`` rounds; any other true value ends the batch,
    and the seeds still running end there with the outcome ``STOPPED``.  A
    held seed that never joins is ``STOPPED`` at the seed itself, with
    residual NaN.  A round with no seed running evaluates nothing.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite (tol = {tol})")
    seeds = np.array(seed, dtype=complex).ravel()
    held = np.zeros(seeds.size, dtype=bool) if held is None else np.ravel(held) != 0
    roots, residuals = seeds.copy(), np.full(seeds.size, math.nan)
    outcomes = np.full(seeds.size, NO_CONVERGENCE)
    # positions of the seeds still running, in seed order, and their
    # iterates; positions of the seeds still held
    left, wait = np.flatnonzero(~held), np.flatnonzero(held)
    z = seeds[left]
    with np.errstate(all="ignore"):  # non-finite values end their seeds
        for i in range(max_iter + 1):
            if not (left.size or wait.size):
                break
            stop, at, z_new = np.zeros(left.size, dtype=bool), left[:0], z
            if left.size:
                fz, df, *_ = f(z)
                # |f| rounded as Python's abs(complex) rounds it (np.abs
                # differs in the last bit), so abs(f(root)) <= tol holds for
                # every root
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
            rule = None if until is None else until(i, roots[at], outcomes[at])
            if rule and rule != JOIN:
                run, going = left[~stop], ~stop
                if run.size:
                    roots[run] = z[going]
                    residuals[run] = np.where(np.isfinite(fz[going]), r[going], math.inf)
                    outcomes[run] = STOPPED
                break
            left, z = left[~stop], z_new[~stop]
            if rule == JOIN and i < max_iter:
                left, z = np.append(left, wait), np.append(z, seeds[wait])
                order = np.argsort(left, kind="stable")
                left, z, wait = left[order], z[order], wait[:0]
    outcomes[wait] = STOPPED
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
    sign.  ``tol`` must be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite (tol = {tol})")
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
# phase unwrapping guided by the delay
# ---------------------------------------------------------------------------

# an interval is bisected where its phase step lies more than the first
# bound (rad) from the trapezoid of the delay, or that trapezoid exceeds the
# second
_UNWRAP_MISMATCH = 0.25
_UNWRAP_MAX_TURN = 1.0
# bisection passes, and samples, after which the unwrap gives up
_UNWRAP_PASSES = 20
_UNWRAP_MAX_SAMPLES = 1 << 16


def _unwrap(
    phase_delay: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    E: np.ndarray,
    phi: np.ndarray,
    T: np.ndarray,
    period: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Unwrap a phase known modulo ``period`` with the help of its
    derivative, the delay T.

    ``phase_delay`` maps a 1-D array of energies to the phase and the delay
    there; ``phi`` and ``T`` are its values on the non-decreasing grid
    ``E``.  A repeated point is an interval of length 0, whose step is 0
    and which is never split: it lets T jump there, as at the corner of a
    contour.  Each interval's step is its phase difference less the
    multiple of ``period`` that brings it nearest the trapezoid of T.
    Every interval whose step lies more than 0.25 rad from that trapezoid,
    or whose trapezoid exceeds 1 rad, is bisected, all new midpoints of a
    pass in one ``phase_delay`` call, until none is.  Returns the refined
    grid (``E`` itself when nothing is split) and the step of each of its
    intervals.

    Raises :class:`MaxDepthExceeded` on a phase or delay that is not finite,
    and on a grid still split after 20 passes or at 65,536 samples.
    """
    lo, hi = float(E[0]), float(E[-1])
    for passes in range(_UNWRAP_PASSES + 1):
        if not (np.isfinite(phi).all() and np.isfinite(T).all()):
            raise MaxDepthExceeded(f"phase or delay not finite on [{lo}, {hi}]")
        d_phi, trap = np.diff(phi), 0.5 * (T[1:] + T[:-1]) * np.diff(E)
        steps = d_phi - period * np.round((d_phi - trap) / period)
        split = np.flatnonzero(
            (np.abs(steps - trap) > _UNWRAP_MISMATCH) | (np.abs(trap) > _UNWRAP_MAX_TURN)
        )
        if not split.size:
            return E, steps
        if passes == _UNWRAP_PASSES or len(E) + split.size > _UNWRAP_MAX_SAMPLES:
            raise MaxDepthExceeded(
                f"phase unwrap on [{lo}, {hi}] still splits {split.size} "
                f"intervals of {len(E) - 1} after {passes} passes"
            )
        mid = 0.5 * (E[split] + E[split + 1])
        phi_mid, T_mid = phase_delay(mid)
        E, phi, T = (np.insert(a, split + 1, b)
                     for a, b in ((E, mid), (phi, phi_mid), (T, T_mid)))


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
