"""Gamow-Siegert pole location and resonance/spurious classification.

The pole search runs Newton from a dense seed grid, all seeds as one array
computation, and deduplicates the roots.  Before it starts, the argument
principle counts the poles in the search box: the winding number of a
regularised outgoing condition around the box's edge, whose phase is
unwrapped with the help of its exact slope.  Where that count is certified
and the condition has no zero in the box that is not a pole, the batch
stops as soon as the distinct roots found number the count, and the search
is then known to be complete.  Such a search is driven by its progress:
Newton starts on the seeds of every other row and of the columns spaced
about evenly in k = sqrt(E), the rest join once a few rounds bring no new
root, and a batch that then stops finding roots ends short of the count,
reported incomplete.  Every pole found is polished by one batched Newton
step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CurveTooCoarse, MaxDepthExceeded, NoPoleFound, ZeroArgument
from .numerics import (
    CONVERGED,
    JOIN,
    NO_CONVERGENCE,
    NON_FINITE,
    STOPPED,
    ZERO_SLOPE,
    Curve,
    _unwrap,
    find_extrema,
    newton_complex,
)
from .scattering import E_MIN, DeltaShell, ScatteringModel, SquareWell, _outgoing

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
# a seed that the search ends and that does not count as failed: at l >= 1
# its iterate rose above the search box's bottom edge mirrored above the axis
ABOVE_BOX = "above_box"

# the top edge of the counting box lies where Im(ka) is at most this on it
_MAX_IM_KA = 7.0
# start samples on each edge of the counting box, corners included
_COUNT_START = 65
# where the count can stop the search, Newton starts on the coarse seeds
# and holds the others (_Progress): on every _COARSE_STRIDE-th row in Im E,
# the columns nearest to _COARSE_COLUMNS points spaced evenly in k =
# sqrt(E), where the poles lie about evenly (41 of sqwell's 120 columns, 35
# of deltashell's 50).  Over the 150 model instances of the bench pools
# (CLI regions, in-process, min of 7 on 2 cores, interleaved), 30, 45, 60,
# 80 and n_re/2 targets took 2.08, 2.09, 2.19, 2.26 and 2.19 ms median and
# 76.2, 72.9, 75.5, 77.7 and 75.6 ms summed on sqwell_highl (0.74-0.84 ms
# median on closed_form) in 276, 241, 237, 232 and 237 rounds (272 on
# every other column), and the 600 models below 4,670, 4,156, 4,057, 4,019
# and 4,061 rounds (4,860).  Earlier, every seed from round 0 took 2.51 ms
# median on sqwell_highl, and every other row and column with a fixed join
# in round 4, 6, 8, 10 or 12 2.36, 1.85, 1.73, 1.72 and 1.81 ms (min of 3)
_COARSE_STRIDE = 2
_COARSE_COLUMNS = 45
# the held seeds join once the batch has gone _JOIN_AFTER rounds without a
# new root in the region, and with every seed in, the batch ends after
# _END_AFTER such rounds (_Progress).  Swept on the 150 model instances of
# the bench pools (median, sum and largest search on sqwell_highl,
# in-process, min of 3 on 2 cores; 1.75, 74.3 and 10.5 ms with the fixed
# join in round 8 and no stall end) and on 480 seeded wells (V0 in [2, 10],
# a in [3, 10], l in [0, 20]) and 120 delta shells (V0 in [2, 20], a in
# [0.5, 2]), CLI regions, numpy default_rng(27) and (5), against the poles
# of a run of every seed to its own end:
#   join after 2, 3, 4, 6, 8 (end after 16): 2.59, 1.74, 1.72, 1.72, 1.73 ms
#     median, 85.0, 67.8, 64.9, 64.6, 65.3 ms summed, no pole lost;
#   end after 6, 8, 12, 16, 24, 32 (join after 4): 5.43, 5.51, 5.75, 6.56,
#     7.69, 8.63 ms largest, poles lost on 17, 10, 2, 0, 0, 0 models.
# The sweep counted from the first round in which any seed ended; counted
# from the first root in the region, every pool search runs the same
# rounds and joins in the same round, and one of the 600 models (well 384)
# loses a pole, with the coarse seeds even in E or in k
_JOIN_AFTER = 4
_END_AFTER = 16


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
    """Rectangle in the lower-half complex E plane, with finite bounds that
    end above E_MIN (:func:`_re_range`), plus seed grid counts."""

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    n_re: int = 40
    n_im: int = 10

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.re_range, *self.im_range))):
            raise ValueError("the search region's bounds must be finite")
        lo, hi = self.re_range
        if not (hi > max(lo, E_MIN) and lo >= 0):
            raise ValueError(f"require E_hi > max(E_lo, {E_MIN:g}) and E_lo >= 0")
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


def _newton_residual(model: ScatteringModel, E: np.ndarray,
                     ceiling: float = math.inf):
    """Newton's residual and slope on an array of iterates: the bare entire
    form of the outgoing condition, NaN at branch points and above Im E =
    ``ceiling``."""
    at = _branch_point(model, E)
    if ceiling < math.inf:  # a mask the s-wave and delta-shell rounds skip
        at |= E.imag > ceiling
    if not at.any():
        return _outgoing(model, E)[:2]
    f = np.full(E.shape, np.nan, dtype=complex)
    df = f.copy()
    f[~at], df[~at] = _outgoing(model, E[~at])[:2]
    return f, df


def _regularised_phase(model: ScatteringModel, E: np.ndarray):
    """arg G mod 2 pi and G'/G at E != 0, for the regularised condition

        G = F/k (delta shell),  F/p (l = 0),  (ka)^(l+1) F/(pa)^l (l >= 1),

    from one :func:`_outgoing` call.  G has no pole at k = 0 and no zero at
    p = 0, which F has at l = 0 and at l >= 1 (like p^l), so its zeros
    with Re E >= 0 are exactly the poles.  The powers of the principal
    square roots k and p enter through arg k = arg(E)/2 and d ln k/dE =
    1/(2E), so a large F or a power of ka does not overflow."""
    f, df, *_ = _outgoing(model, E)
    phase, dlog = np.angle(f), df / f
    if isinstance(model, DeltaShell):
        return phase - 0.5 * np.angle(E), dlog - 0.5 / E
    q, l = E + model.V0, model.l
    if l == 0:
        return phase - 0.5 * np.angle(q), dlog - 0.5 / q
    return (phase + 0.5 * ((l + 1) * np.angle(E) - l * np.angle(q)),
            dlog + 0.5 * ((l + 1) / E - l / q))


def _re_range(region: SearchRegion) -> tuple[float, float]:
    """The real range of the pole search, for its seeds, its counting box
    and the roots it keeps: the region's, from the threshold guard E_MIN at
    least, so that no sample lands on the branch point E = 0."""
    lo, hi = region.re_range
    return max(lo, E_MIN), hi


def _top_edge(model: ScatteringModel, region: SearchRegion) -> float:
    """Im E of the counting box's top edge: the largest at which Im(ka) <= 7
    on it.  a Im sqrt(x + i eta) is largest at the top-left corner x = x0,
    and equals 7 at eta = 2c sqrt(x0 + c^2), c = 7/a."""
    c = _MAX_IM_KA / model.a
    return 2.0 * c * math.sqrt(_re_range(region)[0] + c * c)


def _winding_number(model: ScatteringModel, region: SearchRegion) -> int | None:
    """The number of poles in the box Re E in :func:`_re_range`, Im E in
    [Im E_lo, +eta] (:func:`_top_edge`): the winding number of G
    (:func:`_regularised_phase`) around the box's edge, counter-clockwise.

    The edges are sampled as one closed loop with parameter s in [0, 4],
    edge i on [i, i + 1] from 65 start points, each corner a repeated point
    (an interval of length 0 between the slopes of its two edges).  arg G
    is unwrapped by :func:`~resdelay.numerics._unwrap`, period 2 pi, guided
    by its exact slope Im(G'/G dE/ds).  Returns None when the count is not
    certified: a sample at the branch point E = -V0 or one that is not
    finite, an unwrap that raises :class:`MaxDepthExceeded`, or a winding
    that is not an integer.  No warning is raised either way."""
    (x0, x1), (y0, _) = _re_range(region), region.im_range
    y1 = _top_edge(model, region)
    # the start and the direction of each edge: bottom, right, top, left
    start_re, start_im = np.array([x0, x1, x1, x0]), np.array([y0, y0, y1, y1])
    w, h = x1 - x0, y1 - y0
    step_re, step_im = np.array([w, 0.0, -w, 0.0]), np.array([0.0, h, 0.0, -h])

    def phase_slope(s, edge):
        # real and imaginary parts apart: no cross terms of a complex product
        t = s - edge
        E = ((start_re[edge] + t * step_re[edge])
             + 1j * (start_im[edge] + t * step_im[edge]))
        phase, dlog = _regularised_phase(model, E)
        return phase, (dlog * (step_re[edge] + 1j * step_im[edge])).imag

    def phase_slope_inside(s):  # a new sample never lies on a corner
        return phase_slope(s, np.minimum(s.astype(int), 3))

    edge = np.repeat(np.arange(4), _COUNT_START)
    s = edge + np.tile(np.linspace(0.0, 1.0, _COUNT_START), 4)
    with np.errstate(all="ignore"):
        try:
            _, steps = _unwrap(phase_slope_inside, s, *phase_slope(s, edge),
                               2.0 * math.pi)
        except (MaxDepthExceeded, ZeroArgument):
            return None
    turns = math.fsum(steps) / (2.0 * math.pi)
    n = round(turns)
    return n if abs(turns - n) <= 1e-6 else None


def _spurious_zero_inside(model: ScatteringModel, region: SearchRegion) -> bool:
    """F has a zero in the counting box that is not a pole: E = -V0 of a
    barrier, where F vanishes with p, lies in the box's real range
    (:func:`_re_range`)."""
    lo, hi = _re_range(region)
    return isinstance(model, SquareWell) and lo <= -model.V0 <= hi


def _inside(region: SearchRegion, z: np.ndarray) -> np.ndarray:
    """Elementwise: z lies in the search's real range (:func:`_re_range`),
    and in [Im E_lo, 0) below the axis."""
    (re_lo, re_hi), (im_lo, _) = _re_range(region), region.im_range
    return (re_lo <= z.real) & (z.real <= re_hi) & (im_lo <= z.imag) & (z.imag < 0)


def _distinct(z: np.ndarray) -> np.ndarray:
    """Positions of the roots kept from z in order: a root is kept unless it
    lies within 1e-6 (1 + |z|) of a root kept before it (np.hypot rounds as
    Python's abs(complex))."""
    size = np.hypot(z.real, z.imag)
    left, kept = np.arange(z.size), []
    while left.size:
        kept.append(left[0])
        d = z[left] - z[left[0]]
        left = left[~(np.hypot(d.real, d.imag) < 1e-6 * (1.0 + size[left]))]
    return np.array(kept, dtype=int)


class _Progress:
    """Newton's batch rule of a pole search (``until`` of
    :func:`~resdelay.numerics.newton_complex`), and its record: the rounds
    run, the round the held seeds joined (None if they never did) and how
    the batch ended: ``"count"``, ``"stall"``, or ``"steps"`` when every
    seed ran to its own end.

    With a ``count``, it keeps the distinct converged roots inside the
    region over the rounds so far, and the batch ends once they number the
    count.  From the first round that brings such a root, it counts the
    rounds in a row that bring no new one: the held seeds join after
    :data:`_JOIN_AFTER` of them, or sooner once the ``running`` seeds not
    held that are still running are too few to meet the count, and with
    every seed in, the batch ends after :data:`_END_AFTER`.  Seeds that
    fail or leave the region do not move that schedule.  Without a count
    it only counts the rounds."""

    def __init__(self, region: SearchRegion, count: int | None, running: int):
        self.region, self.count, self.running = region, count, running
        self.kept = np.empty(0, dtype=complex)
        self.quiet = None  # rounds in a row without a new root, once counted
        self.rounds, self.join_asked, self.end = 0, None, "steps"

    @property
    def joined_round(self):
        # a join asked after the batch's last round has no round to join in
        asked = self.join_asked
        return asked if asked is not None and asked < self.rounds else None

    def _keep(self, roots, outcomes) -> bool:
        """Keep the new distinct converged roots inside the region; whether
        there were any."""
        z = roots[(outcomes == CONVERGED) & _inside(self.region, roots)]
        if z.size and self.kept.size:
            d = z[:, None] - self.kept
            size = np.hypot(z.real, z.imag)[:, None]
            z = z[~(np.hypot(d.real, d.imag) < 1e-6 * (1.0 + size)).any(axis=1)]
        if not z.size:
            return False
        self.kept = np.append(self.kept, z[_distinct(z)])
        return True

    def __call__(self, i, roots, outcomes):
        self.rounds = i + 1
        if self.count is None:
            return False
        new = self._keep(roots, outcomes) if roots.size else False
        if self.kept.size == self.count:
            self.end = "count"
            return True
        if new:
            self.quiet = 0
        elif self.quiet is not None:
            self.quiet += 1
        if self.join_asked is None:
            self.running -= roots.size
            too_few = self.running < self.count - self.kept.size
            if too_few or (self.quiet or 0) >= _JOIN_AFTER:
                self.join_asked, self.quiet = i + 1, 0
                return JOIN
        elif self.quiet >= _END_AFTER:
            self.end = "stall"
            return True
        return False


def _polish(model: ScatteringModel, z: np.ndarray, r: np.ndarray):
    """One Newton step from each root, all in one batch, kept where it
    lowers |F| and stays below the real axis; the residuals are those of
    the same batch."""
    with np.errstate(all="ignore"):
        f, df = _newton_residual(model, z)
        step = z - f / df
        f1, _ = _newton_residual(model, step)
    r1 = np.hypot(f1.real, f1.imag)
    better = (r1 < r) & (step.imag < 0)
    return np.where(better, step, z), np.where(better, r1, r)


def find_poles(
    model: ScatteringModel, region: SearchRegion, tol: float = 1e-9
) -> list[Pole]:
    """Launch Newton from the grid seeds, all seeds as one batch; keep
    deduplicated lower-half-plane roots inside the region (in seed order),
    polish each by one Newton step (:func:`_polish`), and sort by Re(E).

    The poles in the region's box are first counted
    (:func:`_winding_number`).  Where the count is certified and F has no
    zero in the box that is not a pole (:func:`_spurious_zero_inside`), the
    batch ends once the distinct roots found number the count; the seeds
    still running, and those that never started, then end as ``stopped``.
    Such a batch starts on every other row, on the columns nearest to 45
    points spaced evenly in k = sqrt(E) (205 of the CLI's 1,200 ``sqwell``
    seeds, 140 of its 400 ``deltashell`` seeds), and holds the rest.  From
    the first round that brings a root in the region, it counts the rounds
    in a row that bring no new one: after 4 the held seeds join, with the
    rounds left up to the 60th (sooner once the seeds still running are too
    few to meet the count), and with every seed in, the batch ends after
    16, short of the count (:class:`_Progress`).  Each seed takes the steps
    it would take alone, so only the seed that reaches a pole first can
    differ from a batch that starts on every seed.  Otherwise every seed
    runs from round 0 to its own end.

    At l >= 1 a seed also ends once its iterate rises above Im E = -Im
    E_lo, the bottom edge of the box mirrored above the real axis, where no
    pole lies: there the Newton steps on F wander without a root in reach.

    Where the count is certified and positive but no seed converged to a
    pole, :class:`NoPoleFound` is raised: an empty list would hide the miss
    together with the diagnostics below.

    Failed seeds are dropped.  Each pole's diagnostics record their count
    under ``seeds_failed`` and, under ``seeds_failed_by_reason``, their
    count per reason of :data:`SEED_FAILURES`: ``no_convergence`` (out of
    steps by round 60), ``non_finite`` (a value, slope or step),
    ``zero_slope`` and ``branch_point`` (an iterate where the condition is
    undefined).  They also record the seeds the search ended by its own
    rules, which did not fail: ``seeds_stopped`` (by the batch rule) and
    ``seeds_above_box``; under ``seeds_converged_outside``, the seeds that
    converged to a root outside the region (a zero of F at E = -V0, a bound
    state, a root above the axis or beyond the box); and ``winding_number``
    (the count, None where it is not certified) and ``complete`` (the number
    of poles found equals the count).  With the seeds that converged inside
    the region, these counts add up to every seed of the grid.  Finally,
    ``search_end`` records how the batch ended (``"count"``, ``"stall"``
    or ``"steps"``, every seed to its own end), ``rounds`` the Newton
    rounds it ran and ``joined_round`` the round the held seeds joined in
    (None where they never did or none were held).
    """
    (re_lo, re_hi), (im_lo, im_hi) = _re_range(region), region.im_range
    seeds_re = np.linspace(re_lo, re_hi, region.n_re)
    # quadratic spacing toward the real axis: narrow poles sit just below it
    ihi = min(im_hi, -1e-6)
    frac = np.linspace(1.0 / region.n_im, 1.0, region.n_im)
    seeds_im = ihi + (im_lo - ihi) * frac**2
    seeds = np.empty((region.n_re, region.n_im), dtype=complex)
    seeds.real, seeds.imag = seeds_re[:, None], seeds_im

    count = _winding_number(model, region)
    stops = count is not None and not _spurious_zero_inside(model, region)
    # the coarse seeds: the columns nearest to points spaced evenly in k
    k = np.linspace(math.sqrt(re_lo), math.sqrt(re_hi), _COARSE_COLUMNS)
    cols = np.rint((k * k - re_lo) / (re_hi - re_lo) * (region.n_re - 1))
    held = np.ones(seeds.shape, dtype=bool)
    held[cols.astype(int), ::_COARSE_STRIDE] = False
    progress = _Progress(region, count if stops else None, np.count_nonzero(~held))
    # only F at l >= 1 carries h1_l(ka); on s-wave wells and delta shells
    # the rule ended no search a round sooner
    ceiling = -im_lo if isinstance(model, SquareWell) and model.l >= 1 else math.inf
    roots, residuals, outcomes = newton_complex(
        functools.partial(_newton_residual, model, ceiling=ceiling), seeds.ravel(),
        tol=tol, max_iter=60, until=progress, held=held if stops else None,
    )
    nan = outcomes == NON_FINITE
    is_above = nan & (roots.imag > ceiling)
    outcomes[nan & _branch_point(model, roots)] = BRANCH_POINT
    outcomes[is_above] = ABOVE_BOX
    failed = {why: int(np.count_nonzero(outcomes == why)) for why in SEED_FAILURES}
    converged = outcomes == CONVERGED
    inside = converged & _inside(region, roots)
    z, r = roots[inside], residuals[inside]
    keep = _distinct(z)
    z, r = z[keep], r[keep]
    if count and not z.size:
        raise NoPoleFound(f"no seed converged to any of the {count} poles that "
                          "the winding number certifies in the search box")
    if z.size:
        z, r = _polish(model, z, r)
    stopped = int(np.count_nonzero(outcomes == STOPPED))
    above = int(np.count_nonzero(is_above))
    outside = int(np.count_nonzero(converged & ~inside))
    return [
        Pole(
            z[i].item(),
            residual=r[i].item(),
            diagnostics={
                "seeds_failed": sum(failed.values()),
                "seeds_failed_by_reason": dict(failed),
                "seeds_stopped": stopped,
                "seeds_above_box": above,
                "seeds_converged_outside": outside,
                "winding_number": count,
                "complete": z.size == count,
                "search_end": progress.end,
                "rounds": progress.rounds,
                "joined_round": progress.joined_round,
            },
        )
        for i in np.argsort(z.real, kind="stable")
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
