"""Tabulated phase-shift analysis: ingest a CSV of elastic phase shifts
versus total c.m. energy, differentiate to a time-delay curve, and extract
resonance mass, width and the counting integral.

Input CSV format: UTF-8 (the CLI's ``--input`` may start with a byte-order
mark), '#' comment lines, header ``W_MeV,delta_deg`` with an optional third
column ``err_deg``, decimal point '.', no thousands separators.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .counting import gamma_from_peak
from .errors import MonotonicityError, NoPeak, ParseError, TooFewRows
from .numerics import Curve, find_extrema

__all__ = [
    "PhaseTable",
    "ResonanceReport",
    "parse_phase_table",
    "load_bundled_p33",
    "delay_from_table",
    "extract_resonance",
    "synth_phase_table",
]

_MIN_ROWS = 5


@dataclass(frozen=True)
class PhaseTable:
    """Rows of (W [MeV], delta [deg], optional uncertainty [deg])."""

    W: np.ndarray
    delta_deg: np.ndarray
    err_deg: np.ndarray | None = None
    source: str = ""

    def __post_init__(self):
        if len(self.W) < _MIN_ROWS:
            raise TooFewRows(f"need at least {_MIN_ROWS} rows, got {len(self.W)}")
        if not np.all(np.diff(self.W) > 0):
            raise MonotonicityError("W must be strictly increasing")
        if np.any(np.abs(self.delta_deg) > 360):
            raise ParseError("|delta| exceeds 360 degrees")

    def __len__(self):
        return len(self.W)


@dataclass(frozen=True)
class ResonanceReport:
    M: float  # MeV, delay-peak position
    Gamma: float  # MeV, from 2/peak-height
    n_R: float
    W_range: tuple[float, float]

    def __post_init__(self):
        if not (self.W_range[0] <= self.M <= self.W_range[1]):
            raise ValueError("peak position outside the analysis window")
        if self.Gamma <= 0:
            raise ValueError("Gamma must be positive")

    def to_dict(self) -> dict:
        return {
            "M_MeV": self.M,
            "Gamma_MeV": self.Gamma,
            "n_R": self.n_R,
            "W_range": list(self.W_range),
        }


def parse_phase_table(text: str, source: str = "") -> PhaseTable:
    """Parse and validate a phase-shift CSV (see module docstring), given
    as decoded text without a byte-order mark.

    The data lines go through one field-count check, one split of their
    join and one ``float`` pass, with no object built per line; a field
    count or a number that does not parse raises :class:`ParseError` at
    the first such line in file order, and so does then a field that is
    not finite (``nan``, ``inf``), and then a phase beyond 360 degrees.
    Line numbers are recovered only for an error (:func:`_numbered`)."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError("missing header line")
    header = [c.strip() for c in lines[0].split(",")]
    if header[:2] != ["W_MeV", "delta_deg"] or (
        len(header) == 3 and header[2] != "err_deg"
    ) or len(header) > 3:
        raise ParseError(f"bad header {lines[0]!r}", _numbered(text)[0][0])
    ncol, rows = len(header), lines[1:]
    try:
        if set(map(str.count, rows, itertools.repeat(","))) - {ncol - 1}:
            raise ValueError("a row has the wrong field count")
        # every row holds ncol fields, so one split of the join gives the
        # fields of the rows' own splits; float() ignores the whitespace
        # around a field
        values = np.fromiter(
            map(float, ",".join(rows).split(",")), np.float64, ncol * len(rows)
        )
    except ValueError:
        numbered = _numbered(text)[1:]
        fields = [line.split(",") for _, line in numbered]
        raise _first_bad_row(numbered, fields, ncol) from None
    # float() also reads nan and inf
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        lineno, line = _numbered(text)[1 + bad[0] // ncol]
        raise ParseError(f"non-finite field in {line!r}", lineno)
    bad = np.flatnonzero(np.abs(values[1::ncol]) > 360)
    if bad.size:
        lineno, line = _numbered(text)[1 + bad[0]]
        raise ParseError(f"|delta| exceeds 360 degrees in {line!r}", lineno)
    if len(rows) < _MIN_ROWS:
        raise TooFewRows(f"need at least {_MIN_ROWS} rows, got {len(rows)}")
    w, delta, *err = values.reshape(-1, ncol).T.copy()
    bad = np.flatnonzero(w[1:] <= w[:-1])
    if bad.size:
        i = bad[0] + 1
        raise MonotonicityError(
            f"W = {w[i]} does not increase past {w[i - 1]}", _numbered(text)[1 + i][0]
        )
    return PhaseTable(
        W=w, delta_deg=delta, err_deg=err[0] if err else None, source=source
    )


def _data_lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor a '#'
    comment: the header, then the rows."""
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def _numbered(text: str) -> list[tuple[int, str]]:
    """:func:`_data_lines` with each line's 1-based number in ``text``."""
    return [
        (lineno, kept[0])
        for lineno, line in enumerate(text.splitlines(), start=1)
        if (kept := _data_lines(line))
    ]


def _first_bad_row(rows, fields, ncol) -> ParseError:
    """The :class:`ParseError` of the first row, in file order, with the
    wrong field count or a field that is not a number."""
    for (lineno, line), parts in zip(rows, fields):
        if len(parts) != ncol:
            return ParseError(f"expected {ncol} fields, got {len(parts)}", lineno)
        try:
            list(map(float, parts))
        except ValueError:
            return ParseError(f"non-numeric field in {line!r}", lineno)
    raise AssertionError("every row parses")


def load_bundled_p33() -> PhaseTable:
    """The pi+ p P33 phase-shift table shipped with the package."""
    text = (
        resources.files("resdelay").joinpath("data/p33_pip_p.csv").read_text("utf-8")
    )
    return parse_phase_table(text, source="bundled p33_pip_p.csv")


def _moving_average(y: np.ndarray, window: int) -> np.ndarray:
    if window == 1:
        return y
    pad = window // 2
    padded = np.concatenate([np.repeat(y[0], pad), y, np.repeat(y[-1], pad)])
    kernel = np.full(window, 1.0 / window)
    return np.convolve(padded, kernel, mode="valid")


def delay_from_table(table: PhaseTable, smooth_window: int = 1) -> Curve:
    """Time delay d(delta)/dW in radians per MeV from a phase table.

    Degrees are converted to radians, +-180 degree jumps unwrapped, an
    optional centered moving average applied, then central differences taken
    on the (possibly nonuniform) grid.
    """
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ValueError("smooth_window must be an odd integer >= 1")
    delta = np.unwrap(np.radians(table.delta_deg), period=math.pi)
    delta = _moving_average(delta, smooth_window)
    d = np.gradient(delta, table.W)
    return Curve(table.W, d, label="time_delay_per_MeV")


def extract_resonance(curve: Curve, W_lo: float, W_hi: float,
                      count_curve: Curve | None = None) -> ResonanceReport:
    """Resonance mass/width from the highest delay peak plus the counting
    integral (trapezoidal on the data grid) over [W_lo, W_hi].  Raises
    :class:`NoPeak` when the window holds no interior maximum of positive
    delay, the only kind that gives a width.

    Where ``count_curve``, a delay on the same grid, is given, the integral
    runs over it: a smoothed delay's peak is then read beside the count of
    the table's own phases, which the moving average's padded ends would
    shrink."""
    mask = (curve.energies >= W_lo) & (curve.energies <= W_hi)
    if int(np.sum(mask)) < 3:
        raise ValueError("window contains fewer than 3 samples")
    sub = Curve(curve.energies[mask], curve.values[mask], label=curve.label)
    maxima = [p for p in find_extrema(sub) if p.kind == "max"]
    best = max(maxima, key=lambda p: p.height, default=None)
    if best is None or best.height <= 0:
        highest = "" if best is None else f"; the highest is {best.height:.3g} rad/MeV"
        raise NoPeak(f"no interior maximum of positive delay in [{W_lo}, {W_hi}]"
                     f"{highest}")
    counted = curve if count_curve is None else count_curve
    n_r = float(np.trapezoid(counted.values[mask], counted.energies[mask])) / math.pi
    return ResonanceReport(
        M=best.position,
        Gamma=gamma_from_peak(best.height),
        n_R=n_r,
        W_range=(W_lo, W_hi),
    )


def synth_phase_table(
    M: float,
    Gamma: float,
    background_slope: float,
    W_lo: float,
    W_hi: float,
    n: int,
) -> PhaseTable:
    """Synthetic Breit-Wigner phase table (degrees) on a uniform grid.

    delta(W) = arctan((Gamma/2)/(M - W)) unwrapped to rise through 90 deg at
    W = M, plus a linear background (slope in rad/MeV).
    """
    if n < _MIN_ROWS:
        raise ValueError(f"need n >= {_MIN_ROWS}")
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    w = np.linspace(W_lo, W_hi, n)
    delta = np.arctan2(Gamma / 2.0, M - w) + background_slope * (w - W_lo)
    return PhaseTable(
        W=w, delta_deg=np.degrees(delta), source="synthetic Breit-Wigner"
    )
