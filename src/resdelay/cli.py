"""Command-line front-end.

Each subcommand runs one analysis pipeline end to end and emits
figure-ready CSV curves (``E,value``, LF endings) plus a machine-readable
JSON report that validates against ``report_schema.json``.  Every sample a
run writes is written in the shortest digits that read back to the same
float, exactly as ``float.__repr__`` writes them, and the CSV row and the
report write the same bytes.  One array kernel, :func:`_digit_rows`, gives
the digits of all the run's sample arrays in one call, as a matrix of
NUL-padded rows; each CSV file and each of the report's sample arrays is
those rows laid side by side with their separators, the NUL bytes dropped.
The rest of the report is written by one recursive writer that lays it out
as ``json.dumps(report, indent=2, sort_keys=True)`` does, and each distinct
pair of sample array and indentation is joined once.  A model run
(``sqwell``, ``deltashell``) evaluates the delay of its display,
classification and count grids in one real-axis pass.

Exit codes: 0 success, 2 validation or file-system error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .counting import (
    CountReport,
    _phase_count,
    _phase_start,
    _reconstruction_errors,
    lorentzian_sum,
)
from .errors import NoPoleFound, ParseError, ResdelayError, SeriesNonConvergence
from .numerics import (
    _BESSEL_MAX_ABS_Z, Curve, _parabolic_refine, _sample_grid, find_extrema,
)
from .phasedata import (
    delay_from_table,
    extract_resonance,
    load_bundled_p33,
    parse_phase_table,
)
from .poles import RESONANCE, SearchRegion, classify_poles, find_poles
from .reflect import ExpStep, _reflection, _theta
from .scattering import E_MIN, DeltaShell, SquareWell, _phase_delay, delay_curve

ENV_OUT = "RESDELAY_OUT"
_REFINE_POINTS = 64  # samples of the fine pass around the reflectivity dip


# ---------------------------------------------------------------------------
# sample digits: float.__repr__ of a whole array
# ---------------------------------------------------------------------------
#
# |x| = m 2**e (frexp) is scaled by 10**S, S fixed by e, to v = |x| 10**S in
# [1e16, 2e17): a double-double product, Dekker's two-product of |x| and
# hi(10**S) plus |x| lo(10**S), gives v as an even integer P plus a small
# fraction t.  In those units the rounding interval's half-width is g =
# 2**(e-54) 10**S in [1.11, 11.1), so the shortest digits (Ryu: Adams, PLDI
# 2018) are the multiple of 100 within g if there is one (one at most), else
# the nearest multiple of 10 if it is within g, else the nearest integer.
# That integer q, scaled by 10 to 18 digits, is written four digits at a
# time through a table in which each digit is followed by a slot that may
# hold the decimal point; a mask row per layout (repr's fixed form for each
# decimal point, or its exponent form) and last nonzero digit clears the
# leading and trailing zeros and the unused slots, and an exponent word
# follows.  A row is repr's text with NUL bytes among and after its
# characters, which the writers drop.  Elements whose decision lies within
# _TIE of a tie or of the interval's end, and those the scaling does not
# cover (0, powers of two, whose interval is lopsided, and |x| outside
# [2**-93, 2**57)), take float.__repr__ itself.

_E_LO, _E_HI = -92, 57  # frexp exponents of the kernel: 2**-93 <= |x| < 2**57
_D_LO, _D_HI = -27, 18  # the decimal points of those |x|
_TIE = 1e-6  # a decision this close to a tie or to the interval's end takes repr
_WIDTH = 56  # bytes per row: sign word, 5 digit words, exponent word
# The blocks keep a call's temporaries to a few hundred KB, which are reused
# from one block to the next rather than mapped and faulted in afresh.
_KERNEL_BLOCK = 2048  # elements per block of the kernel
_BLOCK = 512  # rows per block of the NUL-stripped writer


def _scale_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indexed by frexp exponent e, from ``_E_LO - 1`` to ``_E_HI + 1`` (the
    two ends stand for every exponent outside the kernel): the rows
    hi(10**S), its Veltkamp halves, lo(10**S) and the half-gap g (NaN at
    the ends).  Then, indexed by 2 (e - _E_LO + 1) + short, where short
    marks a q of 17 digits: the layout's mask row for a last nonzero digit
    j1 = 0, and the exponent word ("e-05", or none in the fixed form)."""
    e = np.arange(_E_LO - 1, _E_HI + 2)
    s = np.clip(16 - (e - 1) * 30103 // 100000, 0, 44)  # 30103e-5 for log10(2)
    tens = [10 ** k for k in range(45)]  # 10**k - hi(10**k) fits 53 bits
    hi = np.array([float(t) for t in tens])[s]
    lo = np.array([float(t - int(float(t))) for t in tens])[s]
    hh = hi * 134217729.0
    hh -= hh - hi
    gap = np.ldexp(hi, e - 54)
    gap[[0, -1]] = np.nan
    point = np.clip(18 - s[:, None] - [0, 1], _D_LO, _D_HI).ravel()
    fixed = (-4 < point) & (point <= 16)
    words = b"".join(bytes(8) if f else f"e{d - 1:+03d}".encode().ljust(8, b"\0")
                     for d, f in zip(point.tolist(), fixed.tolist()))
    return (np.stack([hi, hh, hi - hh, lo, gap]), np.where(fixed, point + 4, 0) * 18 - 2,
            np.frombuffer(words, "<u8"))


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For 0000..9999: the four ASCII digits, each followed by a 0xFF slot,
    as a little-endian word; and, at 10000 k + v for quad k = 0..4 of q,
    the frame digit 4 k - 1 + place of its last nonzero digit, -64 for
    0000."""
    v = np.arange(10000)
    chars = np.full((10000, 8), 0xFF, np.uint8)
    place = np.zeros(10000, np.int8)
    for p, div in enumerate((1000, 100, 10, 1), start=1):
        digit = v // div % 10
        chars[:, 2 * p - 2] = digit + 48
        place[digit != 0] = p
    last = np.where(place > 0, place + np.arange(-1, 19, 4)[:, None], -64)
    return chars.view("<u8").ravel(), last.astype(np.int8).ravel()


def _layout_table() -> np.ndarray:
    """The mask of a row per layout code (0: exponent form, 1..20: fixed
    form with decimal point D = code - 4) and last nonzero digit j1 in 2..19
    of q, where frame digit j (q's first at 2, two padding zeros before 0)
    sits at byte 8 + 2 j and its slot at 9 + 2 j.  A mask byte is 0 (clear),
    0xFF (keep) or "." (for a slot, which holds 0xFF)."""
    point = np.repeat(np.arange(-4, 17), 18)[:, None]
    j1 = np.tile(np.arange(2, 20), 21)[:, None]
    fixed = point > -4  # "0.00ddd", "d.ddd" or "ddd.0"; else "d.ddde-05" or "de-05"
    lo = np.where(fixed, np.minimum(2, 1 + point), 2)
    hi = np.where(fixed, np.maximum(j1, 2 + point), j1)
    dot = np.where(fixed, 1 + point, 2)
    j = np.arange(-2, 20)
    mask = np.full((len(point), _WIDTH), 0xFF, np.uint8)
    mask[:, 4:48:2] = np.where((lo <= j) & (j <= hi), 0xFF, 0)
    mask[:, 5:48:2] = np.where((j == dot) & (j < hi), 46, 0)
    return mask


(_SCALE, _LAYOUT_ROW, _EXPONENT_WORD), (_QUADS, _LAST), _LAYOUT = (
    _scale_tables(), _quad_tables(), _layout_table())
_QUAD_ROW = np.arange(0, 50000, 10000)[:, None]  # quad k's rows in _LAST
# the sign words: no sign or "-", then frame digits -2 and -1, "0" and "0"
_SIGN = np.array([0xFF30FF3000000000, 0xFF30FF300000002D], "<u8")


def _repr_rows(rows: np.ndarray, x: np.ndarray, where: np.ndarray) -> None:
    """Write ``float.__repr__`` of ``x[where]`` into those rows: the
    kernel's fallback."""
    for i in where.tolist():
        text = float.__repr__(float(x[i])).encode()
        rows[i] = 0
        rows[i, :len(text)] = np.frombuffer(text, np.uint8)


def _digit_rows(x: np.ndarray) -> np.ndarray:
    """The text of ``float.__repr__(x_i)`` for every element, one row of
    ``_WIDTH`` bytes each, with NUL bytes among and after the characters.
    0, powers of two, |x| outside [2**-93, 2**57) and decisions within
    ``_TIE`` of a tie take ``float.__repr__`` itself.  The kernel runs on
    blocks of ``_KERNEL_BLOCK`` elements, which bounds its temporaries."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    rows = np.empty((len(x), _WIDTH // 8), "<u8")
    fallback = [start + _digit_block(x[start:start + _KERNEL_BLOCK],
                                     rows[start:start + _KERNEL_BLOCK])
                for start in range(0, len(x), _KERNEL_BLOCK)]
    rows = rows.view(np.uint8)
    _repr_rows(rows, x, np.concatenate(fallback) if fallback else np.empty(0, np.intp))
    return rows


def _digit_block(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write the rows of one block (words of ``rows``) and return the
    indices that take the fallback."""
    with np.errstate(all="ignore"):  # the fallback rows compute garbage
        a = np.abs(x)
        m, e = np.frexp(a)
        e = np.add(e, 1 - _E_LO, dtype=np.intp)
        # v = a (hi + lo) = p + t, p = fl(a hi) (Dekker's two-product)
        p, hh, hl, lo, gap = _SCALE.take(e, axis=1, mode="clip")
        p *= a
        ah = a * 134217729.0
        ah -= ah - a
        al = a - ah
        t = ah * hh
        t -= p
        hh *= al
        ah *= hl
        t += ah
        t += hh
        hl *= al
        t += hl
        lo *= a
        t += lo
        del a, ah, al, hh, hl, lo
        # w = v - H, H = P rounded down to a multiple of 100: w in (-64, 164)
        big = p.astype(np.int64)
        q = big // 100
        q *= 100
        big -= q
        w = np.add(t, big, out=t)
        del p, big
        # the candidates: the nearest integer, multiple of 10 and multiple of
        # 100, the coarsest taken that lies within the half-gap
        off = np.rint(w)
        d1 = np.abs(w - off)
        c10 = np.rint(w * 0.1)
        c10 *= 10
        d10 = np.abs(w - c10)
        c100 = np.rint(w * 0.01)
        c100 *= 100
        d100 = np.abs(np.subtract(w, c100, out=w), out=w)
        off = np.where(d10 < gap, c10, off)
        off = np.where(d100 < gap, c100, off)
        # the distance of those choices from a tie or from the interval's end
        margin = np.subtract(0.5, d1, out=d1)
        np.minimum(margin, np.subtract(5.0, d10, out=c10), out=margin)
        np.minimum(margin, np.abs(np.subtract(d10, gap, out=d10), out=d10), out=margin)
        np.minimum(margin, np.abs(np.subtract(d100, gap, out=d100), out=d100), out=margin)
        fallback = np.flatnonzero((m <= 0.5) | ~(margin >= _TIE))
        del w, d1, d10, d100, c10, c100, gap, margin, m
        q += off.astype(np.int64)
        del off
        # scale the 17-digit q to 18 digits and write them, 4 at a time
        short = q < 10 ** 17
        np.multiply(q, 10, out=q, where=short)
        quads = np.empty((5, len(q)), np.intp)
        for k in (4, 3, 2, 1):
            rest = q // 10000
            np.subtract(q, rest * 10000, out=quads[k])
            q = rest
        quads[0] = q
        del q, rest
        for k in range(5):
            rows[:, k + 1] = _QUADS.take(quads[k], mode="clip")
        rows[:, 0] = _SIGN.take(x.view(np.int64) < 0)
        # the exponent word, and the mask row of the layout and of q's last
        # nonzero digit j1
        quads += _QUAD_ROW
        last = _LAST.take(quads, mode="clip").max(axis=0)
        del quads
        e *= 2
        e += short
        rows[:, 6] = _EXPONENT_WORD.take(e, mode="clip")
        layout = _LAYOUT_ROW.take(e, mode="clip")
        layout += last
        chars = rows.view(np.uint8)
        np.minimum(chars, _LAYOUT.take(layout, axis=0, mode="clip"), out=chars)
    return fallback


def _joined(parts: list) -> bytes:
    """Row after row, the rows of the matrices in ``parts`` side by side,
    with the separators (``bytes``) that stand between them; NUL bytes
    dropped.  Built in blocks of ``_BLOCK`` rows."""
    widths = [len(part) if isinstance(part, bytes) else part.shape[1] for part in parts]
    edges = list(accumulate(widths, initial=0))
    n = next(len(part) for part in parts if not isinstance(part, bytes))
    block = np.empty((min(n, _BLOCK), edges[-1]), np.uint8)
    for part, lo, hi in zip(parts, edges, edges[1:]):
        if isinstance(part, bytes):
            block[:, lo:hi] = np.frombuffer(part, np.uint8)
    out = []
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        for part, lo, hi in zip(parts, edges, edges[1:]):
            if not isinstance(part, bytes):
                block[:stop - start, lo:hi] = part[start:stop]
        out.append(block[:stop - start].tobytes().translate(None, b"\0"))
    return b"".join(out)


def _digit_table(curves: list[Curve]) -> dict[int, np.ndarray]:
    """The digit rows of every sample array, by id of the array: one
    :func:`_digit_rows` call on all of them."""
    arrays = list({id(a): a for c in curves for a in (c.energies, c.values)}.values())
    rows = _digit_rows(np.concatenate(arrays)) if arrays else None
    table, start = {}, 0
    for array in arrays:
        table[id(array)] = rows[start:start + len(array)]
        start += len(array)
    return table


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _pieces(value, pad: str, out: list) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2,
    sort_keys=True)`` on a line that starts with ``pad`` (a newline and its
    indentation).  Dict keys are strings.  A sample array, a JSON array of
    its numbers, is appended as the pair ``(array, pad)`` for
    :func:`_write_report` to write."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, np.ndarray):
        out.append((value, pad) if len(value) else "[]")
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for key, item in sorted(value.items()):
            out += [sep, inner, encode_basestring_ascii(key), ": "]
            _pieces(item, inner, out)
            sep = ","
        out.append(pad + "}")
    else:
        inner, sep = pad + "  ", "["
        for item in value:
            out += [sep, inner]
            _pieces(item, inner, out)
            sep = ","
        out.append(pad + "]")


def _write_report(file, report: dict, table: dict) -> None:
    """Write to the binary ``file`` the text of ``json.dumps(report,
    indent=2, sort_keys=True)`` and a newline, where each sample array of
    the report is written from its digit rows in ``table`` (by id of the
    array) as it is reached.  Each pair of array and indentation is joined
    once, and the same bytes are written wherever the report reaches that
    pair again; the indentation is part of the key, since it sets the
    separators."""
    pieces = []
    _pieces(report, "\n", pieces)
    pieces.append("\n")
    start, joined = 0, {}
    for i in [i for i, piece in enumerate(pieces) if type(piece) is tuple]:
        array, pad = pieces[i]
        sep = ("," + pad + "  ").encode()
        key = id(array), pad
        if key not in joined:
            joined[key] = memoryview(_joined([table[id(array)], sep]))[:-len(sep)]
        file.write("".join([*pieces[start:i], "[", pad, "  "]).encode())
        file.write(joined[key])
        pieces[i], start = pad + "]", i
    file.write("".join(pieces[start:]).encode())


def _emit(report: dict, curves: list[tuple[str, Curve]], args) -> dict:
    """Write the curves and the report (of :func:`_base_report`, with no
    curve entries yet); returns the report, whose curve entries hold the
    curves' own sample arrays."""
    out = Path(os.environ.get(ENV_OUT, ".") if args.out is None else args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = _digit_table([curve for _, curve in curves])
    for stem, curve in curves:
        entry = {"label": curve.label, "energies": curve.energies, "values": curve.values}
        if args.format == "csv":
            entry["file"] = f"{stem}.csv"
            with open(out / entry["file"], "wb") as file:
                file.write(b"E,value\n")
                file.write(_joined([table[id(curve.energies)], b",",
                                    table[id(curve.values)], b"\n"]))
        report["curves"].append(entry)
    with open(out / f"{report['provenance']['subcommand']}_report.json", "wb") as file:
        _write_report(file, report, table)
    return report


def _base_report(args) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    provenance = {"subcommand": args.subcommand, "version": __version__,
                  "config": config}
    return {"provenance": provenance, "poles": [], "count": None,
            "reconstruction": None, "curves": []}


def _require(args, name: str, ok, what: str) -> None:
    """Reject the option ``name`` unless ``ok(value)``, naming the option,
    its value and ``what`` it must be."""
    value = getattr(args, name)
    if not ok(value):
        raise ValueError(f"--{name.replace('_', '-')} {value}: {what}")


@contextmanager
def _named(error: type, given: str):
    """An ``error`` raised in the block is raised again as ``error`` with
    the options ``given`` (for example ``--tol 1e-08``) before its text."""
    try:
        yield
    except error as exc:
        raise error(f"{given}: {exc}") from None


def _model(cls, args, *names: str):
    """``cls`` built from the options ``names``; a value that it rejects is
    reported with those options and their values."""
    values = {name: getattr(args, name) for name in names}
    with _named(ValueError, " ".join(f"--{k} {v}" for k, v in values.items())):
        return cls(**values)


def _require_finite(args, what: str, *names: str) -> None:
    """Reject a non-finite value of the options ``names`` that are set."""
    for name in names:
        _require(args, name, lambda v: v is None or math.isfinite(v),
                 f"{what} must be finite")


def _require_model_options(args, *bounds: str) -> None:
    """Reject an out-of-range energy range, pole-search bound (``bounds``)
    or Newton tolerance of a model pipeline."""
    _require_finite(args, "the energy range", "emin", "emax")
    _require(args, "emin", lambda v: v > 0, "the energy range must start above 0")
    _require(args, "emax", lambda v: v > args.emin,
             f"the energy range must end above --emin {args.emin}")
    # the curves start at the threshold guard E_MIN, where --emin is lower
    _require(args, "emax", lambda v: v > E_MIN,
             f"the energy range must end above the threshold guard {E_MIN:g}")
    _require_finite(args, "the pole search's bounds", *bounds)
    _require(args, "pole_gmax", lambda v: v > 0,
             "the pole search's largest width must be positive")
    _require(args, "tol", lambda v: 0 < v < math.inf,
             "the Newton tolerance must be positive and finite")


def _model_pipeline(args, model, region, *, min_cls_grid, stem, label,
                    max_resonances=None):
    """Delay curves, classified poles, n_R and the Lorentzian reconstruction
    of a scattering model: the report, its curves and the resonances used (at
    most ``max_resonances``)."""
    if args.grid < 3:
        raise ValueError(f"--grid {args.grid}: a curve needs at least 2 samples, "
                         "and the peak count at least 3")
    with _named(NoPoleFound, f"--tol {args.tol}"):
        found = find_poles(model, region, tol=args.tol)
    # one real-axis pass on the display grid, the classification grid (out
    # to the last pole of interest) and the count's start grid, whose points
    # at each pole found resolve its resonance in the unwrap
    lo = max(args.emin, E_MIN)
    grids = [_sample_grid(lo, args.emax, args.grid),
             _sample_grid(lo, region.re_range[1], max(args.grid, min_cls_grid)),
             _phase_start(args.emin, args.emax, found)]
    ends = list(accumulate(map(len, grids)))
    phi, delay = _phase_delay(model, np.concatenate(grids))
    display = Curve(grids[0], delay[:ends[0]], label=label)
    cls_curve = Curve(grids[1], delay[ends[0]:ends[1]], label="classification")
    poles = classify_poles(found, cls_curve)
    resonances = [p for p in poles if p.classification == RESONANCE][:max_resonances]

    report = _base_report(args)
    report["poles"] = [p.to_dict() for p in poles]
    report["count"] = _phase_count(model, grids[2], phi[ends[1]:],
                                   delay[ends[1]:]).to_dict()
    curves = [(stem, display)]
    if resonances:
        recon = Curve(display.energies, lorentzian_sum(resonances, display.energies),
                      label="lorentzian_sum")
        report["reconstruction"] = _reconstruction_errors(
            display, recon.values, len(resonances)).to_dict()
        curves.append((f"{stem}_lorentzian", recon))
    report["peak_count"] = sum(1 for p in find_extrema(display) if p.kind == "max")
    return report, curves, resonances


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_sqwell(args) -> dict:
    _require_model_options(args, "pole_emax", "pole_gmax")
    model = _model(SquareWell, args, "V0", "a", "l")
    region = SearchRegion((0.0, max(args.pole_emax, args.emax)),
                          (-args.pole_gmax / 2.0, 0.0), n_re=120, n_im=10)
    report, curves, resonances = _model_pipeline(
        args, model, region, min_cls_grid=900, stem=f"fig1a_l{model.l}",
        label=f"time_delay_l{model.l}", max_resonances=15)
    if resonances:
        # first peak separated out for clarity
        first = resonances[0]
        lo = max(args.emin, first.position - 3 * first.gamma)
        hi = min(args.emax, first.position + 3 * first.gamma)
        if hi > lo:
            peak = delay_curve(model, lo, hi, 200, label="first_peak")
            curves.append((f"fig1b_l{model.l}", peak))
    return _emit(report, curves, args)


def run_deltashell(args) -> dict:
    _require_model_options(args, "pole_gmax")
    model = _model(DeltaShell, args, "V0", "a")
    region = SearchRegion((0.0, args.emax), (-args.pole_gmax / 2.0, 0.0),
                          n_re=50, n_im=8)
    report, curves, _ = _model_pipeline(
        args, model, region, min_cls_grid=1200, stem="fig2", label="time_delay")
    return _emit(report, curves, args)


def run_step(args) -> dict:
    if args.grid < 2:
        raise ValueError(f"--grid {args.grid}: a curve needs at least 2 samples")
    _require_finite(args, "the energy range", "emin", "emax")
    step = _model(ExpStep, args, "V1", "V2", "a")
    # the matching's Bessel argument (reflect._matching), which the series
    # reaches up to a bound
    z = 2.0 * math.sqrt(step.V2) * step.a
    given = f"--a {args.a} --V2 {args.V2}"
    if z > _BESSEL_MAX_ABS_Z:
        raise ValueError(f"{given}: the Bessel argument 2a "
                         f"sqrt(V2) = {z:.3g} exceeds the series' {_BESSEL_MAX_ABS_Z:g}")
    lo = step.threshold + 2e-6  # the curves start just above the barrier top
    _require(args, "emax", lambda v: v > lo, "the energy range must end more than "
             f"2e-06 above the barrier top V1 + V2 = {step.threshold}")
    _require(args, "emax", lambda v: v > args.emin,
             f"the energy range must end above --emin {args.emin}")
    # a barrier top at or below 0 leaves --emin to start the range
    _require(args, "emin", lambda v: max(v, lo) > 0, "the energy range must start above 0")
    lo = max(args.emin, lo)
    # r and its delay on one grid shared by the reflectivity and delay curves
    grid = _sample_grid(lo, args.emax, max(args.grid, 2000))
    # a cancelled Bessel series is reported with the options that set z
    with _named(SeriesNonConvergence, given):
        r, delay = _reflection(step, grid)
        refl = Curve(grid, np.abs(r) ** 2, label="reflectivity")
        dly = Curve(grid, delay, label="reflection_time_delay")
        # n_R = (1/pi) * integral of d(theta)/dE, the phase change over pi
        theta = _theta(step, grid, r, delay)
    # dip in R(E): coarse minimum, then a fine parabolic pass on a window of
    # two coarse steps either side, for R and for the delay
    dips = [p for p in find_extrema(refl) if p.kind == "min"]
    report = _base_report(args)
    if dips:
        x0, dx = min(dips, key=lambda p: p.height).position, refl.grid_step
        window = np.linspace(max(x0 - 2 * dx, lo), min(x0 + 2 * dx, args.emax),
                             _REFINE_POINTS)
        with _named(SeriesNonConvergence, given):
            r, delay = _reflection(step, window)
        report["dip"] = {}
        for key, vals in (("E", np.abs(r) ** 2), ("delay_extremum_E", delay)):
            i = min(max(int(np.argmin(vals)), 1), _REFINE_POINTS - 2)
            x, _ = _parabolic_refine(*window[i - 1:i + 2], *vals[i - 1:i + 2])
            report["dip"][key] = float(x)
    report["count"] = CountReport.from_n_R(
        float(theta.values[-1] - theta.values[0]) / math.pi, (lo, args.emax),
        0.0, len(theta)).to_dict()
    return _emit(report, [("fig3_reflectivity", refl), ("fig3_theta", theta),
                          ("fig3_delay", dly)], args)


def run_data(args) -> dict:
    _require_finite(args, "the window bounds", "wlo", "whi")
    _require(args, "whi", lambda v: None in (v, args.wlo) or v > args.wlo,
             f"the window must end above --wlo {args.wlo}")
    _require(args, "smooth", lambda v: v >= 1 and v % 2 == 1,
             "the moving-average window must be an odd integer >= 1")
    if args.input is None:
        table = load_bundled_p33()
    else:
        # "utf-8-sig" drops the byte-order mark of a table saved as CSV UTF-8
        text = Path(args.input).read_text("utf-8-sig")
        table = parse_phase_table(text, source=str(args.input))
    _require(args, "smooth", lambda v: v <= len(table),
             f"the moving-average window must not exceed the table's {len(table)} rows")
    curve = delay_from_table(table, smooth_window=args.smooth)
    w_lo = args.wlo if args.wlo is not None else float(table.W[0])
    w_hi = args.whi if args.whi is not None else float(table.W[-1])
    rows = int(np.count_nonzero((table.W >= w_lo) & (table.W <= w_hi)))
    if rows < 3:
        raise ValueError(f"--wlo {w_lo} --whi {w_hi}: the window holds {rows} of the "
                         f"table's rows, whose W runs from {table.W[0]} to "
                         f"{table.W[-1]}; the peak search needs 3")
    # smoothing serves the peak only: n_R counts the table's own phases
    raw = curve if args.smooth == 1 else delay_from_table(table)
    res = extract_resonance(curve, w_lo, w_hi, count_curve=raw)
    report = _base_report(args)
    report["resonance"] = res.to_dict()
    report["count"] = CountReport.from_n_R(res.n_R, (w_lo, w_hi), 0.0,
                                           len(curve)).to_dict()
    return _emit(report, [("fig4", curve)], args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resdelay",
        description="Resonance counting from scattering time delay",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, grid=False, tol=False):
        p.add_argument("--out", default=None,
                       help="output directory (env RESDELAY_OUT)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if tol:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="Newton tolerance of the pole search")
        if grid:
            p.add_argument("--grid", type=int, default=600)

    p = sub.add_parser("sqwell", help="square-well time delay and poles")
    p.add_argument("--V0", type=float, default=5.0,
                   help="well depth (positive attractive)")
    p.add_argument("--a", type=float, default=10.0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--emin", type=float, default=1e-6)
    p.add_argument("--emax", type=float, default=10.0)
    p.add_argument("--pole-emax", type=float, default=50.0,
                   help="upper Re(E) bound of the pole search")
    p.add_argument("--pole-gmax", type=float, default=12.0,
                   help="largest width admitted in the pole search")
    common(p, grid=True, tol=True)
    p.set_defaults(func=run_sqwell)

    p = sub.add_parser("deltashell", help="delta-shell time delay and poles")
    p.add_argument("--V0", type=float, default=10.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--emin", type=float, default=1e-6)
    p.add_argument("--emax", type=float, default=170.0)
    p.add_argument("--pole-gmax", type=float, default=30.0)
    common(p, grid=True, tol=True)
    p.set_defaults(func=run_deltashell)

    p = sub.add_parser("step", help="exponential-step reflectometry")
    p.add_argument("--V1", type=float, default=1.0)
    p.add_argument("--V2", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.31)
    p.add_argument("--emin", type=float, default=2.0)
    p.add_argument("--emax", type=float, default=10.0)
    common(p, grid=True)
    p.set_defaults(func=run_step)

    p = sub.add_parser("data", help="phase-shift table analysis")
    p.add_argument("--input", default=None,
                   help="phase-shift CSV (default: bundled P33 table)")
    p.add_argument("--wlo", type=float, default=None)
    p.add_argument("--whi", type=float, default=None)
    p.add_argument("--smooth", type=int, default=1,
                   help="odd moving-average window (1 = no smoothing)")
    common(p)
    p.set_defaults(func=run_data)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ParseError, OSError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except ResdelayError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
