"""Command-line front-end.

Each subcommand runs one analysis pipeline end to end and emits
figure-ready CSV curves (``E,value``, LF endings) plus a machine-readable
JSON report that validates against ``report_schema.json``.  Each distinct
sample is formatted once, in the shortest digits that read back to the same
float (``float.__repr__``), and the CSV row and the report write the same
string; an energy array that repeats the first curve's grid takes the grid's
digits.  Every file is one ``"".join`` of pre-formatted pieces: a CSV file of
one interleaved list, the report of one recursive writer that lays it out as
``json.dumps(report, indent=2, sort_keys=True)`` does.

Exit codes: 0 success, 2 validation or file-system error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .counting import (
    CountReport,
    _reconstruction_errors,
    count_from_phase,
    lorentzian_sum,
)
from .errors import ParseError, ResdelayError
from .numerics import Curve, _parabolic_refine, _sample_grid, find_extrema
from .phasedata import (
    delay_from_table,
    extract_resonance,
    load_bundled_p33,
    parse_phase_table,
)
from .poles import RESONANCE, SearchRegion, classify_poles, find_poles
from .reflect import ExpStep, _reflection, _theta
from .scattering import DeltaShell, SquareWell, delay_curve

ENV_OUT = "RESDELAY_OUT"
_REFINE_POINTS = 64  # samples of the fine pass around the reflectivity dip


def _format(samples: list[float]) -> list[str]:
    """The digits of each sample: ``float.__repr__``, the JSON encoder's own
    format for a finite float.  Every sample a run writes is formatted here."""
    return list(map(float.__repr__, samples))


def _digit_table(curves: list[Curve]) -> dict[int, tuple[list[float], list[str]]]:
    """The samples (one ``tolist()``) and the digits of every sample array,
    by id of the array, each array formatted once.  An energy array takes the
    digits of the samples it shares with the first curve's energies (one
    ``np.searchsorted``: both are strictly increasing) and formats the rest,
    such as the bisection midpoints of θ's refined grid."""
    table, grid = {}, curves[0].energies if curves else None
    for curve in curves:
        for array in (curve.energies, curve.values):
            if id(array) in table:
                continue
            samples = array.tolist()
            if array is not curve.energies or array is grid or not len(grid):
                table[id(array)] = samples, _format(samples)
                continue
            i = np.minimum(np.searchsorted(grid, array), len(grid) - 1)
            # equal bits, not equal values: -0.0 == 0.0 has other digits
            new = grid.view(np.int64)[i] != array.view(np.int64)
            digits = np.array(table[id(grid)][1], dtype=object)[i]
            digits[new] = _format(array[new].tolist())
            table[id(array)] = samples, digits.tolist()
    return table


class _Digits(list):
    """A JSON array of numbers that are already written out as text."""


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _pieces(value, pad: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2,
    sort_keys=True)`` on a line that starts with ``pad`` (a newline and its
    indentation).  Dict keys are strings; a :class:`_Digits` is copied."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, _Digits):
        out += ["[", pad + "  ", ("," + pad + "  ").join(value), pad + "]"]
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


def _report_json(report: dict, curves: list[Curve], table: dict) -> str:
    """The report file: ``json.dumps(report, indent=2, sort_keys=True)`` and
    a newline, where ``report["curves"]`` holds the entries of ``curves``, in
    order, their samples written as the digits of ``table``."""
    entries = [{**entry, "energies": _Digits(table[id(c.energies)][1]),
                "values": _Digits(table[id(c.values)][1])}
               for c, entry in zip(curves, report["curves"], strict=True)]
    out = []
    _pieces({**report, "curves": entries}, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(report: dict, curves: list[tuple[str, Curve]], args) -> dict:
    """Write the curves and the report; returns the report."""
    out = Path(os.environ.get(ENV_OUT, ".") if args.out is None else args.out)
    out.mkdir(parents=True, exist_ok=True)
    plain = [curve for _, curve in curves]
    table = _digit_table(plain)
    report["curves"] = []
    for stem, curve in curves:
        energies, values = table[id(curve.energies)], table[id(curve.values)]
        entry = {"label": curve.label, "energies": energies[0], "values": values[0]}
        if args.format == "csv":
            # one interleaved list of pieces: E_i, ",", V_i, "\n", ...
            rows = ["E,value\n"] + ["", ",", "", "\n"] * len(curve)
            rows[1::4], rows[3::4] = energies[1], values[1]
            entry["file"] = f"{stem}.csv"
            (out / entry["file"]).write_bytes("".join(rows).encode())
        report["curves"].append(entry)
    (out / f"{report['provenance']['subcommand']}_report.json").write_bytes(
        _report_json(report, plain, table).encode())
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
    display = delay_curve(model, args.emin, args.emax, args.grid, label=label)
    # classification needs coverage out to the last pole of interest
    cls_curve = delay_curve(model, args.emin, region.re_range[1],
                            max(args.grid, min_cls_grid), label="classification")
    poles = classify_poles(find_poles(model, region, tol=args.tol), cls_curve)
    resonances = [p for p in poles if p.classification == RESONANCE][:max_resonances]

    report = _base_report(args)
    report["poles"] = [p.to_dict() for p in poles]
    # the points at each pole found resolve its resonance in the unwrap
    report["count"] = count_from_phase(model, args.emin, args.emax, poles).to_dict()
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
    model = SquareWell(V0=args.V0, a=args.a, l=args.l)
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
    model = DeltaShell(V0=args.V0, a=args.a)
    region = SearchRegion((0.0, args.emax), (-args.pole_gmax / 2.0, 0.0),
                          n_re=50, n_im=8)
    report, curves, _ = _model_pipeline(
        args, model, region, min_cls_grid=1200, stem="fig2", label="time_delay")
    return _emit(report, curves, args)


def run_step(args) -> dict:
    if args.grid < 2:
        raise ValueError(f"--grid {args.grid}: a curve needs at least 2 samples")
    _require_finite(args, "the energy range", "emin", "emax")
    step = ExpStep(V1=args.V1, V2=args.V2, a=args.a)
    lo = max(args.emin, step.threshold + 2e-6)
    if not args.emax > lo:
        raise ValueError("emax must exceed the barrier top")
    # r and its delay on one grid shared by the reflectivity and delay curves
    grid = _sample_grid(lo, args.emax, max(args.grid, 2000))
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
    _require(args, "smooth", lambda v: v >= 1 and v % 2 == 1,
             "the moving-average window must be an odd integer >= 1")
    if args.input is None:
        table = load_bundled_p33()
    else:
        text = Path(args.input).read_text("utf-8")
        table = parse_phase_table(text, source=str(args.input))
    curve = delay_from_table(table, smooth_window=args.smooth)
    w_lo = args.wlo if args.wlo is not None else float(table.W[0])
    w_hi = args.whi if args.whi is not None else float(table.W[-1])
    res = extract_resonance(curve, w_lo, w_hi)
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
