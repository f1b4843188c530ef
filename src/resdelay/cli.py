"""Command-line front-end.

Each subcommand runs one analysis pipeline end to end and emits
figure-ready CSV curves (``E,value``, LF endings) plus a machine-readable
JSON report that validates against ``report_schema.json``.  Every sample is
written in the shortest digits that read back to the same float
(``float.__repr__``), the same string in the CSV row as in the report.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .counting import (
    CountReport,
    _reconstruction_errors,
    count_resonances,
    lorentzian_sum,
)
from .errors import ParseError, ResdelayError
from .numerics import Curve, _parabolic_refine, find_extrema
from .phasedata import (
    delay_from_table,
    extract_resonance,
    load_bundled_p33,
    parse_phase_table,
)
from .poles import RESONANCE, SearchRegion, classify_pole, find_poles
from .reflect import (
    ExpStep,
    reflection_amplitude,
    reflection_time_delay,
    reflectivity_curve,
    theta_curve,
)
from .scattering import DeltaShell, SquareWell, delay_curve, time_delay

ENV_OUT = "RESDELAY_OUT"
_REFINE_POINTS = 64  # samples of the fine pass around the reflectivity dip


def _digit_table(curves: list[Curve]) -> dict[int, list[str]]:
    """The digits of every sample, by id of its array: ``float.__repr__``,
    the JSON encoder's own format for the finite floats a :class:`Curve`
    holds.  An array shared by two curves is formatted once."""
    arrays = {id(a): a for curve in curves for a in (curve.energies, curve.values)}
    return {k: list(map(float.__repr__, a.tolist())) for k, a in arrays.items()}


def _json_block(open_: str, close: str, items: list[list[str]], pad: str) -> list[str]:
    """The pieces of a JSON array or object laid out as ``json.dumps(indent=2)``
    lays it out on a line that starts with ``pad`` (a newline and its
    indentation), from the pieces of its items."""
    if not items:
        return [open_ + close]
    inner = pad + "  "
    pieces = [open_, inner, *items[0]]
    for item in items[1:]:
        pieces += ["," + inner, *item]
    pieces.append(pad + close)
    return pieces


def _json_object(members: dict[str, list[str]], pad: str) -> list[str]:
    items = [[json.dumps(k), ": ", *members[k]] for k in sorted(members)]
    return _json_block("{", "}", items, pad)


def _json_value(value, pad: str) -> list[str]:
    # json.dumps escapes a newline inside a string, so each newline is layout
    return [json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)]


def _report_json(report: dict, curves: list[Curve],
                 digits: dict[int, list[str]]) -> str:
    """The report file: ``json.dumps(report, indent=2, sort_keys=True)`` and
    a newline, where ``report["curves"]`` holds the entries of ``curves``, in
    order.

    Each curve's samples are the strings of ``digits``
    (:func:`_digit_table`), the encoder's own text for them.  Everything
    else goes through ``json.dumps``.  The text is one join of its pieces:
    the curve text is placed by structure, not by search, and copied once.
    """
    pad_entry, pad_field = "\n    ", "\n      "

    def floats(array: np.ndarray) -> list[str]:
        text = ("," + pad_field + "  ").join(digits[id(array)])
        return _json_block("[", "]", [[text]] if text else [], pad_field)

    entries = []
    for curve, entry in zip(curves, report["curves"], strict=True):
        members = {
            k: _json_value(v, pad_field)
            for k, v in entry.items() if k not in ("energies", "values")
        }
        members["energies"] = floats(curve.energies)
        members["values"] = floats(curve.values)
        entries.append(_json_object(members, pad_entry))
    members = {k: _json_value(v, "\n  ") for k, v in report.items() if k != "curves"}
    members["curves"] = _json_block("[", "]", entries, "\n  ")
    return "".join(_json_object(members, "\n") + ["\n"])


def _emit(report: dict, curves: list[tuple[str, Curve]], args) -> None:
    out = Path(os.environ.get(ENV_OUT, ".") if args.out is None else args.out)
    out.mkdir(parents=True, exist_ok=True)
    plain = [curve for _, curve in curves]
    digits = _digit_table(plain)
    curve_entries = []
    for stem, curve in curves:
        entry = curve.to_dict()
        if args.format == "csv":
            path = out / f"{stem}.csv"
            rows = map("{},{}\n".format, digits[id(curve.energies)],
                       digits[id(curve.values)])
            path.write_text("E,value\n" + "".join(rows), encoding="utf-8",
                            newline="\n")
            entry["file"] = path.name
        curve_entries.append(entry)
    report["curves"] = curve_entries
    (out / f"{report['provenance']['subcommand']}_report.json").write_text(
        _report_json(report, plain, digits),
        encoding="utf-8",
        newline="\n",
    )


def _base_report(args, subcommand: str) -> dict:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")
    }
    return {
        "provenance": {
            "subcommand": subcommand,
            "version": __version__,
            "config": config,
        },
        "poles": [],
        "count": None,
        "reconstruction": None,
        "curves": [],
    }


def _refine_minimum(fn, x0, step, lo, hi):
    """Fine parabolic pass around a coarse minimum: ``fn`` maps an array of
    energies to an array of values on the window [x0 - 2*step, x0 + 2*step],
    clipped to the curve's range [lo, hi]."""
    grid = np.linspace(max(x0 - 2 * step, lo), min(x0 + 2 * step, hi),
                       _REFINE_POINTS)
    vals = fn(grid)
    i = min(max(int(np.argmin(vals)), 1), _REFINE_POINTS - 2)
    x, _ = _parabolic_refine(*grid[i - 1:i + 2], *vals[i - 1:i + 2])
    return float(x)


def _model_pipeline(args, model, region, *, min_cls_grid, stem, label,
                    max_resonances=None):
    """Delay curves, classified poles, n_R and the Lorentzian reconstruction
    of a scattering model.

    Returns the report, its curves and the resonances used (at most
    ``max_resonances``).
    """
    display = delay_curve(model, args.emin, args.emax, args.grid, label=label)
    # classification needs coverage out to the last pole of interest
    cls_curve = delay_curve(
        model, args.emin, region.re_range[1], max(args.grid, min_cls_grid),
        label="classification",
    )
    poles = [
        classify_pole(p, cls_curve) for p in find_poles(model, region, tol=args.tol)
    ]
    resonances = [p for p in poles if p.classification == RESONANCE][:max_resonances]

    report = _base_report(args, args.subcommand)
    report["poles"] = [p.to_dict() for p in poles]
    count = count_resonances(
        functools.partial(time_delay, model), args.emin, args.emax, tol=args.tol
    )
    report["count"] = count.to_dict()
    curves = [(stem, display)]
    if resonances:
        recon = Curve(
            display.energies, lorentzian_sum(resonances, display.energies),
            label="lorentzian_sum",
        )
        report["reconstruction"] = _reconstruction_errors(
            display, recon.values, len(resonances)
        ).to_dict()
        curves.append((f"{stem}_lorentzian", recon))
    report["peak_count"] = sum(1 for p in find_extrema(display) if p.kind == "max")
    return report, curves, resonances


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_sqwell(args) -> dict:
    model = SquareWell(V0=args.V0, a=args.a, l=args.l)
    region = SearchRegion(
        (0.0, max(args.pole_emax, args.emax)), (-args.pole_gmax / 2.0, 0.0),
        n_re=120, n_im=10,
    )
    report, curves, resonances = _model_pipeline(
        args, model, region, min_cls_grid=900, stem=f"fig1a_l{model.l}",
        label=f"time_delay_l{model.l}", max_resonances=15,
    )
    if resonances:
        # first peak separated out for clarity
        first = resonances[0]
        lo = max(args.emin, first.position - 3 * first.gamma)
        hi = min(args.emax, first.position + 3 * first.gamma)
        if hi > lo:
            curves.append(
                (f"fig1b_l{model.l}", delay_curve(model, lo, hi, 200,
                                                  label="first_peak"))
            )
    _emit(report, curves, args)
    return report


def run_deltashell(args) -> dict:
    model = DeltaShell(V0=args.V0, a=args.a)
    region = SearchRegion(
        (0.0, args.emax), (-args.pole_gmax / 2.0, 0.0), n_re=50, n_im=8
    )
    report, curves, _ = _model_pipeline(
        args, model, region, min_cls_grid=1200, stem="fig2", label="time_delay"
    )
    _emit(report, curves, args)
    return report


def run_step(args) -> dict:
    step = ExpStep(V1=args.V1, V2=args.V2, a=args.a)
    thr = step.threshold
    lo = max(args.emin, thr + 2e-6)
    if not args.emax > lo:
        raise ValueError("emax must exceed the barrier top")
    refl = reflectivity_curve(step, lo, args.emax, max(args.grid, 2000))
    theta = theta_curve(step, lo, args.emax, args.grid)
    delay = functools.partial(reflection_time_delay, step)
    dly = Curve(refl.energies, delay(refl.energies), label="reflection_time_delay")
    # dip in R(E): coarse minimum, then a fine parabolic pass
    dips = [p for p in find_extrema(refl) if p.kind == "min"]
    report = _base_report(args, "step")
    if dips:
        coarse = min(dips, key=lambda p: p.height)
        window = (coarse.position, refl.grid_step, lo, args.emax)
        dip_e = _refine_minimum(
            lambda E: np.abs(reflection_amplitude(step, E)) ** 2, *window
        )
        delay_ext = _refine_minimum(delay, *window)
        report["dip"] = {"E": dip_e, "delay_extremum_E": delay_ext}
    # n_R = (1/pi) * integral of d(theta)/dE, the phase change over pi
    report["count"] = CountReport.from_n_R(
        float(theta.values[-1] - theta.values[0]) / math.pi, (lo, args.emax),
        0.0, len(theta),
    ).to_dict()
    _emit(report, [("fig3_reflectivity", refl), ("fig3_theta", theta),
                   ("fig3_delay", dly)], args)
    return report


def run_data(args) -> dict:
    if args.input is None:
        table = load_bundled_p33()
    else:
        table = parse_phase_table(
            Path(args.input).read_text("utf-8"), source=str(args.input)
        )
    curve = delay_from_table(table, smooth_window=args.smooth)
    w_lo = args.wlo if args.wlo is not None else float(table.W[0])
    w_hi = args.whi if args.whi is not None else float(table.W[-1])
    res = extract_resonance(curve, w_lo, w_hi)
    report = _base_report(args, "data")
    report["resonance"] = res.to_dict()
    report["count"] = CountReport.from_n_R(
        res.n_R, (w_lo, w_hi), 0.0, len(curve)
    ).to_dict()
    _emit(report, [("fig4", curve)], args)
    return report


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
            p.add_argument("--tol", type=float, default=1e-8)
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
    except (ValueError, ParseError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except ResdelayError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
