"""Scalar reference implementations for the array code of ``resdelay``.

One complex number at a time in ``cmath`` arithmetic: the Lanczos gamma
function, the ascending series of J_nu(z), the spherical Bessel
recurrences, and the exponential step's reflection amplitude.  The
package evaluates the same formulas on numpy arrays; these loops are what
the array tests compare against where mpmath would be too slow for
hundreds of energies.
The sample-by-sample extremum scan is the reference for the package's
array one, and the row-by-row CSV writer and the plain ``json.dumps`` report
are the references for the CLI's writers.  The phase-table parser that
splits each numbered line on its own is the reference for the bulk one.
"""
import cmath
import itertools
import json
import math

import numpy as np

from resdelay.errors import MonotonicityError, ParseError, TooFewRows
from resdelay.numerics import Peak, _parabolic_refine
from resdelay.phasedata import _MIN_ROWS, PhaseTable

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


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for z off the poles: reflection for Re(z) < 0.5, Lanczos
    otherwise."""
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    w = z - 1.0
    s = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        s += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * s


def bessel_j(nu: complex, z: complex) -> tuple[complex, complex]:
    """(J_nu(z), dJ/dz) by the ascending series, for z != 0 and nu + 1 off
    the poles of Gamma; stops once a term falls below 1e-16 of the summed
    magnitudes."""
    half = z / 2.0
    term = cmath.exp(nu * cmath.log(half)) / complex_gamma(nu + 1.0)
    total, dtotal, acc = term, (nu / z) * term, abs(term)
    for k in range(1, 201):
        term = term * (-half * half) / (k * (nu + k))
        total += term
        dtotal += ((nu + 2 * k) / z) * term
        acc += abs(term)
        if abs(term) < 1e-16 * acc:
            return total, dtotal
    raise AssertionError(f"series did not converge at nu={nu}, z={z}")


def _upward(l: int, z: complex, f0: complex, f1: complex):
    """(f_l, f_l') from f_0, f_1 by f_{k+1} = (2k+1)/z f_k - f_{k-1}."""
    if l == 0:
        return f0, -f1
    for k in range(1, l):
        f0, f1 = f1, (2 * k + 1) / z * f1 - f0
    return f1, f0 - (l + 1) / z * f1


def sph_bessel(l: int, z: complex):
    """(j, jp, n, np_, h1, h1p) at z != 0: n_l upward; j_l upward where
    |z| >= l, else downward Miller recurrence from l + 20 + int(|z|),
    rescaled above 1e250 and normalized to j_0 = sin z / z."""
    sin_z, cos_z = cmath.sin(z), cmath.cos(z)
    j0 = sin_z / z
    n, npr = _upward(l, z, -cos_z / z, -cos_z / (z * z) - sin_z / z)
    if abs(z) >= l or l == 0:
        j, jp = _upward(l, z, j0, sin_z / (z * z) - cos_z / z)
    else:
        fk1, fk = 0.0j, 1e-30 + 0.0j
        f_l = f_lm1 = 0.0j
        for k in range(l + 20 + int(abs(z)), -1, -1):
            fk1, fk = fk, (2 * k + 3) / z * fk - fk1
            if abs(fk) > 1e250:
                fk1, fk = fk1 * 1e-250, fk * 1e-250
                f_l, f_lm1 = f_l * 1e-250, f_lm1 * 1e-250
            if k == l:
                f_l = fk
            elif k == l - 1:
                f_lm1 = fk
        scale = j0 / fk
        j = f_l * scale
        jp = f_lm1 * scale - (l + 1) / z * j
    return j, jp, n, npr, j + 1j * n, jp + 1j * npr


def reflection_amplitude(step, E: float) -> complex:
    """r(E) of the exponential step from the plane-wave / Bessel matching."""
    k, p = math.sqrt(E), cmath.sqrt(complex(E - step.threshold))
    q = math.sqrt(step.V2)
    J, Jp = bessel_j(-2j * p * step.a, complex(2.0 * q * step.a))
    return (1j * k * J + q * Jp) / (1j * k * J - q * Jp)


def find_extrema(curve) -> list:
    """Interior extrema by three-point comparison, one sample at a time; a
    plateau counts once, at its left edge, when the step that ends it goes
    the other way than the step into it."""
    e, v = curve.energies, curve.values
    peaks = []
    for i in range(1, len(e) - 1):
        if v[i] > v[i - 1] and v[i] >= v[i + 1]:
            kind, exit_step = "max", -1
        elif v[i] < v[i - 1] and v[i] <= v[i + 1]:
            kind, exit_step = "min", 1
        else:
            continue
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


def curve_csv(curve) -> str:
    """The text of a curve's CSV file, one f-string per row, in the digits
    the encoder gives each sample in the report."""
    lines = ["E,value"]
    for e, v in zip(curve.energies, curve.values):
        lines.append(f"{float(e)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def report_json(report: dict) -> str:
    """The text of a report file: the encoder over every curve sample."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def parse_phase_table(text: str, source: str = "") -> PhaseTable:
    """The phase table of a CSV text, each data line kept with its number
    and split on its own, every field through one ``float`` pass."""
    lines = [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and line[0] != "#"
    ]
    if not lines:
        raise ParseError("missing header line")
    lineno, line = lines[0]
    header = [c.strip() for c in line.split(",")]
    if header[:2] != ["W_MeV", "delta_deg"] or (
        len(header) == 3 and header[2] != "err_deg"
    ) or len(header) > 3:
        raise ParseError(f"bad header {line!r}", lineno)
    ncol, rows = len(header), lines[1:]
    fields = [line.split(",") for _, line in rows]
    try:
        if set(map(len, fields)) - {ncol}:
            raise ValueError("a row has the wrong field count")
        values = np.fromiter(
            map(float, itertools.chain.from_iterable(fields)), float, ncol * len(rows)
        )
    except ValueError:
        raise _first_bad_row(rows, fields, ncol) from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        lineno, line = rows[bad[0] // ncol]
        raise ParseError(f"non-finite field in {line!r}", lineno)
    bad = np.flatnonzero(np.abs(values[1::ncol]) > 360)
    if bad.size:
        lineno, line = rows[bad[0]]
        raise ParseError(f"|delta| exceeds 360 degrees in {line!r}", lineno)
    if len(rows) < _MIN_ROWS:
        raise TooFewRows(f"need at least {_MIN_ROWS} rows, got {len(rows)}")
    w, delta, *err = values.reshape(-1, ncol).T.copy()
    bad = np.flatnonzero(w[1:] <= w[:-1])
    if bad.size:
        i = bad[0] + 1
        raise MonotonicityError(
            f"W = {w[i]} does not increase past {w[i - 1]}", rows[i][0]
        )
    return PhaseTable(
        W=w, delta_deg=delta, err_deg=err[0] if err else None, source=source
    )


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
