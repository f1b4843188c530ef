"""Output check of one pipeline instance.

Three parts, each named in the failure breakdown when it fails:

- ``schema``: the report validates against the program's
  ``report_schema.json``;
- ``residual``: every reported pole re-evaluates to
  ``|outgoing_condition(E_j)| <= POLE_TOL``;
- ``reference``: ``n_R``, the pole positions and the ``step`` dip energy
  agree with the values recorded at the reference commit
  (``reference.json``) within ``REL_TOL``/``ABS_TOL``.  Every recorded pole
  must be reported again; extra poles are allowed and are checked by the
  residual part.  An instance that failed when the reference was recorded
  and succeeds now gets only the schema and residual parts.
"""
from __future__ import annotations

# the CLI's default --tol, which every benchmark instance keeps
POLE_TOL = 1e-8
# agreement with the reference values: |x - ref| <= ABS_TOL + REL_TOL*|ref|
REL_TOL = 1e-6
ABS_TOL = 1e-6


def summarize(report: dict) -> dict:
    """The reference-checked values of one report."""
    out = {"poles": [[p["re"], p["im"]] for p in report["poles"]]}
    if report.get("count") is not None:
        out["n_R"] = report["count"]["n_R"]
    if "dip" in report:
        out["dip_E"] = report["dip"]["E"]
    return out


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= ABS_TOL + REL_TOL * abs(ref)


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _model(argv: list[str]):
    from resdelay.scattering import DeltaShell, SquareWell

    flags = _flags(argv)
    if argv[0] == "sqwell":
        return SquareWell(V0=float(flags["V0"]), a=float(flags["a"]), l=int(flags["l"]))
    if argv[0] == "deltashell":
        return DeltaShell(V0=float(flags["V0"]), a=float(flags["a"]))
    return None


def check_report(report: dict, argv: list[str], expect: dict, validator) -> list[str]:
    """Names of the check parts that fail for a successful instance."""
    from resdelay.poles import outgoing_condition

    problems = []
    if next(iter(validator.iter_errors(report)), None) is not None:
        problems.append("schema")
        return problems

    model = _model(argv)
    if model is not None:
        for p in report["poles"]:
            if not abs(outgoing_condition(model, complex(p["re"], p["im"]))) <= POLE_TOL:
                problems.append("residual")
                break

    if expect["exit"] == 0:
        got = summarize(report)
        ok = all(
            k in got and _close(got[k], expect[k]) for k in ("n_R", "dip_E") if k in expect
        )
        for re_ref, im_ref in expect["poles"]:
            ref = complex(re_ref, im_ref)
            scale = ABS_TOL + REL_TOL * abs(ref)
            if not any(abs(complex(re, im) - ref) <= scale for re, im in got["poles"]):
                ok = False
                break
        if not ok:
            problems.append("reference")
    return problems
