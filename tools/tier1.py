"""Run the tier-1 suite and gate it on its known failures.

Runs the tier-1 command of ``ROADMAP.md`` from the checkout that holds
this script::

    python tools/tier1.py [extra pytest arguments]

and exits 1 unless every failure is one of the acceptance criteria 3-6,
every expected failure (xfail) one of the known strict xfails below, and
no test fails otherwise, errors or passes unexpectedly (XPASS).  It prints
the pass count, and each test that breaks the gate.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the criteria whose reference values the program does not reach
# (README, Tests)
KNOWN_FAILURES = {
    "tests/test_acceptance.py::test_criterion_3_lorentzian_reconstruction",
    "tests/test_acceptance.py::test_criterion_4_delta_shell_counting",
    "tests/test_acceptance.py::test_criterion_5_peak_count_theorem",
    "tests/test_acceptance.py::test_criterion_6_reflectometry",
}
KNOWN_XFAILS = {
    "tests/test_poles.py::TestFindPoles::test_narrow_l5_pole_is_found",
    "tests/test_poles.py::TestWindingNumber::test_barrier_l8_reports_its_counted_poles",
    "tests/test_counting.py::TestCountFromPhase::test_narrow_l10_resonance_is_counted",
    "tests/test_scattering.py::TestSMatrix::test_negative_energy_against_mpmath[10--6.0]",
    "tests/test_scattering.py::TestTimeDelay::test_l30_under_a_barrier_against_mpmath",
    "tests/test_numerics.py::TestSphBessel::test_large_order_off_the_axis_against_mpmath[30-30j-j]",
    "tests/test_numerics.py::TestSphBessel::test_large_order_off_the_axis_against_mpmath[20-20j-j]",
    "tests/test_numerics.py::TestSphBessel::test_large_order_off_the_axis_against_mpmath[30-(-0-20j)-h1]",
    "tests/test_numerics.py::TestSphBessel::test_large_order_off_the_axis_against_mpmath[20-(-0-15j)-h1]",
}
# a line of pytest's short summary (-rfExX): the outcome and the test id
SUMMARY = re.compile(r"^(FAILED|ERROR|XFAIL|XPASS) (.+?)(?: - .*)?$")


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-rfExX", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    found: dict[str, set[str]] = {"FAILED": set(), "ERROR": set(), "XFAIL": set(),
                                  "XPASS": set()}
    for line in proc.stdout.splitlines():
        if m := SUMMARY.match(line):
            found[m[1]].add(m[2])
    passed = re.findall(r"(\d+) passed", proc.stdout)
    broken = sorted((found["FAILED"] - KNOWN_FAILURES) | found["ERROR"]
                    | (found["XFAIL"] - KNOWN_XFAILS) | found["XPASS"])
    for test in broken:
        print(f"not allowed: {test}")
    if proc.returncode not in (0, 1) or not passed:
        # interrupted, an internal error, or no test run: no summary to judge
        print(proc.stdout[-2000:] + proc.stderr[-2000:])
        return 1
    print(f"{passed[-1]} passed, {len(found['FAILED'] & KNOWN_FAILURES)} known "
          f"failures, {len(found['XFAIL'] & KNOWN_XFAILS)} known xfails")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
