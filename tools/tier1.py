"""Run the tier-1 suite and gate it on its known failures.

Runs the tier-1 command of ``ROADMAP.md`` from the checkout that holds
this script::

    python tools/tier1.py [extra pytest arguments]

and exits 1 unless every failure is one of the acceptance criteria 3-6,
every expected failure (xfail) one of the known strict xfails below, no
test fails otherwise, errors or passes unexpectedly (XPASS), and every
``ACCEPTANCE`` line the acceptance suite prints is the one kept for its
criterion in ``tools/acceptance.txt``.  It prints the pass count, each test
that breaks the gate, and each acceptance line that changed beside the kept
one.  With extra pytest arguments only the acceptance lines printed are
compared; without them all eight must be printed.
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
    "tests/test_poles.py::TestFindPoles::test_stall_end_finds_the_full_runs_pole",
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
# the line each acceptance criterion prints (captured output, shown by -rP
# for a passing test and in the failure report of a failing one)
ACCEPTANCE = re.compile(r"^ACCEPTANCE (\d+) ")
ACCEPTANCE_FILE = ROOT / "tools" / "acceptance.txt"


def acceptance_changes(stdout: str, complete: bool) -> list[str]:
    """The acceptance lines in ``stdout`` that differ from the kept ones, as
    pairs of lines ``was:``/``now:`` by criterion; with ``complete`` a kept
    criterion that printed nothing differs too."""
    def by_criterion(lines):
        return {m[1]: line for line in lines if (m := ACCEPTANCE.match(line))}

    kept = by_criterion(ACCEPTANCE_FILE.read_text("utf-8").splitlines())
    now = by_criterion(stdout.splitlines())
    changes = []
    for n in sorted(set(now) | (set(kept) if complete else set()), key=int):
        if now.get(n) != kept.get(n):
            changes += [f"acceptance {n} was: {kept.get(n, '(none kept)')}",
                        f"acceptance {n} now: {now.get(n, '(not printed)')}"]
    return changes


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-rfExXP", *argv],
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
    changed = acceptance_changes(proc.stdout, complete=not argv)
    for line in changed:
        print(line)
    print(f"{passed[-1]} passed, {len(found['FAILED'] & KNOWN_FAILURES)} known "
          f"failures, {len(found['XFAIL'] & KNOWN_XFAILS)} known xfails, "
          f"{len(changed) // 2} changed acceptance lines")
    return 1 if broken or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
