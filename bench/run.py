#!/usr/bin/env python3
"""Layered benchmark of the ``resdelay`` CLI pipelines.

    python3 bench/run.py --workload sqwell_highl --seed 1 --seconds 25 --trace 0

Each workload drives the real pipelines in-process through
``resdelay.cli.main`` as a closed loop with one caller: an instance starts
only after the previous one has returned and been checked, and no thread or
process is started besides the set-up probes.  Inputs come from the
workload pool in ``reference.json``, visited in an order fixed by
``--seed``; the program sees only the argv and the phase tables.

``--trace 0`` runs whole passes over the workload's pool for about
``--seconds`` seconds (at least one pass) and reports the end-to-end
metrics; the bounded time metrics (``norm.*``) are wall times scaled to a
reference host speed measured by ``speed_kernel`` between instances, and
the plain wall times are printed beside them.  ``--trace 1`` repeats the seed's first round of instances, each
once untraced and once traced, in the same way, and reports the per-layer
metrics (per traced instance) and the tracing overhead.  The last
line of standard output is the JSON result; ``.bench_work/`` receives the
pipeline outputs, the result with its provenance and the trace.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import gc
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from checks import check_report
from pool import WORKLOADS, materialize, seeded_rounds
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_FIRST = 3  # probes before the first instance
SETUP_EVERY_S = 3.0
REF_KERNEL_S = 0.008  # speed_kernel() on the reference host when uncontended
TAIL_BEYOND = 10  # the tail percentile has at least this many samples above it
EXIT_LINE = re.compile(r"\((\w+)\)")

# a workload must not reach these layers (checked in the traced run)
MUST_NOT_CALL = {
    "sqwell_highl": ("numerics.bessel_j",),
    "expstep": ("numerics.sph_bessel",),
    "closed_form": ("numerics.sph_bessel", "numerics.bessel_j"),
}


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def program_available() -> bool:
    return (ROOT / "src" / "resdelay" / "cli.py").is_file()


# ---------------------------------------------------------------------------
# one instance
# ---------------------------------------------------------------------------

def run_instance(main, argv: list[str], out: Path) -> dict:
    """Run ``main(argv)`` once into an empty ``out``; time only the call."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    err = io.StringIO()
    error, tb = None, None
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a result of the run, not of the benchmark
            rc, error, tb = None, type(exc).__name__, traceback.format_exc()
        dt = time.perf_counter() - t0
    if error is None and rc:
        m = EXIT_LINE.search(err.getvalue())
        error = m.group(1) if m else "unknown"
    return {"dt": dt, "rc": rc, "error": error, "traceback": tb}


def read_report(argv: list[str], out: Path):
    path = out / f"{argv[0]}_report.json"
    return json.loads(path.read_text("utf-8")) if path.exists() else None


def check_instance(inst: dict, argv: list[str], res: dict, out: Path, validator) -> list[str]:
    """Output-check problems of a finished instance (empty when it is good or
    when it failed as it did at the reference commit)."""
    expect = inst["expect"]
    if res["rc"] == 0:
        report = read_report(argv, out)
        if report is None:
            return ["no_report"]
        return check_report(report, argv, expect, validator)
    problems = []
    if res["rc"] != 3:
        problems.append("unexpected_exit")
    if expect["exit"] == 0:
        problems.append("regressed")
    return problems


def output_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def speed_kernel() -> float:
    """Wall time of a fixed pure-Python computation (complex recurrences, as
    in the program's special functions): the host's momentary speed."""
    t0 = time.perf_counter()
    acc = 0j
    for i in range(3000):
        z = complex(1.0 + (i % 17) * 0.1, -0.3)
        s, c = cmath.sin(z), cmath.cos(z)
        vals = [s / z, s / (z * z) - c / z]
        for k in range(1, 12):
            vals.append((2 * k + 1) / z * vals[k] - vals[k - 1])
        acc += vals[-1]
    return time.perf_counter() - t0


class SetupProbe:
    """Cold ``python -m resdelay.cli --version`` subprocesses: interpreter
    start, ``numpy`` and ``resdelay`` imports and parser construction.

    Probes run between pipeline instances, one whenever ``SETUP_EVERY_S``
    have passed since the last, so that their median sees the machine over
    the whole run and not over one short window.
    """

    def __init__(self, version: str):
        self.version = version
        self.env = dict(os.environ)
        pin_threads(self.env)
        self.env["PYTHONPATH"] = "src"
        self.times: list[float] = []
        self.last = -math.inf

    def run(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "resdelay.cli", "--version"],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60,
        )
        self.last = time.perf_counter()
        self.times.append(self.last - t0)
        if proc.returncode != 0 or proc.stdout.strip() != self.version:
            raise RuntimeError(f"--version probe failed: {proc.stderr.strip()}")

    def run_if_due(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.run()


def provenance(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile)."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND  # 1-based rank of the tail sample
    if k < 1:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(s)}")
    return s[k - 1], 100.0 * k / len(s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

class Loop:
    """Closed loop over workload instances, with the output check after each."""

    def __init__(self, cli, validator, tables: Path, out: Path):
        self.cli, self.validator = cli, validator
        self.tables, self.out = tables, out
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.causes = Counter()
        self.tracebacks: list[str] = []

    def run(self, inst: dict) -> dict:
        argv = materialize(inst, self.tables)
        res = self.run_argv(argv)
        res["problems"] = check_instance(inst, argv, res, self.out, self.validator)
        self.account(res)
        return res

    def run_argv(self, argv: list[str]) -> dict:
        # looked up per call, so that an installed tracer's wrapper is used
        res = run_instance(self.cli.main, argv, self.out)
        if res["traceback"] and len(self.tracebacks) < 3:
            self.tracebacks.append(res["traceback"])
        return res

    def account(self, res: dict) -> None:
        self.attempted += 1
        if res["rc"] != 0:
            self.causes[f"exit{res['rc']}:{res['error']}"] += 1
        for p in res["problems"]:
            self.causes[f"check:{p}"] += 1
        if res["rc"] != 0 or res["problems"]:
            self.failed += 1
        if res["problems"]:
            self.incorrect += 1


def passes(seconds: float):
    """Yield once per pass over a fixed instance list, at least once, and
    again only while one more pass as long as the last still ends within
    ``seconds``; every instance thus carries the same weight in a run."""
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        yield
        now = time.perf_counter()
        if (now - t_start) + (now - t_pass) > seconds:
            return


def run_untraced(loop: Loop, rounds: list[list[dict]], seconds: float,
                 probe: SetupProbe) -> dict:
    seq = [inst for rnd in rounds for inst in rnd]
    wall, norm, kernel, solved = [], [], [], 0
    t_start = time.perf_counter()
    for _ in range(SETUP_FIRST):
        probe.run()
    kernel.append(speed_kernel())
    for _ in passes(seconds):
        for inst in seq:
            res = loop.run(inst)
            kernel.append(speed_kernel())
            wall.append(res["dt"])
            # host speed around the instance: the kernel before and after it
            norm.append(res["dt"] * 2.0 * REF_KERNEL_S / (kernel[-2] + kernel[-1]))
            if res["rc"] == 0 and not res["problems"]:
                solved += 1
            probe.run_if_due()
    tail_s, tail_pct = tail(wall)
    return {
        "metrics": {
            "norm.pipeline_s.p50": (statistics.median(norm), "s"),
            "norm.pipeline_s.tail": (tail(norm)[0], "s"),
            "norm.solved_per_s": (solved / sum(norm), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(probe.times), "s"),
        },
        "extra": {
            "pipeline_s.p50": (statistics.median(wall), "s"),
            "pipeline_s.tail": (tail_s, "s"),
            "solved_per_s": (solved / sum(wall), "1/s"),
            "failed_frac": (loop.failed / loop.attempted, "fraction"),
            "host_slowdown": (statistics.median(kernel) / REF_KERNEL_S, "ratio"),
            "tail_percentile": tail_pct,
            "samples": len(wall),
            "solved": solved,
            "busy_s": sum(wall),
            "wall_s": time.perf_counter() - t_start,
            "setup_probes": len(probe.times),
        },
    }


def per_instance(tracer, n: int) -> dict:
    """Per-layer metrics, each per traced instance except the ratios."""
    c, calls, self_s = tracer.counters, tracer.calls, tracer.self_s
    newton_exc = {
        exc: tracer.raised[("numerics.newton_complex", exc)]
        for exc in ("NoConvergence", "InteriorNode", "ValueError",
                    "OverflowError", "ZeroDivisionError")
    }
    counts = {
        "numerics.sph_bessel.calls": calls["numerics.sph_bessel"],
        "numerics.bessel_j.calls": calls["numerics.bessel_j"],
        "numerics.complex_gamma.calls": calls["numerics.complex_gamma"],
        "numerics.newton_complex.calls": calls["numerics.newton_complex"],
        "numerics.newton_complex.fevals": c["numerics.newton_complex.fevals"],
        "numerics.newton_complex.failed": sum(
            n_ for (k, _), n_ in tracer.raised.items() if k == "numerics.newton_complex"
        ),
        "numerics.integrate.calls": calls["numerics.integrate"],
        "numerics.integrate.evals": c["numerics.integrate.evals"],
        "numerics.find_extrema.calls": calls["numerics.find_extrema"],
        "scattering.s_matrix.calls": calls["scattering.s_matrix"],
        "scattering.time_delay.calls": calls["scattering.time_delay"],
        "scattering.closed_form.calls": calls["scattering.closed_form"],
        "scattering.delay_curve.points": c["scattering.delay_curve.points"],
        "poles.outgoing_condition.calls": calls["poles.outgoing_condition"],
        "poles.find_poles.calls": calls["poles.find_poles"],
        "poles.find_poles.seeds": c["poles.find_poles.seeds"],
        "poles.find_poles.roots": c["poles.find_poles.roots"],
        "poles.find_poles.seeds_failed": c["poles.find_poles.seeds_failed"],
        "poles.classify_pole.calls": calls["poles.classify_pole"],
        "poles.classify_pole.too_coarse": tracer.raised[
            ("poles.classify_pole", "CurveTooCoarse")
        ],
        **{f"poles.newton_exc.{k}": v for k, v in newton_exc.items()},
        "counting.count_resonances.calls": calls["counting.count_resonances"],
        "counting.lorentzian_sum.calls": calls["counting.lorentzian_sum"],
        "reflect.reflection_amplitude.calls": calls["reflect.reflection_amplitude"],
        "reflect.reflection_time_delay.calls": calls["reflect.reflection_time_delay"],
        "reflect.theta_curve.points": c["reflect.theta_curve.points"],
        "phasedata.rows": c["phasedata.rows"],
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.exit3.CurveTooCoarse": c["cli.exit3.CurveTooCoarse"],
        "cli.exit3.MaxDepthExceeded": c["cli.exit3.MaxDepthExceeded"],
    }
    times = {
        f"{name}.self_s": self_s[name]
        for name in (
            "numerics.sph_bessel", "numerics.bessel_j", "numerics.complex_gamma",
            "numerics.newton_complex", "numerics.integrate", "numerics.find_extrema",
            "scattering.s_matrix", "scattering.time_delay", "scattering.closed_form",
            "scattering.delay_curve", "poles.outgoing_condition", "poles.find_poles",
            "poles.classify_pole", "counting.count_resonances",
            "counting.lorentzian_sum", "counting.reconstruction_report",
            "reflect.reflection_amplitude", "reflect.reflection_time_delay",
            "reflect.theta_curve", "reflect.reflectivity_curve",
            "phasedata.parse_phase_table", "phasedata.delay_from_table",
            "phasedata.extract_resonance",
        )
    }
    times["cli.self_s"] = self_s["cli.main"]
    metrics = {k: (v / n, "count") for k, v in counts.items()}
    metrics.update({k: (v / n, "s") for k, v in times.items()})
    seeds = c["poles.find_poles.seeds"]
    metrics["poles.find_poles.useful_ratio"] = (
        c["poles.find_poles.roots"] / seeds if seeds else 0.0, "ratio"
    )
    return metrics


def run_traced(loop: Loop, rounds: list[list[dict]], seconds: float, trace_path: Path,
               meta: dict, workload: str) -> dict:
    tracer = Tracer()
    plain, traced = [], []
    for _ in passes(seconds):
        for inst in rounds[0]:
            res = loop.run(inst)
            expected = output_bytes(loop.out)
            argv = materialize(inst, loop.tables)
            tracer.instance = len(traced)
            tracer.install()
            try:
                tres = loop.run_argv(argv)
            finally:
                tracer.uninstall()
            written = output_bytes(loop.out)
            same = written == expected and tres["rc"] == res["rc"]
            tres["problems"] = [] if same else ["trace_changed_output"]
            loop.account(tres)
            plain.append(res["dt"])
            traced.append(tres["dt"])
            tracer.counters["cli.bytes_written"] += sum(len(b) for b in written.values())
            if tres["rc"] == 3:
                tracer.counters[f"cli.exit3.{tres['error']}"] += 1
    tracer.write(trace_path, meta)

    n = len(traced)
    metrics = per_instance(tracer, n)
    p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.pipeline_s.p50_untraced"] = (p50_plain, "s")
    metrics["trace.pipeline_s.p50_traced"] = (p50_traced, "s")
    metrics["trace.overhead_s"] = (p50_traced - p50_plain, "s")
    metrics["trace.instances"] = (float(n), "count")
    violations = [
        f"{name}.calls = {tracer.calls[name]} on {workload}"
        for name in MUST_NOT_CALL[workload] if tracer.calls[name] != 0
    ]
    return {"metrics": metrics, "extra": {"isolation_violations": violations,
                                          "traced_instances": n}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_available():
        print(f"benchmark: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads(os.environ)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import jsonschema

    import resdelay
    import resdelay.cli

    reference = json.loads((BENCH_DIR / "reference.json").read_text("utf-8"))
    schema = json.loads((ROOT / "src" / "resdelay" / "report_schema.json").read_text("utf-8"))
    validator = jsonschema.validators.validator_for(schema)(schema)

    prov = provenance(args)
    rounds = seeded_rounds(reference["workloads"][args.workload], args.seed)
    for sub in ("tables", "results", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    loop = Loop(resdelay.cli, validator, WORK / "tables", WORK / "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        run = run_traced(loop, rounds, args.seconds, WORK / "traces" / f"{tag}.json",
                         prov, args.workload)
    else:
        run = run_untraced(loop, rounds, args.seconds, SetupProbe(resdelay.__version__))
    violations = run["extra"].get("isolation_violations", [])
    result = {
        "correct": loop.incorrect == 0 and not violations,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    detail = dict(result, provenance=prov, extra=run["extra"],
                  failure_causes=dict(sorted(loop.causes.items())))
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8"
    )

    print(f"# {tag}  python {prov['python']}  numpy {prov['numpy']}  "
          f"nproc {prov['nproc']}  commit {prov['commit'] or 'unknown'}")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name:40s} {value:.6g} {unit}")
    for name, value in run["extra"].items():
        if isinstance(value, tuple):
            print(f"{name:40s} {value[0]:.6g} {value[1]}")
        else:
            print(f"{name:40s} {value}")
    print(f"{'attempted':40s} {loop.attempted}")
    print(f"{'failed':40s} {loop.failed}")
    for cause, n in sorted(loop.causes.items()):
        print(f"  failure cause {cause:30s} {n}")
    for tb in loop.tracebacks:
        print(tb, file=sys.stderr)
    for v in violations:
        print(f"isolation violated: {v}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
