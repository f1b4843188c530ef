"""Self-tests of the benchmark (not part of the program's test suite).

    PYTHONPATH=src python -m pytest bench/test_bench.py

Each test runs ``bench/run.py`` in a subprocess, as the benchmark is run.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counters that count work, and must repeat exactly at one seed
DETERMINISTIC = (".calls", ".evals", ".fevals", ".seeds", ".roots", ".points")


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters(res):
    return {k: v["value"] for k, v in res["metrics"].items() if k.endswith(DETERMINISTIC)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_at_one_seed_and_change_with_it(workload):
    first = result(bench(workload, 1, 1))
    again = result(bench(workload, 1, 1))
    other = result(bench(workload, 2, 1))
    for res in (first, again, other):
        # correct includes the workload-isolation assertions
        assert res["correct"] is True
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert counters(first) == counters(again)
    assert counters(first) != counters(other)
    m = first["metrics"]
    # every failed Newton seed is accounted to one exception type
    exc = sum(v["value"] for k, v in m.items() if k.startswith("poles.newton_exc."))
    assert exc == pytest.approx(m["poles.find_poles.seeds_failed"]["value"])
    assert exc == pytest.approx(m["numerics.newton_complex.failed"]["value"])


def test_untraced_run_reports_every_end_to_end_metric():
    res = result(bench("closed_form", 3, 0))
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    for spec in SPEC["end_to_end"]:
        metric = res["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    assert len(res["metrics"]) == len(SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
