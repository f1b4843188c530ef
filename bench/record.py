#!/usr/bin/env python3
"""Generate the workload pools and record the program's reference outputs.

    python3 bench/record.py

Run it at the commit whose outputs are the reference; it rewrites
``bench/reference.json``.  Every pool instance runs once in-process, and
its exit code, failure type and the values that ``checks.summarize``
extracts are stored next to its argv.  The pool itself depends only on
``POOL_SEED`` and ``ROUNDS``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import run

POOL_SEED = 20031
ROUNDS = {"sqwell_highl": 3, "expstep": 8, "closed_form": 6}


def main() -> int:
    if not run.program_available():
        print("record: no program sources", file=sys.stderr)
        return 2
    run.pin_threads(os.environ)
    sys.path.insert(0, str(run.ROOT / "src"))
    import jsonschema

    from checks import check_report, summarize
    from pool import make_pool, materialize
    from resdelay.cli import main as cli_main

    schema = json.loads((run.ROOT / "src/resdelay/report_schema.json").read_text("utf-8"))
    validator = jsonschema.validators.validator_for(schema)(schema)
    tables, out = run.WORK / "tables", run.WORK / "out"
    tables.mkdir(parents=True, exist_ok=True)

    workloads = {}
    for workload, n_rounds in ROUNDS.items():
        pool = make_pool(workload, n_rounds, POOL_SEED)
        for rnd in pool:
            for inst in rnd:
                argv = materialize(inst, tables)
                res = run.run_instance(cli_main, argv, out)
                expect = {"exit": res["rc"]}
                if res["rc"] == 0:
                    report = run.read_report(argv, out)
                    problems = check_report(report, argv, {"exit": 3}, validator)
                    if problems:
                        raise RuntimeError(f"{inst['id']}: {problems}")
                    expect.update(summarize(report))
                else:
                    expect["error"] = res["error"]
                inst["expect"] = expect
                print(f"{inst['id']:28s} exit {res['rc']} {res['error'] or '':18s} "
                      f"{res['dt']:.4f} s", flush=True)
        workloads[workload] = pool

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    doc = {"commit": commit, "pool_seed": POOL_SEED, "workloads": workloads}
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
