"""Workload instance pools and the seeded order in which a run visits them.

Each workload owns a pool of *rounds*.  A round is a balanced design over the
workload's parameter ranges: one instance per ``l`` for ``sqwell_highl``, a
Latin hypercube for the continuous parameters, and an equal share of each
pipeline for ``closed_form``.  The pool is generated once by ``record.py``
and stored, together with the outputs the program gave at the recording
commit, in ``reference.json``; the benchmark never regenerates it, so the
reference values always belong to the exact argv that is run.

The run seed picks which round comes first (rounds are visited in rotated
order) and shuffles the instances inside every round.
"""
from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("sqwell_highl", "expstep", "closed_form")

# parameter ranges of each workload; the pipelines' other flags keep their
# CLI defaults
SQWELL_HIGHL_L = range(1, 11)
SQWELL_V0 = (2.0, 10.0)
SQWELL_A = (3.0, 10.0)
STEP_V = (0.5, 2.0)
STEP_A = (0.5, 2.5)
SHELL_V0 = (2.0, 20.0)
SHELL_A = (0.5, 2.0)
TABLE_ROWS = (50, 5000)
TABLE_M = (1180.0, 1280.0)
TABLE_GAMMA = (60.0, 160.0)
TABLE_SLOPE = (-1e-3, 1e-3)  # linear phase background, rad/MeV
TABLE_W = (1080.0, 1480.0)


def _lhs(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One Latin-hypercube column: a point in each of n equal strata, shuffled."""
    pts = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(pts)
    return pts


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def make_round(workload: str, rng: random.Random) -> list[dict]:
    """One balanced round of instances (argv without ``--out``)."""
    if workload == "sqwell_highl":
        ls = list(SQWELL_HIGHL_L)
        n = len(ls)
        v0s, as_ = _lhs(rng, n, *SQWELL_V0), _lhs(rng, n, *SQWELL_A)
        return [
            {"argv": ["sqwell", "--l", str(l), "--V0", _fmt(v0), "--a", _fmt(a)]}
            for l, v0, a in zip(ls, v0s, as_)
        ]
    if workload == "expstep":
        n = 10
        cols = zip(_lhs(rng, n, *STEP_V), _lhs(rng, n, *STEP_V), _lhs(rng, n, *STEP_A))
        return [
            {"argv": ["step", "--V1", _fmt(v1), "--V2", _fmt(v2), "--a", _fmt(a)]}
            for v1, v2, a in cols
        ]
    if workload == "closed_form":
        n = 10
        wells = zip(_lhs(rng, n, *SQWELL_V0), _lhs(rng, n, *SQWELL_A))
        shells = zip(_lhs(rng, n, *SHELL_V0), _lhs(rng, n, *SHELL_A))
        log_rows = _lhs(rng, n, math.log(TABLE_ROWS[0]), math.log(TABLE_ROWS[1]))
        tables = zip(
            log_rows,
            _lhs(rng, n, *TABLE_M),
            _lhs(rng, n, *TABLE_GAMMA),
            _lhs(rng, n, *TABLE_SLOPE),
        )
        out = [
            {"argv": ["sqwell", "--l", "0", "--V0", _fmt(v0), "--a", _fmt(a)]}
            for v0, a in wells
        ]
        out += [
            {"argv": ["deltashell", "--V0", _fmt(v0), "--a", _fmt(a)]}
            for v0, a in shells
        ]
        out += [
            {
                "argv": ["data"],
                "table": {
                    "M": round(m, 3),
                    "Gamma": round(g, 3),
                    "slope": float(f"{s:.3e}"),
                    "W_lo": TABLE_W[0],
                    "W_hi": TABLE_W[1],
                    "n": int(round(math.exp(lr))),
                },
            }
            for lr, m, g, s in tables
        ]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def make_pool(workload: str, rounds: int, pool_seed: int) -> list[list[dict]]:
    rng = random.Random(f"{workload}/{pool_seed}")
    pool = []
    for r in range(rounds):
        rnd = make_round(workload, rng)
        for i, inst in enumerate(rnd):
            inst["id"] = f"{workload}/r{r}/i{i}"
        pool.append(rnd)
    return pool


def seeded_rounds(pool: list[list[dict]], seed: int) -> list[list[dict]]:
    """Rounds in the order a run with this seed visits them: rotated so that
    seed decides the first round, each round shuffled by the seed."""
    rng = random.Random(seed)
    n = len(pool)
    out = []
    for i in range(n):
        rnd = list(pool[(seed + i) % n])
        rng.shuffle(rnd)
        out.append(rnd)
    return out


def table_csv(inst: dict) -> str:
    """Phase table text for a ``data`` instance, from the program's own
    ``synth_phase_table``."""
    from resdelay.phasedata import synth_phase_table

    t = inst["table"]
    table = synth_phase_table(
        t["M"], t["Gamma"], t["slope"], t["W_lo"], t["W_hi"], t["n"]
    )
    rows = [f"{w!r},{d!r}" for w, d in zip(table.W.tolist(), table.delta_deg.tolist())]
    return "W_MeV,delta_deg\n" + "\n".join(rows) + "\n"


def materialize(inst: dict, tables_dir: Path) -> list[str]:
    """The argv for one instance, writing its input table first if it has one."""
    argv = list(inst["argv"])
    if "table" in inst:
        path = tables_dir / (inst["id"].replace("/", "_") + ".csv")
        if not path.exists():
            path.write_text(table_csv(inst), encoding="utf-8")
        argv += ["--input", str(path)]
    return argv
