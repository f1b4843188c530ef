"""Time two source trees on one bench pool, in alternating pairs.

Each pair runs the workload's pool of ``bench/reference.json`` once per
tree, each tree in a child interpreter of its own that imports ``resdelay``
from ``<tree>/src`` (see ``pool_bytes.py``), the old tree first in odd
pairs and the new tree first in even ones.  A child runs the pool twice and
times the second pass, each instance's ``main`` call alone::

    python tools/pool_time.py OLD_TREE NEW_TREE --workload sqwell_highl --pairs 10

``--pipeline NAME`` times only the instances of the workload that run that
subcommand, for example the 60 phase tables of ``closed_form``::

    python tools/pool_time.py OLD_TREE NEW_TREE --workload closed_form --pipeline data

``--stage NAME`` times, in place of each instance's ``main`` call, only the
calls it makes to the function ``resdelay.cli.NAME``, for example the pole
search of every model instance, and keeps only the instances that call it
in both trees::

    python tools/pool_time.py OLD_TREE NEW_TREE --workload sqwell_highl --stage find_poles

``--ab RUNS`` times both trees in this interpreter instead, which the
host's speed states, moving from one child interpreter to the next, do not
reach: each tree's ``src/resdelay`` is copied and imported as the package
``resdelay_old`` or ``resdelay_new``, and each instance runs ``RUNS``
times in each tree, the trees taking turns and the old tree first on even
instances.  An instance's time is its least of those runs.  For each group
it prints each tree's summed and median instance time and their changes,
the median of the per-instance ratios and the instances the new tree ran
faster::

    python tools/pool_time.py OLD_TREE NEW_TREE --workload expstep --ab 7

Per pair and tree the script takes the median instance time of each
pipeline, and of the instances that exit 0 in both trees: a median over the
whole pool mixes pipelines, and instances that exit early pull it down.  It
prints, for each group, the median of those per-pair medians in each tree,
the old tree's quartiles, the relative change, the pairs in which the
new tree was faster, each tree's summed instance time (the median over the
pairs of the per-pair sums: the bench's ``norm.solved_per_s`` divides by
that sum, which the medians hide) and its change, and each tree's slowest
instance by its median time over the pairs: on a small pool the bench's
tail is the time of its slowest instances.  Last, it prints each tree's
peak resident set: the child's ``ru_maxrss`` after its two passes, as the
median over the pairs (the bench's ``peak_rss_mb`` is the same reading of
the bench process).
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from pool_bytes import BENCH, instances, run_once, run_pool, run_tree


def timed_stage(name: str, cli=None) -> list:
    """Wrap ``NAME`` of the module ``cli`` (by default ``resdelay.cli``,
    imported already) so that each call adds its seconds and 1 to the list
    ``[seconds, calls]`` returned."""
    cli = sys.modules["resdelay.cli"] if cli is None else cli
    fn = getattr(cli, name, None)
    if not callable(fn):
        raise SystemExit(f"resdelay.cli has no function {name!r}")
    spent = [0.0, 0]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
            spent[1] += 1

    setattr(cli, name, timed)
    return spent


def collect(tree: Path, work: Path, workloads: list[str],
            pipeline: str | None = None, stage: str | None = None) -> dict:
    """The pipeline, exit code and seconds of every instance (of
    ``pipeline``, if given), by id, from the second of two passes of
    :func:`pool_bytes.run_pool`, and the peak resident set in MB after both
    passes.  With a ``stage``, the seconds are those of the instance's
    calls to ``resdelay.cli.<stage>`` (:func:`timed_stage`), and ``calls``
    counts them."""
    for _ in run_pool(tree, work, workloads, pipeline):  # warm-up pass
        pass
    spent = timed_stage(stage) if stage is not None else None
    runs = {}
    for inst, rc, _, _, seconds in run_pool(tree, work, workloads, pipeline):
        runs[inst["id"]] = {"pipeline": inst["argv"][0], "exit": rc, "seconds": seconds}
        if spent is not None:
            runs[inst["id"]].update(seconds=spent[0], calls=spent[1])
            spent[:] = [0.0, 0]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"instances": runs, "peak_rss_mb": peak}


def load_trees(trees: list[Path], home: Path) -> list:
    """The ``cli`` modules of copies of each tree's ``src/resdelay``,
    imported in this interpreter as the packages ``resdelay_old`` and
    ``resdelay_new`` from ``home``."""
    for tree, name in zip(trees, ("resdelay_old", "resdelay_new")):
        shutil.copytree(tree / "src" / "resdelay", home / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(home))
    return [importlib.import_module(f"{name}.cli") for name in ("resdelay_old", "resdelay_new")]


def ab_collect(trees: list[Path], work: Path, workloads: list[str], runs: int,
               pipeline: str | None = None, stage: str | None = None) -> tuple:
    """Both trees in this interpreter (:func:`load_trees`): per instance
    and tree, the pipeline, the exit code and the least seconds of
    ``runs`` runs, the two trees taking turns within each round of runs and
    the old tree first on even instances.  With a ``stage``, the seconds
    are those of the calls to ``cli.<stage>`` (:func:`timed_stage`), and
    ``calls`` counts them.  While a tree runs, ``sys.modules["resdelay"]``
    is its package, which ``importlib.resources`` reads; the phase tables
    are written by the old tree."""
    clis = load_trees(trees, work / "trees")
    sys.path.insert(0, str(BENCH))
    import pool

    tables, out = work / "tables", work / "out"
    tables.mkdir()
    packages = [sys.modules[cli.__package__] for cli in clis]
    sys.modules["resdelay"] = packages[0]
    sys.modules["resdelay.phasedata"] = sys.modules["resdelay_old.phasedata"]
    todo = [(inst, pool.materialize(inst, tables)) for inst in instances(workloads, pipeline)]
    del sys.modules["resdelay.phasedata"]
    spent = [timed_stage(stage, cli) if stage is not None else None for cli in clis]
    result: tuple[dict, dict] = ({}, {})
    for i, (inst, argv) in enumerate(todo):
        for _ in range(runs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                sys.modules["resdelay"] = packages[side]
                rc, _, seconds = run_once(clis[side].main, argv, out)
                run = result[side].setdefault(inst["id"], {"seconds": math.inf})
                if spent[side] is not None:
                    seconds, run["calls"] = spent[side]
                    spent[side][:] = [0.0, 0]
                run.update(pipeline=inst["argv"][0], exit=rc,
                           seconds=min(seconds, run["seconds"]))
    del sys.modules["resdelay"]
    return result


def ab_summary(old: dict, new: dict) -> list[str]:
    """One line per group of :func:`groups`: instances, each tree's summed
    and median per-instance least time and their changes, the median of
    the per-instance ratios new/old less 1, and the instances the new tree
    ran faster."""
    lines = [f"{'group':<16} {'n':>4} {'old sum s':>10} {'new sum s':>10} {'change':>8} "
             f"{'old median':>11} {'new median':>11} {'change':>8} "
             f"{'median ratio':>13} {'new won':>9}"]
    for name, ids in groups(old, new).items():
        if not ids:
            continue
        a, b = ([side[key]["seconds"] for key in ids] for side in (old, new))
        so, sn, mo, mn = sum(a), sum(b), statistics.median(a), statistics.median(b)
        ratio = statistics.median(y / x for x, y in zip(a, b))
        won = sum(y < x for x, y in zip(a, b))
        lines.append(f"{name:<16} {len(ids):>4} {so:>10.4f} {sn:>10.4f} "
                     f"{100 * (sn / so - 1):>+7.1f}% {mo:>11.6f} {mn:>11.6f} "
                     f"{100 * (mn / mo - 1):>+7.1f}% {100 * (ratio - 1):>+12.1f}% "
                     f"{won:>4}/{len(ids):<4}")
    return lines


def groups(old: dict, new: dict) -> dict[str, list[str]]:
    """Instance ids per pipeline, and of the instances that exit 0 in both
    trees; with a stage, only the instances that call it in both trees."""
    keys = [key for key in old if old[key].get("calls", 1) and new[key].get("calls", 1)]
    out: dict[str, list[str]] = {}
    for key in keys:
        out.setdefault(old[key]["pipeline"], []).append(key)
    out["exit 0 in both"] = [
        key for key in keys if old[key]["exit"] == 0 and new[key]["exit"] == 0
    ]
    return out


def slowest(side: list[dict], ids: list[str]) -> str:
    """The instance of ``ids`` with the largest median time over the pairs,
    as that time and the instance id without its workload."""
    times = {key: statistics.median(run[key]["seconds"] for run in side) for key in ids}
    key = max(times, key=times.get)
    return f"{times[key]:.6f} {key.partition('/')[2]}"


def summary(runs: tuple[list[dict], list[dict]]) -> list[str]:
    """One line per group of :func:`groups`: instances, the old and new
    medians of the per-pair medians, the old quartiles, the change, the
    pairs won by the new tree, the old and new medians of the per-pair
    summed times and their change, and the slowest instance in each tree
    (:func:`slowest`)."""
    old_runs, new_runs = runs
    lines = [f"{'group':<16} {'n':>4} {'old s':>10} {'old quartiles':>23} "
             f"{'new s':>10} {'change':>8} {'new won':>8} {'old sum s':>10} "
             f"{'new sum s':>10} {'change':>8}  {'old slowest':<18} "
             f"{'new slowest':<18}"]
    for name, ids in groups(old_runs[0], new_runs[0]).items():
        if not ids:
            continue
        old, new = (
            [statistics.median(run[key]["seconds"] for key in ids) for run in side]
            for side in runs
        )
        q1, q3 = (statistics.quantiles(old, n=4)[::2] if len(old) > 1 else old * 2)
        mo, mn = statistics.median(old), statistics.median(new)
        won = sum(b < a for a, b in zip(old, new))
        so, sn = (statistics.median(sum(run[key]["seconds"] for key in ids)
                                    for run in side) for side in runs)
        lines.append(f"{name:<16} {len(ids):>4} {mo:>10.6f} {q1:>11.6f}-{q3:<11.6f} "
                     f"{mn:>10.6f} {100 * (mn / mo - 1):>+7.1f}% {won:>4}/{len(old)} "
                     f"{so:>10.4f} {sn:>10.4f} {100 * (sn / so - 1):>+7.1f}%  "
                     f"{slowest(old_runs, ids):<18} {slowest(new_runs, ids):<18}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--workload", required=True, help="the bench workload")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (10)")
    parser.add_argument("--pipeline", help="only the instances of this subcommand")
    parser.add_argument("--stage", metavar="NAME",
                        help="time only the calls to resdelay.cli.NAME")
    parser.add_argument("--ab", type=int, metavar="RUNS",
                        help="time both trees in this interpreter, each instance's "
                             "least of RUNS runs")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        print(json.dumps(collect(args.collect, args.work, [args.workload],
                                 args.pipeline, args.stage)))
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD_TREE NEW_TREE")
    if args.pairs < 1 or args.ab is not None and args.ab < 1:
        parser.error("--pairs and --ab must be at least 1")
    if not instances([args.workload], args.pipeline):
        parser.error(f"workload {args.workload!r} has no instance"
                     + (f" of pipeline {args.pipeline!r}" if args.pipeline else ""))
    what = args.workload + (f" --pipeline {args.pipeline}" if args.pipeline else "")
    timed = f" in resdelay.cli.{args.stage}" if args.stage else ""
    if args.ab is not None:
        with tempfile.TemporaryDirectory() as work:
            old, new = ab_collect(args.trees, Path(work), [args.workload], args.ab,
                                  args.pipeline, args.stage)
        print(f"{what}: both trees in one interpreter, old tree first on even "
              f"instances; seconds are each instance's least of {args.ab} runs{timed}")
        print("\n".join(ab_summary(old, new)))
        differ = sum(old[key]["exit"] != new[key]["exit"] for key in old)
        if differ:
            print(f"exit codes differ in {differ} instances")
        return 0
    runs: tuple[list[dict], list[dict]] = ([], [])
    peaks: tuple[list[float], list[float]] = ([], [])
    with tempfile.TemporaryDirectory() as work:
        for i in range(args.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                tree = args.trees[side]
                child = run_tree(tree, Path(work), [args.workload], __file__,
                                 args.pipeline, args.stage)
                runs[side].append(child["instances"])
                peaks[side].append(child["peak_rss_mb"])
    differ = sum(a[key]["exit"] != b[key]["exit"] for a, b in zip(*runs) for key in a)
    print(f"{what}: {args.pairs} pairs, old tree first in odd pairs; "
          f"seconds are per-pair medians and sums of instance times{timed}")
    print("\n".join(summary(runs)))
    old, new = (statistics.median(side) for side in peaks)
    print(f"peak RSS MB (median over pairs): old {old:.2f}, new {new:.2f}, "
          f"change {new - old:+.2f}")
    if differ:
        print(f"exit codes differ in {differ} instance runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
