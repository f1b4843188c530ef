"""Compare the outputs of two source trees on every bench pool instance.

Each tree runs every instance of ``bench/reference.json`` in-process, in a
child interpreter of its own that imports ``resdelay`` from ``<tree>/src``.
The script then prints, for each instance where the trees differ, the exit
codes, the stderr text and the sha256 of every output file that differs.
For a JSON report or a CSV file that differs it also prints each JSON
path or CSV column whose values differ (list indices and rows shown as
``[]``), with the number of values and the largest relative change of the
numbers among them, and the largest relative numeric change of the whole
file::

    python tools/pool_bytes.py OLD_TREE NEW_TREE [--workload expstep] [--summary]

``--summary`` prints, in place of the lines per instance, one line per
JSON path (over every report), per CSV file name, and for the exit codes
and stderr: the number of instances in which it differs and the largest
relative change of its numbers.

A tree is a checkout, for instance one made by ``git archive``.  The
instance list, and the phase tables of the ``data`` instances, come from
this checkout's ``bench/``.  The exit status is 0 when every instance is
byte-identical, and 1 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def instances(workloads: list[str] | None, pipeline: str | None = None) -> list[dict]:
    """Every instance of the reference pools, in file order; with a
    ``pipeline``, only the instances of that subcommand."""
    ref = json.loads((BENCH / "reference.json").read_text("utf-8"))["workloads"]
    return [
        inst
        for name, rounds in ref.items() if workloads is None or name in workloads
        for rnd in rounds
        for inst in rnd if pipeline is None or inst["argv"][0] == pipeline
    ]


def run_pool(tree: Path, work: Path, workloads: list[str] | None,
             pipeline: str | None = None):
    """Run every instance (of ``pipeline``, if given) against ``tree`` in
    this process, in file order.

    Yields ``(instance, exit code, stderr text, output directory, seconds)``
    per instance, the seconds those of the ``main`` call alone
    (:func:`run_once`).  The tables and outputs go under ``work``, at the
    same paths for every tree, since a report records its ``--input`` path;
    the output directory is emptied before the next instance."""
    sys.path[:0] = [str(tree / "src"), str(BENCH)]
    import pool
    import resdelay
    from resdelay.cli import main

    if not Path(resdelay.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"resdelay imported from {resdelay.__file__}, not {tree}")
    tables, out = work / "tables", work / "out"
    shutil.rmtree(tables, ignore_errors=True)
    tables.mkdir()
    for inst in instances(workloads, pipeline):
        argv = pool.materialize(inst, tables)
        rc, err, seconds = run_once(main, argv, out)
        yield inst, rc, err, out, seconds


def run_once(main, argv: list[str], out: Path) -> tuple:
    """One call ``main(argv + ["--out", out])`` on an emptied ``out``:
    ``(exit code, stderr text, seconds of the call alone)``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    gc.collect()
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is an output like any other
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return rc, err.getvalue(), seconds


def number(field: str):
    """A CSV field as a float, or the text where it is no number."""
    try:
        return float(field)
    except ValueError:
        return field


def content(path: Path):
    """A JSON report's document, or a CSV file's columns by header name."""
    text = path.read_text("utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    header, *rows = text.splitlines()
    columns = zip(*(row.split(",") for row in rows))
    return {name: list(map(number, col)) for name, col in zip(header.split(","), columns)}


def collect(tree: Path, work: Path, workloads: list[str] | None) -> dict:
    """The exit code, the stderr text, the sha256 of each output file and
    the :func:`content` of each JSON and CSV file of every instance of
    :func:`run_pool`, by instance id."""
    return {
        inst["id"]: {
            "exit": rc,
            "stderr": err,
            "files": {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            },
            "contents": {
                p.name: content(p)
                for p in sorted(out.iterdir()) if p.suffix in (".json", ".csv")
            },
        }
        for inst, rc, err, out, _ in run_pool(tree, work, workloads)
    }


def run_tree(tree: Path, work: Path, workloads: list[str] | None,
             script: str = __file__, pipeline: str | None = None,
             stage: str | None = None) -> dict:
    """The ``--collect`` output of ``script`` (by default this one) for
    ``tree``, run in a child interpreter, so each tree has its own
    imports; a ``pipeline`` is passed on as ``--pipeline`` and a ``stage``
    as ``--stage``.  A child that fails ends the script with its stderr."""
    cmd = [sys.executable, script, "--collect", str(tree), "--work", str(work)]
    for name in workloads or ():
        cmd += ["--workload", name]
    for flag, value in (("--pipeline", pipeline), ("--stage", stage)):
        if value is not None:
            cmd += [flag, value]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"{tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def leaves(value, path: str = "") -> dict:
    """The leaf values of a JSON document by path, list indices kept."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in leaves(item, f"{path}.{key}" if path else key).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def relative_change(a, b) -> float | None:
    """|b - a| / |a| of two numbers (inf from 0), None for anything else."""
    if not all(type(x) in (int, float) for x in (a, b)):
        return None
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def widen(group: list, rel: float | None, kinds=()) -> None:
    """Take a relative change and kinds into a ``[count, largest relative
    change, kinds]`` group."""
    if rel is not None:
        group[1] = rel if group[1] is None else max(group[1], rel)
    group[2].update(kinds)


def add(group: list, rel: float | None, kinds=()) -> None:
    """Count one value (or instance) into a group of :func:`widen`."""
    group[0] += 1
    widen(group, rel, kinds)


def changed_paths(old, new) -> dict[str, list]:
    """The paths of two documents whose values differ, list indices shown
    as ``[]``: for each, the ``[count, largest relative change, kinds]``
    group of :func:`add` over the values that differ (a value only in one
    document is added or removed, a value that is no number changed)."""
    a, b = leaves(old), leaves(new)
    groups: dict[str, list] = {}
    for path in sorted(a.keys() | b.keys()):
        if path in a and path in b and a[path] == b[path]:
            continue
        group = groups.setdefault(re.sub(r"\[\d+\]", "[]", path), [0, None, set()])
        if path not in a or path not in b:
            add(group, None, ["added" if path not in a else "removed"])
            continue
        rel = relative_change(a[path], b[path])
        add(group, rel, ["changed"] if rel is None else [])
    return groups


def describe(groups: dict[str, list], unit: str) -> list[str]:
    """One line per group: its count of ``unit``, its kinds and its largest
    relative change; the last line gives the largest relative change of
    them all."""
    lines, largest = [], None
    for path, (n, rel, kinds) in sorted(groups.items()):
        what = [f"{n} {unit}{'s' if n > 1 else ''}", *sorted(kinds)]
        if rel is not None:
            what.append(f"largest relative change {rel:.3g}")
            largest = rel if largest is None else max(largest, rel)
        lines.append(f"{path}: {', '.join(what)}")
    if largest is not None:
        lines.append(f"largest relative numeric change {largest:.3g}")
    return lines


def changed_files(a: dict, b: dict):
    """The names of the output files whose bytes differ between two
    instance records, with the :func:`changed_paths` of their contents
    (None where a file is in one record only, or is neither JSON nor
    CSV)."""
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if a["files"].get(name) != b["files"].get(name):
            ca, cb = a["contents"].get(name), b["contents"].get(name)
            both = ca is not None and cb is not None
            yield name, changed_paths(ca, cb) if both else None


def differences(old: dict, new: dict) -> dict[str, list[str]]:
    """What differs, line by line, for each instance whose outputs differ."""
    out = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            out[key] = [f"only in the {'new' if a is None else 'old'} tree"]
            continue
        lines = out[key] = []
        if a["exit"] != b["exit"]:
            lines.append(f"exit: {a['exit']!r} -> {b['exit']!r}")
        if a["stderr"] != b["stderr"]:
            lines.append(f"stderr: {a['stderr']!r} -> {b['stderr']!r}")
        for name, paths in changed_files(a, b):
            ha, hb = a["files"].get(name, "missing"), b["files"].get(name, "missing")
            lines.append(f"{name}: {ha} -> {hb}")
            if paths is not None:
                lines += ["  " + line for line in describe(paths, "value")]
    return out


def summary(old: dict, new: dict) -> list[str]:
    """:func:`describe` of the instances that differ, grouped by JSON path
    (over every report), by CSV file name, and by exit code and stderr."""
    groups: dict[str, list] = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            add(groups.setdefault("instance", [0, None, set()]), None,
                ["added" if a is None else "removed"])
            continue
        touched: dict[str, list] = {}  # the groups this instance touches

        def touch(name, rel=None, kinds=("changed",)):
            widen(touched.setdefault(name, [1, None, set()]), rel, kinds)

        for what in ("exit", "stderr"):
            if a[what] != b[what]:
                touch(what)
        for name, paths in changed_files(a, b):
            if paths is None:
                touch(name)
            for path, (_, rel, kinds) in (paths or {}).items():
                touch(name if name.endswith(".csv") else path, rel, kinds)
        for name, (_, rel, kinds) in touched.items():
            add(groups.setdefault(name, [0, None, set()]), rel, kinds)
    return describe(groups, "instance")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable); default all")
    parser.add_argument("--summary", action="store_true",
                        help="one line per JSON path and CSV file, over all instances")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        print(json.dumps(collect(args.collect, args.work, args.workload)))
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD_TREE NEW_TREE")
    with tempfile.TemporaryDirectory() as work:
        old, new = (run_tree(tree, Path(work), args.workload) for tree in args.trees)
    diff = differences(old, new)
    if args.summary:
        print("\n".join(summary(old, new)))
    else:
        for key, lines in diff.items():
            print(key)
            for line in lines:
                print("  " + line)
    print(f"{len(old.keys() | new.keys())} instances, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
