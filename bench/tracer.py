"""Out-of-program tracing of the ``resdelay`` modules.

The tracer wraps every public function of each module (the names in its
``__all__``, plus ``cli.main``) and rebinds the wrapper under every name
that holds the original in any ``resdelay`` namespace, because modules
import each other's functions by name (``from .numerics import
sph_bessel``).  The program itself carries no tracing code.

Each wrapped call adds its duration minus the time of the wrapped calls it
made to its function's self time, so a function's ``self_s`` is the
duration of its spans minus the time their child spans cover.  Boundary
functions also record a span (name, start, end, parent span, instance id).
Hot leaf functions, called up to millions of times a run, record no span:
their count and summed duration are aggregated under the enclosing span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("numerics", "scattering", "poles", "counting", "reflect", "phasedata")

# functions aggregated under their enclosing span instead of each opening one
HOT = {
    "numerics.sph_bessel",
    "numerics.bessel_j",
    "numerics.complex_gamma",
    "numerics.newton_complex",
    "poles.outgoing_condition",
    "scattering.s_matrix",
    "scattering.phase_shift_bar",
    "scattering.time_delay",
    "scattering.time_delay_square_well_analytic",
    "scattering.time_delay_delta_shell_analytic",
    "reflect.reflection_amplitude",
    "reflect.reflection_time_delay",
    "counting.lorentzian_sum",
    "counting.gamma_from_peak",
}

# functions whose counters are kept under one shared name
ALIASES = {
    "scattering.time_delay_square_well_analytic": "scattering.closed_form",
    "scattering.time_delay_delta_shell_analytic": "scattering.closed_form",
}


class Tracer:
    """Wraps the program's public functions while installed.

    ``calls[name]`` and ``self_s[name]`` accumulate per function,
    ``raised[(name, exception type)]`` counts exceptions leaving a function,
    and ``counters`` holds the work counts read at specific boundaries.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans: list[list] = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (span id, name) -> [n, s]
        self.instance = None
        self._frames: list[list[float]] = []  # child-time accumulators
        self._open_spans: list[int] = []
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        for mod_name in MODULES + ("cli",):
            mod = importlib.import_module(f"resdelay.{mod_name}")
            names = ["main"] if mod_name == "cli" else mod.__all__
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    qual = f"{mod_name}.{name}"
                    self._originals[id(fn)] = fn
                    self._wrappers[id(fn)] = self._wrap(qual, fn)

    # -- installing -------------------------------------------------------

    def _namespaces(self):
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "resdelay" or n.startswith("resdelay."))
        ]

    def install(self) -> None:
        for mod in self._namespaces():
            for attr, val in list(vars(mod).items()):
                w = self._wrappers.get(id(val))
                if w is not None and self._originals[id(val)] is val:
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        back = {id(w): self._originals[k] for k, w in self._wrappers.items()}
        for mod in self._namespaces():
            for attr, val in list(vars(mod).items()):
                orig = back.get(id(val))
                if orig is not None:
                    setattr(mod, attr, orig)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qual: str, fn):
        key = ALIASES.get(qual, qual)
        frames, open_spans = self._frames, self._open_spans
        calls, self_s, raised = self.calls, self.self_s, self.raised
        clock = time.perf_counter
        before = _BEFORE.get(qual)
        start, end = _START.get(qual), _END.get(qual)
        tracer = self

        if qual in HOT:
            leaves = self.leaves

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                if before is not None:
                    args = before(tracer, args)
                frame = [0.0]
                frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    raised[(key, type(exc).__name__)] += 1
                    raise
                finally:
                    d = clock() - t0
                    frames.pop()
                    calls[key] += 1
                    self_s[key] += d - frame[0]
                    if frames:
                        frames[-1][0] += d
                    leaf = leaves[(open_spans[-1] if open_spans else None, key)]
                    leaf[0] += 1
                    leaf[1] += d

            return hot

        spans = self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            sid = len(spans)
            rec = [sid, key, 0.0, 0.0, open_spans[-1] if open_spans else None,
                   tracer.instance]
            spans.append(rec)
            open_spans.append(sid)
            frame = [0.0]
            frames.append(frame)
            state = start(tracer) if start is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[(key, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                d = t1 - t0
                frames.pop()
                open_spans.pop()
                rec[2], rec[3] = t0, t1
                calls[key] += 1
                self_s[key] += d - frame[0]
                if frames:
                    frames[-1][0] += d
            if end is not None:
                end(tracer, result, args, state)
            return result

        return span

    # -- output -----------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        leaves = defaultdict(dict)
        for (sid, name), (n, s) in self.leaves.items():
            leaves[str(sid)][name] = {"calls": n, "total_s": s}
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start", "end", "parent", "instance"],
            "spans": self.spans,
            "leaves_by_span": leaves,
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


# -- boundary hooks ----------------------------------------------------------
# A ``before`` hook may replace the positional arguments (to count the calls
# of a function argument).  A ``start`` hook runs before a span's call and
# returns a state that the ``end`` hook gets back, with the result, after a
# successful call.


def _counting(tracer: Tracer, name: str, f):
    counters = tracer.counters

    def counted(*a):
        counters[name] += 1
        return f(*a)

    return counted


def _newton_before(tracer, args):
    return (_counting(tracer, "numerics.newton_complex.fevals", args[0]),) + args[1:]


def _integrate_before(tracer, args):
    return (_counting(tracer, "numerics.integrate.evals", args[0]),) + args[1:]


def _newton_failures(tracer) -> int:
    return sum(n for (k, _), n in tracer.raised.items() if k == "numerics.newton_complex")


def _find_poles_end(tracer, result, args, newton_failures_before):
    region = args[1]
    c = tracer.counters
    c["poles.find_poles.seeds"] += region.n_re * region.n_im
    c["poles.find_poles.roots"] += len(result)
    # the pole diagnostics carry the failed-seed count; with no pole
    # reported it is read from the Newton failures seen inside this call
    if result:
        c["poles.find_poles.seeds_failed"] += result[0].diagnostics["seeds_failed"]
    else:
        c["poles.find_poles.seeds_failed"] += (
            _newton_failures(tracer) - newton_failures_before
        )


def _points(name):
    def end(tracer, result, args, state):
        tracer.counters[name] += len(result)

    return end


_BEFORE = {
    "numerics.newton_complex": _newton_before,
    "numerics.integrate": _integrate_before,
}

_START = {"poles.find_poles": _newton_failures}

_END = {
    "poles.find_poles": _find_poles_end,
    "scattering.delay_curve": _points("scattering.delay_curve.points"),
    "reflect.theta_curve": _points("reflect.theta_curve.points"),
    "phasedata.parse_phase_table": _points("phasedata.rows"),
}
