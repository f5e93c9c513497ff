"""Per-layer tracing of aoiharvest from outside the package.

``install`` wraps every public function (listed in ``__all__``) of each layer
module and rebinds every module-level reference to it inside the package, so
calls made through ``from .x import f`` names are traced too. Each call
records one span (name, start, end, parent) in memory; counters read from the
call's arguments or return value are recorded at the same boundary. Nothing
under ``src/`` changes, and a wrapped function returns exactly what the
original returns.

The layers are the modules; ``model`` holds scalar physics only and is not
wrapped. Time spent in private helpers counts toward the nearest wrapped
caller: the bound integrands of ``jsp`` run inside
``quadrature.integrate_adaptive`` and show up in its self time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("config", "cli", "experiments", "geometry", "jsp", "quadrature", "optimizer", "aoi")
PACKAGE = "aoiharvest"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, bool] | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.geometries: set[tuple] = set()  # distinct (density, radius, draws, seed) sampled
        self._stack: list[int] = []
        self.active: Counter[str] = Counter()

    def wrap(self, name: str, fn, count=None):
        spans, stack, active = self.spans, self._stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            outermost = active[name] == 0
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                spans[sid] = (name, start, end, parent, outermost)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (own time minus children) and incl_s
        (wall time of the outermost calls, so recursion is not counted twice)."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: defaultdict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for sid, (name, start, end, _, outermost) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time[sid]
            if outermost:
                agg["incl_s"] += end - start
        return dict(out)

    def root_time(self, root: str) -> float:
        return sum(end - start for name, start, end, parent, _ in filter(None, self.spans)
                   if name == root and parent < 0)

    def write_spans(self, path, t0: float) -> None:
        """One row per span: id, parent id (-1 for a root), name, start and end
        in seconds from ``t0``."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, _ = span
                    writer.writerow([sid, parent, name, f"{start - t0:.9f}", f"{end - t0:.9f}"])


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_sample_batch(tr, args, kwargs, result):
    tr.counters["geometry.sample_batch.points"] += int(result[0].sum())


def _sampling_key(tr, cfg, draws, seed):
    tr.counters["jsp.sampling_passes"] += 1
    tr.geometries.add((cfg.density, cfg.radius, draws, seed))


def _count_monte_carlo(tr, args, kwargs, result):
    trials = _arg(args, kwargs, 1, "trials", 100_000)
    tr.counters["jsp.jsp_monte_carlo.trials"] += trials
    _sampling_key(tr, args[0] if args else kwargs["cfg"], trials, _arg(args, kwargs, 2, "seed", 0))


def _count_select_regime(tr, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    if cfg.harvester.kind != "linear":  # linear circuits return before drawing probes
        _sampling_key(tr, cfg, ("probe", _arg(args, kwargs, 2, "probes", 4096)),
                      _arg(args, kwargs, 1, "seed", 0))


def _count_bound(tr, args, kwargs, result):
    tr.counters["jsp.bound_nonconverged"] += not result.converged
    err = result.quadrature_error or 0.0
    tr.counters["jsp.bound_quad_err_max"] = max(tr.counters["jsp.bound_quad_err_max"], err)
    if tr.active["optimizer.optimize_xi"]:
        tr.counters["optimizer.bound_calls"] += 1


def _count_gamma_rows(tr, args, kwargs, result):
    p, _ = result
    tr.counters["quadrature.regularized_gamma_rows.cells"] += p.size


def _count_integrate(tr, args, kwargs, result):
    tr.counters["quadrature.integrate_adaptive.panels"] += result.subdivisions
    tr.counters["quadrature.integrate_adaptive.nonconverged"] += not result.converged


def _count_optimize(tr, args, kwargs, result):
    tr.counters["optimizer.optimize_xi.evaluations"] += result.evaluations


def _count_queue(tr, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    tr.counters["aoi.simulate_queue.slots"] += params.n_slots


def _count_run(tr, args, kwargs, result):
    tr.counters["experiments.bytes_written"] += sum(p.stat().st_size for p in result)


COUNTERS = {
    "geometry.sample_batch": _count_sample_batch,
    "jsp.jsp_monte_carlo": _count_monte_carlo,
    "jsp.select_regime": _count_select_regime,
    "jsp.jsp_lower_bound": _count_bound,
    "jsp.jsp_upper_bound": _count_bound,
    "quadrature.regularized_gamma_rows": _count_gamma_rows,
    "quadrature.integrate_adaptive": _count_integrate,
    "optimizer.optimize_xi": _count_optimize,
    "aoi.simulate_queue": _count_queue,
    "experiments.run_experiment": _count_run,
}


def public_functions(module) -> list[str]:
    return [attr for attr in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, attr, None))
            and getattr(module, attr).__module__ == module.__name__]


def install(tracer: Tracer):
    """Wrap the layers' public functions everywhere in the loaded package.

    Returns a callable that restores the original bindings.
    """
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr in public_functions(module):
            fn = getattr(module, attr)
            name = f"{layer}.{attr}"
            wrapped[id(fn)] = tracer.wrap(name, fn, COUNTERS.get(name))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and getattr(wrapped[id(value)], "__wrapped__", None) is value:
                setattr(module, attr, wrapped[id(value)])
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore
