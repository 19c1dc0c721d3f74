"""Spans around irlv's public functions, installed from outside the package.

`installed(tracer)` wraps every public function that an irlv module
defines, plus the few methods in `METHODS`, and puts the wrapper at every
module attribute that refers to the original, so names that one module
imports from another are traced too.  The program's source is untouched;
leaving the context restores every attribute and checks that it did.

Spans are aggregated per name as they close (calls, inclusive time, time
covered by directly nested spans), so a span's self time is its total
minus its children's.  `layer_metrics` turns the aggregates into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import pkgutil
import time
from collections import Counter

# methods traced besides module-level functions: (module, class, method)
METHODS = (
    ("scenario", "StreetScenario", "sample_region"),
    ("scenario", "CircularScenario", "sample_region"),
)

# grids up to this node count take the dense Cholesky route in irlv.channel
DENSE_NODE_LIMIT = 2500


class Tracer:
    """Per-name span totals plus the counters the hooks below record."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.child = Counter()
        self.counts = Counter()
        self.field_keys = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, name, fn, hook=None, prepare=None):
        """fn inside a span; hook(tracer, args, result, seconds) records
        counters after the call, prepare(tracer, args) may replace args."""
        signature = inspect.signature(fn) if hook or prepare else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if prepare is not None:
                    prepare(self, bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[0]
            if hook is not None:
                hook(self, bound.arguments, result, elapsed)
            return result

        return wrapper

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def as_dict(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time(name)}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "field_calls": sum(self.field_keys.values()),
            "field_distinct": len(self.field_keys),
        }


def _train(tracer, a, result, elapsed):
    cfg = a["config"]
    n = len(a["train_set"].features)
    tracer.counts["mlp.train.epochs"] += cfg.epochs
    tracer.counts["mlp.train.batches"] += cfg.epochs * math.ceil(n / cfg.batch_size)


def _forward(tracer, a, result, elapsed):
    x = a["a"]
    tracer.counts["mlp.forward.rows"] += len(x) if getattr(x, "ndim", 0) == 2 else 1


def _field(tracer, a, result, elapsed):
    if result.sigma_s_db == 0.0:
        return
    route = "dense" if result.values.size <= DENSE_NODE_LIMIT else "fft"
    tracer.counts[f"channel.field_{route}.calls"] += 1
    tracer.counts[f"channel.field_{route}.s"] += elapsed
    tracer.field_keys[(tuple(a["scenario"].bounds), a["params"], int(a["seed"]))] += 1


def _counter(key, arg, measure=len):
    def hook(tracer, a, result, elapsed):
        tracer.counts[key] += measure(a[arg])
    return hook


def _run_pso(tracer, a, result, elapsed):
    tracer.counts["planner.run_pso.iterations"] += result.n_iterations


def _pso_objective(tracer, a):
    a["objective_fn"] = tracer.wrap("planner.objective", a["objective_fn"])


HOOKS = {
    "mlp.train": (_train, None),
    "mlp.forward": (_forward, None),
    "channel.generate_shadowing_field": (_field, None),
    "channel.attenuation_matrix": (_counter("channel.attenuation_matrix.rows", "xy"), None),
    "scenario.sample_region": (_counter("scenario.sample_region.rows", "size", int), None),
    "dataset.generate_dataset": (_counter("dataset.generate_dataset.rows", "s_total", int), None),
    "evaluation.empirical_roc": (_counter("evaluation.empirical_roc.rows", "scores"), None),
    "neyman_pearson.llr": (_counter("neyman_pearson.llr.rows", "a_db", lambda v: getattr(v, "size", 1)), None),
    "planner.run_pso": (_run_pso, _pso_objective),
}


def _irlv_modules():
    import irlv
    return [importlib.import_module(f"irlv.{m.name}") for m in pkgutil.iter_modules(irlv.__path__)]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every public irlv function while the context is open.

    Yields the list of (owner, attribute, original) that were replaced.
    """
    modules = _irlv_modules()
    wrappers = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                span = f"{mod.__name__.removeprefix('irlv.')}.{name}"
                wrappers[obj] = tracer.wrap(span, obj, *HOOKS.get(span, (None, None)))
    patched = []
    try:
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for mod_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"irlv.{mod_name}"), cls_name)
            original = cls.__dict__[method]
            span = f"{mod_name}.{method}"
            patched.append((cls, method, original))
            setattr(cls, method, tracer.wrap(span, original, *HOOKS.get(span, (None, None))))
        yield patched
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        left = [f"{owner.__name__}.{name}" for owner, name, original in patched
                if vars(owner)[name] is not original]
        if left:
            raise RuntimeError(f"wrappers left in place: {left}")


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    Times marked self in the README are span totals minus nested spans;
    the other times are inclusive.  Ratios whose base is zero on a
    workload (no field calls, no swarm) read 0.
    """
    spans, counts = trace["spans"], trace["counts"]

    def span(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    batches = counts.get("mlp.train.batches", 0)
    objective_calls = calls("planner.objective")
    coverage = sum(s["self_s"] for s in spans.values()) / traced_wall_s
    return {
        "mlp.train.s": (span("mlp.train", "self_s"), "s"),
        "mlp.backward.s": (span("mlp.backward"), "s"),
        "mlp.train.us_per_batch": (1e6 * span("mlp.train") / batches if batches else 0.0, "us"),
        "mlp.train.calls": (calls("mlp.train"), "count"),
        "mlp.train.epochs": (counts.get("mlp.train.epochs", 0), "count"),
        "mlp.train.batches": (batches, "count"),
        "mlp.forward.s": (span("mlp.forward"), "s"),
        "mlp.forward.rows": (counts.get("mlp.forward.rows", 0), "count"),
        "channel.field_fft.s": (counts.get("channel.field_fft.s", 0.0), "s"),
        "channel.field_fft.calls": (counts.get("channel.field_fft.calls", 0), "count"),
        "channel.field_dense.s": (counts.get("channel.field_dense.s", 0.0), "s"),
        "channel.field_dense.calls": (counts.get("channel.field_dense.calls", 0), "count"),
        "channel.field.repeat_ratio": (
            trace["field_calls"] / trace["field_distinct"] if trace["field_distinct"] else 0.0,
            "ratio"),
        "channel.attenuation_matrix.s": (span("channel.attenuation_matrix"), "s"),
        "channel.attenuation_matrix.rows": (counts.get("channel.attenuation_matrix.rows", 0), "count"),
        "channel.save_field.s": (span("channel.save_field"), "s"),
        "scenario.sample_region.s": (span("scenario.sample_region"), "s"),
        "scenario.sample_region.rows": (counts.get("scenario.sample_region.rows", 0), "count"),
        "dataset.generate_dataset.s": (span("dataset.generate_dataset", "self_s"), "s"),
        "dataset.generate_dataset.rows": (counts.get("dataset.generate_dataset.rows", 0), "count"),
        "dataset.normalize.s": (span("dataset.normalize"), "s"),
        "evaluation.empirical_roc.s": (span("evaluation.empirical_roc"), "s"),
        "evaluation.empirical_roc.rows": (counts.get("evaluation.empirical_roc.rows", 0), "count"),
        "evaluation.average_roc.s": (span("evaluation.average_roc"), "s"),
        "evaluation.roc_to_csv.s": (span("evaluation.roc_to_csv"), "s"),
        "neyman_pearson.np_roc.s": (span("neyman_pearson.np_roc", "self_s"), "s"),
        "neyman_pearson.llr.s": (span("neyman_pearson.llr"), "s"),
        "neyman_pearson.llr.rows": (counts.get("neyman_pearson.llr.rows", 0), "count"),
        "planner.run_pso.s": (span("planner.run_pso", "self_s"), "s"),
        "planner.run_pso.iterations": (counts.get("planner.run_pso.iterations", 0), "count"),
        "planner.objective.calls": (objective_calls, "count"),
        "planner.evaluate_placement.s": (span("planner.evaluate_placement", "self_s"), "s"),
        "planner.evaluate_placement.calls": (calls("planner.evaluate_placement"), "count"),
        "planner.cache.hit_ratio": (
            1.0 - calls("planner.evaluate_placement") / objective_calls if objective_calls else 0.0,
            "ratio"),
        "config.load_config.s": (span("config.load_config"), "s"),
        "cli.self.s": (sum(s["self_s"] for n, s in spans.items() if n.startswith("cli.cmd_")), "s"),
        "trace.coverage_ratio": (coverage, "ratio"),
        "trace.overhead_ratio": (traced_wall_s / untraced_wall_s, "ratio"),
    }
