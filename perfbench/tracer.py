"""Spans around calls into crashmle's modules, recorded from outside.

The tracer never edits the package.  It rebinds module attributes: every
``crashmle`` module that holds a reference to a traced function (its own
module, or one that imported it with ``from .x import f``) gets a
wrapper, so calls made through any of those names open a span.
Objective factories (``make_objective`` and friends) are wrapped so the
closure they return is traced too; those closures are where the
likelihood arithmetic happens.

Spans are kept in memory as tuples ``(name, start, end, parent, iteration)``
and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
import time
import warnings

# (module, attribute) pairs wrapped as plain spans.  Names are the
# layer metric prefixes: "<module>.<function>".
FUNCTIONS = {
    "optimize": ("maximize", "covariance", "hessian_fd"),
    "negbin": ("fit_nb", "fit_mixed_nb", "marginal_effects", "nb_scores",
               "mixed_nb_scores"),
    "mnl": ("fit_mnl", "elasticities", "pseudo_elasticities", "mnl_scores"),
    "mixed": ("fit_mixed_mnl", "mixed_effects", "mixed_scores"),
    "simulate": ("generate", "coefficient_matrix", "draw_counts",
                 "draw_severity_outcomes"),
    "dataset": ("load_csv", "build_design", "split_by_flag", "load_spec"),
    "lrtest": ("lr_test", "mc_null_distribution"),
    "influence": ("search_influence",),
    "serialize": ("write_json",),
    "cli": ("cmd_simulate", "cmd_fit", "cmd_effects", "cmd_lrtest",
            "cmd_influence"),
}

# Objective factories: the returned closure is traced under this name.
OBJECTIVES = {
    ("negbin", "make_objective"): "negbin.objective",
    ("negbin", "make_mixed_objective"): "negbin.mixed_objective",
    ("mnl", "make_objective"): "mnl.objective",
    ("mixed", "make_objective"): "mixed.objective",
}

# Methods, traced on the class (one binding serves every importer).
METHODS = {
    ("dataset", "ObservationTable", "to_csv"): "dataset.to_csv",
    ("mixed", "DrawMatrix", "for_design"): "mixed.draws",
}


class Tracer:
    """Span recorder for one process; install once, before the workload."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.iteration: int | None = None
        # Per-span-name extra counters: elements computed, bytes, ...
        self.extra: dict[str, float] = {}
        self.warnings_count = 0

    # -- recording -------------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled when the call ends
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.iteration)

    def wrap(self, name, fn, after=None):
        """``fn`` traced as span ``name``; ``after(result, args)`` may add counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def add(self, key: str, value: float):
        if self.iteration is not None:
            self.extra[key] = self.extra.get(key, 0.0) + value

    # -- installation ----------------------------------------------------
    def install(self, package):
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]

        def rebind(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

        after = {
            "dataset.load_csv": lambda r, a, k: self.add(
                "dataset.load_csv_bytes", os.path.getsize(a[0] if a else k["path"])),
            "lrtest.mc_null_distribution": lambda r, a, k: self.add(
                "lrtest.replicates_dropped", r.replicates_dropped),
        }
        for modname, names in FUNCTIONS.items():
            mod = sys.modules[f"{package.__name__}.{modname}"]
            for fname in names:
                name = f"{modname}.{fname}"
                original = getattr(mod, fname)
                rebind(original, self.wrap(name, original, after.get(name)))

        for (modname, fname), span_name in OBJECTIVES.items():
            mod = sys.modules[f"{package.__name__}.{modname}"]
            original = getattr(mod, fname)
            rebind(original, self._wrap_factory(span_name, original))

        draws_bytes = lambda r, a, k: self.add(
            "mixed.draws_bytes", sum(arr.nbytes for arr in r.std))
        for (modname, cls_name, meth), span_name in METHODS.items():
            cls = getattr(sys.modules[f"{package.__name__}.{modname}"], cls_name)
            raw = cls.__dict__[meth]
            hook = draws_bytes if span_name == "mixed.draws" else None
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(span_name, raw.__func__, hook)))
            else:
                setattr(cls, meth, self.wrap(span_name, raw, hook))

    def _wrap_factory(self, span_name, factory):
        tracer = self

        @functools.wraps(factory)
        def traced_factory(design, *args, **kwargs):
            objective = factory(design, *args, **kwargs)
            draws = kwargs.get("draws", args[0] if args else None)
            elements = design.n_obs * max(design.n_outcomes, 1)
            if hasattr(draws, "n_draws"):
                elements *= draws.n_draws

            def traced_objective(theta):
                tracer.add(span_name + ".elements", elements)
                return tracer._call(span_name, objective, (theta,), {})
            return traced_objective
        return traced_factory

    # -- warnings ----------------------------------------------------------
    @contextlib.contextmanager
    def count_warnings(self):
        """Count every RuntimeWarning raised inside the block."""
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always", RuntimeWarning)
            yield
        self.warnings_count += sum(issubclass(w.category, RuntimeWarning) for w in log)

    # -- output ------------------------------------------------------------
    def write(self, path):
        """Write every span as one CSV line: name,start,end,parent,iteration."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,iteration\n")
            for sid, (name, start, end, parent, it) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},"
                         f"{'' if it is None else it}\n")


def layer_metrics(tracer: Tracer, n_iter: int) -> dict[str, float]:
    """Per-iteration layer metrics from the spans of timed iterations."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, it in spans:
        if parent >= 0:
            child_time[parent] += end - start

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_module: dict[str, float] = {}
    evals_in = {"optimize.maximize": 0, "optimize.hessian_fd": 0}
    grid_points = grid_evals = 0
    redraw = 0.0
    for sid, (name, start, end, parent, it) in enumerate(spans):
        if it is None:
            continue
        dur = end - start
        own = dur - child_time[sid]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        module = name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + own
        if name.endswith("objective") and parent >= 0:
            pname = spans[parent][0]
            if pname in evals_in:
                evals_in[pname] += 1
                grand = spans[parent][3]
                if grand >= 0 and spans[grand][0] == "influence.search_influence":
                    grid_evals += 1
        if name == "optimize.maximize" and parent >= 0 \
                and spans[parent][0] == "influence.search_influence":
            grid_points += 1
        if name in ("simulate.coefficient_matrix", "simulate.draw_counts",
                    "simulate.draw_severity_outcomes"):
            p = parent
            while p >= 0 and spans[p][0] != "simulate.generate":
                p = spans[p][3]
            if p < 0:
                redraw += dur

    n = float(max(n_iter, 1))
    t = lambda key: total.get(key, 0.0)
    c = lambda key: calls.get(key, 0)
    per_call = lambda key, scale: t(key) / c(key) * scale if c(key) else 0.0
    per_elem = lambda key: (t(key) / tracer.extra[key + ".elements"] * 1e9
                            if tracer.extra.get(key + ".elements") else 0.0)
    n_fit = c("optimize.maximize")
    csv_bytes = tracer.extra.get("dataset.load_csv_bytes", 0.0)

    m = {
        "optimize.maximize.calls": n_fit / n,
        "optimize.evals": evals_in["optimize.maximize"] / n,
        "optimize.evals_per_fit": evals_in["optimize.maximize"] / n_fit if n_fit else 0.0,
        "optimize.maximize_s": t("optimize.maximize") / n,
        "optimize.maximize.self_s": self_by_name.get("optimize.maximize", 0.0) / n,
        "optimize.covariance_s": t("optimize.covariance") / n,
        "optimize.hessian_evals": evals_in["optimize.hessian_fd"] / n,
        "negbin.objective.calls": c("negbin.objective") / n,
        "negbin.objective.us_per_call": per_call("negbin.objective", 1e6),
        "negbin.objective_s": t("negbin.objective") / n,
        "negbin.mixed_objective.calls": c("negbin.mixed_objective") / n,
        "negbin.mixed_objective.ms_per_call": per_call("negbin.mixed_objective", 1e3),
        "negbin.mixed_objective_s": t("negbin.mixed_objective") / n,
        "negbin.effects_s": t("negbin.marginal_effects") / n,
        "mnl.objective.calls": c("mnl.objective") / n,
        "mnl.objective.ms_per_call": per_call("mnl.objective", 1e3),
        "mnl.objective.ns_per_element": per_elem("mnl.objective"),
        "mnl.objective_s": t("mnl.objective") / n,
        "mnl.effects_s": (t("mnl.elasticities") + t("mnl.pseudo_elasticities")) / n,
        "mixed.objective.calls": c("mixed.objective") / n,
        "mixed.objective.ms_per_call": per_call("mixed.objective", 1e3),
        "mixed.objective.ns_per_element": per_elem("mixed.objective"),
        "mixed.objective_s": t("mixed.objective") / n,
        "mixed.draws_s": t("mixed.draws") / n,
        "mixed.draws_bytes": tracer.extra.get("mixed.draws_bytes", 0.0) / n,
        "mixed.effects_s": t("mixed.mixed_effects") / n,
        "simulate.redraw_s": redraw / n,
        "simulate.generate_s": t("simulate.generate") / n,
        "dataset.load_csv_s": t("dataset.load_csv") / n,
        "dataset.load_csv_mb_per_s": (csv_bytes / 1e6 / t("dataset.load_csv")
                                      if t("dataset.load_csv") else 0.0),
        "dataset.to_csv_s": t("dataset.to_csv") / n,
        "dataset.build_design_s": t("dataset.build_design") / n,
        "lrtest.replicates_dropped": tracer.extra.get("lrtest.replicates_dropped", 0.0) / n,
        "influence.point_s": (t("influence.search_influence") / grid_points
                              if grid_points else 0.0),
        "influence.evals_per_point": grid_evals / grid_points if grid_points else 0.0,
        "serialize.write_json_s": t("serialize.write_json") / n,
        "warnings.count": tracer.warnings_count / n,
        "trace.spans": sum(calls.values()) / n,
    }
    for sub in ("simulate", "fit", "effects", "lrtest", "influence"):
        m[f"cli.{sub}_s"] = t(f"cli.cmd_{sub}") / n
    for module in ("optimize", "negbin", "mnl", "mixed", "simulate", "dataset",
                   "lrtest", "influence", "serialize", "cli"):
        m[f"{module}.self_s"] = self_by_module.get(module, 0.0) / n
    return m
