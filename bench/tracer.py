"""Outside-in tracing of dpboost's layers for the benchmark's traced run.

The tracer replaces each layer's public functions (and a few named
methods) with timing wrappers, everywhere the function object is bound:
its defining module, the package namespace and every module-level alias
such as ``dpboost.tree.bayes_risk``.  Nothing inside the program changes.

Each wrapped call appends one span (name, start, end, parent span) to
in-memory arrays; self times and call counts are computed from the spans
when the run ends.  Two hot methods, ``BudgetAccountant.spend`` and
``RandomSource.next_uint64``, are counted without spans; their time falls
to the enclosing span.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("losses", "privacy", "dataset", "tree", "ensemble", "harness")

# Methods traced in addition to each layer's public functions, named
# ``<layer>.<method>``.
SPAN_METHODS = {
    "dataset": (("Dataset", "subset"),),
    "tree": (("DecisionTree", "predict_bins"),),
}
COUNTED_METHODS = {
    "privacy.ledger.entries": ("privacy", "BudgetAccountant", "spend"),
    "privacy.random.draws": ("privacy", "RandomSource", "next_uint64"),
}

# Functions whose spans are reported together; a call nested inside another
# member of its group is not counted again.
GROUPS = {
    "losses.links": ("losses.canonical_link", "losses.inverse_link", "losses.surrogate"),
    "privacy.exponential_mechanism": (
        "privacy.exponential_mechanism",
        "privacy.exponential_mechanism_probabilities",
    ),
    "privacy.laplace": (
        "privacy.laplace_mechanism",
        "privacy.laplace_sample",
        "privacy.laplace_from_uniform",
    ),
}


# Spans whose call counts and self times are reported per traced pass.
COUNTED_CALLS = (
    "losses.bayes_risk",
    "privacy.exponential_mechanism",
    "privacy.laplace",
    "dataset.load_csv",
    "dataset.stratified_kfold",
    "tree.induce_tree",
    "tree.predict_bins",
    "ensemble.rf_fit",
    "ensemble.empirical_risk",
)
TIMED_SELF = (
    "losses.bayes_risk",
    "losses.links",
    "privacy.exponential_mechanism",
    "privacy.laplace",
    "dataset.load_csv",
    "dataset.stratified_kfold",
    "dataset.subset",
    "tree.induce_tree",
    "tree.noisify_leaves",
    "tree.predict_bins",
    "ensemble.boost_fit",
    "ensemble.update_weights",
    "ensemble.rf_fit",
    "ensemble.empirical_risk",
    "ensemble.predict",
    "harness.run_experiment",
    "harness.compare",
)


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


@dataclass
class Tracer:
    """Installs wrappers on the imported ``dpboost`` modules and records spans."""

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    names: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("i"))
    name_ids: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    predict_rows: int = 0
    splits: int = 0
    fold_keys: set = field(default_factory=set)
    wrapped: set = field(default_factory=set)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "dpboost" or name.startswith("dpboost."))
        }
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"dpboost.{layer}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = self._span_wrapper(f"{layer}.{attr}", obj)
            for cls_name, meth in SPAN_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None and inspect.isfunction(cls.__dict__.get(meth)):
                    name = f"{layer}.{meth}"
                    self._patch(cls, meth, self._span_wrapper(name, cls.__dict__[meth]))
        for metric, (layer, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(modules.get(f"dpboost.{layer}"), cls_name, None)
            if cls is not None and inspect.isfunction(cls.__dict__.get(meth)):
                self._patch(cls, meth, self._count_wrapper(metric, cls.__dict__[meth]))
        # Rebind every alias of a wrapped function, in every dpboost module.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append(_Patch(owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        self.wrapped.add(name)
        stack, starts, ends = self._stack, self.starts, self.ends
        names, parents = self.names, self.parents
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            stack.append(index)
            starts.append(time.perf_counter())
            ends.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts
        counts.setdefault(metric, 0)
        self.wrapped.add(metric)

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- per-call observations -------------------------------------------

    def _observe_tree_induce_tree(self, arguments, tree) -> None:
        self.splits += len(tree.records)

    def _observe_tree_predict_bins(self, arguments, result) -> None:
        self.predict_rows += int(np.shape(result)[0])

    def _observe_dataset_stratified_kfold(self, arguments, result) -> None:
        self.fold_keys.add((arguments["rng"].seed, arguments["k"]))

    # --- reduction --------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict]:
        """Per-name (calls, self seconds), with groups merged as in ``GROUPS``."""
        n = len(self.starts)
        group_of = {member: group for group, members in GROUPS.items() for member in members}
        id_to_name = {i: group_of.get(name, name) for name, i in self.name_ids.items()}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        if n == 0:
            return calls, self_s
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        name = np.frombuffer(self.names, dtype=np.int32)
        parent = np.frombuffer(self.parents, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
        own = duration - child_time
        labels = np.array([id_to_name[i] for i in range(len(id_to_name))], dtype=object)
        span_label = labels[name]
        parent_label = np.where(has_parent, labels[name[np.maximum(parent, 0)]], None)
        counted = span_label != parent_label
        for label in set(span_label):
            mine = span_label == label
            calls[label] = int(np.count_nonzero(mine & counted))
            self_s[label] = float(own[mine].sum())
        return calls, self_s

    def present(self, name: str) -> bool:
        return name in self.wrapped or any(m in self.wrapped for m in GROUPS.get(name, ()))

    def layer_metrics(self, passes: int) -> tuple[dict, list]:
        """Per-layer metrics averaged over ``passes`` traced passes.

        Returns ``{name: (value, unit)}`` and the names of metrics whose
        functions no longer exist in the program; those read 0.
        """
        calls, self_s = self.span_totals()
        values: dict[str, tuple[float, str]] = {}
        absent: list[str] = []

        def put(metric: str, source: str, value: float, unit: str) -> None:
            if not self.present(source):
                absent.append(metric)
            values[metric] = (value / passes, unit)

        for name in COUNTED_CALLS:
            put(f"{name}.calls", name, calls.get(name, 0), "count")
        for name in TIMED_SELF:
            put(f"{name}.self_s", name, self_s.get(name, 0.0), "s")
        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            values[f"{layer}.self_s"] = (total / passes, "s")
        for metric in COUNTED_METHODS:
            put(metric, metric, self.counts.get(metric, 0), "count")
        put("tree.splits", "tree.induce_tree", self.splits, "count")
        put("tree.predict_bins.rows", "tree.predict_bins", self.predict_rows, "rows")
        risk_calls = calls.get("losses.bayes_risk", 0)
        values["losses.bayes_risk.calls_per_split"] = (
            risk_calls / self.splits if self.splits else 0.0, "calls/split"
        )
        folds = calls.get("dataset.stratified_kfold", 0)
        values["dataset.folds_per_seed"] = (
            folds / passes / len(self.fold_keys) if self.fold_keys else 0.0, "calls/key"
        )
        return values, absent

