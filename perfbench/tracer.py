"""Spans recorded from outside the program.

The traced run replaces each layer's public functions, at the module
attribute its caller resolves (``eskin.pipeline.svm_fit``,
``eskin.evalkit.train_single``, ``eskin.cli.cross_validate`` ...), with a
wrapper that records a span around the call, then puts the originals back.
Nothing under ``src/`` is changed. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

from stats import self_time


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    parent: int | None
    root: int               # id of the top-level span: one id per request
    name: str
    start: float
    end: float = 0.0
    rss_growth_kb: int = 0  # rise of the process's peak RSS during the span
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        sp = Span(
            id=sid,
            parent=parent.id if parent else None,
            root=parent.root if parent else sid,
            name=name,
            start=self.clock(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        rss0 = maxrss_kb()
        try:
            yield sp
        finally:
            sp.rss_growth_kb = maxrss_kb() - rss0
            sp.end = self.clock()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(sp.__dict__, default=str) + "\n")


def _wrap(tracer: Tracer, fn, name, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with tracer.span(span_name) as sp:
            result = fn(*args, **kwargs)
        # counted after the span closes, so counting is not billed to the layer
        if count is not None:
            sp.counters.update(count(args, kwargs, result))
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, targets=None):
    """Wrap every target while the block runs; yields the targets not found."""
    saved, missing = [], []
    for module_name, attr, name, count in targets or TARGETS:
        mod = importlib.import_module(module_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        saved.append((mod, attr, fn))
        setattr(mod, attr, _wrap(tracer, fn, name, count))
    if missing:
        print(f"perfbench: not traced, missing: {', '.join(missing)}", file=sys.stderr)
    try:
        yield missing
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Counters read from the public objects the calls take and return


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def tree_shape(tree) -> tuple[int, int]:
    """(node count, depth) of one tree: nested dicts, or the parallel-array
    layout with child index arrays ``left``/``right`` (negative = leaf)."""
    if isinstance(tree, Mapping) and not (
        "left" in tree and not isinstance(tree["left"], Mapping)
    ):
        nodes = depth = 0
        stack = [(tree, 0)]
        while stack:
            node, d = stack.pop()
            nodes += 1
            depth = max(depth, d)
            if "left" in node:
                stack.append((node["left"], d + 1))
                stack.append((node["right"], d + 1))
        return nodes, depth
    get = tree.__getitem__ if isinstance(tree, Mapping) else tree.__getattribute__
    left, right = list(get("left")), list(get("right"))
    depth, level = 0, [0]
    while level:
        nxt = [c for i in level for c in (left[i], right[i]) if c >= 0]
        if nxt:
            depth += 1
        level = nxt
    return len(left), depth


def _forest_counts(args, kwargs, model):
    shapes = [tree_shape(t) for t in model.trees]
    return {
        "nodes": sum(n for n, _ in shapes),
        "max_depth": max((d for _, d in shapes), default=0),
    }


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}"


TARGETS = [
    # (module, attribute the caller resolves, span name, counter)
    ("eskin.sim", "generate_single_force_dataset", "sim.generate",
     lambda a, k, r: {"rows": len(r)}),
    ("eskin.sim", "generate_two_force_dataset", "sim.generate",
     lambda a, k, r: {"rows": len(r)}),
    ("eskin.cli", "generate_single_force_dataset", "sim.generate",
     lambda a, k, r: {"rows": len(r)}),
    ("eskin.cli", "generate_two_force_dataset", "sim.generate",
     lambda a, k, r: {"rows": len(r)}),
    ("eskin.cli", "save_dataset", "core.csv_write",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "csv_path"))}),
    ("eskin.cli", "load_dataset", "core.csv_read",
     lambda a, k, r: {"rows": len(r)}),
    ("eskin.pipeline", "svm_fit", "svm.fit",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "x")),
                      "support_vectors": int(r.dual_coefs.size)}),
    ("eskin.pipeline", "svm_predict", "svm.predict", None),
    ("eskin.pipeline", "forest_fit", "forest.fit", _forest_counts),
    ("eskin.pipeline", "forest_predict", "forest.predict", None),
    ("eskin.pipeline", "gp_fit", "gp.fit",
     lambda a, k, r: {"rows_offered": len(_arg(a, k, 0, "x")),
                      "rows_used": int(r.train_inputs.shape[0])}),
    ("eskin.pipeline", "gp_predict", "gp.predict", None),
    ("eskin.pipeline", "ols_fit", "linear.fit", None),
    ("eskin.pipeline", "ols_predict", "linear.predict", None),
    ("eskin.cli", "train_single", "pipeline.train", None),
    ("eskin.cli", "train_two", "pipeline.train", None),
    ("eskin.evalkit", "train_single", "pipeline.train", None),
    ("eskin.evalkit", "train_two", "pipeline.train", None),
    ("eskin.pipeline", "train_single", "pipeline.train", None),
    ("eskin.pipeline", "train_two", "pipeline.train", None),
    ("eskin.cli", "predict_single_batch", "pipeline.predict", None),
    ("eskin.cli", "predict_two_batch", "pipeline.predict", None),
    ("eskin.evalkit", "predict_single_batch", "pipeline.predict", None),
    ("eskin.evalkit", "predict_two_batch", "pipeline.predict", None),
    ("eskin.pipeline", "predict_single_batch", "pipeline.predict", None),
    ("eskin.pipeline", "predict_two_batch", "pipeline.predict", None),
    ("eskin.pipeline", "infer_single", "pipeline.infer", None),
    ("eskin.pipeline", "infer_two", "pipeline.infer", None),
    ("eskin.cli", "save_pipeline", "pipeline.save",
     lambda a, k, r: {"path": str(_arg(a, k, 1, "path"))}),
    ("eskin.pipeline", "save_pipeline", "pipeline.save",
     lambda a, k, r: {"path": str(_arg(a, k, 1, "path"))}),
    ("eskin.cli", "load_pipeline", "pipeline.load", None),
    ("eskin.pipeline", "load_pipeline", "pipeline.load", None),
    ("eskin.cli", "cross_validate", "evalkit.cv",
     lambda a, k, r: {"folds": int(r.k)}),
    ("eskin.cli", "cross_validate_two", "evalkit.cv",
     lambda a, k, r: {"folds": int(r.k)}),
    ("eskin.cli", "write_report_files", "evalkit.report_write", None),
    ("eskin.cli", "main", _cli_name, None),
]


def bundle_gp_bytes(path) -> int:
    """Bytes of the serialised force model(s) in a JSON bundle, each dumped
    on its own the way the bundle is written (sorted keys, indent 1)."""
    with open(path) as f:
        bundle = json.load(f)
    total = 0
    stack = [bundle]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            for key, val in node.items():
                if key.startswith("force") and key.endswith("_model"):
                    total += len(json.dumps(val, sort_keys=True, indent=1))
                else:
                    stack.append(val)
    return total


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric, unit, better); the order is the order they are printed in
PER_LAYER = [
    ("sim.generate_s", "s", "lower"),
    ("sim.rows", "count", "higher"),
    ("core.csv_write_s", "s", "lower"),
    ("core.csv_read_s", "s", "lower"),
    ("core.csv_bytes", "bytes", "lower"),
    ("svm.fit_s", "s", "lower"),
    ("svm.fit_calls", "count", "lower"),
    ("svm.train_rows", "count", "higher"),
    ("svm.support_vectors", "count", "lower"),
    ("svm.fit_rss_growth_mb", "MB", "lower"),
    ("svm.predict_s", "s", "lower"),
    ("forest.fit_s", "s", "lower"),
    ("forest.fit_calls", "count", "lower"),
    ("forest.nodes", "count", "lower"),
    ("forest.max_depth", "count", "lower"),
    ("forest.predict_s", "s", "lower"),
    ("gp.fit_s", "s", "lower"),
    ("gp.rows_used", "count", "higher"),
    ("gp.rows_offered", "count", "higher"),
    ("gp.rows_used_ratio", "ratio", "higher"),
    ("gp.predict_s", "s", "lower"),
    ("gp.predict_calls", "count", "lower"),
    ("linear.fit_s", "s", "lower"),
    ("linear.predict_s", "s", "lower"),
    ("pipeline.train_s", "s", "lower"),
    ("pipeline.train_self_s", "s", "lower"),
    ("pipeline.predict_s", "s", "lower"),
    ("pipeline.infer_s", "s", "lower"),
    ("pipeline.infer_self_s", "s", "lower"),
    ("pipeline.save_s", "s", "lower"),
    ("pipeline.load_s", "s", "lower"),
    ("pipeline.bundle_bytes", "bytes", "lower"),
    ("pipeline.bundle_gp_bytes", "bytes", "lower"),
    ("pipeline.bundle_gp_share", "ratio", "lower"),
    ("evalkit.cv_s", "s", "lower"),
    ("evalkit.cv_self_s", "s", "lower"),
    ("evalkit.folds", "count", "higher"),
    ("evalkit.report_write_s", "s", "lower"),
    ("cli.generate_s", "s", "lower"),
    ("cli.generate_self_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.train_self_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.eval_self_s", "s", "lower"),
    ("trace.chain_s", "s", "lower"),
    ("trace.untraced_chain_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Sum each span name's time, self time and counters into the
    per-layer metrics (the ``trace.*`` ones are added by the caller).

    Bundle bytes are those of the largest bundle saved; its files must
    still exist."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    rss_growth = defaultdict(int)
    max_depth = 0
    bundle_bytes, bundle_path = 0, None
    for sp in spans:
        total[sp.name] += sp.end - sp.start
        self_total[sp.name] += self_time(sp.start, sp.end, children[sp.id])
        calls[sp.name] += 1
        rss_growth[sp.name] = max(rss_growth[sp.name], sp.rss_growth_kb)
        for key, val in sp.counters.items():
            if key == "max_depth":
                max_depth = max(max_depth, val)
            elif key == "path":
                size = os.path.getsize(val)
                if size > bundle_bytes:
                    bundle_bytes, bundle_path = size, val
            else:
                counts[f"{sp.name}.{key}"] += val
    offered = counts["gp.fit.rows_offered"]
    gp_bytes = bundle_gp_bytes(bundle_path) if bundle_path else 0
    m = {
        "sim.generate_s": total["sim.generate"],
        "sim.rows": counts["sim.generate.rows"],
        "core.csv_write_s": total["core.csv_write"],
        "core.csv_read_s": total["core.csv_read"],
        "core.csv_bytes": counts["core.csv_write.bytes"],
        "svm.fit_s": total["svm.fit"],
        "svm.fit_calls": calls["svm.fit"],
        "svm.train_rows": counts["svm.fit.rows"],
        "svm.support_vectors": counts["svm.fit.support_vectors"],
        "svm.fit_rss_growth_mb": rss_growth["svm.fit"] / 1024.0,
        "svm.predict_s": total["svm.predict"],
        "forest.fit_s": total["forest.fit"],
        "forest.fit_calls": calls["forest.fit"],
        "forest.nodes": counts["forest.fit.nodes"],
        "forest.max_depth": max_depth,
        "forest.predict_s": total["forest.predict"],
        "gp.fit_s": total["gp.fit"],
        "gp.rows_used": counts["gp.fit.rows_used"],
        "gp.rows_offered": offered,
        "gp.rows_used_ratio": counts["gp.fit.rows_used"] / offered if offered else 0.0,
        "gp.predict_s": total["gp.predict"],
        "gp.predict_calls": calls["gp.predict"],
        "linear.fit_s": total["linear.fit"],
        "linear.predict_s": total["linear.predict"],
        "pipeline.train_s": total["pipeline.train"],
        "pipeline.train_self_s": self_total["pipeline.train"],
        "pipeline.predict_s": total["pipeline.predict"],
        "pipeline.infer_s": total["pipeline.infer"],
        "pipeline.infer_self_s": self_total["pipeline.infer"],
        "pipeline.save_s": total["pipeline.save"],
        "pipeline.load_s": total["pipeline.load"],
        "pipeline.bundle_bytes": bundle_bytes,
        "pipeline.bundle_gp_bytes": gp_bytes,
        "pipeline.bundle_gp_share": gp_bytes / bundle_bytes if bundle_bytes else 0.0,
        "evalkit.cv_s": total["evalkit.cv"],
        "evalkit.cv_self_s": self_total["evalkit.cv"],
        "evalkit.folds": counts["evalkit.cv.folds"],
        "evalkit.report_write_s": total["evalkit.report_write"],
    }
    for cmd in ("generate", "train", "eval"):
        m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
        m[f"cli.{cmd}_self_s"] = self_total[f"cli.{cmd}"]
    return m
