"""Spans around chainforge's layers, installed from the benchmark's side.

Each hook wraps one function or method where chainforge looks it up: a
module-level function is replaced in every loaded `chainforge` module that
binds it (so `compose` is traced inside `synth`, `module_db` and `modelgen`
alike), a method on its class.  A hook whose target no longer exists is
recorded as absent, and the metrics built on it are reported as absent.

A span is `[name, start_ns, end_ns, parent_index, scene]`.  Spans live in
memory for one scene, are folded into per-name totals (count, total and
self time), and only the first few scenes' spans are kept for the trace
file.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

KEEP_SCENES = 3


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    target: str  # "function" or "Class.method"
    # Called as observe(counters, args, result) after the span has ended.
    observe: Callable | None = None


class Tracer:
    def __init__(self):
        self.scene = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kept: list[list] = []
        self.count: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        # (parent span name, child span name) -> calls
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.failed_observers: set[str] = set()
        self.scenes = 0

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        name = hook.span
        observe = hook.observe
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.scene]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None and name not in self.failed_observers:
                try:
                    observe(self.counters, args, result)
                except Exception:  # a refactored return value: drop the counter only
                    self.failed_observers.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def end_scene(self):
        """Fold the current scene's spans into the totals."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _scene in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                self.edges[spans[parent][0], name] += 1
        for index, (name, start, end, _parent, _scene) in enumerate(spans):
            self.count[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[index]
        if self.scenes < KEEP_SCENES:
            self.kept.extend(list(span) for span in spans)
        self.scenes += 1
        spans.clear()


class Installed:
    """Context manager that installs hooks and restores the originals on exit."""

    def __init__(self, tracer: Tracer, hooks: list[Hook]):
        self.tracer = tracer
        self.hooks = hooks
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        for hook in self.hooks:
            if not self._install(hook):
                self.absent.append(hook.span)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install(self, hook: Hook) -> bool:
        try:
            module = importlib.import_module(hook.module)
        except ImportError:
            return False
        if "." in hook.target:
            cls_name, attr = hook.target.split(".", 1)
            cls = getattr(module, cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if not callable(original):
                return False
            self._patch(cls, attr, original, self.tracer.wrap(hook, original))
            return True
        original = getattr(module, hook.target, None)
        if not callable(original):
            return False
        traced = self.tracer.wrap(hook, original)
        for name, loaded in list(sys.modules.items()):
            if (name == "chainforge" or name.startswith("chainforge.")) and getattr(
                loaded, hook.target, None
            ) is original:
                self._patch(loaded, hook.target, original, traced)
        return True

    def _patch(self, owner, attr: str, original, traced):
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))


def _count_rejected(counters, args, result):
    counters["identify.rejected_markers"] += len(result[1])


def _count_returned(counters, args, result):
    counters["identify.neighbors.returned"] += len(result)


def _count_passed(counters, args, result):
    counters["identify.constraint_check.passed"] += bool(result.satisfied)


def _count_scene_bytes(counters, args, result):
    counters["synth.scene_bytes"] += os.path.getsize(args[0])


def _count_model_bytes(counters, args, result):
    counters["modelgen.model_bytes"] += os.path.getsize(args[1])


HOOKS = [
    Hook("geometry.pose_check", "chainforge.geometry", "Pose.__post_init__"),
    Hook("geometry.compose", "chainforge.geometry", "compose"),
    Hook("module_db.max_connected_distance", "chainforge.module_db",
         "ModuleDatabase.max_connected_distance"),
    Hook("synth.read_scene", "chainforge.synth", "read_scene", _count_scene_bytes),
    Hook("synth.synthesize", "chainforge.synth", "synthesize"),
    Hook("identify.build_chain", "chainforge.identify", "build_chain"),
    Hook("identify.validate_markers", "chainforge.identify", "validate_markers",
         _count_rejected),
    Hook("identify.neighbors", "chainforge.identify", "neighbors", _count_returned),
    Hook("identify.constraint_check", "chainforge.identify", "constraint_check",
         _count_passed),
    Hook("identify.find_parent_geometric", "chainforge.identify", "find_parent_geometric"),
    Hook("identify.find_parent_optimization", "chainforge.identify",
         "find_parent_optimization"),
    Hook("identify.pair_model", "chainforge.identify", "_PairModel.__init__"),
    Hook("identify.residual", "chainforge.identify", "_PairModel.residual"),
    Hook("identify.estimate_joint_angle", "chainforge.identify", "estimate_joint_angle"),
    Hook("descriptor.to_descriptor", "chainforge.identify", "to_descriptor"),
    Hook("descriptor.serialize", "chainforge.descriptor", "serialize"),
    Hook("modelgen.generate_model", "chainforge.modelgen", "generate_model"),
    Hook("modelgen.write_model", "chainforge.modelgen", "write_model", _count_model_bytes),
]


def layer_metrics(t: Tracer, absent: set[str]) -> dict[str, tuple[float | None, str]]:
    """Per-scene layer figures from a traced run; None marks an absent metric.

    Times are self times unless the name says otherwise; `.returned` and
    `.pass_ratio` are per call; everything else is per traced scene.
    """
    scenes = max(t.scenes, 1)

    def calls(span):
        return t.count[span] / scenes

    def self_ms(*spans):
        return sum(t.self_ns[span] for span in spans) / 1e6 / scenes

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    c = t.counters
    # name, unit, spans it needs, spans whose counters it needs, value
    table = [
        ("geometry.pose_checks", "count/scene", ["geometry.pose_check"], [],
         lambda: calls("geometry.pose_check")),
        ("geometry.pose_check_ms", "ms/scene", ["geometry.pose_check"], [],
         lambda: self_ms("geometry.pose_check")),
        ("geometry.compose.calls", "count/scene", ["geometry.compose"], [],
         lambda: calls("geometry.compose")),
        ("module_db.max_connected_distance.calls", "count/scene",
         ["module_db.max_connected_distance"], [],
         lambda: calls("module_db.max_connected_distance")),
        ("module_db.max_connected_distance.ms", "ms/scene",
         ["module_db.max_connected_distance"], [],
         lambda: self_ms("module_db.max_connected_distance")),
        ("synth.read_scene_ms", "ms/scene", ["synth.read_scene"], [],
         lambda: self_ms("synth.read_scene")),
        ("synth.synthesize_ms", "ms/scene", ["synth.synthesize"], [],
         lambda: self_ms("synth.synthesize")),
        ("synth.scene_bytes", "bytes/scene", [], ["synth.read_scene"],
         lambda: c["synth.scene_bytes"] / scenes),
        ("identify.build_chain_ms", "ms/scene", ["identify.build_chain"], [],
         lambda: t.total_ns["identify.build_chain"] / 1e6 / scenes),
        ("identify.validate_markers_ms", "ms/scene", ["identify.validate_markers"], [],
         lambda: self_ms("identify.validate_markers")),
        ("identify.rejected_markers", "count/scene", [], ["identify.validate_markers"],
         lambda: c["identify.rejected_markers"] / scenes),
        ("identify.neighbors.calls", "count/scene", ["identify.neighbors"], [],
         lambda: calls("identify.neighbors")),
        ("identify.neighbors.ms", "ms/scene", ["identify.neighbors"], [],
         lambda: self_ms("identify.neighbors")),
        ("identify.neighbors.returned", "count/call", [], ["identify.neighbors"],
         lambda: per(c["identify.neighbors.returned"], t.count["identify.neighbors"])),
        ("identify.constraint_check.calls", "count/scene", ["identify.constraint_check"], [],
         lambda: calls("identify.constraint_check")),
        ("identify.constraint_check.ms", "ms/scene", ["identify.constraint_check"], [],
         lambda: self_ms("identify.constraint_check")),
        ("identify.constraint_check.pass_ratio", "ratio", [], ["identify.constraint_check"],
         lambda: per(c["identify.constraint_check.passed"],
                     t.count["identify.constraint_check"])),
        ("identify.adjudications", "count/scene",
         ["identify.find_parent_geometric", "identify.find_parent_optimization"], [],
         lambda: t.edges["identify.find_parent_geometric",
                         "identify.find_parent_optimization"] / scenes),
        ("identify.find_parent_optimization.calls", "count/scene",
         ["identify.find_parent_optimization"], [],
         lambda: calls("identify.find_parent_optimization")),
        ("identify.find_parent_optimization.ms", "ms/scene",
         ["identify.find_parent_optimization"], [],
         lambda: self_ms("identify.find_parent_optimization")),
        ("identify.pair_models", "count/scene", ["identify.pair_model"], [],
         lambda: calls("identify.pair_model")),
        ("identify.residual_evals", "count/scene", ["identify.residual"], [],
         lambda: calls("identify.residual")),
        ("identify.residual_ms", "ms/scene", ["identify.residual"], [],
         lambda: self_ms("identify.residual")),
        ("identify.residual_evals_per_hypothesis", "count/hyp",
         ["identify.residual", "identify.pair_model"], [],
         lambda: per(t.count["identify.residual"], t.count["identify.pair_model"])),
        ("identify.estimate_joint_angle_ms", "ms/scene", ["identify.estimate_joint_angle"], [],
         lambda: self_ms("identify.estimate_joint_angle")),
        ("modelgen.generate_model_ms", "ms/scene", ["modelgen.generate_model"], [],
         lambda: self_ms("modelgen.generate_model")),
        ("modelgen.write_model_ms", "ms/scene", ["modelgen.write_model"], [],
         lambda: self_ms("modelgen.write_model")),
        ("modelgen.model_bytes", "bytes/scene", [], ["modelgen.write_model"],
         lambda: c["modelgen.model_bytes"] / scenes),
        ("descriptor.serialize_ms", "ms/scene",
         ["descriptor.to_descriptor", "descriptor.serialize"], [],
         lambda: self_ms("descriptor.to_descriptor", "descriptor.serialize")),
    ]
    out = {}
    for name, unit, spans, observed, value in table:
        missing = any(s in absent for s in spans + observed) or any(
            s in t.failed_observers for s in observed
        )
        out[name] = (None if missing else value(), unit)
    return out
