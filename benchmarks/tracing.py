"""Outside-in probes for the benchmark.

Nothing under ``src/`` is edited. Instead each probe replaces a public
function at the module attribute its caller resolves at call time:
``condensery.tensor.conv2d`` for the models, ``condensery.bilevel.forward``
for the bi-level loop, ``condensery.cli.run_condense`` for the CLI, and so
on. Backward time per op comes from wrapping each op output's
``_backward``. Spans stay in memory until ``layer_metrics`` reduces them.

``Tracer(timed=False)`` only counts calls into the bi-level loop, which
the pinned-schedule check needs on untraced runs too; it adds one Python
call per counted step and no timing.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import os
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("tensor", "models", "losses", "bilevel", "evaluate", "coreset", "data", "cli")

# Ops with their own metric; every other public op of condensery.tensor
# lands in "other".
OP_BUCKETS = {
    "conv2d": "conv2d", "instance_norm2d": "instance_norm2d", "avg_pool2d": "avg_pool2d",
    "relu": "relu", "linear": "linear", "softmax_cross_entropy_mean": "softmax_ce",
    "take_rows": "take_rows",
}
BUCKETS = ("conv2d", "instance_norm2d", "avg_pool2d", "relu", "linear", "softmax_ce",
           "take_rows", "other")
ENGINE = ("backward", "sgd_step", "zero_grads")

# (object path, attribute, span name). Each attribute is the one its caller
# looks up; an attribute a later version of the library no longer has is
# skipped, and its metrics read 0.
TARGETS = (
    ("condensery.cli", "main", "cli.main"),
    ("condensery.cli", "load_idx", "data.load_idx"),
    ("condensery.cli", "save_synthetic", "data.save_synthetic"),
    ("condensery.cli", "load_synthetic", "data.load_synthetic"),
    ("condensery.cli", "export_projection_csv", "data.export_projection"),
    ("condensery.cli", "run_condense", "bilevel.run_condense"),
    ("condensery.cli", "evaluate_protocol", "evaluate.protocol"),
    ("condensery.cli", "record_training_trace", "evaluate.trace"),
    ("condensery.cli", "select_random", "coreset.random"),
    ("condensery.cli", "select_herding", "coreset.herding"),
    ("condensery.cli", "select_kcenter", "coreset.kcenter"),
    ("condensery.cli", "select_forgetting", "coreset.forgetting"),
    ("condensery.cli", "materialize", "coreset.materialize"),
    ("condensery.bilevel", "outer_step", "bilevel.outer_step"),
    ("condensery.bilevel", "inner_step", "bilevel.inner_step"),
    ("condensery.bilevel", "query_accuracy", "bilevel.query_accuracy"),
    ("condensery.bilevel", "init_params", "models.init_params"),
    ("condensery.bilevel", "forward", "models.forward"),
    ("condensery.bilevel", "cwfa", "losses.cwfa"),
    ("condensery.bilevel", "feature_alignment_loss", "losses.alignment"),
    ("condensery.bilevel", "discrimination_logits", "losses.discrimination"),
    ("condensery.bilevel", "discrimination_loss", "losses.discrimination"),
    ("condensery.losses:ClassMeans", "centers_matrix", "losses.discrimination"),
    ("condensery.bilevel", "total_loss", "losses.total"),
    ("condensery.evaluate", "train_on_synthetic", "evaluate.train"),
    ("condensery.evaluate", "test_accuracy", "evaluate.test_accuracy"),
    ("condensery.evaluate", "init_params", "models.init_params"),
    ("condensery.evaluate", "forward", "models.forward"),
    ("condensery.tensor", "backward", "tensor.backward"),
    ("condensery.tensor", "sgd_step", "tensor.sgd_step"),
)

# What the untraced run counts: enough to check the condense schedule.
COUNTED = {("condensery.cli", "main"), ("condensery.cli", "run_condense")} | {
    ("condensery.bilevel", a) for a in ("outer_step", "inner_step", "query_accuracy",
                                        "init_params")}

# Per-layer metric names and units, in report order. "evaluate.thread_speedup"
# and the "trace.*" entries are filled in by the runner, which makes the
# extra runs they need.
PER_LAYER = (
    *((f"tensor.{b}.{d}_s", "s") for b in BUCKETS for d in ("fwd", "bwd")),
    ("tensor.backward_s", "s"), ("tensor.nodes", "count"),
    ("tensor.nodes_walked_ratio", "fraction"), ("tensor.leaf_grad_used_ratio", "fraction"),
    ("tensor.out_mb", "MB"), ("tensor.gc_collected", "count"), ("tensor.gc_s", "s"),
    ("models.forward_s", "s"), ("models.forward_images", "count"),
    ("models.forward_unwalked_share", "fraction"),
    ("losses.cwfa_s", "s"), ("losses.alignment_s", "s"), ("losses.discrimination_s", "s"),
    ("losses.nodes", "count"),
    ("bilevel.outer_step_s", "s"), ("bilevel.inner_step_s", "s"),
    ("bilevel.query_accuracy_s", "s"), ("bilevel.outer_steps", "count"),
    ("bilevel.inner_steps", "count"), ("bilevel.queries", "count"),
    ("bilevel.restarts", "count"),
    ("evaluate.train_s", "s"), ("evaluate.test_accuracy_s", "s"),
    ("evaluate.train_steps", "count"), ("evaluate.nets", "count"), ("evaluate.trace_s", "s"),
    ("evaluate.thread_speedup", "x"),
    ("coreset.random_s", "s"), ("coreset.herding_s", "s"), ("coreset.kcenter_s", "s"),
    ("coreset.forgetting_s", "s"),
    ("data.load_idx_s", "s"), ("data.load_idx_mb", "MB"), ("data.save_synthetic_s", "s"),
    ("data.load_synthetic_s", "s"), ("data.cnd_mb", "MB"), ("data.export_projection_s", "s"),
    ("cli.self_s", "s"), ("cli.commands", "count"),
    *((f"{layer}.cover", "fraction") for layer in LAYERS),
    ("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
)

MB = 1e6


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.info: dict = {}
        self.t0 = time.perf_counter()
        self.t1 = self.t0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def within(self, name: str) -> "Span | None":
        s = self.parent
        while s is not None and s.name != name:
            s = s.parent
        return s


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _leaves(root) -> list:
    """Leaf tensors reachable from ``root`` (read before backward runs)."""
    seen, stack, leaves = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        parents = getattr(node, "_parents", ())
        if parents:
            stack.extend(parents)
        else:
            leaves.append(node)
    return leaves


class Tracer:
    """Install with ``with Tracer(timed): ...``; read ``schedule()`` and,
    when timed, ``layer_metrics()`` afterwards."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.gc_collected = 0
        self.gc_s = 0.0
        self._restore: list = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._gc_t0 = 0.0

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._local.stack = self._main_stack
        for path, attr, name in TARGETS:
            if self.timed or (path, attr) in COUNTED:
                self._patch(_resolve(path), attr, name)
        if self.timed:
            tensor = importlib.import_module("condensery.tensor")
            for attr, fn in list(vars(tensor).items()):
                if (inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                        and not attr.startswith("_") and attr not in ENGINE):
                    self._patch(tensor, attr, "tensor." + OP_BUCKETS.get(attr, "other"))
            gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _patch(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            return
        if not self.timed:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)
            wrapper = counted
        else:
            before = getattr(self, "_before_" + name.split(".")[-1], None)
            after = self._after_op if name.startswith("tensor.") and \
                name[7:] in BUCKETS else getattr(self, "_after_" + name.split(".")[-1], None)

            def traced(*args, **kwargs):
                span = self._open(name)
                if before is not None:
                    before(span, args)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self._close(span)
                if after is not None:
                    after(span, args, out)
                return out
            wrapper = traced
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread of the eval pool: its parent is whatever the
            # main thread is blocked in (evaluate.protocol).
            main = self._main_stack
            parent = main[-1] if main else None
        span = Span(name, parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collected += info.get("collected", 0)

    # -- per-target hooks ---------------------------------------------

    def _after_op(self, span: Span, args, out) -> None:
        values = getattr(out, "values", None)
        if values is None:
            return
        span.info["nbytes"] = values.nbytes
        bw = getattr(out, "_backward", None)
        if bw is None:
            return
        span.info["node"] = True
        fwd = span.within("models.forward")
        name = span.name + ".bwd"

        def timed_backward(*a, **k):
            if fwd is not None:
                fwd.info["walked"] = True
            s = self._open(name)
            try:
                return bw(*a, **k)
            finally:
                self._close(s)
        out._backward = timed_backward

    def _before_backward(self, span: Span, args) -> None:
        span.info["leaves"] = _leaves(args[0])

    def _after_backward(self, span: Span, args, out) -> None:
        leaves = span.info.pop("leaves")
        span.info["filled"] = sum(t.values.size for t in leaves if t.grad is not None)

    def _before_sgd_step(self, span: Span, args) -> None:
        span.info["applied"] = sum(p.grad.size for p in args[0] if p.grad is not None)

    def _before_forward(self, span: Span, args) -> None:
        span.info["images"] = args[1].shape[0]

    def _before_load_idx(self, span: Span, args) -> None:
        span.info["nbytes"] = os.path.getsize(args[0]) + os.path.getsize(args[1])

    def _before_load_synthetic(self, span: Span, args) -> None:
        span.info["nbytes"] = os.path.getsize(args[0])

    def _after_save_synthetic(self, span: Span, args, out) -> None:
        span.info["nbytes"] = os.path.getsize(args[1])

    # -- reduction ------------------------------------------------------

    def schedule(self) -> dict[str, int]:
        """Steps of the bi-level loop. ``run_condense`` draws one network in
        ``init_state`` and one more per restart."""
        if self.timed:
            counts = Counter(s.name for s in self.spans)
            inits = sum(1 for s in self.spans if s.name == "models.init_params"
                        and s.parent is not None and s.parent.name == "bilevel.run_condense")
        else:
            counts = self.counts
            inits = counts["models.init_params"]
        return {"outer_steps": counts["bilevel.outer_step"],
                "inner_steps": counts["bilevel.inner_step"],
                "queries": counts["bilevel.query_accuracy"],
                "restarts": inits - counts["bilevel.run_condense"]}

    def wall(self) -> float:
        return sum(s.dur for s in self.spans if s.name == "cli.main")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can compute from its spans."""
        by: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by[s.name].append(s)

        def dur(name):
            return sum(s.dur for s in by[name])

        def info(name, key):
            return sum(s.info.get(key, 0) for s in by[name])

        m: dict[str, float] = {}
        ops = [s for b in BUCKETS for s in by["tensor." + b]]
        nodes = [s for s in ops if s.info.get("node")]
        walked = sum(len(by[f"tensor.{b}.bwd"]) for b in BUCKETS)
        for b in BUCKETS:
            m[f"tensor.{b}.fwd_s"] = dur("tensor." + b)
            m[f"tensor.{b}.bwd_s"] = dur(f"tensor.{b}.bwd")
        m["tensor.backward_s"] = dur("tensor.backward")
        m["tensor.nodes"] = len(nodes)
        m["tensor.nodes_walked_ratio"] = walked / len(nodes) if nodes else 0.0
        filled = info("tensor.backward", "filled")
        m["tensor.leaf_grad_used_ratio"] = info("tensor.sgd_step", "applied") / filled \
            if filled else 0.0
        m["tensor.out_mb"] = sum(s.info.get("nbytes", 0) for s in ops) / MB
        m["tensor.gc_collected"] = self.gc_collected
        m["tensor.gc_s"] = self.gc_s

        fwd = by["models.forward"]
        fwd_s = dur("models.forward")
        m["models.forward_s"] = fwd_s
        m["models.forward_images"] = info("models.forward", "images")
        m["models.forward_unwalked_share"] = \
            sum(s.dur for s in fwd if not s.info.get("walked")) / fwd_s if fwd_s else 0.0

        m["losses.cwfa_s"] = dur("losses.cwfa")
        m["losses.alignment_s"] = dur("losses.alignment")
        m["losses.discrimination_s"] = dur("losses.discrimination")
        m["losses.nodes"] = sum(1 for s in nodes if s.parent is not None
                                and s.parent.name.startswith("losses."))

        for step in ("outer_step", "inner_step", "query_accuracy"):
            m[f"bilevel.{step}_s"] = dur("bilevel." + step)
        m.update(("bilevel." + k, v) for k, v in self.schedule().items())

        m["evaluate.train_s"] = dur("evaluate.train")
        m["evaluate.test_accuracy_s"] = dur("evaluate.test_accuracy")
        m["evaluate.train_steps"] = sum(1 for s in by["tensor.sgd_step"]
                                        if s.within("evaluate.train") is not None)
        m["evaluate.nets"] = len(by["evaluate.train"])
        m["evaluate.trace_s"] = dur("evaluate.trace")

        for method in ("random", "herding", "kcenter", "forgetting"):
            m[f"coreset.{method}_s"] = dur("coreset." + method)

        m["data.load_idx_s"] = dur("data.load_idx")
        m["data.load_idx_mb"] = info("data.load_idx", "nbytes") / MB
        m["data.save_synthetic_s"] = dur("data.save_synthetic")
        m["data.load_synthetic_s"] = dur("data.load_synthetic")
        m["data.cnd_mb"] = (info("data.save_synthetic", "nbytes")
                            + info("data.load_synthetic", "nbytes")) / MB
        m["data.export_projection_s"] = dur("data.export_projection")

        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        cli = by["cli.main"]
        m["cli.self_s"] = sum(s.dur - _covered([(c.t0, c.t1) for c in children[id(s)]])
                              for s in cli)
        m["cli.commands"] = len(cli)
        wall = self.wall()
        for layer in LAYERS:
            intervals = [(s.t0, s.t1) for s in self.spans if s.name.startswith(layer + ".")]
            m[f"{layer}.cover"] = _covered(intervals) / wall if wall else 0.0
        return m


def _covered(intervals: list) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total
