"""Outside-in span tracer for capsroute's layers.

Spans are recorded from the benchmark's own code: ``Tracer.install`` replaces
public functions at the names their callers bind (``capsroute.capsnet.conv2d``,
``capsroute.cnn.maxpool2d``, ``capsroute.training.adam_step``, ...) and the
``Tensor`` arithmetic/shape methods with timing wrappers, and ``uninstall``
puts the originals back. Nothing inside ``src/`` is edited, and the wrappers
only read arguments and results, so a traced run computes the same bytes as
an untraced one (the benchmark checks this).

Forward spans nest by call order. Each tensor op's result also gets its
recorded backward closure wrapped, and the closure's span names as parent the
forward span that created it, so ``capsnet.dynamic_routing.bwd_ms`` sums the
closures of the ops created inside that call. Spans stay in memory as flat
lists until the run ends; then ``write`` saves them, ``layer_metrics`` derives
per-layer totals and ``self_ms`` the self time of every span name.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import capsroute.capsnet
import capsroute.cli
import capsroute.cnn
import capsroute.experiment
import capsroute.mlp
import capsroute.tensor
import capsroute.training
from capsroute.tensor import Tensor

# span record fields
NAME, KIND, T0, T1, PARENT, RUNTIME_PARENT = range(6)

TENSOR_OPS = (
    "conv2d",
    "maxpool2d",
    "pad2d",
    "affine",
    "einsum2",
    "softmax_axis",
    "relu",
    "sigmoid",
    "dropout",
    "cross_entropy_logits",
)
# Tensor methods that build graph nodes; reported together as tensor.elementwise
ELEMENTWISE_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "square",
    "sqrt",
    "sum",
    "mean",
    "reshape",
    "transpose",
)
# (module, attribute the callers bind, layer name)
LAYER_FUNCTIONS = (
    (capsroute.cli, "stage_train", "experiment.stage_train"),
    (capsroute.cli, "stage_eval", "experiment.stage_eval"),
    (capsroute.cli, "stage_report", "experiment.stage_report"),
    (capsroute.cli, "load_recordings_manifest", "signal.load_recordings"),
    (capsroute.cli, "build_dataset", "signal.build_dataset"),
    (capsroute.cli, "write_dataset", "signal.write_dataset"),
    (capsroute.experiment, "load_dataset", "signal.load_dataset"),
    (capsroute.experiment, "expand_dataset", "augment.expand_dataset"),
    (capsroute.experiment, "make_splits", "splits.make_splits"),
    (capsroute.experiment, "train_model", "training.train_model"),
    (capsroute.experiment, "save_model", "checkpoint.save"),
    (capsroute.experiment, "load_model", "checkpoint.load"),
    (capsroute.training, "predict", "training.predict"),
    (capsroute.training, "adam_step", "optim.adam_step"),
    (capsroute.training, "capsnet_forward", "capsnet.capsnet_forward"),
    (capsroute.training, "total_loss", "capsnet.total_loss"),
    (capsroute.capsnet, "primary_capsules", "capsnet.primary_capsules"),
    (capsroute.capsnet, "votes", "capsnet.votes"),
    (capsroute.capsnet, "dynamic_routing", "capsnet.dynamic_routing"),
    (capsroute.capsnet, "decode", "capsnet.decode"),
    (capsroute.training, "cnn_forward", "cnn.cnn_forward"),
    (capsroute.training, "cnn_loss", "cnn.cnn_loss"),
    (capsroute.training, "mlp_forward", "mlp.mlp_forward"),
)
# modules whose bindings of the tensor ops are replaced
OP_CALLERS = (capsroute.capsnet, capsroute.cnn, capsroute.mlp, capsroute.training)


class Tracer:
    """Records spans while installed; one instance per traced pipeline."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "signal.build_dataset": self._count_images,
            "augment.expand_dataset": self._count_augmented,
            "checkpoint.save": self._count_checkpoint,
            "optim.adam_step": self._count_adam,
        }
        for module, attr, name in LAYER_FUNCTIONS:
            self._patch(module, attr, self._forward(name, getattr(module, attr), hooks.get(name)))
        for op in TENSOR_OPS:
            original = getattr(capsroute.tensor, op)
            hook = self._count_conv if op == "conv2d" else None
            wrapper = self._forward(f"tensor.{op}", original, hook, op=True)
            for module in OP_CALLERS:
                if getattr(module, op, None) is original:
                    self._patch(module, op, wrapper)
        for method in ELEMENTWISE_METHODS:
            self._patch(Tensor, method, self._forward("tensor.elementwise", getattr(Tensor, method), op=True))
        self._patch(Tensor, "backward", self._forward("tensor.backward", Tensor.backward))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- span recording ----------------------------------------------------

    def _forward(self, name: str, fn, hook=None, op: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        wrap_closure = self._wrap_closure

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, "fwd", clock(), 0, parent, parent]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[T1] = clock()
            if op and isinstance(result, Tensor):
                wrap_closure(result, name, idx)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _wrap_closure(self, tensor: Tensor, name: str, creator: int) -> None:
        closure = tensor._backward_fn
        if closure is None or getattr(closure, "traced", False):
            return  # no graph node, or one an inner op already wrapped
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced_backward(g):
            span = [name, "bwd", clock(), 0, creator, stack[-1] if stack else -1]
            spans.append(span)
            try:
                closure(g)
            finally:
                span[T1] = clock()

        traced_backward.traced = True
        tensor._backward_fn = traced_backward

    # -- counters at layer boundaries ----------------------------------------

    def _count_images(self, args, images) -> None:
        self.counts["signal.images"] += len(images)

    def _count_augmented(self, args, result) -> None:
        self.counts["augment.images_out"] += len(result[0])

    def _count_checkpoint(self, args, result) -> None:
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def _count_adam(self, args, result) -> None:
        params, grads, state = args
        new_params, new_state = result
        param_bytes = sum(p.nbytes for p in params)
        self.counts["optim.params"] = sum(p.size for p in params)
        # computed: read params, grads and both moments; write params and both moments
        self.counts["optim.bytes_per_step"] = 7 * param_bytes
        # computed: bytes of returned arrays that share no memory with an input
        inputs = list(params) + list(grads) + state.first_moment + state.second_moment
        outputs = list(new_params) + new_state.first_moment + new_state.second_moment
        self.counts["optim.alloc_bytes_per_step"] = sum(
            out.nbytes for out in outputs if not any(out is a or out.base is a for a in inputs)
        )

    def _count_conv(self, args, out) -> None:
        x, kernels = args[0], args[1]
        cout, cin, kh, kw = kernels.shape
        n = x.shape[0] if x.ndim == 4 else 1
        ho, wo = out.shape[-2:]
        flop = 2 * n * cout * ho * wo * cin * kh * kw
        if out._backward_fn is not None:
            # kernel gradient always; input gradient when the input needs one
            flop *= 2 + (1 if x.requires_grad else 0)
        self.counts["tensor.conv2d.gflop"] += flop / 1e9

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines: name, kind, start/end ns, parent, runtime parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_ms(self) -> dict[str, float]:
        """Self time per (name, kind): span durations minus the spans they called, in ms."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[RUNTIME_PARENT] >= 0:
                child_ns[span[RUNTIME_PARENT]] += span[T1] - span[T0]
        totals: dict[str, float] = defaultdict(float)
        for span, children in zip(spans, child_ns):
            totals[f"{span[NAME]}.{span[KIND]}"] += (span[T1] - span[T0] - children) / 1e6
        return {name: round(ms, 3) for name, ms in sorted(totals.items())}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the traced pipeline, keyed by benchmark metric name."""
        spans = self.spans
        fwd_ms: dict[str, float] = defaultdict(float)
        bwd_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        closures_in_backward = 0.0
        step_ends: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            name = span[NAME]
            dur_ms = (span[T1] - span[T0]) / 1e6
            if span[KIND] == "bwd":
                # charge the closure to its op and to every distinct enclosing forward layer
                charged = {name}
                bwd_ms[name] += dur_ms
                parent = span[PARENT]
                while parent >= 0:
                    outer = spans[parent][NAME]
                    if outer not in charged:
                        charged.add(outer)
                        bwd_ms[outer] += dur_ms
                    parent = spans[parent][PARENT]
                runner = span[RUNTIME_PARENT]
                if runner >= 0 and spans[runner][NAME] == "tensor.backward":
                    closures_in_backward += dur_ms
                continue
            durations[name].append(dur_ms)
            if name == "optim.adam_step":
                step_ends[span[PARENT]].append(span[T1])
            if _has_ancestor(spans, i, name):
                continue
            fwd_ms[name] += dur_ms
            calls[name] += 1

        steps = []
        for ends in step_ends.values():
            steps += [(b - a) / 1e6 for a, b in zip(ends, ends[1:])]
        folds = durations["training.train_model"] or [0.0]

        m: dict[str, float] = {}
        for stage in ("train", "eval", "report"):
            m[f"experiment.stage_{stage}_s"] = fwd_ms[f"experiment.stage_{stage}"] / 1e3
        m["experiment.fold_train_s_max"] = max(folds) / 1e3
        m["experiment.fold_train_s_min"] = min(folds) / 1e3
        m["training.steps"] = calls["optim.adam_step"]
        m["training.step_ms_p50"] = _quantile(steps, 0.5)
        m["training.step_ms_p90"] = _quantile(steps, 0.9)
        m["training.predict_s"] = fwd_ms["training.predict"] / 1e3
        m["signal.load_recordings_s"] = fwd_ms["signal.load_recordings"] / 1e3
        m["signal.build_dataset_s"] = fwd_ms["signal.build_dataset"] / 1e3
        m["signal.write_dataset_s"] = fwd_ms["signal.write_dataset"] / 1e3
        m["signal.load_dataset_s"] = fwd_ms["signal.load_dataset"] / 1e3
        m["signal.images"] = self.counts["signal.images"]
        m["augment.expand_dataset_s"] = fwd_ms["augment.expand_dataset"] / 1e3
        m["augment.images_out"] = self.counts["augment.images_out"]
        m["splits.make_splits_ms"] = fwd_ms["splits.make_splits"]
        m["checkpoint.save_ms"] = fwd_ms["checkpoint.save"]
        m["checkpoint.load_ms"] = fwd_ms["checkpoint.load"]
        m["checkpoint.bytes"] = self.counts["checkpoint.bytes"]
        m["optim.adam_step_ms"] = fwd_ms["optim.adam_step"]
        m["optim.adam_step.calls"] = calls["optim.adam_step"]
        m["optim.params"] = self.counts["optim.params"]
        m["optim.bytes_per_step"] = self.counts["optim.bytes_per_step"]
        m["optim.alloc_bytes_per_step"] = self.counts["optim.alloc_bytes_per_step"]
        m["capsnet.capsnet_forward.fwd_ms"] = fwd_ms["capsnet.capsnet_forward"]
        m["capsnet.capsnet_forward.bwd_ms"] = bwd_ms["capsnet.capsnet_forward"]
        for layer in ("primary_capsules", "votes", "dynamic_routing", "decode", "total_loss"):
            m[f"capsnet.{layer}.fwd_ms"] = fwd_ms[f"capsnet.{layer}"]
            m[f"capsnet.{layer}.bwd_ms"] = bwd_ms[f"capsnet.{layer}"]
        for layer in ("cnn.cnn_forward", "cnn.cnn_loss", "mlp.mlp_forward"):
            m[f"{layer}.fwd_ms"] = fwd_ms[layer]
            m[f"{layer}.bwd_ms"] = bwd_ms[layer]
        for op in TENSOR_OPS + ("elementwise",):
            m[f"tensor.{op}.fwd_ms"] = fwd_ms[f"tensor.{op}"]
            m[f"tensor.{op}.bwd_ms"] = bwd_ms[f"tensor.{op}"]
            m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
        m["tensor.backward.ms"] = fwd_ms["tensor.backward"]
        m["tensor.backward.self_ms"] = fwd_ms["tensor.backward"] - closures_in_backward
        m["tensor.conv2d.gflop"] = self.counts["tensor.conv2d.gflop"]
        conv_s = (fwd_ms["tensor.conv2d"] + bwd_ms["tensor.conv2d"]) / 1e3
        m["tensor.conv2d.gflop_per_s"] = m["tensor.conv2d.gflop"] / conv_s if conv_s > 0 else 0.0
        return m


def _has_ancestor(spans: list, i: int, name: str) -> bool:
    parent = spans[i][RUNTIME_PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][RUNTIME_PARENT]
    return False


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
