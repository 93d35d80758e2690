"""Spans around the public layer functions of ``repro``, recorded from outside.

The benchmark never edits the program: :func:`install` replaces each probed
function or method with a wrapper that records one span per call and puts
the original back on :func:`uninstall`.  A module-level function is
replaced at *every* binding a ``repro`` module holds, because callers that
did ``from module import name`` keep their own reference; a method is
replaced on its class, where every call looks it up.

A span is ``(span_id, parent_id, trace_id, name, start, end)``.  The parent
is the innermost open span of the same thread, and the trace id is the id
of the outermost one, so all spans of one grid cell share an identifier.
A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "PROBES",
    "Probe",
    "Tracer",
    "conv_gemm_work",
    "install",
    "layer_totals",
    "self_times",
    "uninstall",
]


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``count(tracer, arguments, result)`` runs after the call, with the
        call's arguments bound to ``fn``'s parameter names, to add work
        counters measured at the same boundary.
        """
        spans = self.spans
        clock = self.clock
        ids = self._ids
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent_id, trace_id = stack[-1] if stack else (0, span_id)
            stack.append((span_id, trace_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent_id, trace_id, name, start, end))
            if count is not None:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[str, tuple[int, float, float]]:
    """``name -> (calls, summed self time, summed duration)`` over spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _span_id, parent_id, _trace, _name, start, end in spans:
        if parent_id:
            children[parent_id].append((start, end))
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span_id, _parent, _trace, name, start, end in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += (end - start) - _covered(children.get(span_id, []), start, end)
        entry[2] += end - start
    return {name: tuple(entry) for name, entry in totals.items()}


def layer_totals(tracer: Tracer) -> dict:
    """JSON-ready aggregate of one tracer: per-span calls/self time + counts."""
    return {
        "spans": {
            name: {"calls": calls, "busy_s": busy, "total_s": total}
            for name, (calls, busy, total) in self_times(tracer.spans).items()
        },
        "counts": dict(tracer.counts),
        "span_count": len(tracer.spans),
    }


# -- work counters (computed from array shapes, not measured) ------------------


def _add_gemm(tracer: Tracer, name: str, m: int, k: int, n: int, itemsize: int) -> None:
    tracer.counts[f"{name}.gemm_flops"] += 2.0 * m * k * n
    tracer.counts[f"{name}.bytes_computed"] += float(itemsize * (m * k + k * n + m * n))


def conv_gemm_work(plan, out_channels: int, lanes: int = 1, active: int | None = None):
    """``(m, k, n)`` of the GEMMs one :class:`Conv2dPlan` call runs.

    ``m`` is the column-matrix rows of the active lanes, ``k`` the
    unrolled filter size, ``n`` the output channels.
    """
    batch, c_in = plan.shape[0], plan.shape[1]
    rows = batch * plan.oh * plan.ow // lanes
    active = lanes if active is None else active
    return rows * active, c_in * plan.kh * plan.kw, out_channels


def _conv_count(name: str) -> Callable:
    """GEMM work of one Conv2dPlan method call, from its bound arguments."""

    def count(tracer: Tracer, bound: dict, _result) -> None:
        plan = bound["self"]
        if "weight" in bound:  # __call__ / backward_input
            m, k, n = conv_gemm_work(plan, bound["weight"].shape[0])
        elif "weights" in bound:  # stacked / stacked_backward_input
            lanes = len(bound["weights"])
            alive = bound.get("alive")
            active = lanes if alive is None else sum(map(bool, alive))
            m, k, n = conv_gemm_work(plan, bound["weights"][0].shape[0], lanes, active)
        elif "wanted" in bound:  # stacked_backward_weights
            wanted = bound["wanted"]
            m, k, n = conv_gemm_work(
                plan, bound["weight_shape"][0], len(wanted), sum(map(bool, wanted))
            )
        else:  # backward_weight
            m, k, n = conv_gemm_work(plan, bound["weight_shape"][0])
        _add_gemm(tracer, name, m, k, n, plan.dtype.itemsize)

    return count


def _count_sample_epochs(tracer: Tracer, bound: dict, _result) -> None:
    epochs = bound["self"].config.epochs - int(bound.get("start_epoch", 0))
    tracer.counts["training.fit.sample_epochs"] += len(bound["train_set"]) * max(epochs, 0)


def _count_weight_bytes(tracer: Tracer, _bound: dict, result) -> None:
    tracer.counts["engine.cache.weight_put.bytes"] += Path(result).stat().st_size


def _count_weight_hits(tracer: Tracer, _bound: dict, result) -> None:
    tracer.counts["engine.cache.weight_get.hits"] += result is not None


def _count_lanes(tracer: Tracer, bound: dict, _result) -> None:
    tracer.counts["engine.run_stacked_group.lanes"] += len(bound["tasks"])


# -- the probe table -----------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``module`` + ``attr`` (``Class.method`` or a function)."""

    module: str
    attr: str
    name: str
    count: Callable | None = None


def _conv(attr: str, name: str) -> Probe:
    return Probe("repro.tensor.functional", f"Conv2dPlan.{attr}", name, _conv_count(name))


_FWD, _BWD_IN, _BWD_W = (
    "tensor.conv_plan.fwd",
    "tensor.conv_plan.bwd_input",
    "tensor.conv_plan.bwd_weight",
)

PROBES: tuple[Probe, ...] = (
    Probe("repro.data.synth_mnist", "SyntheticMNIST.generate", "data.generate"),
    Probe("repro.robustness.learnability", "train_and_score", "robustness.train_and_score"),
    Probe("repro.training.trainer", "Trainer.fit", "training.fit", _count_sample_epochs),
    Probe("repro.training.trainer", "Trainer.evaluate", "training.evaluate"),
    Probe("repro.tensor.tensor", "Tensor.backward", "tensor.backward"),
    Probe("repro.optim.adam", "Adam.step", "optim.adam_step"),
    Probe("repro.robustness.security", "robustness_curve", "robustness.robustness_curve"),
    Probe("repro.attacks.base", "input_gradient", "attacks.input_gradient"),
    Probe("repro.attacks.base", "predict_batched", "attacks.predict_batched"),
    Probe("repro.attacks.metrics", "evaluate_attack_sweep", "attacks.evaluate_attack_sweep"),
    Probe("repro.snn.network", "SpikingNetwork.forward", "snn.forward"),
    Probe("repro.snn.network", "SpikingNetwork.fused_input_gradient", "snn.fused_input_gradient"),
    Probe("repro.snn.network", "SpikingNetwork.fused_loss_backward", "snn.fused_loss_backward"),
    Probe("repro.snn.backward", "record_forward", "snn.record_forward"),
    Probe("repro.snn.backward", "backward_pass", "snn.backward_pass"),
    Probe("repro.snn.neuron", "LIFCell.step", "snn.lif.step"),
    Probe("repro.snn.neuron", "LIFCell.step_numpy", "snn.lif.step"),
    Probe("repro.snn.neuron", "LIFCell.step_record_numpy", "snn.lif.step"),
    Probe("repro.snn.neuron", "LIFCell.step_backward_numpy", "snn.lif.step_backward"),
    Probe("repro.snn.stack", "StackedLIFCell.step_numpy", "snn.lif.step"),
    Probe("repro.snn.stack", "StackedLIFCell.step_record_numpy", "snn.lif.step"),
    Probe("repro.snn.stack", "StackedLIFCell.step_backward_numpy", "snn.lif.step_backward"),
    _conv("__call__", _FWD),
    _conv("stacked", _FWD),
    _conv("backward_input", _BWD_IN),
    _conv("stacked_backward_input", _BWD_IN),
    _conv("backward_weight", _BWD_W),
    _conv("stacked_backward_weights", _BWD_W),
    Probe("repro.tensor.functional", "MaxPool2dPlan.__call__", "tensor.pool_plan.fwd"),
    Probe("repro.tensor.functional", "AvgPool2dPlan.__call__", "tensor.pool_plan.fwd"),
    Probe("repro.tensor.functional", "MaxPool2dPlan.backward", "tensor.pool_plan.bwd"),
    Probe("repro.tensor.functional", "AvgPool2dPlan.backward", "tensor.pool_plan.bwd"),
    Probe("repro.snn.stack", "VariantStack.forward_logits", "snn.stack.forward_logits"),
    Probe("repro.snn.stack", "VariantStack.record_forward", "snn.stack.record_forward"),
    Probe("repro.snn.stack", "VariantStack.backward_pass", "snn.stack.backward_pass"),
    Probe("repro.engine.stacking", "run_stacked_group", "engine.run_stacked_group", _count_lanes),
    Probe("repro.engine.job", "run_cell_task", "engine.run_cell_task"),
    Probe("repro.engine.cache", "CellCache.get", "engine.cache.cell_get"),
    Probe("repro.engine.cache", "CellCache.put", "engine.cache.cell_put"),
    Probe("repro.engine.cache", "WeightCache.get", "engine.cache.weight_get", _count_weight_hits),
    Probe("repro.engine.cache", "WeightCache.put", "engine.cache.weight_put", _count_weight_bytes),
    Probe("repro.engine.queue", "run_queued_tasks", "engine.queue.worker"),
    Probe("repro.engine.queue", "WorkQueue.snapshot", "engine.queue.scan"),
    Probe("repro.engine.queue", "WorkQueue.acquire", "engine.queue.claim"),
    Probe("repro.engine.queue", "WorkQueue.release", "engine.queue.release"),
    Probe("repro.engine.queue", "WorkQueue.commit", "engine.queue.commit"),
)
"""Every wrapped layer boundary.  Several callables may share one span
name (all LIF step variants are ``snn.lif.step``)."""


def install(tracer: Tracer, probes=PROBES) -> list[tuple[object, str, object, bool]]:
    """Wrap every probe; returns the undo list for :func:`uninstall`."""
    patches: list[tuple[object, str, object, bool]] = []
    for probe in probes:
        module = importlib.import_module(probe.module)
        owner_name, _, attr = probe.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            own = attr in owner.__dict__
            original = owner.__dict__[attr] if own else getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(original, probe.name, probe.count))
            patches.append((owner, attr, original, own))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, probe.name, probe.count)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    patches.append((loaded, key, original, True))
    return patches


def uninstall(patches) -> None:
    """Put back every original :func:`install` replaced."""
    for owner, attr, original, own in reversed(patches):
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
