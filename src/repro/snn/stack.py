"""K-stacked variant execution: one fused pass drives K grid cells.

Algorithm 1 sweeps ``(Vth, T)`` variants that share an architecture and
differ only in scalar structural parameters.  :class:`VariantStack` lifts
K such :class:`~repro.snn.network.SpikingNetwork` instances into a single
*lane-folded* execution: batches of the K variants are concatenated on
the batch axis (``(K*N, ...)``), elementwise neuron dynamics run fold-wide
with per-variant constants broadcast per lane, and every parameterised
GEMM runs per variant on the contiguous row block belonging to its lanes.

Exactness contract
------------------
Per-variant results are bitwise identical to running each member through
the unstacked fused paths (and therefore to the autograd path, by the
fused paths' own contracts).  Three properties make that hold:

* elementwise ops, pooling and im2col/col2im are *lane-local*: folding
  batches changes neither the values nor the reduction association of
  any lane's elements;
* per-variant GEMMs run on contiguous row slices with exactly the
  shapes, strides and contiguity of the unstacked problem, so the same
  BLAS kernel produces the same bits;
* constants that vary across variants (``v_th``, the leak scale, decay,
  surrogate alpha, encoder rate) broadcast as per-lane columns of the
  same promoted dtype, which is elementwise-identical to the unstacked
  scalar op; constants the twins *branch* on (``reset_mode``,
  ``v_reset``) are required to agree across a stack.

Ragged time windows are handled by padding to the longest member's ``T``
and masking the dead wavefront: a variant past its own ``T`` has its
GEMMs skipped and its rows pinned to exact zeros, so dead-lane state
stays finite and its gradients stay exactly zero — while the per-variant
``t_head`` windows reproduce the unstacked backward's structural
aliveness (including gradient *None-ness* on parameters) per lane.

Variants that cannot honour this contract (custom cells or transforms,
unsupported encoders, mismatched reset semantics) are rejected by
:func:`stack_compatibility` — the engine then runs them unstacked, which
is the trusted-twin fallback generalised to stacks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.parameter import accumulate_grad
from repro.nn.pooling import AvgPool2d, MaxPool2d
from repro.snn.encoding import ConstantCurrentLIFEncoder, PoissonEncoder
from repro.snn.network import SpikingNetwork
from repro.snn.neuron import LICell, LIFCell
from repro.snn.surrogate import surrogate_derivative
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad, promote_scalar
from repro.utils.dispatch import has_trusted_twin

__all__ = [
    "StackedLICell",
    "StackedLIFCell",
    "StackedTape",
    "VariantStack",
    "stack_compatibility",
]


class _LaneScalars:
    """One per-variant constant, promoted for broadcasting over folded arrays.

    When every variant shares the value this degrades to the exact 0-d
    promoted scalar the unstacked twins use.  Otherwise the values become
    a ``(K*N, 1, ..., 1)`` column (cached per ``(N, ndim)``) whose
    broadcast multiplies each lane by its own variant's constant —
    elementwise-identical to the unstacked scalar op per lane.
    """

    def __init__(self, values: Sequence[float]) -> None:
        self.values = tuple(float(value) for value in values)
        self.uniform = all(value == self.values[0] for value in self.values)
        self._scalar = promote_scalar(self.values[0])
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def for_array(self, reference: np.ndarray) -> np.ndarray:
        """The constant shaped to broadcast over ``reference``'s lanes."""
        if self.uniform:
            return self._scalar
        lanes = len(self.values)
        n = reference.shape[0] // lanes
        key = (n, reference.ndim)
        column = self._cache.get(key)
        if column is None:
            promoted = np.asarray(self.values, dtype=self._scalar.dtype)
            column = np.repeat(promoted, n).reshape(
                (lanes * n,) + (1,) * (reference.ndim - 1)
            )
            self._cache[key] = column
        return column


class StackedLIFCell:
    """K-variant LIF population over a lane-folded batch.

    Mirrors :class:`repro.snn.neuron.LIFCell`'s numpy twins term for term
    with per-variant constants broadcast per lane.  ``reset_mode`` and
    ``v_reset`` must agree across the stack — the twins *branch* on them,
    and a branch cannot broadcast.
    """

    def __init__(self, cells: Sequence[LIFCell]) -> None:
        params = [cell.params for cell in cells]
        first = params[0]
        if any(p.reset_mode != first.reset_mode for p in params):
            raise ValueError("stacked LIF populations must share reset_mode")
        if any(p.v_reset != first.v_reset for p in params):
            raise ValueError("stacked LIF populations must share v_reset")
        self.k = len(cells)
        self.reset_mode = first.reset_mode
        self.one = promote_scalar(1.0)
        self.v_reset = promote_scalar(first.v_reset)
        self._v_reset_value = float(first.v_reset)
        self.scale = _LaneScalars([p.dt * p.tau_mem_inv for p in params])
        self.v_leak = _LaneScalars([p.v_leak for p in params])
        self.v_th = _LaneScalars([p.v_th for p in params])
        self.reset_drop = _LaneScalars([p.v_th - p.v_reset for p in params])
        self.decay = _LaneScalars([p.synaptic_decay for p in params])
        self.surrogates = [(p.surrogate, p.surrogate_alpha) for p in params]
        self._uniform_surrogate = all(
            pair == self.surrogates[0] for pair in self.surrogates
        )

    def _derivative(self, x: np.ndarray) -> np.ndarray:
        """Surrogate derivative, per lane when variants differ."""
        if self._uniform_surrogate:
            method, alpha = self.surrogates[0]
            return surrogate_derivative(x, method=method, alpha=alpha)
        n = x.shape[0] // self.k
        out = np.empty_like(x)
        for lane, (method, alpha) in enumerate(self.surrogates):
            rows = slice(lane * n, (lane + 1) * n)
            out[rows] = surrogate_derivative(x[rows], method=method, alpha=alpha)
        return out

    def step_numpy(self, input_current, state=None):
        """Stacked twin of :meth:`LIFCell.step_numpy`."""
        if state is None:
            i_prev = np.zeros_like(input_current)
            v_prev = np.zeros_like(input_current)
        else:
            i_prev, v_prev = state
        scale = self.scale.for_array(input_current)
        v_leak = self.v_leak.for_array(input_current)
        v_th = self.v_th.for_array(input_current)
        v_new = v_leak - v_prev
        v_new += i_prev
        v_new *= scale
        v_new += v_prev
        scratch = v_new - v_th
        spikes = np.greater(scratch, 0).astype(scratch.dtype)
        if self.reset_mode == "hard":
            v_new *= np.subtract(self.one, spikes, out=scratch)
            v_new += np.multiply(spikes, self.v_reset, out=scratch)
        else:
            v_new -= np.multiply(
                spikes, self.reset_drop.for_array(input_current), out=scratch
            )
        i_new = i_prev * self.decay.for_array(input_current)
        i_new += input_current
        return spikes, (i_new, v_new)

    def step_record_numpy(self, input_current, state=None):
        """Stacked twin of :meth:`LIFCell.step_record_numpy`."""
        if state is None:
            i_prev = np.zeros_like(input_current)
            v_prev = np.zeros_like(input_current)
        else:
            i_prev, v_prev = state
        scale = self.scale.for_array(input_current)
        v_leak = self.v_leak.for_array(input_current)
        v_th = self.v_th.for_array(input_current)
        v_decayed = v_leak - v_prev
        v_decayed += i_prev
        v_decayed *= scale
        v_decayed += v_prev
        x = v_decayed - v_th
        spikes = np.greater(x, 0).astype(x.dtype)
        if self.reset_mode == "hard":
            v_new = np.subtract(self.one, spikes, dtype=x.dtype)
            v_new *= v_decayed
            if self._v_reset_value != 0.0:
                v_new += self.v_reset * spikes
            ctx = (x, v_decayed)
        else:
            v_new = v_decayed - spikes * self.reset_drop.for_array(input_current)
            ctx = (x, None)
        i_new = i_prev * self.decay.for_array(input_current)
        i_new += input_current
        return spikes, (i_new, v_new), ctx

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        """Stacked twin of :meth:`LIFCell.step_backward_numpy`."""
        x, v_decayed = ctx
        if g_state is None:
            gi = np.zeros_like(x)
            gv = np.zeros_like(x)
        else:
            gi, gv = g_state
        scale = self.scale.for_array(x)
        decay = self.decay.for_array(x)
        derivative = self._derivative(x)
        if self.reset_mode == "hard":
            g_x = gv * v_decayed
            if self._v_reset_value != 0.0:
                np.subtract(g_spikes + gv * self.v_reset, g_x, out=g_x)
            else:
                np.subtract(g_spikes, g_x, out=g_x)
            g_x *= derivative
            g_vd = np.subtract(self.one, x > 0, dtype=x.dtype)
            g_vd *= gv
            g_vd += g_x
        else:
            g_x = gv * self.reset_drop.for_array(x)
            np.subtract(g_spikes, g_x, out=g_x)
            g_x *= derivative
            g_vd = gv + g_x
        g_add1 = np.multiply(g_vd, scale, out=g_x)
        g_v_prev = np.subtract(g_vd, g_add1, out=g_vd)
        g_i_prev = np.multiply(gi, decay, out=derivative)
        g_i_prev += g_add1
        return gi, (g_i_prev, g_v_prev)


class StackedLICell:
    """K-variant leaky-integrator readout over a lane-folded batch."""

    def __init__(self, cells: Sequence[LICell]) -> None:
        params = [cell.params for cell in cells]
        self.k = len(cells)
        self.scale = _LaneScalars([p.dt * p.tau_mem_inv for p in params])
        self.v_leak = _LaneScalars([p.v_leak for p in params])
        self.decay = _LaneScalars([p.synaptic_decay for p in params])

    def step_numpy(self, input_current, state=None):
        """Stacked twin of :meth:`LICell.step_numpy`."""
        if state is None:
            i_prev = np.zeros_like(input_current)
            v_prev = np.zeros_like(input_current)
        else:
            i_prev, v_prev = state
        scale = self.scale.for_array(input_current)
        v_leak = self.v_leak.for_array(input_current)
        dv = scale * ((v_leak - v_prev) + i_prev)
        v_new = v_prev + dv
        i_new = i_prev * self.decay.for_array(input_current) + input_current
        return v_new, (i_new, v_new)

    def step_backward_numpy(self, g_membrane, g_i):
        """Stacked twin of :meth:`LICell.step_backward_numpy`."""
        if g_i is None:
            g_i = np.zeros_like(g_membrane)
        scale = self.scale.for_array(g_membrane)
        decay = self.decay.for_array(g_membrane)
        g_add1 = g_membrane * scale
        g_i_prev = g_add1 + g_i * decay
        return g_i, (g_i_prev, g_membrane, -g_add1)


# -- stacked synaptic transforms ----------------------------------------------


def _gate(sinks: list | None, alive: list[bool]) -> list | None:
    """Per-lane sinks masked by a stage's per-lane aliveness window."""
    if sinks is None:
        return None
    return [sink if alive[lane] else None for lane, sink in enumerate(sinks)]


class _StackedConv:
    """K Conv2d modules sharing one folded im2col, per-lane GEMMs."""

    def __init__(self, convs: Sequence[Conv2d]) -> None:
        self.convs = list(convs)

    def _weights(self) -> list[np.ndarray]:
        return [conv.weight.data for conv in self.convs]

    def _biases(self) -> list[np.ndarray | None]:
        return [
            conv.bias.data if conv.bias is not None else None for conv in self.convs
        ]

    def forward(self, x, alive):
        plan = self.convs[0]._plan_for(x)
        return plan.stacked(x, self._weights(), self._biases(), alive)

    def record(self, x, alive):
        plan = self.convs[0]._plan_for(x)
        return plan.stacked(x, self._weights(), self._biases(), alive), (x, plan)

    def backward(self, g, ctx, sinks, alive, want_input_grad=True):
        x, plan = ctx
        collect = sinks is not None and any(sink is not None for sink in sinks)
        if not (collect or want_input_grad):
            return None
        g_mat = plan.grad_as_matrix(g)
        if collect:
            wanted = [sink is not None for sink in sinks]
            grads = plan.stacked_backward_weights(
                g, x, self.convs[0].weight.shape, wanted, g_mat
            )
            n = g.shape[0] // len(self.convs)
            for lane, conv in enumerate(self.convs):
                sink = sinks[lane]
                if sink is None:
                    continue
                sink.append((conv.weight, grads[lane]))
                if conv.bias is not None:
                    block = g[lane * n : (lane + 1) * n]
                    sink.append((conv.bias, block.sum(axis=(0, 2, 3))))
        if not want_input_grad:
            return None
        return plan.stacked_backward_input(g, self._weights(), alive, g_mat)


class _StackedLinear:
    """K Linear modules, per-lane GEMMs on contiguous row blocks."""

    def __init__(self, linears: Sequence[Linear]) -> None:
        self.linears = list(linears)

    def forward(self, x, alive):
        k = len(self.linears)
        n = x.shape[0] // k
        out = np.empty(
            (x.shape[0], self.linears[0].weight.data.shape[0]), dtype=x.dtype
        )
        for lane, linear in enumerate(self.linears):
            rows = slice(lane * n, (lane + 1) * n)
            if alive is not None and not alive[lane]:
                out[rows] = 0.0
                continue
            lane_out = x[rows] @ linear.weight.data.T
            if linear.bias is not None:
                lane_out = lane_out + linear.bias.data
            out[rows] = lane_out
        return out

    def record(self, x, alive):
        return self.forward(x, alive), x

    def backward(self, g, ctx, sinks, alive, want_input_grad=True):
        x = ctx
        k = len(self.linears)
        n = g.shape[0] // k
        g_in = (
            np.empty((g.shape[0], self.linears[0].weight.data.shape[1]), dtype=g.dtype)
            if want_input_grad
            else None
        )
        for lane, linear in enumerate(self.linears):
            rows = slice(lane * n, (lane + 1) * n)
            sink = sinks[lane] if sinks is not None else None
            if sink is not None:
                sink.append((linear.weight, (x[rows].T @ g[rows]).transpose()))
                if linear.bias is not None:
                    sink.append((linear.bias, g[rows].sum(axis=0)))
            if g_in is None:
                continue
            if alive is not None and not alive[lane]:
                g_in[rows] = 0.0
                continue
            g_in[rows] = g[rows] @ linear.weight.data
        return g_in


class _StackedLaneLocal:
    """Parameterless lane-local transform (pooling, flatten), run fold-wide.

    The member modules are configuration-identical and stateless, so one
    of them serves the whole fold — its plan cache simply gains the
    folded-shape entry alongside any unstacked ones.
    """

    def __init__(self, module: Module) -> None:
        self.module = module

    def forward(self, x, alive):
        return self.module.forward_numpy(x)

    def record(self, x, alive):
        return self.module.forward_record_numpy(x)

    def backward(self, g, ctx, sinks, alive, want_input_grad=True):
        return self.module.backward_numpy(g, ctx, None, want_input_grad)


class _StackedSequential:
    """Composition of stacked stages, chained like ``Sequential``'s twins."""

    def __init__(self, stages: list) -> None:
        self.stages = stages

    def forward(self, x, alive):
        for stage in self.stages:
            x = stage.forward(x, alive)
        return x

    def record(self, x, alive):
        contexts = []
        for stage in self.stages:
            x, ctx = stage.record(x, alive)
            contexts.append(ctx)
        return x, contexts

    def backward(self, g, ctx, sinks, alive, want_input_grad=True):
        for index in reversed(range(len(self.stages))):
            g = self.stages[index].backward(
                g, ctx[index], sinks, alive, want_input_grad or index > 0
            )
        return g


def _build_stacked_transform(transforms: Sequence[Module]):
    """Lift K configuration-compatible transforms into one stacked stage.

    Exact-type matching plays the role :func:`~repro.utils.dispatch.
    has_trusted_twin` plays on the unstacked fast paths: a subclass may
    have changed the semantics its stacked mirror assumes, so anything
    but the known module types (or a ``Sequential`` of them) returns
    ``None`` and the variant set is rejected from stacking.
    """
    first = transforms[0]
    if any(type(t) is not type(first) for t in transforms[1:]):
        return None
    if type(first) is Sequential:
        members = [list(t) for t in transforms]
        if any(len(m) != len(members[0]) for m in members[1:]):
            return None
        stages = []
        for position in range(len(members[0])):
            stage = _build_stacked_transform([m[position] for m in members])
            if stage is None:
                return None
            stages.append(stage)
        return _StackedSequential(stages)
    if type(first) is Conv2d:
        if any(
            t.weight.data.shape != first.weight.data.shape
            or t.stride != first.stride
            or t.padding != first.padding
            or (t.bias is None) != (first.bias is None)
            for t in transforms[1:]
        ):
            return None
        return _StackedConv(transforms)
    if type(first) is Linear:
        if any(
            t.weight.data.shape != first.weight.data.shape
            or (t.bias is None) != (first.bias is None)
            for t in transforms[1:]
        ):
            return None
        return _StackedLinear(transforms)
    if type(first) in (MaxPool2d, AvgPool2d):
        if any(
            t.kernel_size != first.kernel_size or t.stride != first.stride
            for t in transforms[1:]
        ):
            return None
        return _StackedLaneLocal(first)
    if type(first) is Flatten:
        if any(t.start_dim != first.start_dim for t in transforms[1:]):
            return None
        return _StackedLaneLocal(first)
    return None


# -- stacked encoders ---------------------------------------------------------


class _StackedConstantCurrentEncoder:
    """K constant-current LIF encoders with per-variant injection scale."""

    stateful = True
    stochastic = False

    def __init__(self, encoders: Sequence[ConstantCurrentLIFEncoder]) -> None:
        self.cell = StackedLIFCell([encoder.cell for encoder in encoders])
        self.scale = _LaneScalars(
            [encoder.input_scale for encoder in encoders]
        )

    def step_numpy(self, image, state, alive):
        return self.cell.step_numpy(image * self.scale.for_array(image), state)

    def step_record_numpy(self, image, state, alive):
        return self.cell.step_record_numpy(image * self.scale.for_array(image), state)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        g_current, g_prev = self.cell.step_backward_numpy(g_spikes, g_state, ctx)
        return g_current * self.scale.for_array(g_current), g_prev


class _StackedPoissonEncoder:
    """K Poisson encoders, each drawing from its own member's generator.

    Per-variant draws happen lane by lane in lane order, consuming each
    member's stream with exactly the unstacked call pattern — and *only*
    while that variant is alive, so a ragged stack never over-consumes a
    shorter variant's generator on padded steps.
    """

    stateful = False
    stochastic = True

    def __init__(self, encoders: Sequence[PoissonEncoder]) -> None:
        self.encoders = list(encoders)

    def _draw(self, image, alive, with_derivative):
        k = len(self.encoders)
        n = image.shape[0] // k
        sample = np.zeros_like(image)
        derivative = np.zeros_like(image) if with_derivative else None
        for lane, encoder in enumerate(self.encoders):
            if alive is not None and not alive[lane]:
                continue
            rows = slice(lane * n, (lane + 1) * n)
            img = image[rows]
            probability = np.clip(encoder.scale * img, 0.0, 1.0)
            sample[rows] = (encoder._rng.random(img.shape) < probability).astype(
                img.dtype
            )
            if with_derivative:
                active = ((encoder.scale * img) > 0.0) & ((encoder.scale * img) < 1.0)
                derivative[rows] = encoder.scale * active.astype(img.dtype)
        return sample, None, derivative

    def step_numpy(self, image, state, alive):
        sample, new_state, _derivative = self._draw(image, alive, False)
        return sample, new_state

    def step_record_numpy(self, image, state, alive):
        return self._draw(image, alive, True)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        return g_spikes * ctx, None


_ENCODER_STACKS = {
    ConstantCurrentLIFEncoder: _StackedConstantCurrentEncoder,
    PoissonEncoder: _StackedPoissonEncoder,
}


# -- compatibility ------------------------------------------------------------


def stack_compatibility(members: Sequence[SpikingNetwork]) -> str | None:
    """Why ``members`` cannot run as one stack; ``None`` when they can.

    The check is the stacked analogue of ``_fused_ready``/
    ``backward_ready`` plus the structural constraints folding adds:
    equal depth, exact known cell/encoder/transform types (a subclass may
    have changed the semantics the stacked mirrors hard-code), matching
    transform configurations, and reset semantics the twins branch on
    agreeing across the stack.  Incompatible variants are not an error at
    the engine level — they simply run unstacked.
    """
    if not members:
        return "empty stack"
    first = members[0]
    for member in members:
        if not isinstance(member, SpikingNetwork):
            return f"not a SpikingNetwork: {type(member).__name__}"
        if not (member.use_synapse_plans and member.use_fused_backward):
            return "fused paths disabled on a member"
        if not member.backward_ready():
            return "member fails the fused-BPTT contract"
        if not member._fused_ready():
            return "member fails the fused-inference contract"
        if len(member.layers) != len(first.layers):
            return "layer depth differs across members"
        if type(member.encoder) is not type(first.encoder):
            return "encoder types differ across members"
        if type(member.encoder) not in _ENCODER_STACKS:
            return f"unsupported encoder {type(member.encoder).__name__}"
        for layer in member.layers:
            if type(layer.cell) is not LIFCell:
                return f"custom LIF cell {type(layer.cell).__name__}"
        if type(member.readout.cell) is not LICell:
            return f"custom readout cell {type(member.readout.cell).__name__}"
        if isinstance(member.encoder, ConstantCurrentLIFEncoder) and (
            type(member.encoder.cell) is not LIFCell
        ):
            return f"custom encoder cell {type(member.encoder.cell).__name__}"
    groups = [
        [member.layers[index].cell.params for member in members]
        for index in range(len(first.layers))
    ]
    if isinstance(first.encoder, ConstantCurrentLIFEncoder):
        groups.append([member.encoder.cell.params for member in members])
    for params in groups:
        if any(p.reset_mode != params[0].reset_mode for p in params):
            return "reset_mode differs across members"
        if any(p.v_reset != params[0].v_reset for p in params):
            return "v_reset differs across members"
    for index in range(len(first.layers)):
        transforms = [member.layers[index].transform for member in members]
        if _build_stacked_transform(transforms) is None:
            return f"layer {index} transform is not stackable"
    if _build_stacked_transform([m.readout.transform for m in members]) is None:
        return "readout transform is not stackable"
    return None


# -- the stack ----------------------------------------------------------------


@dataclass
class StackedTape:
    """Everything the stacked backward needs from one recorded forward."""

    trace: list[np.ndarray] = field(default_factory=list)
    encoder_ctxs: list[object] = field(default_factory=list)
    layer_transform_ctxs: list[list[object]] = field(default_factory=list)
    layer_cell_ctxs: list[list[object]] = field(default_factory=list)
    readout_ctxs: list[object] = field(default_factory=list)


class VariantStack:
    """K same-architecture spiking networks executed as one folded pass.

    Construction raises ``ValueError`` with the :func:`stack_compatibility`
    reason when the members cannot be stacked; the engine treats that as
    "run these unstacked" rather than a failure.

    Batches are *lane-folded*: member ``k``'s batch occupies rows
    ``[k*N, (k+1)*N)`` of every folded array, and per-member labels/
    results are lists indexed by lane.  Parameters are **not** copied —
    the stack reads each member's live ``Parameter`` objects at call
    time, and :meth:`fused_loss_backward` accumulates gradients straight
    into them, so per-member optimizers work unchanged.
    """

    def __init__(self, members: Sequence[SpikingNetwork]) -> None:
        reason = stack_compatibility(members)
        if reason is not None:
            raise ValueError(f"cannot stack variants: {reason}")
        self.members = list(members)
        self.k = len(self.members)
        self.time_steps = tuple(member.time_steps for member in self.members)
        self.max_steps = max(self.time_steps)
        self.depth = len(self.members[0].layers)
        encoder_stack = _ENCODER_STACKS[type(self.members[0].encoder)]
        self.encoder = encoder_stack([member.encoder for member in self.members])
        self.encoder_stateful = self.encoder.stateful
        self.layer_ops = [
            _build_stacked_transform(
                [member.layers[index].transform for member in self.members]
            )
            for index in range(self.depth)
        ]
        self.layer_cells = [
            StackedLIFCell([member.layers[index].cell for member in self.members])
            for index in range(self.depth)
        ]
        self.readout_op = _build_stacked_transform(
            [member.readout.transform for member in self.members]
        )
        self.readout_cell = StackedLICell(
            [member.readout.cell for member in self.members]
        )
        self.stacked_forward_count = 0
        """Folded forward passes served — observability hook for tests."""
        self.stacked_backward_count = 0
        """Folded backward passes served — observability hook for tests."""

    # -- folding helpers ------------------------------------------------------

    def _lane_batch(self, folded: np.ndarray) -> int:
        n, remainder = divmod(folded.shape[0], self.k)
        if remainder or n == 0:
            raise ShapeError(
                f"folded batch of {folded.shape[0]} does not split into "
                f"{self.k} equal variant lanes"
            )
        return n

    def lane_rows(self, lane: int, n: int) -> slice:
        """Row slice of variant ``lane`` in a folded array of lane batch ``n``."""
        return slice(lane * n, (lane + 1) * n)

    def fold(self, batches: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-variant batches (equal shapes) on the batch axis."""
        if len(batches) != self.k:
            raise ShapeError(f"expected {self.k} lane batches, got {len(batches)}")
        if any(batch.shape != batches[0].shape for batch in batches[1:]):
            raise ShapeError("lane batches must share a shape to fold")
        return np.concatenate(list(batches), axis=0)

    def split(self, folded: np.ndarray) -> list[np.ndarray]:
        """Per-variant views of a folded array."""
        n = self._lane_batch(folded)
        return [folded[self.lane_rows(lane, n)] for lane in range(self.k)]

    # -- forward --------------------------------------------------------------

    def _alive(self, t: int) -> list[bool]:
        return [t < steps for steps in self.time_steps]

    def _run_trace(self, image: np.ndarray) -> list[np.ndarray]:
        """Fused inference time loop; returns the folded membrane trace."""
        encoder_state = None
        layer_states: list = [None] * self.depth
        readout_state = None
        trace: list[np.ndarray] = []
        for t in range(self.max_steps):
            alive = self._alive(t)
            spikes, encoder_state = self.encoder.step_numpy(
                image, encoder_state, alive
            )
            for index, op in enumerate(self.layer_ops):
                spikes, layer_states[index] = self.layer_cells[index].step_numpy(
                    op.forward(spikes, alive), layer_states[index]
                )
            membrane, readout_state = self.readout_cell.step_numpy(
                self.readout_op.forward(spikes, alive), readout_state
            )
            trace.append(membrane)
        return trace

    def forward_logits(self, image: np.ndarray) -> list[np.ndarray]:
        """Per-variant logits ``(N, C)`` for a lane-folded batch.

        Each variant decodes its own trace prefix (its first ``T_k``
        steps) through its own decoder, exactly like the unstacked fused
        inference path.
        """
        self.stacked_forward_count += 1
        n = self._lane_batch(image)
        trace = self._run_trace(image)
        logits: list[np.ndarray] = []
        for lane, member in enumerate(self.members):
            rows = self.lane_rows(lane, n)
            lane_trace = [trace[t][rows] for t in range(member.time_steps)]
            if has_trusted_twin(member.decoder, "forward", "decode_numpy"):
                logits.append(member.decoder.decode_numpy(lane_trace))
            else:
                with no_grad():
                    decoded = member.decoder([Tensor(step) for step in lane_trace])
                logits.append(decoded.data)
        return logits

    def record_forward(self, image: np.ndarray) -> StackedTape:
        """Recording twin of :meth:`_run_trace` for the stacked backward."""
        tape = StackedTape(
            layer_transform_ctxs=[[] for _ in range(self.depth)],
            layer_cell_ctxs=[[] for _ in range(self.depth)],
        )
        encoder_state = None
        layer_states: list = [None] * self.depth
        readout_state = None
        for t in range(self.max_steps):
            alive = self._alive(t)
            spikes, encoder_state, encoder_ctx = self.encoder.step_record_numpy(
                image, encoder_state, alive
            )
            tape.encoder_ctxs.append(encoder_ctx)
            for index, op in enumerate(self.layer_ops):
                current, transform_ctx = op.record(spikes, alive)
                spikes, layer_states[index], cell_ctx = self.layer_cells[
                    index
                ].step_record_numpy(current, layer_states[index])
                tape.layer_transform_ctxs[index].append(transform_ctx)
                tape.layer_cell_ctxs[index].append(cell_ctx)
            current, readout_ctx = self.readout_op.record(spikes, alive)
            membrane, readout_state = self.readout_cell.step_numpy(
                current, readout_state
            )
            tape.readout_ctxs.append(readout_ctx)
            tape.trace.append(membrane)
        return tape

    # -- backward -------------------------------------------------------------

    def _decode_heads(self, tape: StackedTape, labels: Sequence[np.ndarray]):
        """Per-variant decode/loss heads over each lane's trace prefix.

        Folding the loss itself would change the mean-reduction seed from
        ``1/N`` to ``1/(K*N)``, so each variant runs its own (tiny)
        autograd head — identical to the unstacked ``_decode_head`` —
        and its leaf gradients are scattered into folded per-step arrays.
        Returns ``(losses, logits, g_trace, t_heads)`` with per-lane
        ``t_heads`` anchoring the structural-aliveness windows.
        """
        n = self._lane_batch(tape.trace[0])
        losses: list[Tensor] = []
        logits_list: list[Tensor] = []
        g_trace: list[np.ndarray | None] = [None] * len(tape.trace)
        t_heads: list[int] = []
        for lane, member in enumerate(self.members):
            rows = self.lane_rows(lane, n)
            leaves = [
                Tensor(tape.trace[t][rows], requires_grad=True)
                for t in range(member.time_steps)
            ]
            logits = member.decoder(leaves)
            loss = F.cross_entropy(logits, labels[lane])
            loss.backward()
            t_head = -1
            for t, leaf in enumerate(leaves):
                if leaf.grad is None:
                    continue
                t_head = t
                if g_trace[t] is None:
                    g_trace[t] = np.zeros_like(tape.trace[t])
                g_trace[t][rows] = leaf.grad
            t_heads.append(t_head)
            losses.append(loss)
            logits_list.append(logits)
        return losses, logits_list, g_trace, t_heads

    def backward_pass(
        self,
        tape: StackedTape,
        g_trace: list[np.ndarray | None],
        t_heads: list[int],
        param_lanes: list[bool] | None = None,
        want_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Stacked mirror of :func:`repro.snn.backward.backward_pass`.

        One reverse-time sweep serves every variant: a stage runs when
        *any* lane is inside its structural-aliveness window (anchored at
        ``max(t_heads)``), while per-lane windows gate each lane's GEMMs,
        parameter sinks and image pieces — a lane outside its window
        carries exact-zero gradients through the folded elementwise
        stages, so running them fold-wide is value-identical to the
        unstacked path skipping them.  ``param_lanes`` selects the lanes
        whose parameter gradients are accumulated (``None`` for attack
        crafting, which skips every weight-gradient GEMM).
        """
        steps = len(tape.trace)
        t_head = max(t_heads, default=-1)
        depth = self.depth
        n = self._lane_batch(tape.trace[0]) if tape.trace else 0
        collect = param_lanes is not None and any(param_lanes)
        cell_state_grads: list = [None] * depth
        encoder_state_grad = None
        readout_gi: np.ndarray | None = None
        readout_gv_direct: np.ndarray | None = None
        readout_gv_leak: np.ndarray | None = None
        image_pieces: list[list[np.ndarray]] = [[] for _ in range(self.k)]
        param_pieces: list[list[list | None]] = []
        for t in reversed(range(min(steps, t_head + 1))):
            step_sinks: list[list | None] | None = (
                [
                    [] if param_lanes[lane] else None  # type: ignore[index]
                    for lane in range(self.k)
                ]
                if collect
                else None
            )
            g_head = g_trace[t]
            if g_head is None:
                g_head = np.zeros_like(tape.trace[t])
            if readout_gv_direct is None:
                g_membrane = g_head
            else:
                g_membrane = (g_head + readout_gv_direct) + readout_gv_leak
            g_current, (readout_gi, readout_gv_direct, readout_gv_leak) = (
                self.readout_cell.step_backward_numpy(g_membrane, readout_gi)
            )
            if t <= t_head - 1:
                alive = [t <= lane_head - 1 for lane_head in t_heads]
                g = self.readout_op.backward(
                    g_current,
                    tape.readout_ctxs[t],
                    _gate(step_sinks, alive),
                    alive,
                    want_input_grad or depth > 0,
                )
                for index in reversed(range(depth)):
                    remaining = depth - index
                    if t > t_head - remaining:
                        break
                    g_current, cell_state_grads[index] = self.layer_cells[
                        index
                    ].step_backward_numpy(
                        g, cell_state_grads[index], tape.layer_cell_ctxs[index][t]
                    )
                    if t > t_head - 1 - remaining:
                        break
                    alive = [
                        t <= lane_head - 1 - remaining for lane_head in t_heads
                    ]
                    g = self.layer_ops[index].backward(
                        g_current,
                        tape.layer_transform_ctxs[index][t],
                        _gate(step_sinks, alive),
                        alive,
                        want_input_grad or index > 0,
                    )
                else:
                    if want_input_grad:
                        piece, encoder_state_grad = self.encoder.step_backward_numpy(
                            g, encoder_state_grad, tape.encoder_ctxs[t]
                        )
                        for lane, lane_head in enumerate(t_heads):
                            limit = (
                                lane_head - 2 - depth
                                if self.encoder_stateful
                                else lane_head - 1 - depth
                            )
                            if t <= limit:
                                image_pieces[lane].append(
                                    piece[self.lane_rows(lane, n)]
                                )
            if step_sinks is not None and any(step_sinks):
                param_pieces.append(step_sinks)
        if collect:
            for step_sinks in reversed(param_pieces):
                for sink in step_sinks:
                    if not sink:
                        continue
                    for parameter, grad in sink:
                        accumulate_grad(parameter, grad)
        if not want_input_grad:
            return None
        folded: np.ndarray | None = None
        for lane in range(self.k):
            lane_grad: np.ndarray | None = None
            for piece in reversed(image_pieces[lane]):
                lane_grad = piece if lane_grad is None else lane_grad + piece
            if lane_grad is None:
                continue
            if folded is None:
                folded = np.zeros(
                    (self.k * n,) + lane_grad.shape[1:], dtype=lane_grad.dtype
                )
            folded[self.lane_rows(lane, n)] = lane_grad
        return folded

    # -- public fused entry points --------------------------------------------

    def fused_input_gradient(
        self, images: np.ndarray, labels: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Folded input-pixel gradient; per-lane bitwise equal to the
        members' own :meth:`SpikingNetwork.fused_input_gradient`."""
        images = np.asarray(images)
        tape = self.record_forward(images)
        _losses, _logits, g_trace, t_heads = self._decode_heads(tape, labels)
        gradient = self.backward_pass(
            tape, g_trace, t_heads, param_lanes=None, want_input_grad=True
        )
        self.stacked_backward_count += 1
        return gradient if gradient is not None else np.zeros_like(images)

    def fused_loss_backward(
        self,
        images: np.ndarray,
        labels: Sequence[np.ndarray],
        param_lanes: list[bool] | None = None,
    ) -> list[tuple[float, np.ndarray]]:
        """One folded training backward for every (selected) variant.

        Accumulates each selected lane's parameter gradients into its
        member's ``param.grad`` — identically to that member's own
        ``fused_loss_backward`` — and returns per-lane
        ``(loss_value, logits)`` pairs for bookkeeping.
        """
        images = np.asarray(images)
        if param_lanes is None:
            param_lanes = [True] * self.k
        tape = self.record_forward(images)
        losses, logits_list, g_trace, t_heads = self._decode_heads(tape, labels)
        self.backward_pass(
            tape, g_trace, t_heads, param_lanes=param_lanes, want_input_grad=False
        )
        self.stacked_backward_count += 1
        return [
            (float(loss.data), logits.data)
            for loss, logits in zip(losses, logits_list)
        ]
