"""Graph-free backpropagation-through-time for spiking networks.

The fused inference path (:meth:`repro.snn.network.SpikingNetwork.
_forward_inference`) removed Tensor/graph overhead from the *forward*
simulation; this module is its backward mirror.  A recording forward
(:func:`record_forward`) runs the same compiled-plan time loop while
keeping the minimal per-step state BPTT needs — synaptic-transform inputs,
surrogate pre-activations, encoder contexts, the readout membrane trace —
and :func:`backward_pass` replays the loop in reverse, producing input
(and optionally parameter) gradients without constructing a single
autograd node in the hot loop.

Exactness contract
------------------
Every backward step performs the same float arithmetic, with the same
promoted constants and the same accumulation association, as the Tensor
path's backward closures, so the gradients are bitwise identical to
``loss.backward()`` through the unrolled graph (asserted by
tests/test_fused_backward.py).  Three pieces make that hold:

* transforms either honour the record/backward twin contract
  (``forward_record_numpy``/``backward_numpy``, checked per layer via
  :func:`~repro.utils.dispatch.has_trusted_twin`) or fall back to a
  per-step Tensor mini-graph — one leaf, one transform application, one
  local ``backward()`` — which *is* the autograd closure;
* neuron cells expose ``step_record_numpy``/``step_backward_numpy``
  twins mirroring their ``step`` dynamics (cells without them disqualify
  the whole fused backward — state couples time, so there is no local
  fallback);
* the decoder and loss run as a real (tiny) autograd graph over the
  recorded membrane trace, so any decoder works unchanged and the head
  gradient delivered to each time step equals the full graph's.

Memory is the usual BPTT trade: roughly one activation set per time step
— far less than the autograd path retains, since per-op closures and
intermediates are never created.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.nn.container import Sequential
from repro.nn.module import Module
from repro.nn.parameter import accumulate_grad
from repro.tensor.tensor import Tensor
from repro.utils.dispatch import has_trusted_twin

__all__ = ["BPTTTape", "backward_pass", "record_forward", "transform_bptt_ready"]


def transform_bptt_ready(transform: Module) -> bool:
    """Whether a synaptic transform is trusted on the plan-backed BPTT path.

    Mirrors the fused-forward contract: both twins must be defined at (or
    below) the class defining ``forward``, recursing into
    :class:`~repro.nn.container.Sequential` members.  Untrusted transforms
    do not disqualify the fused backward — they run per-step Tensor
    mini-graphs instead (see :func:`_fallback_op`).
    """
    if not (
        has_trusted_twin(transform, "forward", "forward_record_numpy")
        and has_trusted_twin(transform, "forward", "backward_numpy")
    ):
        return False
    if isinstance(transform, Sequential):
        return all(transform_bptt_ready(member) for member in transform)
    return True


@dataclass
class _TransformOp:
    """Resolved record/backward pair of one synaptic transform."""

    record: Callable[[np.ndarray], tuple[np.ndarray, object]]
    backward: Callable[[np.ndarray, object, list | None, bool], np.ndarray | None]
    """``backward(g, ctx, param_sink, want_input_grad)``; ``None`` back
    when the input gradient is not wanted (the twin path skips it)."""
    planned: bool
    """Whether the twin path (rather than the mini-graph fallback) runs."""


def _fallback_op(transform: Module) -> _TransformOp:
    """Per-step Tensor mini-graph fallback for an untrusted transform.

    Each time step builds a one-transform graph on a fresh leaf and
    backpropagates through it locally — exactly the closure the full
    autograd path would have recorded for that step, so input gradients
    match bitwise.  Parameter gradients are harvested out of the local
    graph into the caller's sink (and ``param.grad`` restored), so the
    fused backward accumulates them in its controlled order and attack
    crafting stays free of parameter side effects.  The local graph always
    produces the input gradient, so ``want_input_grad`` is ignored.
    """
    parameters = list(transform.parameters())

    def record(x: np.ndarray) -> tuple[np.ndarray, object]:
        leaf = Tensor(x, requires_grad=True)
        out = transform(leaf)
        return out.data, (leaf, out)

    def backward(
        g: np.ndarray, ctx: object, param_sink: list | None, want_input_grad: bool
    ) -> np.ndarray:
        leaf, out = ctx
        saved = [(parameter, parameter.grad) for parameter in parameters]
        for parameter in parameters:
            parameter.grad = None
        try:
            out.backward(g)
            if param_sink is not None:
                for parameter in parameters:
                    if parameter.grad is not None:
                        param_sink.append((parameter, parameter.grad))
        finally:
            for parameter, grad in saved:
                parameter.grad = grad
        grad = leaf.grad
        return grad if grad is not None else np.zeros_like(leaf.data)

    return _TransformOp(record, backward, planned=False)


def _resolve_op(transform: Module, use_plans: bool) -> _TransformOp:
    """Resolve one transform's BPTT callables (once per recorded forward)."""
    if use_plans and transform_bptt_ready(transform):
        return _TransformOp(
            transform.forward_record_numpy, transform.backward_numpy, planned=True
        )
    return _fallback_op(transform)


@dataclass
class BPTTTape:
    """Everything :func:`backward_pass` needs from one recorded forward."""

    trace: list[np.ndarray]
    """Per-step readout membranes ``(N, C)`` — input of the decode head."""

    encoder_ctxs: list[object]
    """Per-step encoder backward contexts."""

    layer_transform_ctxs: list[list[object]]
    """``[layer][t]`` backward contexts of the synaptic transforms."""

    layer_cell_ctxs: list[list[object]]
    """``[layer][t]`` backward contexts of the LIF populations."""

    readout_ctxs: list[object]
    """Per-step backward contexts of the readout transform."""

    layer_ops: list[_TransformOp] = field(default_factory=list)
    readout_op: _TransformOp | None = None

    encoder_stateful: bool = True
    """Whether the encoder threads recurrent state (ConstantCurrentLIF)
    or emits spikes directly from the image (Poisson).  A stateful
    encoder adds one state-update of latency, shifting the structural
    aliveness window of its input-gradient pieces by one step."""

    @property
    def planned_transforms(self) -> tuple[int, int]:
        """``(transforms on the twin path, total transforms)`` incl. readout."""
        ops = [*self.layer_ops, self.readout_op]
        return sum(1 for op in ops if op.planned), len(ops)


def record_forward(network, image: np.ndarray) -> BPTTTape:
    """Fused time loop that records the minimal per-step state BPTT needs.

    ``network`` is a :class:`~repro.snn.network.SpikingNetwork` whose
    :meth:`~repro.snn.network.SpikingNetwork.backward_ready` check passed.
    Spikes, membranes and transform outputs equal the autograd forward's
    bit for bit (the same plan/twin arithmetic as ``_forward_inference``).
    """
    layer_ops = [
        _resolve_op(layer.transform, network.use_synapse_plans)
        for layer in network.layers
    ]
    readout_op = _resolve_op(network.readout.transform, network.use_synapse_plans)
    cells = [layer.cell for layer in network.layers]
    steps = network.time_steps
    tape = BPTTTape(
        trace=[],
        encoder_ctxs=[],
        layer_transform_ctxs=[[] for _ in cells],
        layer_cell_ctxs=[[] for _ in cells],
        readout_ctxs=[],
        layer_ops=layer_ops,
        readout_op=readout_op,
    )
    encoder_state = None
    layer_states: list = [None] * len(cells)
    readout_state = None
    for _ in range(steps):
        spikes, encoder_state, encoder_ctx = network.encoder.step_record_numpy(
            image, encoder_state
        )
        tape.encoder_ctxs.append(encoder_ctx)
        for index, op in enumerate(layer_ops):
            current, transform_ctx = op.record(spikes)
            spikes, layer_states[index], cell_ctx = cells[index].step_record_numpy(
                current, layer_states[index]
            )
            tape.layer_transform_ctxs[index].append(transform_ctx)
            tape.layer_cell_ctxs[index].append(cell_ctx)
        current, readout_ctx = readout_op.record(spikes)
        membrane, readout_state = network.readout.cell.step_numpy(
            current, readout_state
        )
        tape.readout_ctxs.append(readout_ctx)
        tape.trace.append(membrane)
    tape.encoder_stateful = encoder_state is not None
    return tape


def backward_pass(
    network,
    tape: BPTTTape,
    g_trace: list[np.ndarray],
    want_param_grads: bool = False,
    want_input_grad: bool = True,
) -> np.ndarray | None:
    """Reverse-time sweep over a recorded forward; no graph is built.

    Parameters
    ----------
    network:
        The network :func:`record_forward` ran on (unchanged since).
    tape:
        The recorded forward.
    g_trace:
        Per-step loss gradients w.r.t. the readout membranes, as produced
        by the decode/loss head (``SpikingNetwork._decode_head``).  A
        ``None`` entry marks a membrane the head never consumed; the last
        non-``None`` index anchors the structural-aliveness windows below.
    want_param_grads:
        Accumulate parameter gradients into ``param.grad`` (training);
        off for attack crafting, which skips every weight-gradient GEMM.
    want_input_grad:
        Accumulate and return the input-pixel gradient; ``None`` is
        returned when disabled (pure training updates), and the stage
        reading the encoder's spikes then skips its transform's input
        gradient too (for a conv, its grad-column GEMM and col2im).

    The reverse loop visits time steps in descending order and, within a
    step, the readout first and then the spiking layers deepest-first —
    the wavefront order the unrolled graph's dependencies force.  Leaf
    accumulations are the one place the autograd engine's topological
    sort orders things the *other* way: contributions into the image and
    into parameters land in ascending time order.  The sweep therefore
    collects per-step pieces and folds them ascending afterwards, so
    every accumulation keeps the Tensor path's association bit for bit.

    Structural aliveness
    --------------------
    Each stage adds one state-update of input-to-output latency, so the
    synaptic current of stage ``s`` at step ``t`` reaches the loss only
    when enough steps remain (``t + stages-to-readout <= t_head``, with
    ``t_head`` the last head-consumed trace index).  The autograd engine
    never *visits* the dead ops — their parameters keep ``grad = None``
    (optimizers skip them) and dead image pieces are never added.  The
    fused sweep reproduces that by dropping dead steps' sink/piece
    contributions, which is what makes gradient None-ness — not just
    values — match the Tensor path.
    """
    cells = [layer.cell for layer in network.layers]
    readout_cell = network.readout.cell
    steps = len(tape.trace)
    t_head = max(
        (t for t, g in enumerate(g_trace) if g is not None), default=-1
    )
    depth = len(cells)
    cell_state_grads: list = [None] * depth
    encoder_state_grad = None
    readout_gi: np.ndarray | None = None
    readout_gv_direct: np.ndarray | None = None
    readout_gv_leak: np.ndarray | None = None
    image_pieces: list[np.ndarray] = []
    param_pieces: list[list[tuple]] = []
    for t in reversed(range(min(steps, t_head + 1))):
        param_sink: list[tuple] | None = [] if want_param_grads else None
        g_head = g_trace[t]
        if g_head is None:
            g_head = np.zeros_like(tape.trace[t])
        if readout_gv_direct is None:
            g_membrane = g_head
        else:
            g_membrane = (g_head + readout_gv_direct) + readout_gv_leak
        g_current, (readout_gi, readout_gv_direct, readout_gv_leak) = (
            readout_cell.step_backward_numpy(g_membrane, readout_gi)
        )
        # Every stage below runs only inside its structural-aliveness
        # window ``t + stages-to-readout <= t_head`` — outside it the
        # incoming gradients are exact-zero arrays the autograd engine
        # never visits, so skipping reproduces its work (and None-grads)
        # precisely while saving the whole dead wavefront.
        if t <= t_head - 1:
            # The stage that reads the encoder's spikes (the first layer,
            # or the readout of a layerless network) hands nothing on
            # unless the image gradient is wanted, so its transform skips
            # the input gradient then.
            g = tape.readout_op.backward(
                g_current,
                tape.readout_ctxs[t],
                param_sink,
                want_input_grad or depth > 0,
            )
            for index in reversed(range(depth)):
                remaining = depth - index
                if t > t_head - remaining:
                    break
                g_current, cell_state_grads[index] = cells[index].step_backward_numpy(
                    g, cell_state_grads[index], tape.layer_cell_ctxs[index][t]
                )
                if t > t_head - 1 - remaining:
                    break
                g = tape.layer_ops[index].backward(
                    g_current,
                    tape.layer_transform_ctxs[index][t],
                    param_sink,
                    want_input_grad or index > 0,
                )
            else:
                # Reached only when every stage above ran, i.e. the
                # encoder's spike gradient is structurally alive at t.
                if want_input_grad:
                    piece, encoder_state_grad = network.encoder.step_backward_numpy(
                        g, encoder_state_grad, tape.encoder_ctxs[t]
                    )
                    # A stateful encoder's piece lags one state hop behind
                    # its spike gradient (the boundary step only seeds the
                    # recurrent state grads); a stateless encoder's piece
                    # is alive whenever its spikes are.
                    if not tape.encoder_stateful or t <= t_head - 2 - depth:
                        image_pieces.append(piece)
        if param_sink:
            param_pieces.append(param_sink)
    # Ascending-time folds (pieces were collected in descending order).
    if want_param_grads:
        for sink in reversed(param_pieces):
            for parameter, grad in sink:
                accumulate_grad(parameter, grad)
    g_image: np.ndarray | None = None
    for piece in reversed(image_pieces):
        g_image = piece if g_image is None else g_image + piece
    return g_image
