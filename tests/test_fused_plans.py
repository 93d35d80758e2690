"""Parity contracts of the PR-3 performance layer.

Two families of fast paths must be indistinguishable from the canonical
implementations, by construction and by these tests:

* **Compiled synapse plans** — ``forward_numpy`` twins of the synaptic
  transforms, resolved once per fused forward instead of per time step.
* **Epsilon-shared attack sweeps** — ``evaluate_attack_sweep`` sharing
  clean predictions / white-box gradients across a robustness curve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.attacks import (
    BIM,
    FGSM,
    PGD,
    GaussianNoise,
    SignNoise,
    UniformNoise,
    evaluate_attack,
    evaluate_attack_sweep,
    shares_clean_gradient,
)
from repro.data.dataset import ArrayDataset
from repro.models import build_model
from repro.robustness.security import robustness_curve
from repro.snn.network import _transform_fused_ready
from repro.tensor import functional as F
from repro.tensor.functional import Conv2dPlan, _strided_windows
from repro.tensor.tensor import Tensor, no_grad

SPIKING_MODELS = ["snn_lenet_mini", "snn_lenet5", "snn_cnn5"]


def _input_size(name: str) -> int:
    # snn_lenet5 needs the /2 - 4 geometry to stay positive.
    return 28 if name == "snn_lenet5" else 16


class TestModuleTwins:
    """forward_numpy must equal the Tensor forward, value for value."""

    @pytest.mark.parametrize("stride", [1, 2, (1, 2)])
    @pytest.mark.parametrize("padding", [0, 1, (2, 1)])
    def test_conv2d_twin(self, rng, stride, padding):
        conv = nn.Conv2d(3, 5, 3, stride=stride, padding=padding, rng=0)
        x = rng.standard_normal((4, 3, 11, 9)).astype(np.float32)
        reference = conv(Tensor(x)).data
        np.testing.assert_array_equal(conv.forward_numpy(x), reference)
        # Second call exercises the cached plan (and its scratch reuse).
        np.testing.assert_array_equal(conv.forward_numpy(x), reference)

    def test_conv2d_twin_no_bias_and_new_shape(self, rng):
        conv = nn.Conv2d(2, 4, 3, padding=1, bias=False, rng=0)
        for batch in (2, 5):
            x = rng.standard_normal((batch, 2, 8, 8)).astype(np.float32)
            np.testing.assert_array_equal(
                conv.forward_numpy(x), conv(Tensor(x)).data
            )
        assert len(conv._plans) == 2

    def test_conv2d_twin_tracks_weight_updates(self, rng):
        conv = nn.Conv2d(1, 2, 3, rng=0)
        x = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        conv.forward_numpy(x)  # compile the plan at the old weights
        conv.weight.data = conv.weight.data * 2.0
        np.testing.assert_array_equal(conv.forward_numpy(x), conv(Tensor(x)).data)

    def test_linear_twin(self, rng):
        linear = nn.Linear(7, 4, rng=0)
        x = rng.standard_normal((5, 7)).astype(np.float32)
        np.testing.assert_array_equal(linear.forward_numpy(x), linear(Tensor(x)).data)

    def test_linear_twin_rejects_bad_shape(self, rng):
        from repro.errors import ShapeError

        linear = nn.Linear(7, 4, rng=0)
        with pytest.raises(ShapeError):
            linear.forward_numpy(rng.standard_normal((5, 6)).astype(np.float32))

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 1), (3, 2), ((2, 3), (1, 2))])
    def test_max_pool_twin(self, rng, kernel, stride):
        pool = nn.MaxPool2d(kernel, stride)
        x = rng.standard_normal((3, 4, 9, 9)).astype(np.float32)
        np.testing.assert_array_equal(pool.forward_numpy(x), pool(Tensor(x)).data)

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)])
    def test_avg_pool_twin(self, rng, kernel, stride):
        pool = nn.AvgPool2d(kernel, stride)
        x = rng.standard_normal((3, 4, 9, 9)).astype(np.float32)
        np.testing.assert_array_equal(pool.forward_numpy(x), pool(Tensor(x)).data)

    def test_flatten_twin(self, rng):
        flatten = nn.Flatten()
        x = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        np.testing.assert_array_equal(
            flatten.forward_numpy(x), flatten(Tensor(x)).data
        )

    def test_sequential_twin(self, rng):
        seq = nn.Sequential(
            nn.MaxPool2d(2), nn.Conv2d(2, 3, 3, padding=1, rng=0),
            nn.Flatten(), nn.Linear(3 * 4 * 4, 6, rng=1),
        )
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(seq.forward_numpy(x), seq(Tensor(x)).data)

    def test_float64_inputs(self, rng):
        conv = nn.Conv2d(1, 2, 3, padding=1, rng=0)
        x32 = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
        x64 = x32.astype(np.float64)
        np.testing.assert_array_equal(conv.forward_numpy(x64), conv(Tensor(x64)).data)
        # Both dtypes coexist as separate plans.
        np.testing.assert_array_equal(conv.forward_numpy(x32), conv(Tensor(x32)).data)
        assert len(conv._plans) == 2


# (stride, padding, kernel, dtype, batch): strided, asymmetric, non-square,
# float64, N=1, and 5x5 / 5x4 kernels.
_CONV_GEOMETRIES = [
    (1, 1, (3, 3), np.float32, 4),
    (2, 0, (3, 3), np.float32, 3),
    ((1, 2), (2, 1), (3, 2), np.float32, 2),
    (2, (2, 1), (2, 3), np.float64, 1),
    (1, 2, (5, 5), np.float32, 2),
    ((2, 1), 0, (5, 4), np.float64, 1),
]


def _conv_case(rng, geometry, c_in=3, c_out=4, h=9, w=8):
    stride, padding, (kh, kw), dtype, n = geometry
    x = rng.standard_normal((n, c_in, h, w)).astype(dtype)
    weight = rng.standard_normal((c_out, c_in, kh, kw)).astype(dtype)
    plan = Conv2dPlan(x.shape, np.dtype(dtype), weight.shape, stride, padding)
    return plan, x, weight


def _reference_cols(plan, x):
    """conv2d's im2col: strided windows of the padded input, transposed."""
    padded = np.pad(x, ((0, 0), (0, 0), (plan.ph, plan.ph), (plan.pw, plan.pw)))
    windows = _strided_windows(padded, plan.kh, plan.kw, plan.sh, plan.sw)
    return windows.transpose(0, 2, 3, 1, 4, 5)


def _reference_col2im(plan, grad_cols):
    """conv2d's backward-closure scatter into an NCHW padded grid."""
    n, c_in, h, w = plan.shape
    grad_windows = grad_cols.reshape(
        n, plan.oh, plan.ow, c_in, plan.kh, plan.kw
    ).transpose(0, 3, 1, 2, 4, 5)
    grad_padded = np.zeros((n, c_in, h + 2 * plan.ph, w + 2 * plan.pw), plan.dtype)
    for i in range(plan.kh):
        for j in range(plan.kw):
            grad_padded[
                :, :, i : i + plan.oh * plan.sh : plan.sh,
                j : j + plan.ow * plan.sw : plan.sw,
            ] += grad_windows[:, :, :, :, i, j]
    return grad_padded[:, :, plan.ph : plan.ph + h, plan.pw : plan.pw + w]


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestConvPlanDataMovement:
    """Conv2dPlan's NHWC im2col/col2im must move the bytes of conv2d's."""

    @pytest.mark.parametrize("geometry", _CONV_GEOMETRIES)
    def test_fill_cols_matches_strided_windows(self, rng, geometry):
        plan, x, _weight = _conv_case(rng, geometry)
        # Twice, with fresh data: the staging border must stay zero.
        for batch in (x, rng.standard_normal(x.shape).astype(x.dtype)):
            plan._fill_cols(batch)
            _assert_same_bytes(plan._cols6d, _reference_cols(plan, batch))

    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("geometry", _CONV_GEOMETRIES)
    def test_col2im_matches_closure_scatter(self, rng, geometry, c_in):
        # c_in=1 without padding makes the NCHW view of the NHWC scratch
        # contiguous: the result must still be a copy, not an alias.
        plan, _x, _weight = _conv_case(rng, geometry, c_in=c_in)
        n = plan.shape[0]
        shape = (n * plan.oh * plan.ow, c_in * plan.kh * plan.kw)
        for grad_dtype in (plan.dtype, np.float64):
            grad_cols = rng.standard_normal(shape).astype(grad_dtype)
            grad_cols[::3] = -0.0  # signed zeros must survive the adds
            out = plan._col2im(grad_cols)
            _assert_same_bytes(out, _reference_col2im(plan, grad_cols))
            assert out.flags.c_contiguous
            assert not np.shares_memory(out, plan._grad_staging)

    @pytest.mark.parametrize("geometry", _CONV_GEOMETRIES[:3])
    def test_stacked_plan_with_dead_lane_matches_lane_plans(self, rng, geometry):
        lane_plan, _x, weight = _conv_case(rng, geometry)
        stride, padding, _kernel, dtype, n = geometry
        k, alive = 3, [True, False, True]
        x = rng.standard_normal((k * n,) + lane_plan.shape[1:]).astype(dtype)
        weights = [
            rng.standard_normal(weight.shape).astype(dtype) for _ in range(k)
        ]
        # The dead lane has a bias: its rows must still read exact zeros.
        biases = [
            rng.standard_normal(weight.shape[0]).astype(dtype) for _ in range(2)
        ] + [None]
        plan = Conv2dPlan(x.shape, np.dtype(dtype), weight.shape, stride, padding)
        out = plan.stacked(x, weights, biases, alive)
        g = rng.standard_normal(out.shape).astype(dtype)
        grad_x = plan.stacked_backward_input(g, weights, alive)
        grad_ws = plan.stacked_backward_weights(g, x, weight.shape, alive)
        assert grad_ws[1] is None
        for lane in range(k):
            rows = slice(lane * n, (lane + 1) * n)
            if not alive[lane]:
                assert not out[rows].any() and not grad_x[rows].any()
                continue
            _assert_same_bytes(
                out[rows], lane_plan(x[rows], weights[lane], biases[lane])
            )
            _assert_same_bytes(
                grad_x[rows], lane_plan.backward_input(g[rows], weights[lane])
            )
            _assert_same_bytes(
                grad_ws[lane],
                lane_plan.backward_weight(g[rows], x[rows], weight.shape),
            )


    @pytest.mark.parametrize("c_out", [1, 4])
    def test_stacked_output_does_not_alias_scratch(self, rng, c_out):
        # c_out=1 makes the NCHW view of the GEMM scratch contiguous: the
        # forward must still return a copy, or the next call overwrites it.
        k, n = 2, 2
        x = rng.standard_normal((k * n, 3, 6, 5)).astype(np.float32)
        weights = [
            rng.standard_normal((c_out, 3, 3, 3)).astype(np.float32)
            for _ in range(k)
        ]
        biases = [rng.standard_normal(c_out).astype(np.float32)] * k
        plan = Conv2dPlan(x.shape, np.dtype(np.float32), weights[0].shape, 1, 1)
        out = plan.stacked(x, weights, biases)
        kept = out.copy()
        plan.stacked(2 * x, weights, biases)
        _assert_same_bytes(out, kept)

    @pytest.mark.parametrize(
        "x_dtype, bias_dtype",
        [(np.float32, np.float64), (np.float64, np.float32), (np.float32, np.float32)],
    )
    def test_bias_epilogue_keeps_conv2d_dtype_and_bytes(self, rng, x_dtype, bias_dtype):
        # The bias is added after the NCHW transpose (in place when the
        # dtypes allow); the result must still be conv2d's ``gemm + bias``.
        x = rng.standard_normal((3, 2, 7, 6)).astype(x_dtype)
        weight = rng.standard_normal((4, 2, 3, 3)).astype(x_dtype)
        bias = rng.standard_normal(4).astype(bias_dtype)
        plan = Conv2dPlan(x.shape, x.dtype, weight.shape, 1, 1)
        expected = F.conv2d(Tensor(x), Tensor(weight), Tensor(bias), padding=1).data
        assert expected.dtype == np.result_type(x_dtype, bias_dtype)
        _assert_same_bytes(plan(x, weight, bias), expected)


class TestFusedPlanPath:
    """The network-level contract: plans on, plans off, fallback, coverage."""

    @pytest.mark.parametrize("name", SPIKING_MODELS)
    def test_registry_models_bitwise_identical(self, name):
        size = _input_size(name)
        model = build_model(name, input_size=size, time_steps=5, rng=0)
        x = Tensor(np.random.default_rng(3).random((3, 1, size, size)).astype(np.float32))
        reference = model(x)
        with no_grad():
            planned = model(x)
        model.use_synapse_plans = False
        with no_grad():
            unplanned = model(x)
        np.testing.assert_array_equal(planned.data, reference.data)
        np.testing.assert_array_equal(unplanned.data, reference.data)

    @pytest.mark.parametrize("name", SPIKING_MODELS)
    def test_registry_models_full_plan_coverage(self, name):
        size = _input_size(name)
        model = build_model(name, input_size=size, time_steps=3, rng=0)
        planned, total = model.synapse_plan_coverage()
        assert planned == total > 0
        assert model._fused_ready()

    def test_fused_forward_counter_advances(self):
        # The smoke guard scripts/bench_report.py --check-fused relies on
        # this counter to prove the hot path is actually taken.
        model = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=0)
        x = Tensor(np.random.default_rng(0).random((2, 1, 12, 12)).astype(np.float32))
        assert model.fused_forward_count == 0
        with no_grad():
            model(x)
            model(x)
        assert model.fused_forward_count == 2
        model(x)  # autograd path must not count
        assert model.fused_forward_count == 2

    def test_untwinned_transform_falls_back_per_layer(self):
        # A custom transform without forward_numpy must not disqualify the
        # fused loop — only its own layer drops to the Tensor API.
        class Scaler(nn.Module):
            def forward(self, x):
                return x * 0.5

        from repro.snn.encoding import ConstantCurrentLIFEncoder
        from repro.snn.network import (
            SpikingLayer,
            SpikingNetwork,
            SpikingReadout,
        )
        from repro.snn.neuron import LICell, LIFCell, LIFParameters

        params = LIFParameters(surrogate_alpha=5.0)
        layers = [
            SpikingLayer(nn.Sequential(Scaler(), nn.Linear(8, 6, rng=0)), LIFCell(params)),
            SpikingLayer(nn.Linear(6, 5, rng=1), LIFCell(params)),
        ]
        readout = SpikingReadout(nn.Linear(5, 3, rng=2), LICell(params))
        model = SpikingNetwork(
            ConstantCurrentLIFEncoder(params), layers, readout, time_steps=4
        )
        assert not _transform_fused_ready(layers[0].transform)
        assert _transform_fused_ready(layers[1].transform)
        assert model.synapse_plan_coverage() == (2, 3)
        x = Tensor(np.random.default_rng(5).random((2, 8)).astype(np.float32))
        reference = model(x)
        with no_grad():
            fused = model(x)
        np.testing.assert_array_equal(fused.data, reference.data)
        assert model.fused_forward_count == 1

    def test_use_synapse_plans_false_reports_zero_coverage(self):
        model = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=0)
        model.use_synapse_plans = False
        assert model.synapse_plan_coverage() == (0, 4)


class TestEpsilonSharedSweep:
    """evaluate_attack_sweep == the per-ε evaluate_attack loop, exactly."""

    EPSILONS = (0.0, 0.05, 0.1, 0.2)

    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(0)
        model = build_model("snn_lenet_mini", input_size=12, time_steps=4, rng=0)
        dataset = ArrayDataset(
            rng.random((20, 1, 12, 12)).astype(np.float32),
            rng.integers(0, 10, 20),
        )
        return model, dataset

    @pytest.mark.parametrize(
        "family",
        [
            lambda e: FGSM(e),
            lambda e: BIM(e, steps=3),
            lambda e: PGD(e, steps=3, rng=0),  # seeded random start
            lambda e: PGD(e, steps=3, random_start=False),
            lambda e: UniformNoise(e, rng=0),
            lambda e: GaussianNoise(e, rng=0),
            lambda e: SignNoise(e, rng=0),
        ],
        ids=["fgsm", "bim", "pgd_random", "pgd_plain", "uniform", "gaussian", "sign"],
    )
    def test_sweep_equals_per_epsilon_loop(self, setup, family):
        model, dataset = setup
        loop = tuple(
            evaluate_attack(model, family(float(eps)), dataset, batch_size=8)
            for eps in self.EPSILONS
        )
        sweep = evaluate_attack_sweep(
            model, family, self.EPSILONS, dataset, batch_size=8
        )
        assert sweep == loop  # frozen dataclasses: exact field equality

    def test_fused_batch_size_chunking_is_equivalent(self, setup):
        # Default (per-ε-aligned chunks), explicit chunks, and the fully
        # fused K·B stack must all agree.
        model, dataset = setup
        default = evaluate_attack_sweep(
            model, lambda e: FGSM(e), self.EPSILONS, dataset, batch_size=8
        )
        chunked = evaluate_attack_sweep(
            model, lambda e: FGSM(e), self.EPSILONS, dataset,
            batch_size=8, fused_batch_size=8,
        )
        fused = evaluate_attack_sweep(
            model, lambda e: FGSM(e), self.EPSILONS, dataset,
            batch_size=8, fused_batch_size=8 * len(self.EPSILONS),
        )
        assert default == chunked == fused

    def test_empty_epsilons(self, setup):
        model, dataset = setup
        assert evaluate_attack_sweep(model, FGSM, (), dataset) == ()

    def test_robustness_curve_matches_manual_loop(self, setup):
        model, dataset = setup
        curve = robustness_curve(
            model, dataset, self.EPSILONS,
            lambda e: PGD(e, steps=2, rng=7), batch_size=8,
        )
        manual = tuple(
            evaluate_attack(model, PGD(float(e), steps=2, rng=7), dataset, batch_size=8)
            for e in self.EPSILONS
        )
        assert curve.evaluations == manual
        assert curve.robustness == tuple(m.robustness for m in manual)

    def test_evaluate_attack_accepts_precomputed_clean_predictions(self, setup):
        from repro.attacks import predict_batched

        model, dataset = setup
        clean = predict_batched(model, dataset.images, 8)
        with_hoist = evaluate_attack(
            model, FGSM(0.1), dataset, batch_size=8, clean_predictions=clean
        )
        without = evaluate_attack(model, FGSM(0.1), dataset, batch_size=8)
        assert with_hoist == without


class TestSharedGradientContract:
    """The MRO trust rule guarding gradient reuse, mirroring _has_numpy_twin."""

    def test_standard_attacks(self):
        assert shares_clean_gradient(FGSM(0.1))
        assert not shares_clean_gradient(FGSM(0.0))  # ε=0 never perturbs
        assert shares_clean_gradient(BIM(0.1, steps=2))
        assert shares_clean_gradient(PGD(0.1, steps=2, random_start=False))
        assert not shares_clean_gradient(PGD(0.1, steps=2, random_start=True))
        assert not shares_clean_gradient(UniformNoise(0.1))

    def test_subclass_overriding_perturb_is_untrusted(self):
        class FlippedFGSM(FGSM):
            def _perturb(self, model, images, labels):
                return images - super()._perturb(model, images, labels)

        attack = FlippedFGSM(0.1)
        assert not shares_clean_gradient(attack)

    def test_subclass_overriding_generate_is_untrusted(self):
        # generate_shared bypasses generate(), so a generate() override
        # (e.g. output post-processing) must also revoke trust.
        class QuantizedFGSM(FGSM):
            def generate(self, model, images, labels):
                out = super().generate(model, images, labels)
                return np.round(out * 255.0) / 255.0

        assert not shares_clean_gradient(QuantizedFGSM(0.1))

    def test_untrusted_subclass_still_correct_in_sweep(self):
        # The sweep must route an untrusted subclass through plain
        # generate(), reproducing the per-ε loop exactly.
        class DoubledFGSM(FGSM):
            def _perturb(self, model, images, labels):
                return super()._perturb(model, images, labels) + 0.01

        rng = np.random.default_rng(1)
        model = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=0)
        dataset = ArrayDataset(
            rng.random((8, 1, 12, 12)).astype(np.float32), rng.integers(0, 10, 8)
        )
        epsilons = (0.05, 0.1)
        loop = tuple(
            evaluate_attack(model, DoubledFGSM(float(e)), dataset, batch_size=4)
            for e in epsilons
        )
        sweep = evaluate_attack_sweep(
            model, lambda e: DoubledFGSM(e), epsilons, dataset, batch_size=4
        )
        assert sweep == loop

    def test_generate_shared_default_ignores_gradient(self):
        rng = np.random.default_rng(2)
        attack = UniformNoise(0.1, rng=0)
        reference = UniformNoise(0.1, rng=0)
        images = rng.random((4, 1, 6, 6)).astype(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        model = nn.Sequential(nn.Flatten(), nn.Linear(36, 3, rng=0))
        out = attack.generate_shared(model, images, labels, np.ones_like(images))
        np.testing.assert_array_equal(
            out, reference.generate(model, images, labels)
        )
