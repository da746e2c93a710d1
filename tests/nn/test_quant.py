"""Int8 weight quantization: error bounds, GEMM path, serialization."""

import numpy as np
import pytest

from repro.models.expert import ExpertFFN
from repro.nn import no_grad
from repro.nn.quant import (INT8_QMAX, QuantizationReport, QuantizedLinear,
                            QuantizedTensor, dequantize,
                            quantize_expert_weights, quantize_tensor,
                            quantized_matmul)
from repro.nn.layers import Linear
from repro.nn.serialize import load_quantized_state, save_quantized_state
from repro.nn.tensor import Tensor


def _weight(rows=16, cols=32, seed=0):
    return np.random.default_rng(seed).normal(size=(rows, cols))


class TestQuantizeRoundTrip:
    def test_per_channel_error_bound(self):
        """Every element's reconstruction error is at most half a scale step."""
        w = _weight()
        qt = quantize_tensor(w)
        per_channel = qt.max_channel_error(w)
        assert per_channel.shape == (w.shape[0],)
        # np.round ties-to-even keeps rounding error <= scale/2 per element.
        assert np.all(per_channel <= qt.scales / 2 + 1e-15)

    def test_scales_are_absmax_over_qmax(self):
        w = _weight()
        qt = quantize_tensor(w)
        np.testing.assert_allclose(qt.scales,
                                   np.abs(w).max(axis=1) / INT8_QMAX)

    def test_zero_channel_is_exact(self):
        w = _weight()
        w[3, :] = 0.0
        qt = quantize_tensor(w)
        assert qt.scales[3] == 1.0
        assert np.all(qt.dequantize()[3] == 0.0)

    def test_codes_are_int8_in_range(self):
        qt = quantize_tensor(_weight())
        assert qt.codes.dtype == np.int8
        assert qt.codes.max() <= INT8_QMAX
        assert qt.codes.min() >= -INT8_QMAX

    def test_nbytes_beats_dense(self):
        w = _weight(64, 128)
        qt = quantize_tensor(w)
        assert qt.nbytes < w.nbytes / 4  # f64 dense; ~8x smaller here
        # vs float32 dense the format is ~4x smaller (codes + 8B scales/row)
        assert qt.nbytes < w.astype(np.float32).nbytes / 3

    def test_dequantize_free_function_matches_method(self):
        qt = quantize_tensor(_weight())
        np.testing.assert_array_equal(dequantize(qt.codes, qt.scales),
                                      qt.dequantize())

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.zeros(5))
        with pytest.raises(ValueError):
            QuantizedTensor(codes=np.zeros((2, 2), dtype=np.int8),
                            scales=np.zeros(3))
        with pytest.raises(ValueError):
            QuantizedTensor(codes=np.zeros((2, 2), dtype=np.int32),
                            scales=np.zeros(2))


class TestQuantizedMatmul:
    def test_matches_dequantized_gemm(self):
        w = _weight()
        x = np.random.default_rng(1).normal(size=(7, w.shape[1]))
        qt = quantize_tensor(w)
        direct = quantized_matmul(x, qt)
        via_dense = x @ qt.dequantize().T
        np.testing.assert_allclose(direct, via_dense, rtol=1e-12, atol=1e-12)

    def test_quantized_linear_matches_linear_on_roundtripped_weight(self):
        rng = np.random.default_rng(2)
        linear = Linear(12, 8, bias=False, rng=rng)
        qlin = QuantizedLinear.from_linear(linear)
        linear.weight.data = qlin.quantized.dequantize()
        x = Tensor(rng.normal(size=(5, 12)))
        with no_grad():
            np.testing.assert_allclose(qlin(x).data, linear(x).data,
                                       rtol=1e-12, atol=1e-12)

    def test_quantized_linear_refuses_grad_mode(self):
        qlin = QuantizedLinear(quantize_tensor(_weight(4, 6)))
        with pytest.raises(RuntimeError):
            qlin(Tensor(np.zeros((2, 6)), requires_grad=True))

    def test_quantized_linear_refuses_bias(self):
        with pytest.raises(ValueError):
            QuantizedLinear.from_linear(Linear(4, 4, bias=True))

    def test_resident_bytes_shrink(self):
        linear = Linear(64, 64, bias=False)
        qlin = QuantizedLinear.from_linear(linear)
        assert qlin.nbytes() < linear.weight.data.nbytes / 4


class TestSerializeRoundTrip:
    def test_npz_round_trip(self, tmp_path):
        state = {"layer0.expert1.w_gate": quantize_tensor(_weight(8, 4, 3)),
                 "layer0.expert1.w_up": quantize_tensor(_weight(8, 4, 4))}
        path = str(tmp_path / "experts_int8.npz")
        save_quantized_state(state, path)
        loaded = load_quantized_state(path)
        assert sorted(loaded) == sorted(state)
        for name, qt in state.items():
            np.testing.assert_array_equal(loaded[name].codes, qt.codes)
            np.testing.assert_array_equal(loaded[name].scales, qt.scales)
            assert loaded[name].codes.dtype == np.int8

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_quantized_state(str(tmp_path / "absent.npz"))

    def test_rejects_dense_checkpoint(self, tmp_path):
        path = str(tmp_path / "dense.npz")
        np.savez(path, **{"w": np.zeros((2, 2))})
        with pytest.raises(ValueError):
            load_quantized_state(path)


class TestQuantizeExpertWeights:
    def test_roundtrip_model_in_place(self):
        from repro.models import build_model, nano_moe
        model = build_model(nano_moe(seed=0))
        before = {name: p.data.copy()
                  for name, p in model.named_parameters()}
        report = quantize_expert_weights(model)
        assert report.num_matrices == sum(
            3 for _ in model.iter_experts())
        assert report.compression_ratio < 0.2  # int8 vs float64 dense
        assert 0 < report.max_rel_error < 0.02
        changed = 0
        for name, p in model.named_parameters():
            if ".experts." in name and "weight" in name \
                    and "lora" not in name:
                if not np.array_equal(before[name], p.data):
                    changed += 1
                np.testing.assert_allclose(p.data, before[name],
                                           atol=report.max_abs_error + 1e-12)
            else:
                np.testing.assert_array_equal(before[name], p.data)
        assert changed > 0

    def test_quantized_model_is_fixed_point(self):
        """Requantizing an already-roundtripped model is (near) lossless."""
        from repro.models import build_model, nano_moe
        model = build_model(nano_moe(seed=0))
        quantize_expert_weights(model)
        snapshot = {name: p.data.copy()
                    for name, p in model.named_parameters()}
        second = quantize_expert_weights(model, QuantizationReport())
        assert second.max_abs_error < 1e-12
        for name, p in model.named_parameters():
            np.testing.assert_allclose(p.data, snapshot[name], atol=1e-12)

    def test_int8_model_serves_identically_on_both_engines(self):
        """Quantize-then-serve is the int8 serving path: the solo decode
        engine and the continuous-batching engine run the quantized model
        and agree bit for bit."""
        from repro.models import build_model, nano_moe
        from repro.serving import (ContinuousBatchingEngine, LiveDecodeEngine,
                                   Request)
        model = build_model(nano_moe(seed=0))
        report = quantize_expert_weights(model)
        assert report.num_matrices > 0 and report.compression_ratio < 0.2
        prompt = np.array([3, 7, 11, 2])
        solo = LiveDecodeEngine(model).decode(prompt[None, :], 6)[0]
        batched = ContinuousBatchingEngine(model, max_slots=2).serve(
            [Request(0, 0.0, 6, prompt_ids=prompt)])
        assert solo.shape == (6,)
        np.testing.assert_array_equal(batched.outcomes[0].token_ids, solo)
