"""Tests for the continuous-batching engine (slot pool, admission, eviction)."""

import numpy as np
import pytest

from repro.models import build_model, nano_moe, tiny_mistral
from repro.serving import (ADMISSION_POLICIES, ContinuousBatchingEngine,
                           LiveDecodeEngine, Request, SlotPool,
                           poisson_workload)
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog


def make_request(request_id, prompt_ids, decode_tokens, arrival=0.0):
    return Request(request_id, arrival, decode_tokens,
                   prompt_ids=np.asarray(prompt_ids, dtype=np.int64))


@pytest.fixture
def prompts(nano_config):
    rng = np.random.default_rng(7)
    return [rng.integers(0, nano_config.vocab_size, size=n)
            for n in (5, 8, 5, 3, 8)]


class TestSlotPool:
    def test_acquire_lowest_first_and_release(self, nano_model):
        caches = nano_model.new_kv_caches(3)
        pool = SlotPool(caches, 3)
        assert [pool.acquire() for _ in range(3)] == [0, 1, 2]
        assert pool.free_count == 0 and pool.active_count == 3
        with pytest.raises(RuntimeError):
            pool.acquire()
        pool.release(1)
        assert pool.acquire() == 1  # re-issues the freed slot

    def test_acquire_rewinds_only_that_slot(self, nano_model):
        caches = nano_model.new_kv_caches(2)
        pool = SlotPool(caches, 2)
        pool.acquire(), pool.acquire()
        for cache in caches:
            cache._positions[:] = [4, 7]  # simulate decoded prefixes
        pool.release(0)
        pool.acquire()
        assert all(list(c.positions) == [0, 7] for c in caches)

    def test_validation(self, nano_model):
        caches = nano_model.new_kv_caches(2)
        with pytest.raises(ValueError):
            SlotPool(caches, 3)          # batch mismatch
        pool = SlotPool(caches, 2)
        with pytest.raises(ValueError):
            pool.release(0)              # already free
        with pytest.raises(ValueError):
            pool.release(5)              # out of range


class TestSingleRequestEquivalence:
    """The anchor: one request through the slot pool == LiveDecodeEngine."""

    @pytest.fixture(scope="class")
    def tiny_config(self):
        return tiny_mistral(seed=0, max_seq_len=64)

    @pytest.mark.parametrize("dispatch", ["fused", "reference"])
    def test_grid_bit_identical_to_live_engine(self, tiny_config, dispatch):
        """dispatch {fused, reference}: a single request decoded through the
        continuous-batching engine yields greedy ids bit-identical to
        LiveDecodeEngine(mode="cached")."""
        prompt = np.random.default_rng(3).integers(
            0, tiny_config.vocab_size, size=12)
        baseline = LiveDecodeEngine(build_model(tiny_config),
                                    dispatch=dispatch).decode(
            prompt[None, :], 10)[0]
        engine = ContinuousBatchingEngine(build_model(tiny_config),
                                          max_slots=4, dispatch=dispatch)
        metrics = engine.serve([make_request(0, prompt, 10)])
        np.testing.assert_array_equal(metrics.outcomes[0].token_ids,
                                      baseline)

    def test_single_request_in_dirty_pool(self, tiny_config):
        """A request admitted into a slot a previous request used must not
        see the earlier occupant's KV entries."""
        rng = np.random.default_rng(5)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=9)
                   for _ in range(3)]
        engine = ContinuousBatchingEngine(build_model(tiny_config),
                                          max_slots=1)
        metrics = engine.serve([make_request(i, p, 6)
                                for i, p in enumerate(prompts)])
        live = LiveDecodeEngine(build_model(tiny_config))
        for prompt, outcome in zip(prompts, metrics.outcomes):
            expected = live.decode(prompt[None, :], 6)[0]
            np.testing.assert_array_equal(outcome.token_ids, expected,
                                          err_msg=f"request "
                                                  f"{outcome.request_id}")


class TestSlotLifecycle:
    def test_admission_order_under_full_pool(self, nano_model, prompts):
        """With one slot, requests are served strictly in arrival order;
        each waits for its predecessor's slot."""
        requests = [make_request(i, p, 3, arrival=0.0)
                    for i, p in enumerate(prompts)]
        engine = ContinuousBatchingEngine(nano_model, max_slots=1)
        metrics = engine.serve(requests)
        starts = [o.start_time for o in metrics.outcomes]
        assert starts == sorted(starts)
        for earlier, later in zip(metrics.outcomes, metrics.outcomes[1:]):
            assert later.start_time >= earlier.finish_time - 1e-12

    def test_shortest_admission_prefers_small_budgets(self, nano_model,
                                                      prompts):
        """With the shortest-job policy and one slot, the smallest decode
        budget among the queued requests goes first."""
        requests = [make_request(0, prompts[0], 8),
                    make_request(1, prompts[1], 2),
                    make_request(2, prompts[2], 5)]
        engine = ContinuousBatchingEngine(nano_model, max_slots=1,
                                          admission="shortest")
        metrics = engine.serve(requests)
        by_id = {o.request_id: o for o in metrics.outcomes}
        # All three arrive at t=0, so the queue holds {0, 1, 2} before any
        # admission; shortest-job order is 1 (budget 2), 2 (5), 0 (8).
        assert by_id[1].start_time < by_id[2].start_time \
            < by_id[0].start_time

    def test_eviction_reason_max_tokens(self, nano_model, prompts):
        engine = ContinuousBatchingEngine(nano_model, max_slots=2)
        metrics = engine.serve([make_request(0, prompts[0], 4)])
        outcome = metrics.outcomes[0]
        assert outcome.finish_reason == "max_tokens"
        assert outcome.decode_tokens == 4
        assert len(outcome.token_ids) == 4

    def test_eviction_reason_eos(self, nano_model, prompts):
        """Declaring a token the model actually generates as EOS cuts the
        request short with finish_reason='eos'."""
        full = ContinuousBatchingEngine(nano_model, max_slots=1).serve(
            [make_request(0, prompts[0], 6)]).outcomes[0]
        eos = int(full.token_ids[2])
        engine = ContinuousBatchingEngine(nano_model, max_slots=1,
                                          eos_token_id=eos)
        outcome = engine.serve([make_request(0, prompts[0], 6)]).outcomes[0]
        assert outcome.finish_reason == "eos"
        assert outcome.token_ids[-1] == eos
        assert outcome.decode_tokens <= 3

    def test_slot_reuse_no_stale_kv(self, nano_config, prompts):
        """5 requests through 2 slots: every request's ids must equal its
        solo LiveDecodeEngine decode — re-used slots leak no stale KV."""
        requests = [make_request(i, p, 5) for i, p in enumerate(prompts)]
        engine = ContinuousBatchingEngine(build_model(nano_config),
                                          max_slots=2)
        metrics = engine.serve(requests)
        assert len(metrics.outcomes) == 5
        live = LiveDecodeEngine(build_model(nano_config))
        for request, outcome in zip(requests, metrics.outcomes):
            expected = live.decode(request.prompt_ids[None, :], 5)[0]
            np.testing.assert_array_equal(outcome.token_ids, expected,
                                          err_msg=f"request "
                                                  f"{outcome.request_id}")

    def test_idle_gap_fast_forwards(self, nano_model, prompts):
        requests = [make_request(0, prompts[0], 2, arrival=0.0),
                    make_request(1, prompts[1], 2, arrival=100.0)]
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        second = [o for o in metrics.outcomes if o.request_id == 1][0]
        assert second.start_time >= 100.0
        assert second.queueing_delay < 1.0  # admitted promptly on arrival


class TestMetricsAndEvents:
    def test_fleet_metrics_sanity(self, nano_model, prompts):
        requests = [make_request(i, p, 4) for i, p in enumerate(prompts)]
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        assert metrics.total_tokens == 20
        assert metrics.throughput_tokens_per_s() > 0
        assert metrics.wall_time > 0 and metrics.total_steps > 0
        assert metrics.p50_latency() <= metrics.p95_latency() \
            <= metrics.p99_latency()
        assert metrics.token_latency_percentile(99) > 0
        assert metrics.mean_ttft() >= 0 and metrics.mean_queueing() >= 0
        for outcome in metrics.outcomes:
            assert outcome.ttft is not None
            assert outcome.ttft >= outcome.queueing_delay - 1e-12
            assert len(outcome.token_latencies) == outcome.decode_tokens

    def test_goodput_slo_conditioning(self, nano_model, prompts):
        requests = [make_request(i, p, 4) for i, p in enumerate(prompts)]
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        assert metrics.goodput_tokens_per_s() == pytest.approx(
            metrics.throughput_tokens_per_s())
        assert metrics.goodput_tokens_per_s(slo_ttft_s=1e-12) == 0.0
        loose = metrics.goodput_tokens_per_s(slo_ttft_s=1e6,
                                             slo_token_latency_s=1e6)
        assert loose == pytest.approx(metrics.throughput_tokens_per_s())

    def test_event_log_admit_evict(self, nano_model, prompts):
        log = EventLog()
        requests = [make_request(i, p, 3) for i, p in enumerate(prompts)]
        ContinuousBatchingEngine(nano_model, max_slots=2,
                                 events=log).serve(requests)
        admits = [e for e in log.events if e.kind == "request_admit"]
        evicts = [e for e in log.events if e.kind == "request_evict"]
        assert len(admits) == len(evicts) == 5
        assert {e.labels["request_id"] for e in admits} == set(range(5))
        assert all(e.labels["slot"] in (0, 1) for e in admits)
        assert all(e.labels["finish_reason"] == "max_tokens"
                   for e in evicts)
        assert all(e.labels["tokens"] == 3 for e in evicts)

    def test_telemetry_instruments_fed(self, nano_model, prompts):
        telemetry = Telemetry()
        requests = [make_request(i, p, 3) for i, p in enumerate(prompts)]
        ContinuousBatchingEngine(nano_model, max_slots=2,
                                 telemetry=telemetry).serve(requests)
        assert telemetry.histogram("serve.queueing_s").count == 5
        assert telemetry.histogram("serve.ttft_s").count == 5
        assert telemetry.histogram("serve.request_latency_s").count == 5
        assert telemetry.histogram("serve.token_latency_s").count == 15
        assert telemetry.gauge("serve.queue_depth").updates > 0
        assert telemetry.gauge("serve.active_slots").value == 0.0

    def test_flags_restored_after_serve(self, nano_model, prompts):
        nano_model.train()
        ContinuousBatchingEngine(nano_model, max_slots=2).serve(
            [make_request(0, prompts[0], 2)])
        assert nano_model.training is True
        assert all(block.moe.record_probs for block in nano_model.blocks)


class TestValidation:
    def test_admission_policies_listed(self):
        assert ADMISSION_POLICIES == ("fcfs", "shortest")

    def test_rejects_bad_knobs(self, nano_model):
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(nano_model, admission="priority")
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(nano_model, max_slots=0)
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(nano_model, dispatch="eager")

    def test_rejects_promptless_and_oversized(self, nano_model, nano_config):
        engine = ContinuousBatchingEngine(nano_model, max_slots=2)
        with pytest.raises(ValueError):
            engine.serve([])
        with pytest.raises(ValueError):
            engine.serve([Request(0, 0.0, 4)])  # no prompt_ids
        too_long = np.zeros(nano_config.max_seq_len, dtype=np.int64)
        with pytest.raises(ValueError):
            engine.serve([make_request(0, too_long, 4)])

    @pytest.mark.parametrize("case", ["out_of_vocab", "negative_id",
                                      "float_ids", "duplicate_id",
                                      "negative_arrival"])
    def test_rejects_bad_requests_before_admission(self, nano_model,
                                                   nano_config, case):
        """Each bad request raises a ValueError naming it before any slot
        is taken; bad prompt ids are rejected by the solo engine too."""
        vocab = nano_config.vocab_size
        bad_prompts = {"out_of_vocab": [1, 2, vocab],
                       "negative_id": [1, 2, 3, -1],
                       "float_ids": [1.0, 2.5, 3.0]}

        def requests():
            if case in bad_prompts:
                return [make_request(0, [1, 2, 3], 2),
                        Request(7, 0.0, 2,
                                prompt_ids=np.asarray(bad_prompts[case]))]
            if case == "duplicate_id":
                return [make_request(7, [1, 2, 3], 2),
                        make_request(7, [4, 5], 2)]
            return [make_request(0, [1, 2, 3], 2),
                    make_request(7, [4, 5], 2, arrival=-1.0)]

        engine = ContinuousBatchingEngine(nano_model, max_slots=2)
        with pytest.raises(ValueError, match="request 7"):
            engine.serve(requests())
        assert engine.pool.free_count == 2
        if case in bad_prompts:
            with pytest.raises(ValueError, match="prompt"):
                LiveDecodeEngine(nano_model).decode(
                    np.asarray([bad_prompts[case]]), 2)

    def test_poisson_workload_feeds_engine(self, nano_model, nano_config):
        requests = poisson_workload(4, arrival_rate=50.0,
                                    mean_decode_tokens=3, seed=2,
                                    prompt_len=(3, 6),
                                    vocab_size=nano_config.vocab_size)
        metrics = ContinuousBatchingEngine(nano_model,
                                           max_slots=2).serve(requests)
        assert len(metrics.outcomes) == 4


class TestFailedServe:
    def test_failed_serve_releases_slots(self, nano_config, prompts,
                                         monkeypatch):
        """A forward that raises mid-run must not leak the slots it held:
        the pool is whole afterwards and the next serve() decodes exactly
        like a solo LiveDecodeEngine run."""
        model = build_model(nano_config)
        engine = ContinuousBatchingEngine(model, max_slots=2)
        real_forward = model.forward_slots
        calls = []

        def failing_forward(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:  # after the prefill and one decode step
                raise RuntimeError("injected forward failure")
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward_slots", failing_forward)
        with pytest.raises(RuntimeError, match="injected"):
            engine.serve([make_request(0, prompts[0], 6),
                          make_request(1, prompts[2], 6)])
        assert engine.pool.free_count == 2
        monkeypatch.undo()
        metrics = engine.serve([make_request(0, prompts[0], 6)])
        solo = LiveDecodeEngine(build_model(nano_config)).decode(
            prompts[0][None, :], 6)[0]
        np.testing.assert_array_equal(metrics.outcomes[0].token_ids, solo)
