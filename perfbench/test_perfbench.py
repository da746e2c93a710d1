"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro.serving import RequestOutcome  # noqa: E402
from spans import (MAX_REMAINDER_SHARE, Span, SpanRecorder,  # noqa: E402
                   covered, tiling)
from stats import median, percentile, tpot  # noqa: E402
from phases import (LONG_PROMPT, LONG_SHARE, MAX_DECODE,  # noqa: E402
                    OFFLINE, OFFLINE_BURST, ONLINE, ONLINE_REQUESTS,
                    ComparePhase, RunResult, ServingPhase, TrainPhase,
                    compare_checks, compare_metrics, interleave,
                    latency_metrics, make_requests, serving_checks,
                    throughput_metrics, train_checks, train_metrics)

VOCAB = 96


def _as_tuples(requests):
    return [(r.request_id, r.arrival_time, r.decode_tokens,
             tuple(r.prompt_ids), r.trace_id) for r in requests]


# ---------------------------------------------------------------------- #
# seeded generator
# ---------------------------------------------------------------------- #
def _round(seed, round_index, rate):
    stream = OFFLINE if rate is None else ONLINE
    return _as_tuples(make_requests(seed, stream, round_index, VOCAB, rate))


@pytest.mark.parametrize("rate", [None, 8.0])
def test_same_seed_same_requests(rate):
    assert _round(7, 2, rate) == _round(7, 2, rate)


@pytest.mark.parametrize("rate", [None, 8.0])
def test_other_seed_or_round_other_requests(rate):
    base = _round(7, 2, rate)
    assert _round(8, 2, rate) != base
    assert _round(7, 3, rate) != base


def test_rate_scales_only_the_arrival_times():
    slow = make_requests(7, ONLINE, 2, VOCAB, rate=4.0)
    fast = make_requests(7, ONLINE, 2, VOCAB, rate=8.0)
    for a, b in zip(slow, fast):
        assert a.arrival_time == pytest.approx(2 * b.arrival_time)
        assert a.decode_tokens == b.decode_tokens
        assert tuple(a.prompt_ids) == tuple(b.prompt_ids)


def test_request_mix():
    offline = make_requests(3, OFFLINE, 0, VOCAB)
    online = make_requests(3, ONLINE, 0, VOCAB, rate=8.0)
    assert len(offline) == OFFLINE_BURST and len(online) == ONLINE_REQUESTS
    assert all(r.arrival_time == 0.0 for r in offline)
    arrivals = [r.arrival_time for r in online]
    assert arrivals == sorted(arrivals) and arrivals[0] > 0.0
    long = [r for r in offline if r.prompt_len >= LONG_PROMPT[0]]
    assert len(long) == round(LONG_SHARE * OFFLINE_BURST)
    for request in offline + online:
        assert 2 <= request.decode_tokens <= MAX_DECODE
        assert request.prompt_len + request.decode_tokens <= 128
        assert request.prompt_ids.max() < VOCAB


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_percentile_value_and_samples():
    values = list(range(1, 101))
    p50 = percentile(values, 50)
    assert p50.samples == 100 and p50.beyond == 50
    assert p50.value == pytest.approx(50.5)
    p90 = percentile(values, 90)
    assert p90.beyond == 10
    assert p90.value == pytest.approx(90.1)


def test_percentile_of_a_thin_tail_reads_nan():
    thin = percentile(range(99), 90)
    assert math.isnan(thin.value) and thin.samples == 99
    assert thin.beyond == 9
    assert percentile(range(20), 50).value == pytest.approx(9.5)
    assert math.isnan(percentile(range(19), 50).value)
    assert math.isnan(percentile([], 50).value)


def test_median_of_nothing_reads_nan():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert math.isnan(median([]))


# ---------------------------------------------------------------------- #
# TPOT
# ---------------------------------------------------------------------- #
def _outcome(tokens, first=0.5, finish=2.0):
    return RequestOutcome(request_id=0, arrival_time=0.0, start_time=0.1,
                          finish_time=finish, decode_tokens=tokens,
                          first_token_time=first)


def test_tpot_counts_every_gap_after_the_first_token():
    assert tpot(_outcome(4)) == pytest.approx(1.5 / 3)


def test_tpot_undefined_without_a_second_token():
    assert tpot(_outcome(1)) is None
    assert tpot(_outcome(3, first=None)) is None


# ---------------------------------------------------------------------- #
# spans and tiling
# ---------------------------------------------------------------------- #
def _clock(*readings):
    return iter(readings).__next__


def test_self_times_subtract_children():
    recorder = SpanRecorder(clock=_clock(0.0, 1.0, 2.0, 3.0, 5.0, 6.0))
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    assert recorder.self_times() == {"outer": 3.0, "inner": 3.0}
    assert [s.parent for s in recorder.spans] == [None, 0, 0]


def _traced(spans):
    recorder = SpanRecorder()
    recorder.spans = [Span(name, start, end, parent)
                      for name, start, end, parent in spans]
    return recorder


# One root call of 10 s: a 6 s layer with a 2 s child, a 3 s layer.
NESTED = [("root", 0.0, 10.0, None), ("layer", 0.5, 6.5, 0),
          ("child", 1.0, 3.0, 1), ("other", 6.5, 9.5, 0)]


def test_layers_tile_the_wall_and_match_the_reference():
    check = tiling(_traced(NESTED), [(0.0, 10.0)], ["layer"], 6.05)
    assert check.layers_s == pytest.approx(9.0)
    assert check.remainder_share == pytest.approx(0.1)
    assert check.traced_s == 6.0
    assert check.disagreement == pytest.approx(0.05 / 6.05)
    assert check.ok


def test_layers_that_miss_the_programs_own_time_fail():
    # The program timed 7 s of `layer` calls; the spans saw only 6 s.
    assert not tiling(_traced(NESTED), [(0.0, 10.0)], ["layer"], 7.0).ok


def test_wall_the_layers_do_not_cover_fails():
    check = tiling(_traced(NESTED), [(0.0, 10.0), (20.0, 30.0)],
                   ["layer"], 6.0)
    assert check.remainder_share > MAX_REMAINDER_SHARE and not check.ok


def test_overlapping_spans_count_time_twice_and_fail():
    recorder = _traced([("root", 0.0, 10.0, None), ("x", 0.0, 8.0, 0),
                        ("y", 2.0, 10.0, 0)])  # overlaps x
    check = tiling(recorder, [(0.0, 10.0)], ["x"], 8.0)
    assert check.remainder_s < 0 and not check.ok


def test_total_counts_nested_repeats_once():
    recorder = _traced([("f", 0.0, 4.0, None), ("f", 1.0, 2.0, 0),
                        ("f", 5.0, 6.0, None)])
    assert recorder.total("f") == 5.0


def test_covered_merges_intervals():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.2, 5.5)]) == 4.0


class _Layer:
    def forward(self, x):
        return x + 1


def test_patched_records_and_restores():
    recorder = SpanRecorder()
    layer = _Layer()
    original = _Layer.__dict__["forward"]
    with recorder.patched([(_Layer, "forward", "layer",
                            lambda x: {"x": x})]):
        assert layer.forward(1) == 2
    with recorder.patched([(layer, "forward", "instance", None)]):
        assert layer.forward(2) == 3
    assert _Layer.__dict__["forward"] is original
    assert "forward" not in layer.__dict__
    assert [(s.name, s.attrs) for s in recorder.spans] == \
        [("layer", {"x": 1}), ("instance", {})]
    assert layer.forward(3) == 4 and len(recorder.spans) == 2



# ---------------------------------------------------------------------- #
# failed operations
# ---------------------------------------------------------------------- #
class _BrokenEngine:
    model = SimpleNamespace(config=SimpleNamespace(vocab_size=VOCAB))

    def serve(self, requests):
        raise RuntimeError("serve failed")


@pytest.mark.parametrize("rate", [None, 8.0])
def test_a_serve_that_raises_is_counted_not_fatal(rate):
    phase = ServingPhase(_BrokenEngine(), seed=1, rate=rate, minimum=5)
    interleave({"serve": phase}, {"serve": 1.0}, seconds=0.0)
    assert phase.samples == 0 and not phase.alive  # stopped after one
    result = RunResult()
    throughput_metrics(result, phase)
    latency_metrics(result, phase)
    serving_checks(result, phase, "serve")
    count = OFFLINE_BURST if rate is None else ONLINE_REQUESTS
    assert (result.sent, result.completed, result.failed) == (count, 0, count)
    assert result.metrics["slo_attainment"].value == 0.0
    for name, metric in result.metrics.items():
        if name != "slo_attainment":
            assert math.isnan(metric.value) and metric.samples == 0, name
    assert result.checks and not any(result.checks.values())
    result.check_measured()
    assert not result.checks["all_metrics_measured"]


def test_failed_training_and_comparison_are_counted():
    class BrokenCompare(ComparePhase):
        def run(self):
            raise RuntimeError("comparison failed")

    train = TrainPhase(SimpleNamespace(trainer=None), minimum=2)
    compare = BrokenCompare(workload=None, minimum=2)
    train.step()
    compare.step()
    result = RunResult()
    train_metrics(result, train)
    compare_metrics(result, compare)
    train_checks(result, train, "train", 1.0, 0.5)
    compare_checks(result, compare, "compare")
    assert (result.sent, result.failed) == (train.unit + 1, train.unit + 1)
    assert all(math.isnan(m.value) for m in result.metrics.values())
    assert not result.checks["train.losses_finite"]
    assert not result.checks["compare.comparison_deterministic"]
