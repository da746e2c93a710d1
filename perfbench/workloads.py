"""The benchmark's three workloads and its traced per-layer run.

Every run reports every end-to-end metric, so every workload interleaves
the phases of :mod:`phases` in one measured window; the workload sets how
the window is shared and which phase feeds which metric.

``serve_offline``
    Most of the window serves offline bursts into the hooks-off engine:
    the pool stays saturated, so ``tok_s`` and ``tpot_*`` measure the
    no-grad inference path and nothing else.  A burst has no meaningful
    TTFT limit, so ``ttft_*`` and ``slo_attainment`` come from a smaller
    online share.
``serve_online``
    Most of the window serves the open-loop stream through the engine with
    the full observability stack: the only workload where admission
    queueing and per-step sidecar cost show in ``tok_s``.
``finetune_vela``
    Most of the window runs the paper's job: LoRA fine-tuning chunks and
    Fig. 5/6 comparisons.

Phases outside a workload's own focus are its *anchors*: they keep every
metric defined on every run, and their time share is small.  A ``setup``
share times repeated builds of the workload's own set-up inside the same
window.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.models import MoEBlock, MoETransformer, TopKGate
from repro.nn import AdamW, KVCache, MultiHeadAttention, RMSNorm, Tensor
from repro.placement import LocalityAwarePlacement
from repro.routing import SyntheticRouter
from repro.runtime import ExpertParallelEngine, MasterWorkerEngine
from repro.serving import ContinuousBatchingEngine, DecodePrefetcher
from repro.telemetry import (FlightRecorder, RequestTracer,
                             RoutingHealthMonitor, Telemetry)

from phases import (MAX_SLOTS, ONLINE_LOAD, SLO_TPOT_S, SLO_TTFT_S,
                    ComparePhase, Phase, RunResult, ServingPhase, SetupPhase,
                    TrainPhase, build_engine, calibrate_rate, compare_checks,
                    compare_metrics, finetune_setup, interleave,
                    latency_metrics, serving_checks, setup_metrics,
                    throughput_metrics, train_checks, train_metrics)
from spans import SpanRecorder, Target, Tiling, tiling
from stats import mean, median, percentile

# Time shares of the measured window, by phase.  A serving set-up takes
# about 10 ms, so its 5 % share holds about a hundred builds spread over the
# window; a fine-tune set-up (router pre-train included) takes seconds,
# so its share is larger and holds two or three.
SHARES = {
    "serve_offline": {"offline": 0.45, "online": 0.3, "train": 0.1,
                      "compare": 0.1, "setup": 0.05},
    "serve_online": {"online": 0.65, "train": 0.15, "compare": 0.15,
                     "setup": 0.05},
    "finetune_vela": {"train": 0.25, "compare": 0.25, "online": 0.2,
                      "setup": 0.3},
}
# Samples each phase takes even when its share of the window runs out:
# a p90 needs 100 requests (4 bursts of 32), a median of chunks or
# comparisons needs a few.  Online rounds get 5 (180 requests): with 3,
# the p90s fed by a 30 % share spread by a quarter over ten runs.
MINIMUM = {"offline": 4, "online": 5, "train": 4, "compare": 2}
SETUP_MINIMUM = {"serve_offline": 10, "serve_online": 10, "finetune_vela": 3}


def own_setup(name: str, seed: int):
    """The workload's own set-up: what ``setup_s`` times."""
    if name == "finetune_vela":
        return finetune_setup(seed)
    return build_engine(online=name == "serve_online")


def run_workload(name: str, seed: int, seconds: float) -> RunResult:
    """Every end-to-end metric of one run of ``name``."""
    result = RunResult()
    shares = SHARES[name]
    job = finetune_setup(seed)
    phases: Dict[str, Phase] = {}
    if "offline" in shares:
        phases["offline"] = ServingPhase(build_engine(online=False), seed,
                                         None, MINIMUM["offline"])
    engine = build_engine(online=True)
    rate = calibrate_rate(engine, seed)
    online = phases["online"] = ServingPhase(engine, seed, rate,
                                             MINIMUM["online"])
    phases["train"] = TrainPhase(job, MINIMUM["train"])
    phases["compare"] = ComparePhase(job.workload, MINIMUM["compare"])
    setup = phases["setup"] = SetupPhase(lambda: own_setup(name, seed),
                                         SETUP_MINIMUM[name])

    loss_before = job.eval_loss()
    interleave(phases, shares, seconds)
    loss_after = job.eval_loss()

    setup_metrics(result, setup)
    throughput_metrics(result, phases.get("offline", online))
    latency_metrics(result, online)
    train_metrics(result, phases["train"])
    compare_metrics(result, phases["compare"])
    for phase_name, phase in phases.items():
        label = f"{name}.{phase_name}"
        if isinstance(phase, ServingPhase):
            serving_checks(result, phase, label)
        elif isinstance(phase, TrainPhase):
            train_checks(result, phase, label, loss_before, loss_after)
        elif isinstance(phase, ComparePhase):
            compare_checks(result, phase, label)
    result.notes["busy_s"] = {phase_name: phase.wall_s
                              for phase_name, phase in phases.items()}
    result.notes["online"] = {
        "arrival_rate_per_s": rate, "load_share_of_capacity": ONLINE_LOAD,
        "slo_limits_ms": {"ttft": SLO_TTFT_S * 1e3, "tpot": SLO_TPOT_S * 1e3},
        "queue_wait_p90_ms": percentile(
            [o.queueing_delay for o in online.outcomes], 90).value * 1e3,
        "generator_lateness": "none by construction: arrivals are "
                              "scheduled on the engine's virtual clock, "
                              "which fast-forwards idle gaps"}
    result.check_measured()
    return result


# ---------------------------------------------------------------------- #
# traced run: per-layer metrics
# ---------------------------------------------------------------------- #
def _forward_attrs(token_ids, caches, slots) -> dict:
    rows, seq = np.shape(token_ids)
    return {"rows": int(rows), "seq": int(seq)}


def serving_targets(engine: ContinuousBatchingEngine) -> List[Target]:
    """The layer boundaries traced on the serving workloads."""
    return [
        (MoETransformer, "forward_slots", "models.forward_slots",
         _forward_attrs),
        (MoEBlock, "forward", "models.moe", None),
        (TopKGate, "forward", "models.gate", None),
        (engine.model.lm_head, "forward", "models.lm_head", None),
        (MultiHeadAttention, "forward_slots", "nn.attention", None),
        (RMSNorm, "forward", "nn.rmsnorm", None),
        (KVCache, "append_rows", "nn.kv_append", None),
        (RoutingHealthMonitor, "observe_records", "telemetry.monitor", None),
        (FlightRecorder, "observe", "telemetry.flight", None),
        (DecodePrefetcher, "observe_records", "serving.prefetch", None),
    ] + [(RequestTracer, method, "telemetry.tracing", None)
         for method in ("admit", "set_step", "prefill", "stall",
                        "decode_step", "finish", "attribute_fetch")]


FINETUNE_TARGETS: List[Target] = [
    (MoETransformer, "loss", "finetune.forward", None),
    (Tensor, "backward", "finetune.backward", None),
    (AdamW, "step", "finetune.optimizer", None),
    (SyntheticRouter, "generate_trace", "routing.generate_trace", None),
    (LocalityAwarePlacement, "place", "placement.vela_place", None),
    (MasterWorkerEngine, "run_trace", "runtime.replay", None),
    (ExpertParallelEngine, "run_trace", "runtime.replay", None),
]

# Fixed work of the traced run, so per-layer totals compare across
# commits whatever their speed.
TRACE_ROUNDS = {"serve_offline": 4, "serve_online": 3}
TRACE_CHUNKS = 4
TRACE_COMPARISONS = 1

# Per-layer metrics -> unit; a layer the workload does not run reads 0.
PER_LAYER_UNITS = {
    "serving.loop_self_s": "s",
    "serving.queue_wait_p50_ms": "ms",
    "serving.decode_steps": "count",
    "serving.decode_batch_mean": "rows",
    "serving.prefill_calls": "count",
    "serving.prefill_rows_mean": "rows",
    "serving.slot_occupancy": "share",
    "models.decode_step_ms": "ms",
    "models.prefill_s": "s",
    "models.forward_self_s": "s",
    "models.moe_s": "s",
    "models.gate_s": "s",
    "models.lm_head_s": "s",
    "nn.attention_s": "s",
    "nn.rmsnorm_s": "s",
    "nn.kv_append_s": "s",
    "telemetry.monitor_s": "s",
    "telemetry.tracing_s": "s",
    "telemetry.flight_s": "s",
    "serving.prefetch_s": "s",
    "serving.prefetch_accuracy": "share",
    "serving.prefetch_attempted": "count",
    "serving.prefetch_useful": "count",
    "finetune.forward_s": "s",
    "finetune.backward_s": "s",
    "finetune.optimizer_s": "s",
    "finetune.loop_self_s": "s",
    "routing.generate_trace_s": "s",
    "placement.vela_place_s": "s",
    "runtime.replay_s": "s",
    "runtime.vela_cross_node_gb": "GB",
    "runtime.ep_cross_node_gb": "GB",
    "trace.overhead_pct": "%",
}

# span name -> per-layer metric reported as that span's summed self time
SELF_TIME_METRICS = {
    "serving.serve": "serving.loop_self_s",
    "models.forward_slots": "models.forward_self_s",
    "models.moe": "models.moe_s",
    "models.gate": "models.gate_s",
    "models.lm_head": "models.lm_head_s",
    "nn.attention": "nn.attention_s",
    "nn.rmsnorm": "nn.rmsnorm_s",
    "nn.kv_append": "nn.kv_append_s",
    "telemetry.monitor": "telemetry.monitor_s",
    "telemetry.tracing": "telemetry.tracing_s",
    "telemetry.flight": "telemetry.flight_s",
    "serving.prefetch": "serving.prefetch_s",
    "finetune.train": "finetune.loop_self_s",
    "routing.generate_trace": "routing.generate_trace_s",
    "placement.vela_place": "placement.vela_place_s",
    "runtime.replay": "runtime.replay_s",
}


def trace_serving(name: str, seed: int, result: RunResult,
                  values: Dict[str, float]) -> None:
    """Warm-up, then each round served untraced and again traced."""
    online = name == "serve_online"
    rounds = TRACE_ROUNDS[name]
    engine = build_engine(online)
    # Calibration doubles as warm-up; offline warms up on a spare round.
    rate = calibrate_rate(engine, seed) if online else None
    if not online:
        ServingPhase(engine, seed, None, 1, first_round=rounds).step()
    stats = engine.prefetcher.stats if engine.prefetcher else None
    attempted = useful = 0
    plain = ServingPhase(engine, seed, rate, rounds)
    recorder = SpanRecorder()
    traced = ServingPhase(engine, seed, rate, rounds, recorder=recorder)
    targets = serving_targets(engine)
    # Alternating keeps host drift out of the overhead figure.
    for _ in range(rounds):
        plain.step()
        before = (stats.predicted, stats.correct) if stats else (0, 0)
        with recorder.patched(targets):
            traced.step()
        if stats is not None:
            attempted += stats.predicted - before[0]
            useful += stats.correct - before[1]
    serving_checks(result, plain, f"{name}.untraced")
    serving_checks(result, traced, f"{name}.traced")

    forwards = recorder.named("models.forward_slots")
    decode = [s for s in forwards if s.attrs["seq"] == 1]
    prefill = [s for s in forwards if s.attrs["seq"] > 1]
    decode_rows = [s.attrs["rows"] for s in decode]
    values["serving.queue_wait_p50_ms"] = percentile(
        [o.queueing_delay for o in traced.outcomes], 50).value * 1e3
    values["serving.decode_steps"] = len(decode)
    values["serving.decode_batch_mean"] = mean(decode_rows)
    values["serving.prefill_calls"] = len(prefill)
    values["serving.prefill_rows_mean"] = mean(s.attrs["rows"]
                                               for s in prefill)
    values["serving.slot_occupancy"] = mean(decode_rows) / MAX_SLOTS
    values["models.decode_step_ms"] = median(
        s.duration for s in decode) * 1e3
    values["models.prefill_s"] = sum(s.duration for s in prefill)
    if stats is not None:
        values["serving.prefetch_attempted"] = attempted
        values["serving.prefetch_useful"] = useful
        values["serving.prefetch_accuracy"] = useful / attempted \
            if attempted else 0.0
    finish_trace(result, values, recorder, plain.wall_s,
                 tiling(recorder, traced.windows, ["models.forward_slots"],
                        traced.engine_busy_s))


def trace_finetune(seed: int, result: RunResult,
                   values: Dict[str, float]) -> None:
    """Fixed-size fine-tune + comparison, each step untraced then traced."""
    job = finetune_setup(seed)
    loss_before = job.eval_loss()
    recorder = SpanRecorder()
    plain_train = TrainPhase(job, TRACE_CHUNKS)
    train = TrainPhase(job, TRACE_CHUNKS, recorder=recorder)
    plain_compare = ComparePhase(job.workload, TRACE_COMPARISONS)
    compare = ComparePhase(job.workload, TRACE_COMPARISONS,
                           recorder=recorder)
    # The trainer times its own forward, backward and optimizer phases
    # when it has telemetry: the reference the spans are checked against.
    telemetry = Telemetry()
    for plain, traced, steps in ((plain_train, train, TRACE_CHUNKS),
                                 (plain_compare, compare, TRACE_COMPARISONS)):
        for _ in range(steps):
            plain.step()
            job.trainer.telemetry = telemetry
            with recorder.patched(FINETUNE_TARGETS):
                traced.step()
            job.trainer.telemetry = None
    train_checks(result, plain_train, "finetune_vela.untraced",
                 loss_before, job.eval_loss())
    compare_checks(result, plain_compare, "finetune_vela.untraced")
    result.count(train.attempted + compare.attempted,
                 train.failed + compare.failed)
    reductions = {e.traffic_reduction_vs_ep()
                  for e in compare.experiments + plain_compare.experiments}
    result.checks["finetune_vela.traced.same_comparison"] = \
        len(reductions) == 1 and bool(compare.experiments)

    self_times = recorder.self_times()
    steps = len(train.losses)
    for span, metric in (("finetune.forward", "finetune.forward_s"),
                         ("finetune.backward", "finetune.backward_s"),
                         ("finetune.optimizer", "finetune.optimizer_s")):
        values[metric] = self_times.get(span, 0.0) / steps if steps \
            else float("nan")
    for strategy, metric in (("vela", "runtime.vela_cross_node_gb"),
                             ("expert_parallel", "runtime.ep_cross_node_gb")):
        values[metric] = compare.experiments[-1].runs[strategy] \
            .total_cross_node_bytes() / 1e9 if compare.experiments \
            else float("nan")
    reference = sum(telemetry.span_total(category)
                    for category in ("forward", "backward", "optimizer"))
    finish_trace(result, values, recorder,
                 plain_train.wall_s + plain_compare.wall_s,
                 tiling(recorder, train.windows + compare.windows,
                        ["finetune.forward", "finetune.backward",
                         "finetune.optimizer"], reference))


def finish_trace(result: RunResult, values: Dict[str, float],
                 recorder: SpanRecorder, plain_wall: float,
                 check: Tiling) -> None:
    """Self-time metrics, the tiling check and the tracing overhead."""
    self_times = recorder.self_times()
    for span, metric in SELF_TIME_METRICS.items():
        values[metric] = self_times.get(span, 0.0)
    result.checks["trace.spans_tile_wall"] = check.ok
    values["trace.overhead_pct"] = (check.wall_s / plain_wall - 1.0) * 100 \
        if plain_wall > 0 else float("nan")
    result.notes["trace"] = {
        "wall_s": check.wall_s, "untraced_wall_s": plain_wall,
        "layers_s": check.layers_s, "remainder_s": check.remainder_s,
        "remainder_share": check.remainder_share,
        "max_remainder_share": check.max_remainder,
        "traced_s": check.traced_s, "reference_s": check.reference_s,
        "disagreement": check.disagreement, "tolerance": check.tolerance,
        "spans": len(recorder.spans),
        "self_s": dict(sorted(self_times.items()))}


def trace_workload(name: str, seed: int) -> RunResult:
    """Every per-layer metric of one traced run of ``name``.

    The traced run covers the workload's own phases only; every other
    layer reads 0.
    """
    result = RunResult()
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if name == "finetune_vela":
        trace_finetune(seed, result, values)
    else:
        trace_serving(name, seed, result, values)
    for metric, unit in PER_LAYER_UNITS.items():
        result.add(metric, values[metric], unit, 1)
    result.check_measured()
    return result
