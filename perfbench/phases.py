"""The five phases a run interleaves, driven through the public APIs.

``offline``
    Bursts of requests, all present at t=0, into
    ``ContinuousBatchingEngine(max_slots=8)`` on a seeded ``tiny_mistral``
    with every hook off: the saturated no-grad inference path.
``online``
    An open-loop Poisson stream through the same engine with the full
    observability stack attached (telemetry, routing-health monitor,
    request tracer with SLOs, flight recorder, prefetch).
``train``
    LoRA fine-tuning of ``tiny_finetune_workload()`` with a pre-trained
    router, in short ``Trainer.train`` chunks.
``compare``
    The Mixtral/WikiText Fig. 5/6 ``run_comparison_experiment`` over all
    ``PAPER_STRATEGIES``.
``setup``
    One timed build of the workload's own set-up.

Each phase takes one sample per :meth:`step` and keeps what it measured;
:func:`interleave` shares a time window between phases.  Every input comes
from the workload seed.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench import (ComparisonExperiment, PaperWorkload, paper_workload,
                         run_comparison_experiment, tiny_finetune_workload)
from repro.core import PAPER_STRATEGIES
from repro.finetune import FineTuneConfig, Trainer, pretrain_router
from repro.models import build_model, tiny_mistral
from repro.nn import no_grad
from repro.serving import (ContinuousBatchingEngine, LiveDecodeEngine,
                           PrefetchConfig, Request, RequestOutcome)
from repro.telemetry import (FlightRecorder, RequestTracer,
                             RoutingHealthMonitor, SLOConfig, Telemetry)

from spans import SpanRecorder, covered
from stats import median, percentile, tpot

# ---------------------------------------------------------------------- #
# serving traffic
# ---------------------------------------------------------------------- #
MODEL_SEED = 0
MAX_SLOTS = 8
# Mostly short prompts with a long minority: mixed lengths split each
# admission wave into several equal-length prefill groups.
SHORT_PROMPT = (8, 16)
LONG_PROMPT = (48, 80)
LONG_SHARE = 0.25
MEAN_DECODE = 16
MAX_DECODE = 48          # 80 + 48 fits tiny_mistral's 128-token slots
OFFLINE_BURST = 32       # requests per offline serve() call, all at t=0
ONLINE_REQUESTS = 36     # requests per online serve() call
# Online arrival rate as a share of the engine's saturated capacity,
# measured on the virtual clock before the phase starts (see
# calibrate_rate).  At this share the engine is busy about half of the
# virtual time, decode steps often carry more than one request, and the
# queue stays bounded; at higher shares host-speed noise during the run
# changes which requests share a step and the latency spread doubles.
ONLINE_LOAD = 0.3
CALIBRATION_BURSTS = 3
# slo_attainment: the share of sent requests with TTFT and TPOT both
# within these limits.  The 2-core host this was calibrated on changed
# speed up to 3x between spells.  In its slower spells attainment is
# about 0.8-0.95; in its fastest it nears 1.  Tighter limits put the
# slow spells on the steep part of the latency distribution, where ten
# runs of 12 ms / 6 ms limits spread by half of their median.
SLO_TTFT_S = 0.020
SLO_TPOT_S = 0.010
IDENTITY_SAMPLE = 4      # requests per serving phase re-decoded solo

# ---------------------------------------------------------------------- #
# fine-tune + placement job
# ---------------------------------------------------------------------- #
PRETRAIN_STEPS = 24
FINETUNE_LR = 3e-4
TRAIN_CHUNK = 2          # optimizer steps per Trainer.train() call
COMPARE_STEPS = 60       # routing-trace steps replayed per comparison
# Calibrated Mixtral/WikiText traffic-reduction band (EXPERIMENTS.md).
VELA_BAND = (0.181, 0.253)

# Independent request streams of one seed.
OFFLINE, ONLINE, CALIBRATION = range(3)


@dataclass
class Metric:
    """One reported figure with its unit and sample count."""

    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    """Everything one benchmark run reports."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    sent: int = 0
    completed: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def count(self, attempted: int, failed: int) -> None:
        """Add one phase's attempted and failed operations."""
        self.sent += attempted
        self.completed += attempted - failed
        self.failed += failed

    def check_measured(self) -> None:
        """Fail the run when a metric had too few samples to be measured."""
        self.checks["all_metrics_measured"] = all(
            math.isfinite(m.value) for m in self.metrics.values())


class Phase:
    """Samples of one kind of work, taken one :meth:`step` at a time.

    A step that raises counts as failed and stops the phase.  With a
    recorder, each step is one root span named :attr:`span`.
    """

    span = "phase"
    unit = 1  # operations one step attempts

    def __init__(self, minimum: int,
                 recorder: Optional[SpanRecorder] = None):
        self.minimum = minimum
        self.recorder = recorder
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.windows: List[Tuple[float, float]] = []

    @property
    def alive(self) -> bool:
        """False once a step has failed."""
        return self.failed == 0

    def step(self) -> None:
        """Take one timed sample."""
        self.attempted += self.unit
        start = time.perf_counter()
        try:
            with (self.recorder.span(self.span) if self.recorder is not None
                  else nullcontext()):
                value = self.run()
        except Exception:  # noqa: BLE001 - a failed step is reported
            traceback.print_exc(file=sys.stderr)
            self.failed += self.unit
            return
        end = time.perf_counter()
        self.windows.append((start, end))
        self.samples += 1
        self.record(value, end - start)

    def run(self):
        """The work of one sample."""
        raise NotImplementedError

    def record(self, value, wall: float) -> None:
        """Keep what one sample measured."""
        raise NotImplementedError

    @property
    def wall_s(self) -> float:
        """Real time spent in successful steps."""
        return sum(end - start for start, end in self.windows)


def interleave(phases: Dict[str, Phase], shares: Dict[str, float],
               seconds: float) -> None:
    """Share ``seconds`` between phases by their time ``shares``.

    Each next step goes to the phase furthest below its share of the busy
    time so far, so every phase samples the whole window and a slow spell
    of the host touches all of them alike.  After the window, phases below
    their minimum sample count keep stepping until they reach it.
    """
    deadline = time.perf_counter() + seconds
    busy = dict.fromkeys(phases, 0.0)
    while True:
        late = time.perf_counter() >= deadline
        ready = [name for name, phase in phases.items()
                 if phase.alive and (not late or
                                     phase.samples < phase.minimum)]
        if not ready:
            return
        name = min(ready, key=lambda n: busy[n] / shares[n])
        start = time.perf_counter()
        phases[name].step()
        busy[name] += time.perf_counter() - start


class SetupPhase(Phase):
    """One timed build of the workload's own set-up per step.

    Timing the builds inside the interleaved window exposes them to the
    same host drift as the other phases' samples.
    """

    span = "setup"

    def __init__(self, build: Callable[[], object], minimum: int):
        super().__init__(minimum)
        self.build = build
        self.setup_s: List[float] = []

    def run(self):
        return self.build()

    def record(self, value, wall: float) -> None:
        self.setup_s.append(wall)


def setup_metrics(result: RunResult, phase: SetupPhase) -> None:
    """setup_s: median over the timed builds; every build must succeed."""
    result.count(phase.attempted, phase.failed)
    result.add("setup_s", median(phase.setup_s), "s", len(phase.setup_s))
    result.checks["setup.all_built"] = phase.failed == 0 and \
        bool(phase.setup_s)


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
def stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniforms, one per stratum ``[i/count, (i+1)/count)``,
    in random order."""
    return (rng.permutation(count) + rng.random(count)) / count


def make_requests(seed: int, stream: int, round_index: int, vocab_size: int,
                  rate: Optional[float] = None) -> List[Request]:
    """One round of serving traffic, a pure function of its arguments.

    ``rate=None`` gives a burst of :data:`OFFLINE_BURST` requests at t=0;
    a rate gives :data:`ONLINE_REQUESTS` Poisson arrivals at that many
    requests per second.  Prompt classes, decode budgets and inter-arrival
    gaps are drawn by stratified sampling: each round holds exactly its
    share of long prompts and one budget (and gap) per quantile of the
    geometric (and exponential) distribution, in random order.  Rounds and
    seeds then differ in order and content, not in total load.
    """
    rng = np.random.default_rng([seed, stream, round_index])
    online = rate is not None
    count = ONLINE_REQUESTS if online else OFFLINE_BURST
    long = rng.permutation(count) < round(LONG_SHARE * count)
    budgets = 1 + np.ceil(np.log1p(-stratified(rng, count))
                          / np.log1p(-1.0 / MEAN_DECODE))
    budgets = np.clip(budgets, 2, MAX_DECODE).astype(int)
    gaps = -np.log1p(-stratified(rng, count))
    arrivals = np.cumsum(gaps) / rate if online else np.zeros(count)
    requests = []
    for index in range(count):
        lo, hi = LONG_PROMPT if long[index] else SHORT_PROMPT
        prompt = rng.integers(0, vocab_size,
                              size=int(rng.integers(lo, hi + 1)))
        requests.append(Request(
            request_id=index, arrival_time=float(arrivals[index]),
            decode_tokens=int(budgets[index]), prompt_ids=prompt,
            trace_id=f"s{seed}-{stream}-r{round_index}-q{index}"))
    return requests


def build_engine(online: bool) -> ContinuousBatchingEngine:
    """A seeded tiny_mistral in an 8-slot engine; sidecars when online."""
    model = build_model(tiny_mistral(seed=MODEL_SEED))
    if not online:
        return ContinuousBatchingEngine(model, max_slots=MAX_SLOTS)
    telemetry = Telemetry()
    return ContinuousBatchingEngine(
        model, max_slots=MAX_SLOTS, telemetry=telemetry,
        monitor=RoutingHealthMonitor(telemetry=telemetry),
        tracing=RequestTracer(telemetry=telemetry,
                              slo=SLOConfig(ttft_s=SLO_TTFT_S,
                                            token_latency_s=SLO_TPOT_S)),
        flight=FlightRecorder(), prefetch=PrefetchConfig())


def calibrate_rate(engine: ContinuousBatchingEngine, seed: int) -> float:
    """:data:`ONLINE_LOAD` times the engine's saturated capacity.

    Capacity is requests per virtual second over bursts of the
    calibration stream (a burst has no idle time, so its virtual wall is
    pure forward time); the median of :data:`CALIBRATION_BURSTS` bursts.
    A fixed rate in requests/s would couple the schedule to host speed:
    a host 15 % slower for a minute packs more requests into each decode
    step, and identical inputs gave TPOT p50 of 4.7 and 7.6 ms on
    consecutive runs.  A load share scales the whole schedule with the
    host, so latencies move with model speed, not with it squared.
    """
    vocab = engine.model.config.vocab_size
    walls = [engine.serve(make_requests(seed, CALIBRATION, index,
                                        vocab)).wall_time
             for index in range(CALIBRATION_BURSTS)]
    return ONLINE_LOAD * OFFLINE_BURST / statistics.median(walls)


class ServingPhase(Phase):
    """Consecutive serve() rounds: bursts, or a stream at ``rate``."""

    span = "serving.serve"

    def __init__(self, engine: ContinuousBatchingEngine, seed: int,
                 rate: Optional[float], minimum: int, first_round: int = 0,
                 recorder: Optional[SpanRecorder] = None):
        super().__init__(minimum, recorder)
        self.engine = engine
        self.seed = seed
        self.rate = rate
        self.next_round = first_round
        self.rounds: List[Tuple[List[Request], List[RequestOutcome]]] = []
        self.round_tok_s: List[float] = []
        self._requests: List[Request] = []

    def step(self) -> None:
        self._requests = make_requests(
            self.seed, OFFLINE if self.rate is None else ONLINE,
            self.next_round, self.engine.model.config.vocab_size, self.rate)
        self.next_round += 1
        # A serve() that raises counts every request it was given.
        self.unit = len(self._requests)
        super().step()

    def run(self):
        return self.engine.serve(self._requests)

    def record(self, metrics, wall: float) -> None:
        self.rounds.append((self._requests, metrics.outcomes))
        self.round_tok_s.append(metrics.total_tokens / wall)

    @property
    def outcomes(self) -> List[RequestOutcome]:
        """Outcomes of every completed round, in round order."""
        return [o for _, outcomes in self.rounds for o in outcomes]

    @property
    def engine_busy_s(self) -> float:
        """Forward time as the engine timed it, summed over rounds.

        The engine's virtual clock advances only by its own
        ``perf_counter`` reading around each ``forward_slots`` call and
        jumps over idle gaps; while it is busy some request holds a slot.
        So the union of the requests' ``[start, finish]`` intervals on that
        clock is the summed forward time.
        """
        return sum(covered([(o.start_time, o.finish_time) for o in outcomes])
                   for _, outcomes in self.rounds)


def throughput_metrics(result: RunResult, phase: ServingPhase) -> None:
    """tok_s and TPOT percentiles of a serving phase."""
    rates = phase.round_tok_s
    result.add("tok_s", median(rates), "tok/s", len(rates))
    tpots = [t for t in map(tpot, phase.outcomes) if t is not None]
    for q in (50, 90):
        p = percentile(tpots, q)
        result.add(f"tpot_p{q}_ms", p.value * 1e3, "ms", p.samples)


def latency_metrics(result: RunResult, phase: ServingPhase) -> None:
    """TTFT percentiles and SLO attainment of a serving phase."""
    outcomes = phase.outcomes
    for q in (50, 90):
        p = percentile([o.ttft for o in outcomes], q)
        result.add(f"ttft_p{q}_ms", p.value * 1e3, "ms", p.samples)
    met = sum(1 for o in outcomes
              if o.ttft <= SLO_TTFT_S
              and (tpot(o) is None or tpot(o) <= SLO_TPOT_S))
    # Failed requests are in the denominator, so they count as misses.
    result.add("slo_attainment", met / phase.attempted, "share",
               phase.attempted)


def serving_checks(result: RunResult, phase: ServingPhase,
                   label: str) -> None:
    """Completion and greedy-identity checks of a serving phase."""
    result.count(phase.attempted, phase.failed)
    # Outcomes come back sorted by request id; no EOS is set, so every
    # request must use its whole decode budget.
    full = all(len(requests) == len(outcomes) and all(
        q.request_id == o.request_id and q.decode_tokens == o.decode_tokens
        for q, o in zip(requests, outcomes))
        for requests, outcomes in phase.rounds)
    result.checks[f"{label}.all_completed"] = \
        phase.failed == 0 and bool(phase.rounds) and full
    result.checks[f"{label}.greedy_ids_match_solo_decode"] = \
        greedy_identity(phase)


def greedy_identity(phase: ServingPhase) -> bool:
    """A sample of the first round re-decoded alone gives the same ids."""
    if not phase.rounds:
        return False
    requests, outcomes = phase.rounds[0]
    solo = LiveDecodeEngine(phase.engine.model)
    step = max(len(requests) // IDENTITY_SAMPLE, 1)
    for request, outcome in list(zip(requests, outcomes))[::step]:
        expected = solo.decode(request.prompt_ids[None, :],
                               request.decode_tokens, mode="cached")[0]
        if not np.array_equal(expected, outcome.token_ids):
            return False
    return True


# ---------------------------------------------------------------------- #
# fine-tune + placement
# ---------------------------------------------------------------------- #
@dataclass
class SeededPaperWorkload(PaperWorkload):
    """The calibrated Mixtral/WikiText cell with a seed-chosen trace.

    The popularity prior stays the calibrated one (``paper_workload``
    seed 1); the workload seed picks the fine-tuning routing trace.
    """

    trace_seed: int = 0

    def trace(self, num_steps: int):
        """This seed's routing trace."""
        return self.router.generate_trace(num_steps,
                                          self.config.tokens_per_step,
                                          seed=self.trace_seed)


@dataclass
class FinetuneJob:
    """A LoRA trainer, its comparison workload and a fixed eval batch."""

    trainer: Trainer
    workload: SeededPaperWorkload
    eval_batch: Tuple[np.ndarray, np.ndarray]

    def eval_loss(self) -> float:
        """LM loss on the fixed batch, without gradients."""
        with no_grad():
            return float(self.trainer.model.loss(*self.eval_batch).item())


def finetune_setup(seed: int) -> FinetuneJob:
    """Model build, router pre-train, LoRA inject and workload build."""
    model, loader = tiny_finetune_workload(seed=seed)
    pretrain_router(model, loader, steps=PRETRAIN_STEPS)
    trainer = Trainer(model, loader, FineTuneConfig(lr=FINETUNE_LR))
    cell = paper_workload("mixtral", "wikitext", seed=1)
    workload = SeededPaperWorkload(
        name=cell.name, config=cell.config, router=cell.router,
        probability_matrix=cell.probability_matrix, trace_seed=seed)
    return FinetuneJob(trainer, workload, next(loader.batches(1)))


class TrainPhase(Phase):
    """``Trainer.train`` chunks of :data:`TRAIN_CHUNK` steps."""

    span = "finetune.train"
    unit = TRAIN_CHUNK

    def __init__(self, job: FinetuneJob, minimum: int,
                 recorder: Optional[SpanRecorder] = None):
        super().__init__(minimum, recorder)
        self.job = job
        self.losses: List[float] = []
        self.chunk_tok_s: List[float] = []

    def run(self):
        return self.job.trainer.train(steps=TRAIN_CHUNK)

    def record(self, run, wall: float) -> None:
        self.losses.extend(float(v) for v in run.losses)
        self.chunk_tok_s.append(run.trace.tokens_per_step * run.num_steps
                                / wall)


class ComparePhase(Phase):
    """Fig. 5/6 comparisons over all paper strategies."""

    span = "finetune.compare"

    def __init__(self, workload: SeededPaperWorkload, minimum: int,
                 recorder: Optional[SpanRecorder] = None):
        super().__init__(minimum, recorder)
        self.workload = workload
        self.compare_s: List[float] = []
        self.experiments: List[ComparisonExperiment] = []

    def run(self):
        return run_comparison_experiment(num_steps=COMPARE_STEPS,
                                         strategies=PAPER_STRATEGIES,
                                         workload=self.workload)

    def record(self, experiment, wall: float) -> None:
        self.compare_s.append(wall)
        self.experiments.append(experiment)


def train_metrics(result: RunResult, phase: TrainPhase) -> None:
    """train_tok_s: median over training chunks."""
    result.add("train_tok_s", median(phase.chunk_tok_s), "tok/s",
               len(phase.chunk_tok_s))


def compare_metrics(result: RunResult, phase: ComparePhase) -> None:
    """compare_s and the paper's two headline reductions."""
    result.add("compare_s", median(phase.compare_s), "s",
               len(phase.compare_s))
    traffic = time_cut = float("nan")
    if phase.experiments:
        experiment = phase.experiments[-1]
        traffic = experiment.traffic_reduction_vs_ep()
        time_cut = experiment.time_reduction_vs_ep()
    samples = min(len(phase.experiments), 1)
    result.add("vela_traffic_reduction", traffic, "share", samples)
    result.add("vela_step_time_reduction", time_cut, "share", samples)


def train_checks(result: RunResult, phase: TrainPhase, label: str,
                 loss_before: float, loss_after: float) -> None:
    """Finite step losses; the fixed batch's loss fell over training.

    Batches change every step, so step losses are compared on one fixed
    batch: its loss after the training chunks must be below its loss
    before them.
    """
    result.count(phase.attempted, phase.failed)
    result.checks[f"{label}.losses_finite"] = bool(phase.losses) and all(
        math.isfinite(v) for v in phase.losses) and phase.failed == 0
    result.checks[f"{label}.final_loss_below_first"] = \
        loss_after < loss_before


def compare_checks(result: RunResult, phase: ComparePhase,
                   label: str) -> None:
    """Band, step-time and determinism checks of the comparisons."""
    result.count(phase.attempted, phase.failed)
    reductions = {(e.traffic_reduction_vs_ep(), e.time_reduction_vs_ep())
                  for e in phase.experiments}
    result.checks[f"{label}.comparison_deterministic"] = \
        len(reductions) == 1 and phase.failed == 0
    ok_band = ok_time = False
    if phase.experiments:
        experiment = phase.experiments[-1]
        low, high = VELA_BAND
        ok_band = low <= experiment.traffic_reduction_vs_ep() <= high
        times = experiment.step_times()
        ok_time = times["vela"] < times["expert_parallel"]
    result.checks[f"{label}.vela_traffic_reduction_in_band"] = ok_band
    result.checks[f"{label}.vela_step_time_below_ep"] = ok_time
