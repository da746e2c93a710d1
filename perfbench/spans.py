"""In-memory span recording around the public calls into each layer.

The traced run wraps methods of the program's classes from the outside
(``src/`` is not changed): :meth:`SpanRecorder.patched` swaps each listed
method for a wrapper that records a span, and puts the original back on
exit.  Spans nest through a stack, so every span knows its parent, and a
layer's *self time* is its duration minus the part of it that its direct
children cover.  :func:`tiling` checks the spans against timings the
benchmark and the program take independently of them.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# (owner, attribute, span name, attrs_fn): ``owner`` is a class (every
# instance is traced) or one instance; ``attrs_fn(*args)`` turns the call's
# arguments into span attributes.
Target = Tuple[object, str, str, Optional[Callable[..., dict]]]


@dataclass
class Span:
    """One timed call: ``[start, end)`` on the perf-counter clock."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanRecorder:
    """Nested spans kept in memory for one traced run (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Record the enclosed block as a child of the open span."""
        record = Span(name=name, start=self.clock(),
                      parent=self._stack[-1] if self._stack else None,
                      attrs=attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def _wrapper(self, function: Callable, name: str,
                 attrs_fn: Optional[Callable[..., dict]],
                 bound: bool) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            attrs = attrs_fn(*(args if bound else args[1:])) \
                if attrs_fn is not None else {}
            with self.span(name, **attrs):
                return function(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator["SpanRecorder"]:
        """Trace every target method for the duration of the block."""
        undo = []
        try:
            for owner, attribute, name, attrs_fn in targets:
                # On an instance the wrapper shadows the class method and
                # receives a bound method; on a class it receives `self`.
                original = owner.__dict__.get(attribute)
                setattr(owner, attribute,
                        self._wrapper(getattr(owner, attribute), name,
                                      attrs_fn,
                                      bound=not isinstance(owner, type)))
                undo.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                if original is None:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    def named(self, name: str) -> List[Span]:
        """Every span called ``name``, in start order."""
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Time inside spans called ``name`` (nested repeats counted once)."""
        return covered([(span.start, span.end) for span in self.named(name)])

    def _self_time(self) -> List[float]:
        """Each span's duration minus what its direct children cover."""
        children: List[List[Tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                children[span.parent].append(
                    (max(span.start, parent.start), min(span.end, parent.end)))
        return [span.duration - covered(intervals)
                for span, intervals in zip(self.spans, children)]

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self._self_time()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def layers_s(self) -> float:
        """Summed self time of every span below a root."""
        return sum(own for span, own in zip(self.spans, self._self_time())
                   if span.parent is not None)


# The program's own timer wraps the traced call and a little glue around
# it (the trainer's forward timer also scales the loss), so it reads a
# little more than the spans: about 0.2 % on serving, 1 % on fine-tuning.
AGREEMENT_TOLERANCE = 0.05
# Share of the traced wall that no wrapped layer may exceed: the loop
# glue of serve() and of Trainer.train, plus the comparison's own glue.
MAX_REMAINDER_SHARE = 0.10


@dataclass(frozen=True)
class Tiling:
    """Traced layers against independent timings of the same work.

    ``wall_s`` is what the benchmark timed around each traced call;
    ``layers_s`` the self times of every wrapped layer below those calls;
    ``traced_s`` the span total of the cross-checked layers and
    ``reference_s`` the program's own timing of the same calls.
    """

    wall_s: float
    layers_s: float
    traced_s: float
    reference_s: float
    tolerance: float = AGREEMENT_TOLERANCE
    max_remainder: float = MAX_REMAINDER_SHARE

    @property
    def remainder_s(self) -> float:
        """Traced wall time that no wrapped layer accounts for."""
        return self.wall_s - self.layers_s

    @property
    def remainder_share(self) -> float:
        """The remainder as a share of the traced wall time."""
        return self.remainder_s / self.wall_s if self.wall_s > 0 \
            else float("nan")

    @property
    def disagreement(self) -> float:
        """Relative gap between the spans and the program's own timer."""
        return abs(self.reference_s - self.traced_s) / self.reference_s \
            if self.reference_s > 0 else float("nan")

    @property
    def ok(self) -> bool:
        """The spans match the program's timer and cover the wall."""
        return self.disagreement <= self.tolerance and \
            0.0 <= self.remainder_share <= self.max_remainder


def tiling(recorder: SpanRecorder, windows: Sequence[Tuple[float, float]],
           checked: Sequence[str], reference_s: float) -> Tiling:
    """Check the traced layers against two independent timings.

    ``windows`` are the ``[start, end)`` intervals the benchmark timed
    around each traced call; the wrapped layers' self times must cover
    all but :data:`MAX_REMAINDER_SHARE` of them.  ``reference_s`` is the
    program's own timing of the calls traced as the ``checked`` spans;
    their span total must match it within :data:`AGREEMENT_TOLERANCE`.
    A layer reached by a path the spans miss, or spans that overlap and
    count time twice, breaks one or the other.
    """
    return Tiling(wall_s=sum(end - start for start, end in windows),
                  layers_s=recorder.layers_s(),
                  traced_s=sum(recorder.total(name) for name in checked),
                  reference_s=reference_s)
