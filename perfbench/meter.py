"""Timing and span recording around the benchmark's calls into frobjets.

Every call the benchmark makes into a frobjets module goes through
`Meter.call`, which adds the call's CPU time to `busy` (the program time of
the current op). When spans are on, it also records a span
(name, start, end, parent, op id) in memory; the harness writes them out when
the run ends. Counters are kept only while spans are on, so an untraced pass
does no bookkeeping beyond two clock reads per call.

The clock is the calling thread's CPU time, not wall time. frobjets runs on
one thread and does no I/O on the benchmarked paths, so on an idle core the
two agree; on a shared virtual machine CPU time leaves out the time the
hypervisor or other processes hold the core. (The process-wide CPU clock
would do as well, but it ticks in 4 ms steps while a CPU-time interval timer
is armed, as in battery.py.)

What CPU time keeps is the host's speed, which drifts: on a 2-vCPU virtual
machine the same Python code ran up to 60% slower for minutes at a time.
`reference_seconds` times fixed work of the benchmark's own, so that the
harness can scale each pass to a host that does that work in REFERENCE_S
seconds.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import thread_time as clock
from typing import Callable

# The reference work: test which of REFERENCE_POINTS lie in the monomial
# ideal generated by REFERENCE_GENS, one divisibility test per generator. It
# is the benchmark's own code, shaped like the tuple and generator code that
# dominates frobjets. Over four minutes in which the host's speed swung by
# 60%, frobjets membership tests, minimalization and a Frobenius sweep, each
# timed next to it, kept 25-second medians of their ratio to it within an
# interquartile spread of 2.5% of the median; against a plain integer loop
# the spread was 11-14%.
_REFERENCE_RNG = random.Random(0)
REFERENCE_GENS = tuple(
    tuple(_REFERENCE_RNG.randrange(2, 12) for _ in range(3)) for _ in range(40)
)
REFERENCE_POINTS = tuple(
    tuple(_REFERENCE_RNG.randrange(10) for _ in range(3)) for _ in range(160)
)
# The CPU time the reference work is counted as: scaled times are measured
# times multiplied by REFERENCE_S / (the reference work's measured time).
REFERENCE_S = 0.004


def reference_seconds():
    """CPU time of a fixed piece of pure-Python work: how fast the host runs now.

    It calls no frobjets code, so no change to the program can move it.
    """
    t0 = clock()
    sum(
        any(all(x <= y for x, y in zip(g, a)) for g in REFERENCE_GENS)
        for a in REFERENCE_POINTS
    )
    return clock() - t0


@dataclass
class Op:
    """One closed-loop request.

    fn(meter) makes the calls into frobjets through meter.call, checks the
    results with the benchmark's own code, and returns (ok, output), where
    output is the canonical, JSON-able record that goes into the digest.
    key is the request's parameter tuple: a later op with the same key is one
    an lru_cache could answer. known_defect marks a request that fails at the
    commit that defined the benchmark; it still counts as failed.
    """

    kind: str
    key: tuple
    fn: Callable
    known_defect: bool = False


class Strata:
    """Cycles the parameters that drive an op's cost on a fixed schedule.

    Pass `index` of a run takes, for each named parameter, the value at
    position index mod len(values) of a permutation fixed by the workload
    and the name. Every run of a few cycles therefore sees each value about
    equally often, and which values of different parameters meet in one
    pass is the same for every seed, so the cost of a run's inputs barely
    depends on the seed and the spread between seeds measures the program,
    not the draw. The seed draws the rest of every input: models, sizes
    within each cycled band, sample points, formats and order.
    """

    def __init__(self, workload, index):
        self.workload = workload
        self.index = index

    def pick(self, name, values):
        values = list(values)
        order = random.Random(f"{self.workload}/{name}").sample(range(len(values)), len(values))
        return values[order[self.index % len(values)]]


class Meter:
    def __init__(self):
        self.busy = 0.0
        self.spans = []
        self.tracing = False
        self.counts = Counter()
        self.maxima = {}
        self._op_span = None
        self._op_id = -1

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one timed call into the layer `name`."""
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            self.busy += t1 - t0
            if self.tracing:
                self.spans.append((name, t0, t1, self._op_span, self._op_id))

    def count(self, name, amount=1):
        if self.tracing:
            self.counts[name] += amount

    def note_max(self, name, value):
        """Keep the largest value seen, traced or not (an input property)."""
        self.maxima[name] = max(value, self.maxima.get(name, value))

    def begin_op(self, op_id):
        self._op_id = op_id
        if self.tracing:
            # reserve the op span's slot so its children can name it as parent
            self._op_span = len(self.spans)
            self.spans.append(None)
        return clock()

    def end_op(self, kind, t0):
        if self.tracing:
            self.spans[self._op_span] = (kind, t0, clock(), None, self._op_id)
        self._op_span = None

    def add_span(self, name, t0, t1, parent, op_id):
        """Record a span measured elsewhere (the verify-all child process)."""
        self.spans.append((name, t0, t1, parent, op_id))
        return len(self.spans) - 1


def self_times(spans):
    """Per span name: (total self time, call count).

    Self time is a span's duration minus the time covered by its child spans;
    children of one parent never overlap, because the benchmark is a single
    closed-loop client.
    """
    covered = defaultdict(float)
    for span in spans:
        if span is not None and span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    totals = defaultdict(lambda: [0.0, 0])
    for index, span in enumerate(spans):
        if span is None:
            continue
        entry = totals[span[0]]
        entry[0] += span[2] - span[1] - covered[index]
        entry[1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}
