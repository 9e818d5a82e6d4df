"""Layer spans recorded from outside the program.

:class:`LayerTracer` wraps public functions and methods of the ``repro``
layers (scheduler, Algorithm-1 core, engine, thermal, workload, power,
traffic, parallel) so that every call becomes a span: its duration is
timed, and the time is charged to the span that was open when the call
was made.  Spans are folded into per-name aggregates as they finish —
call count, total time, self time (duration minus the time covered by
child spans) — so memory stays bounded however many calls a sweep makes.
Only the scheduler ``decide`` spans keep every duration, for their p99.

Because every span nests inside the root span opened by :meth:`root`,
the self times of all spans sum to the root's duration: the per-layer
split accounts for the whole traced wall time.

Nothing here is imported by the program; the wrappers are installed by
:meth:`LayerTracer.install` and removed again by :meth:`uninstall`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: scheduler class name -> the short name used in span names
SCHEDULER_KINDS = {
    "HotPotatoScheduler": "hotpotato",
    "PCMigScheduler": "pcmig",
    "QoSAwareScheduler": "qos",
}


def layer_of(name: str) -> str:
    """The layer a span belongs to: the part of its name before the dot."""
    return name.split(".", 1)[0]


class _Stat:
    __slots__ = ("calls", "total_s", "child_s", "units", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        #: a per-call work count (e.g. candidates of a peak_batch call)
        self.units = 0
        self.samples: Optional[List[float]] = [] if keep_samples else None

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class LayerTracer:
    """Span aggregates keyed by span name, fed by installed wrappers."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        #: open spans, innermost last: [name, child time so far]
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: Algorithm-1 memo counters summed over finished simulations
        self.memo_hits = 0
        self.memo_misses = 0

    # -- recording -------------------------------------------------------------

    def _stat(self, name: str, keep_samples: bool = False) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat(keep_samples)
        return stat

    def _call(self, name, keep_samples, units, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            # re-entrant call (an override calling super()): one span
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            stat = self._stat(name, keep_samples)
            stat.calls += 1
            stat.total_s += duration
            stat.child_s += frame[1]
            if units is not None:
                stat.units += units(args, kwargs)
            if stat.samples is not None:
                stat.samples.append(duration)
            if stack:
                stack[-1][1] += duration

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open the span every other span of a traced run nests in."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            stat = self._stat(name)
            stat.calls += 1
            stat.total_s += duration
            stat.child_s += frame[1]

    def wrap(
        self,
        fn: Callable,
        name,
        keep_samples: bool = False,
        units: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``name`` is a string, or a callable of the bound ``self`` for
        methods whose span name depends on the instance's class.
        """
        call = self._call
        if callable(name):
            name_of = name

            @functools.wraps(fn)
            def method_wrapper(self_, *args, **kwargs):
                return call(
                    name_of(self_), keep_samples, units, fn, (self_,) + args, kwargs
                )

            return method_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, keep_samples, units, fn, args, kwargs)

        return wrapper

    def patch(self, owner, attr: str, name, **options) -> None:
        """Replace ``owner.attr`` by its wrapped form until :meth:`uninstall`."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- the repro layers --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every simulation layer."""
        from repro.core.hotpotato import HotPotato
        from repro.core.peak_temperature import PeakTemperatureCalculator
        from repro.experiments import fig4a, fig4b
        from repro.power.model import PowerModel
        from repro.sched.base import Scheduler
        from repro.sched.hotpotato_runtime import HotPotatoScheduler
        from repro.sched.pcmig import PCMigScheduler
        from repro.sched.qos_aware import QoSAwareScheduler
        from repro.sim import context
        from repro.sim.context import SimContext
        from repro.sim.dtm import DtmController
        from repro.sim.engine import IntervalSimulator
        from repro.thermal.matex import ThermalDynamics
        from repro.thermal.rc_model import RCThermalModel
        from repro.thermal.spectral_state import SpectralThermalState
        from repro.workload.perf import PerformanceModel

        def sched_span(hook: str) -> Callable:
            def name_of(scheduler) -> str:
                kind = SCHEDULER_KINDS.get(
                    type(scheduler).__name__, type(scheduler).__name__.lower()
                )
                return f"sched.{kind}.{hook}"

            return name_of

        for cls in (HotPotatoScheduler, PCMigScheduler, QoSAwareScheduler):
            self.patch(cls, "decide", sched_span("decide"), keep_samples=True)
        for cls in (Scheduler, QoSAwareScheduler):
            self.patch(cls, "on_task_arrival", sched_span("arrival"))
            self.patch(cls, "on_task_complete", sched_span("arrival"))

        self.patch(HotPotato, "refresh", "core.refresh")
        self.patch(HotPotato, "admit", "core.admit")
        self.patch(
            PeakTemperatureCalculator,
            "peak_batch",
            "core.peak_batch",
            units=lambda args, kwargs: len(args[1]),
        )

        run = IntervalSimulator.run

        def run_and_collect(sim, *args, **kwargs):
            result = run(sim, *args, **kwargs)
            stats = sim.ctx.calculator.cache_stats()
            self.memo_hits += stats["peak_cache.hits"]
            self.memo_misses += stats["peak_cache.misses"]
            return result

        self._patched.append((IntervalSimulator, "run", run))
        IntervalSimulator.run = self.wrap(run_and_collect, "sim.engine")
        self.patch(SimContext, "thread_power_w", "sim.thread_power_w")
        self.patch(DtmController, "update", "sim.dtm")
        self.patch(DtmController, "apply", "sim.dtm")

        self.patch(SpectralThermalState, "step", "thermal.step")
        self.patch(ThermalDynamics, "step_spectral", "thermal.step_spectral")
        self.patch(ThermalDynamics, "__init__", "thermal.dynamics_build")
        self.patch(RCThermalModel, "steady_state", "thermal.steady_state")
        self.patch(context, "calibrated_model", "thermal.calibrate")

        self.patch(
            PerformanceModel, "time_per_instruction_s", "workload.time_per_instruction"
        )
        self.patch(PowerModel, "core_power_w", "power.core_power_w")
        self.patch(fig4b, "build_process", "traffic.arrivals")
        self.patch(fig4b, "assign_arrivals", "traffic.arrivals")
        self.patch(fig4a, "run_cells", "parallel.run_cells")

    def wrapped_calls(self) -> int:
        """Calls that went through a wrapper; the tracing cost grows with them."""
        return sum(stat.calls for stat in self.stats.values())


def per_call_overhead_s(samples: int = 20000) -> float:
    """Measured cost one wrapper adds to a call on the running host."""
    tracer = LayerTracer()

    def noop() -> None:
        return None

    wrapped = tracer.wrap(noop, "bench.noop")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (time.perf_counter() - start - bare) / samples)
    return max(best, 0.0)
