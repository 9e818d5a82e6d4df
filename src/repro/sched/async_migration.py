"""Asynchronous on-demand migration without DVFS.

The paper's introduction contrasts its *synchronous, proactive* rotations
with the traditional strategy of *asynchronous, on-demand* migrations
performed "often as a measure of last resort".  This baseline isolates that
contrast: like HotPotato it never touches DVFS, but instead of rotating
proactively it migrates only when the RC predictor says a core is about to
cross the threshold — PCMig's migration trigger
(:class:`~repro.sched.pcmig.PredictiveMigrator`) without PCMig's DVFS, on
top of :class:`~repro.sched.naive.PeakFrequencyScheduler`'s static
placement at f_max.

Expected behaviour (verified in ``benchmarks/test_ablation_async_vs_sync``):
reactive migrations fire after heat has already accumulated, ping-pong
threads between the few cool cores, and leave DTM to clean up — losing to
synchronous rotation on hot workloads.
"""

from __future__ import annotations

from typing import Callable

from .base import SchedulerDecision
from .naive import PeakFrequencyScheduler
from .pcmig import PredictiveMigrator


class AsyncMigrationScheduler(PredictiveMigrator, PeakFrequencyScheduler):
    """Reactive predictive migrations at fixed peak frequency."""

    name = "async-migration"

    def _thread_power(self) -> Callable[[str], float]:
        """Per-thread power [W] the predictor reads: the latest sample."""
        return self.ctx.thread_recent_power_w

    def on_migration_failure(self, failures, placements, now_s: float) -> None:
        """Sync the placer with the repaired map after aborted hops."""
        self._placer.sync(placements)

    def decide(self, now_s: float) -> SchedulerDecision:
        self._maybe_migrate()
        return super().decide(now_s)
