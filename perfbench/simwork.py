"""The simulation workloads: the fig4a sweep and one fig4b load point.

Both drive the program through its experiment entry points
(:func:`repro.experiments.fig4a.run`, :func:`repro.experiments.fig4b.run_matrix`)
and time each cell from outside.  A cell fails when it raises or leaves a
task unfinished at its horizon.  The digest lists every simulated
statistic a speed-only change must leave untouched, beside the paper's
numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

FIG4A_SEED = 42
FIG4A_WORK_SCALE = 2.5
FIG4A_MAX_TIME_S = 5.0
FIG4B_SEED = 7
FIG4B_RATE_PER_S = 60.0
FIG4B_TASKS = 40
FIG4B_WORK_SCALE = 2.0
FIG4B_MAX_TIME_S = 60.0
FIG4B_SCHEDULERS = ("hotpotato", "pcmig", "qos")
SETUP_REPEATS = 3
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def program_env(root: Path) -> Dict[str, str]:
    """The environment of a child Python that imports ``repro`` from ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def setup_times(root: Path) -> List[float]:
    """Spawn-to-ready of fresh processes that build the table1 SimContext."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(SETUP_PROBE)], cwd=str(root), env=program_env(root), stdout=subprocess.PIPE
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return times


@dataclasses.dataclass
class SimRun:
    #: cell key -> host seconds of the cell
    cell_s: Dict[str, float]
    #: host seconds of each operation: one figure datum (a fig4a bar is
    #: its benchmark's HotPotato and PCMig cells; a fig4b datum one cell)
    op_s: List[float]
    attempted: int
    failed: int
    digest: dict


def _cell_stats(result) -> dict:
    return {
        "makespan_s": result.makespan_s if result.tasks else None,
        "mean_response_time_s": result.mean_response_time_s if result.tasks else None,
        "tasks_completed": len(result.tasks),
        "dtm_triggers": result.dtm_triggers,
        "migrations": result.migration_count,
    }


def _finished(result, n_tasks: int, max_time_s: float) -> bool:
    return len(result.tasks) == n_tasks and result.makespan_s < max_time_s


def seal(digest: dict) -> dict:
    """Add the SHA-256 of the digest's canonical JSON (floats in full)."""
    text = json.dumps(digest, sort_keys=True)
    return dict(digest, sha256=hashlib.sha256(text.encode()).hexdigest())


def run_fig4a(seed: int, tiny: bool, wrap: Optional[Callable] = None) -> SimRun:
    """The full homogeneous sweep, serial, one process.

    ``wrap(fn)`` (trace mode) turns each cell function into a span.
    """
    from repro.config import table1
    from repro.experiments import fig4a
    from repro.workload.generator import homogeneous_fill

    cell_s: Dict[str, float] = {}
    benchmarks = ("blackscholes",) if tiny else None
    work_scale = 0.25 if tiny else FIG4A_WORK_SCALE

    def timed(cell):
        fn = wrap(cell.fn) if wrap is not None else cell.fn

        def cell_fn(**kwargs):
            start = time.perf_counter()
            try:
                return fn(**kwargs)
            finally:
                cell_s["/".join(cell.key)] = time.perf_counter() - start

        return dataclasses.replace(cell, fn=cell_fn)

    original = fig4a.run_cells
    fig4a.run_cells = lambda cells, **kwargs: original([timed(c) for c in cells], **kwargs)
    try:
        result = fig4a.run(
            seed=seed, work_scale=work_scale, max_time_s=FIG4A_MAX_TIME_S,
            benchmarks=benchmarks, jobs=1,
        )
    except Exception as exc:  # a raising cell fails the whole sweep
        n = 2 * (1 if tiny else 8)
        return SimRun(cell_s, [], n, n, {"error": f"{type(exc).__name__}: {exc}"})
    finally:
        fig4a.run_cells = original

    n_cores = table1().n_cores
    cells = {}
    failed = 0
    for name, comparison in result.comparisons.items():
        n_tasks = len(homogeneous_fill(name, n_cores, seed=seed, work_scale=work_scale))
        for scheduler in ("hotpotato", "pcmig"):
            outcome = getattr(comparison, scheduler)
            failed += not _finished(outcome, n_tasks, FIG4A_MAX_TIME_S)
            cells[f"{name}/{scheduler}"] = _cell_stats(outcome)
        cells[f"{name}/speedup_pct"] = comparison.speedup_pct
    mean = result.mean_speedup_pct
    digest = {
        "cells": cells,
        "mean_speedup_pct": mean,
        "paper_mean_speedup_pct": fig4a.PAPER_MEAN_SPEEDUP_PCT,
        "paper_gap_pp": abs(mean - fig4a.PAPER_MEAN_SPEEDUP_PCT),
        "dtm_triggers": sum(c["dtm_triggers"] for c in cells.values() if isinstance(c, dict)),
        "migrations": sum(c["migrations"] for c in cells.values() if isinstance(c, dict)),
    }
    bars = [cell_s[f"{name}/hotpotato"] + cell_s[f"{name}/pcmig"] for name in result.comparisons]
    return SimRun(cell_s, bars, 2 * len(result.comparisons), failed, seal(digest))


def run_fig4b(tiny: bool) -> SimRun:
    """The figure's medium-load instance under HotPotato, PCMig and QoS.

    The instance is always the figure's own (mix seed 7, Poisson arrivals
    at 60 tasks/s): the cost of this load point varies two- to threefold
    between instances (README), more than any regression bound can hold.
    """
    from repro.experiments import fig4b

    seed = FIG4B_SEED
    n_tasks = 4 if tiny else FIG4B_TASKS
    cell_s: Dict[str, float] = {}
    cells = {}
    failed = 0
    for scheduler in FIG4B_SCHEDULERS:
        start = time.perf_counter()
        try:
            matrix = fig4b.run_matrix(
                traffics=("poisson",), schedulers=(scheduler,),
                arrival_rate_per_s=FIG4B_RATE_PER_S, n_tasks=n_tasks, seed=seed,
                work_scale=FIG4B_WORK_SCALE, max_time_s=FIG4B_MAX_TIME_S,
            )
        except Exception as exc:  # the cell raised: count it and go on
            failed += 1
            cells[scheduler] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        finally:
            cell_s[scheduler] = time.perf_counter() - start
        outcome = matrix.cell("poisson", scheduler)
        failed += not _finished(outcome, n_tasks, FIG4B_MAX_TIME_S)
        cells[scheduler] = _cell_stats(outcome)
    digest: dict = {"cells": cells}
    try:
        speedup = (
            cells["pcmig"]["mean_response_time_s"] / cells["hotpotato"]["mean_response_time_s"] - 1.0
        ) * 100.0
    except (KeyError, TypeError):
        speedup = None
    if speedup is not None:
        digest.update(
            speedup_pct=speedup,
            paper_peak_speedup_pct=fig4b.PAPER_PEAK_SPEEDUP_PCT,
            paper_gap_pp=abs(speedup - fig4b.PAPER_PEAK_SPEEDUP_PCT),
        )
    digest["dtm_triggers"] = sum(c.get("dtm_triggers", 0) for c in cells.values())
    digest["migrations"] = sum(c.get("migrations", 0) for c in cells.values())
    return SimRun(cell_s, list(cell_s.values()), len(FIG4B_SCHEDULERS), failed, seal(digest))
