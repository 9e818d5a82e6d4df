"""Deterministic parallel execution of independent experiment cells.

The figure sweeps (``repro.experiments.fig4a`` / ``fig4b``, the ablation
drivers) are embarrassingly parallel: every (benchmark, scheduler) or
(arrival rate, scheduler) cell builds its own :class:`SimContext` and runs
an independent simulation.  This module fans those cells out over a
``ProcessPoolExecutor`` while keeping four hard guarantees:

1. **Determinism** — a cell's seed is a pure function of the experiment's
   base seed and the cell's identity (:func:`derive_seed`, SHA-256); the
   wall clock is never consulted.  A parallel sweep therefore produces
   *byte-identical* results to a serial one, which the test suite asserts.
2. **Ordered collation** — results come back keyed and in submission
   order regardless of completion order.
3. **Graceful degradation** — with ``jobs <= 1``, a single cell, cells
   that do not pickle, or on any platform where process pools are
   unavailable (sandboxes without ``fork``/semaphores), the cells simply
   run serially in-process; if a worker dies mid-sweep (OOM kill,
   SIGKILL, segfault) the unfinished cells finish serially.  A cell's own
   exception is never a reason to fall back: it propagates after that
   cell's single run.
4. **Crash tolerance** (``docs/faults.md``) — a JSONL
   :class:`SweepCheckpoint` persists each finished cell so a killed sweep
   resumes with only its incomplete cells — byte-identical to an
   uninterrupted run.

Cell functions should be module-level (picklable) callables; everything
a cell needs travels through its ``kwargs`` (an :class:`RCThermalModel`
pickles fine — each worker rebuilds the cheap eigendecomposition itself).

``jobs="auto"`` derives the worker count from ``os.cpu_count()``: a
process pool with one worker per core (at most one per cell) when more
than one core is available, the serial path otherwise
(``docs/performance.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

__all__ = [
    "Cell",
    "SweepCheckpoint",
    "derive_seed",
    "run_cells",
]


def derive_seed(base_seed: int, *parts: Any) -> int:
    """Deterministic 32-bit seed for one cell of a sweep.

    Hashes ``(base_seed, *parts)`` with SHA-256; ``parts`` identify the
    cell (benchmark name, arrival rate, scheduler name, ...).  The same
    inputs always yield the same seed — never derived from the wall clock
    or process identity, so serial and parallel runs, and re-runs on other
    machines, all agree.
    """
    digest = hashlib.sha256()
    digest.update(repr(int(base_seed)).encode())
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode())
    return int.from_bytes(digest.digest()[:4], "big")


@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep.

    ``fn`` should be a module-level function (process pools pickle it;
    unpicklable cells run serially); ``key`` names the cell in the
    collated result dict.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


def canonical_key(key: Hashable) -> str:
    """Canonical string form of a cell key (checkpoint record identity).

    JSON with sorted object keys; tuples and lists collapse to the same
    form, so a key round-tripped through a checkpoint still matches.
    Raises :class:`ValueError` for a key JSON cannot represent (a
    ``frozenset``, say): such a cell runs, but cannot be checkpointed.
    """
    try:
        return json.dumps(key, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"cell key {key!r} cannot be checkpointed: {exc}"
        ) from exc


class SweepCheckpoint:
    """JSONL checkpoint of finished sweep cells (``docs/faults.md``).

    One record per line: ``{"key": <canonical key>, "result": <encoded>}``.
    Records are appended (flushed and fsynced) as cells finish, so a
    SIGKILLed sweep loses at most the in-flight cells; a truncated final
    line — the signature of a mid-write kill — is tolerated on load.
    :meth:`finalize` atomically rewrites the file in submission order,
    making the completed checkpoint's bytes independent of completion
    order and of how many times the sweep was interrupted.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def load(self) -> Dict[str, Any]:
        """Encoded results by canonical key (empty if no file yet)."""
        if not self.path.exists():
            return {}
        done: Dict[str, Any] = {}
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # a kill mid-append leaves a torn last line; every
                    # complete record before it is still good
                    continue
                done[record["key"]] = record["result"]
        return done

    def append(self, key: Hashable, encoded_result: Any) -> None:
        """Durably record one finished cell."""
        line = json.dumps(
            {"key": canonical_key(key), "result": encoded_result},
            sort_keys=True,
        )
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def finalize(self, ordered: Iterable[Tuple[Hashable, Any]]) -> None:
        """Atomically rewrite the checkpoint in submission order.

        After this, the file's bytes are identical whether the sweep ran
        straight through or was killed and resumed any number of times.
        """
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for key, encoded in ordered:
                handle.write(
                    json.dumps(
                        {"key": canonical_key(key), "result": encoded},
                        sort_keys=True,
                    )
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(self.path)


def _identity(value: Any) -> Any:
    return value


def _execute_cell(cell: Cell) -> Any:
    # module-level trampoline so the pool pickles the Cell, not a closure
    return cell.execute()


def _resolve_policy(jobs: Union[int, str], n_pending: int) -> Tuple[str, int]:
    """Map the ``jobs`` argument to an execution policy and worker count.

    ``"auto"`` forks one worker per core (capped at the cell count) when
    the host offers more than one core, and runs serially otherwise.
    """
    if isinstance(jobs, str):
        if jobs != "auto":
            raise ValueError(f"jobs must be an int or 'auto', got {jobs!r}")
        jobs = os.cpu_count() or 1
    if jobs <= 1 or n_pending <= 1:
        return "serial", 1
    return "fork", min(jobs, n_pending)


def _picklable(cells: List[Cell]) -> bool:
    """Whether ``cells`` survive the trip to a worker process.

    Checked before a pool is built: submitting an unpicklable cell (a
    local function, a lock) fails inside the executor and leaves a pool
    that blocks interpreter exit.
    """
    try:
        pickle.dumps(cells)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def run_cells(
    cells: Iterable[Cell],
    jobs: Union[int, str] = 1,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    encode: Callable[[Any], Any] = _identity,
    decode: Callable[[Any], Any] = _identity,
) -> Dict[Hashable, Any]:
    """Execute ``cells`` and collate ``{cell.key: result}`` in input order.

    ``jobs <= 1`` (or a single cell) runs serially in-process.  With
    ``jobs > 1`` the cells are dispatched to one ``ProcessPoolExecutor``;
    ``jobs="auto"`` picks the worker count from the host's cores
    (:func:`_resolve_policy`).  If the cells do not pickle, the pool
    cannot be created (no ``fork`` support, sandboxed semaphores), or it
    breaks because a worker died, the unfinished cells run serially
    in-process; the results are identical either way, only the wall time
    differs.  An exception raised by a cell propagates after that cell's
    single run, with the cells not yet started cancelled.

    ``checkpoint_path`` enables crash-tolerant sweeps: each finished
    cell's ``encode``-d result is durably appended to a
    :class:`SweepCheckpoint`, and with ``resume`` cells already present
    are not re-run.  Every result — fresh or restored — passes through
    ``decode(encode(result))``, so an interrupted-and-resumed sweep
    returns *byte-identical* values (and an identical finalized
    checkpoint file) to an uninterrupted one.  ``encode``/``decode``
    default to identity and must produce JSON-serializable payloads
    (simulation sweeps pass :func:`repro.io.result_to_dict` /
    :func:`repro.io.result_from_dict`); checkpointed cell keys must be
    JSON-serializable too (:func:`canonical_key`).
    """
    cells = list(cells)
    keys = [cell.key for cell in cells]
    if len(set(keys)) != len(keys):
        raise ValueError("cell keys must be unique")
    checkpoint = (
        SweepCheckpoint(checkpoint_path) if checkpoint_path is not None else None
    )
    # encoded results by cell key: restored ones now, fresh ones as they land
    encoded: Dict[Hashable, Any] = {}
    if checkpoint is not None:
        canonical = {key: canonical_key(key) for key in keys}
        if resume:
            stored = checkpoint.load()
            encoded = {
                key: stored[canon]
                for key, canon in canonical.items()
                if canon in stored
            }
        elif checkpoint.path.exists():
            checkpoint.path.unlink()
    pending = [cell for cell in cells if cell.key not in encoded]
    results: Dict[Hashable, Any] = {}

    def _record(cell: Cell, result: Any) -> None:
        # runs per cell *at completion time* (not after the sweep), so every
        # finished cell is durably checkpointed before the next result lands
        # — the crash-tolerance contract of docs/faults.md
        if checkpoint is not None:
            encoded[cell.key] = encode(result)
            checkpoint.append(cell.key, encoded[cell.key])
            # round-trip even fresh results so resumed and uninterrupted
            # sweeps return byte-identical values
            result = decode(encoded[cell.key])
        results[cell.key] = result

    policy, workers = _resolve_policy(jobs, len(pending))
    if policy == "fork" and _picklable(pending):
        _run_pool(pending, workers, _record)
    for cell in pending:
        if cell.key not in results:
            _record(cell, cell.execute())

    for key in keys:
        if key not in results:  # restored from the checkpoint
            results[key] = decode(encoded[key])
    if checkpoint is not None:
        checkpoint.finalize((key, encoded[key]) for key in keys)
    return {key: results[key] for key in keys}


def _run_pool(
    cells: List[Cell], jobs: int, on_done: Callable[[Cell, Any], None]
) -> None:
    """Run ``cells`` in one process pool, ``on_done`` per finished cell.

    ``on_done`` fires in submission order as each future resolves.  If
    the pool cannot be created or a worker dies (``BrokenProcessPool``),
    this returns early and the caller runs the cells ``on_done`` has not
    seen serially.  Any other exception is the cell's own: it propagates,
    with the cells not yet started cancelled.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except (OSError, NotImplementedError):
        return  # no process support here (sandboxed semaphores)
    try:
        try:
            futures = [pool.submit(_execute_cell, cell) for cell in cells]
        except OSError:
            return  # the workers could not be started (fork refused)
        for cell, future in zip(cells, futures):
            on_done(cell, future.result())
    except BrokenProcessPool:
        return  # a worker died (OOM kill, SIGKILL, segfault)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
