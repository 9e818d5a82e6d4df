"""Interval thermal simulation substrate (HotSniper analogue)."""

from .context import SimContext
from .dtm import DtmController
from .engine import IntervalSimulator
from .events import (
    EVENT_TYPES,
    DtmEngaged,
    DtmReleased,
    Event,
    EventLog,
    TaskArrived,
    TaskCompleted,
    ThreadMigrated,
    event_from_dict,
    event_to_dict,
)
from .metrics import SimulationResult, TaskRecord
from .migration import MigrationAccountant

__all__ = [
    "DtmController",
    "DtmEngaged",
    "DtmReleased",
    "EVENT_TYPES",
    "Event",
    "EventLog",
    "IntervalSimulator",
    "MigrationAccountant",
    "SimContext",
    "SimulationResult",
    "TaskArrived",
    "TaskCompleted",
    "TaskRecord",
    "ThreadMigrated",
    "event_from_dict",
    "event_to_dict",
]
