"""Engine lifecycle events: one channel for everything that happens.

The engine names every event and shapes its payload once, at the firing
site, and hands each observer the same ``(name, payload)`` pair through
:meth:`EngineEvents.on_event`.  Events fire synchronously, in a fixed
order per query (decision → reorg start → serve → movement step →
commit), so a follower replaying the stream sees state transitions in
exactly the order the leader applied them.  :class:`EventLog` is the
bundled recorder telemetry, the ordering tests and the examples consume.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["EngineEvents", "EventLog"]


class EngineEvents:
    """Observer interface for :class:`~repro.engine.LayoutEngine` lifecycle.

    An observer is anything with an ``on_event(name, payload)`` method;
    subclassing this no-op base is optional.  The whole vocabulary — every
    sink (``EventLog``, the shard-tagged stream, ``/events``) sees exactly
    these names and payload keys::

        open                 ()                                          open() finished; the engine is usable
        close                ()                                          closed (any in-flight move aborted first)
        ingest               (rows, partitions_written)                  one batch appended
        ingest_during_reorg  (rows, partitions_written, target_id)       that batch took the dual-epoch sidecar path
        query_served         (rows_scanned, partitions_scanned)          one query ran against the visible epoch
        layout_admitted      (layout_id)                                 the policy admitted a layout
        layout_pruned        (layout_id)                                 the policy pruned a layout
        reorg_started        (source_id, target_id, pipelined)           a reorganization began
        reorg_step           (target_id, kind, completed_fraction)       one movement step: read/assign/write/commit
        reorg_committed      (source_id, target_id, partitions_written)  the final commit flipped the visible epoch
        reorg_aborted        (source_id, target_id)                      an in-flight move was abandoned
        movement_charged     (amount)                                    α, or one pipelined installment
        scenario_phase       (scenario, phase)                           mark_phase() marked a workload boundary

    ``ingest`` fires for every batch (``ingest_during_reorg`` right after
    it), and a *negative* ``movement_charged`` refunds the installments
    of an aborted move, so an observer summing the stream reconstructs
    the engine's row count and movement ledger exactly.
    """

    def on_event(self, name: str, payload: dict[str, Any]) -> None:
        """One event fired; the default ignores it.

        ``payload`` is shared by every observer — read it, do not mutate
        it.  Observers run inside the engine call and must not raise.
        """


class EventLog(EngineEvents):
    """Records every event as ``(name, payload)`` — telemetry & test observer.

    Recording is thread-safe: one log can be shared across the engines of
    a :class:`~repro.engine.sharded.ShardedEngine`, whose fan-out threads
    fire events concurrently.  The lock keeps ``records`` a consistent
    sequence under that interleaving; *within* one engine the recorded
    order is still exactly the firing order (events fire synchronously),
    which is what the event-ordering tests pin.
    """

    def __init__(self):
        #: ``(event_name, payload_dict)`` tuples in firing order
        self.records: list[tuple[str, dict[str, Any]]] = []
        self._lock = threading.Lock()

    def names(self) -> list[str]:
        """The event names in firing order (the ordering tests' view)."""
        with self._lock:
            return [name for name, _ in self.records]

    def on_event(self, name: str, payload: dict[str, Any]) -> None:
        """Record one event."""
        with self._lock:
            self.records.append((name, payload))


def _as_tuple(observers: Any, method: str) -> tuple[Any, ...]:
    """One observer (anything with ``method``) or an iterable of them."""
    return (observers,) if hasattr(observers, method) else tuple(observers)
