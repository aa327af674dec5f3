"""Ring-buffered, shard-tagged event tail for the ``/events`` route.

:class:`EventRing` is a
:class:`~repro.engine.sharded.ShardEventObserver` sink: it receives the
shard-tagged stream (`ShardedEngine` emits it natively; a single engine
gets tagged as shard 0 by the store factory) and keeps the most recent
``capacity`` records with monotonically increasing sequence numbers, so
``GET /events?since=N`` can page through the tail without the server
accumulating unbounded history.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

__all__ = ["EventRing"]


def _json_safe(value: Any) -> Any:
    """Coerce an event payload value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(item) for item in value]
    return repr(value)


class EventRing:
    """Thread-safe bounded buffer of shard-tagged engine events.

    Engine events fire from serving threads and the sharded router's
    fan-out pool, while ``/events`` reads from the asyncio thread, so
    every access takes the ring's lock.  Records are JSON-safe dicts::

        {"seq": 17, "shard": 2, "event": "reorg_step", "payload": {...}}

    ``seq`` keeps counting across evictions: a reader that comes back
    with ``since=<last seen seq>`` sees exactly the records it missed
    (or a gap it can detect, if the ring wrapped past it).
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._next_seq = 0
        self._lock = threading.Lock()

    def on_shard_event(self, shard: int, name: str, payload: dict[str, Any]) -> None:
        """Record one tagged event (the ``ShardEventObserver`` hook)."""
        with self._lock:
            self._records.append(
                {
                    "seq": self._next_seq,
                    "shard": int(shard),
                    "event": name,
                    "payload": _json_safe(payload),
                }
            )
            self._next_seq += 1

    def __len__(self) -> int:
        """Number of records currently buffered (≤ ``capacity``)."""
        with self._lock:
            return len(self._records)

    @property
    def total_recorded(self) -> int:
        """How many events have ever been recorded (``seq`` high-water mark)."""
        with self._lock:
            return self._next_seq

    def tail(
        self, since: int | None = None, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """Buffered records with ``seq > since``, oldest first.

        ``limit`` keeps the newest ``limit`` of those (you are tailing —
        the most recent activity wins when truncating).  Each returned
        record is a copy; mutating it does not touch the ring.
        """
        with self._lock:
            records = [
                dict(record)
                for record in self._records
                if since is None or record["seq"] > since
            ]
        if limit is not None and limit >= 0:
            records = records[len(records) - min(limit, len(records)):]
        return records
