"""The asyncio HTTP endpoint: bounded admission over one engine.

Stdlib only.  One :class:`EngineServer` owns one engine opened from a
:class:`~repro.engine.factory.StoreDir` and serializes all engine work
onto a small thread pool; the asyncio loop only parses HTTP and queues
jobs.  Admission control is a bounded queue: when it is full the server
answers ``503`` with a ``Retry-After`` header instead of letting latency
grow without bound — the serving-plane analogue of the paper's "never
pause anything" stance, where overload is shed at the edge rather than
propagated into the engine.

Route map (all request/response bodies are JSON):

=========  =========== =========================================================
method     path        behaviour
=========  =========== =========================================================
``GET``    /health     liveness + whether shutdown has begun
``GET``    /stats      merged engine counters, ``reorg_active``, shard count
``GET``    /shards     per-shard counters (a single engine reports shard 0)
``GET``    /events     ring-buffered event tail (``?since=N&limit=M``)
``POST``   /query      ``{"where": str}`` or ``{"queries": [str, ...]}``
``POST``   /ingest     ``{"rows": [...]}`` or ``{"columns": {...}}``
``POST``   /reorg      start a reorganization (``{"builder": {...}}`` optional)
``POST``   /abort      abort any in-flight reorg, refunding its movement budget
``POST``   /shutdown   begin graceful shutdown
=========  =========== =========================================================

``GET`` routes bypass the queue so the store stays observable while it
sheds load.  Graceful shutdown stops accepting connections, drains the
queue and every in-flight request, then aborts (default) or runs to
completion any live pipelined reorganization before closing the engine —
so a restart finds no partial state beyond what the store directory's
replay contract already absorbs.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import signal
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..engine import LayoutEngine, ShardedEngine
from ..engine.factory import (
    StoreDir,
    reorganize_derived,
    table_from_columns,
    table_from_rows,
)
from ..queries.parser import PredicateSyntaxError, parse_predicate
from ..queries.query import Query
from .events import EventRing

__all__ = ["EngineServer", "ServerConfig", "run_server"]


class _HttpError(Exception):
    """A routed error with a status code and JSON payload."""

    def __init__(self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`EngineServer`."""

    #: interface to bind
    host: str = "127.0.0.1"
    #: TCP port (0 picks a free port; see :attr:`EngineServer.bound_port`)
    port: int = 8000
    #: bounded admission queue depth; beyond it requests get 503
    queue_size: int = 64
    #: worker tasks draining the queue (each runs engine calls on a thread)
    workers: int = 4
    #: ``"abort"`` or ``"wait"``: what shutdown does to a live reorg
    drain_mode: str = "abort"
    #: how many engine events the ``/events`` ring retains
    events_capacity: int = 1024
    #: seconds advertised in the 503 ``Retry-After`` header
    retry_after: float = 1.0
    #: pump idle sleep between reorg-activity checks, seconds
    pump_interval: float = 0.02

    def __post_init__(self) -> None:
        """Validate the knobs; raises ``ValueError`` on bad values."""
        if self.queue_size < 1:
            raise ValueError("queue_size must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.drain_mode not in ("abort", "wait"):
            raise ValueError("drain_mode must be 'abort' or 'wait'")
        if self.events_capacity < 1:
            raise ValueError("events_capacity must be positive")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be positive")


class EngineServer:
    """One engine behind a bounded-admission asyncio HTTP endpoint.

    Lifecycle: :meth:`start` opens the engine from the store directory
    (wiping derived state and replaying the ingest log) and binds the
    socket; :meth:`serve_until_shutdown` parks until ``POST /shutdown``
    or :meth:`request_shutdown`; :meth:`shutdown` drains and closes.
    """

    def __init__(self, store: StoreDir, config: ServerConfig | None = None):
        self.store = store
        self.config = config or ServerConfig()
        self.events = EventRing(self.config.events_capacity)
        self.engine: LayoutEngine | ShardedEngine | None = None
        self._queue: asyncio.Queue[tuple[Callable[[], Any], asyncio.Future[Any]]] | None = None
        self._server: asyncio.Server | None = None
        self._workers: list[asyncio.Task[None]] = []
        self._pump_task: asyncio.Task[None] | None = None
        self._connections: set[asyncio.Task[None]] = set()
        self._work_pool: ThreadPoolExecutor | None = None
        self._pump_pool: ThreadPoolExecutor | None = None
        self._ingest_lock = threading.Lock()
        self._closing = False
        self._shutdown_requested: asyncio.Event | None = None
        self.bound_port: int | None = None

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Open the engine, bind the socket, and start workers + pump."""
        if self.engine is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        self._work_pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._pump_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-pump"
        )
        self.engine = await loop.run_in_executor(
            self._pump_pool, lambda: self.store.open_engine(shard_events=self.events)
        )
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._workers = [
            asyncio.create_task(self._worker()) for _ in range(self.config.workers)
        ]
        self._pump_task = asyncio.create_task(self._pump_loop())
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Flag graceful shutdown (idempotent; safe from signal handlers)."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Block until shutdown is requested, then drain and close."""
        assert self._shutdown_requested is not None  # start() created it
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful shutdown: drain requests, settle any reorg, close.

        Order matters: stop accepting, let in-flight handlers and the
        queue drain (workers stay up until then), stop the pump, then —
        with the engine quiesced — abort or finish a live reorganization
        per ``drain_mode`` and close the engine.  Idempotent.
        """
        if self._closing:
            return
        self._closing = True
        loop = asyncio.get_running_loop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.gather(*tuple(self._connections), return_exceptions=True)
        if self._queue is not None:
            await self._queue.join()
        for task in self._workers:
            task.cancel()
        if self._pump_task is not None:
            self._pump_task.cancel()
        for task in (*self._workers, self._pump_task):
            if task is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        engine = self.engine
        if engine is not None:
            assert self._pump_pool is not None  # start() created it
            def _settle() -> None:
                if engine.reorg_active:
                    if self.config.drain_mode == "abort":
                        engine.abort_reorg()
                    else:
                        engine.run_until_idle()
                engine.close()
            await loop.run_in_executor(self._pump_pool, _settle)
            self.engine = None
        if self._work_pool is not None:
            self._work_pool.shutdown(wait=True)
        if self._pump_pool is not None:
            self._pump_pool.shutdown(wait=True)

    # ----------------------------------------------------------------- workers
    async def _worker(self) -> None:
        assert self._queue is not None and self._work_pool is not None
        loop = asyncio.get_running_loop()
        while True:
            job, future = await self._queue.get()
            try:
                result = await loop.run_in_executor(self._work_pool, job)
            except BaseException as error:  # noqa: B036 - relayed to the waiter
                if not future.cancelled():
                    future.set_exception(error)
            else:
                if not future.cancelled():
                    future.set_result(result)
            finally:
                self._queue.task_done()

    async def _pump_loop(self) -> None:
        """Advance a pipelined reorganization between requests.

        Movement steps run on a dedicated single thread so they contend
        with queries only on the engine's own serving lock, exactly like
        a background mover inside one process would.
        """
        assert self._pump_pool is not None
        loop = asyncio.get_running_loop()
        while True:
            engine = self.engine
            if engine is not None and engine.reorg_active:
                await loop.run_in_executor(self._pump_pool, engine.step)
            else:
                await asyncio.sleep(self.config.pump_interval)

    async def _submit(self, job: Callable[[], Any]) -> Any:
        """Admit one engine job through the bounded queue (or 503)."""
        assert self._queue is not None
        if self._closing:
            raise _HttpError(503, {"error": "server is shutting down"})
        future: asyncio.Future[Any] = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((job, future))
        except asyncio.QueueFull:
            raise _HttpError(
                503,
                {"error": "request queue full", "queue_size": self.config.queue_size},
                headers={"Retry-After": f"{self.config.retry_after:g}"},
            ) from None
        try:
            return await future
        except (ValueError, RuntimeError) as error:
            raise _HttpError(409, {"error": str(error)}) from error

    # ------------------------------------------------------------------ routes
    async def _route(
        self, method: str, path: str, query: dict[str, list[str]], body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if method == "GET":
            if path == "/health":
                return 200, {"status": "ok", "closing": self._closing}, {}
            if path == "/stats":
                return 200, await self._get_stats(), {}
            if path == "/shards":
                return 200, await self._get_shards(), {}
            if path == "/events":
                return 200, self._get_events(query), {}
            raise _HttpError(404, {"error": f"no such route: GET {path}"})
        if method == "POST":
            payload = self._json_body(body)
            if path == "/query":
                return 200, await self._post_query(payload), {}
            if path == "/ingest":
                return 200, await self._post_ingest(payload), {}
            if path == "/reorg":
                return 200, await self._post_reorg(payload), {}
            if path == "/abort":
                return 200, await self._post_abort(), {}
            if path == "/shutdown":
                self.request_shutdown()
                return 202, {"shutting_down": True}, {}
            raise _HttpError(404, {"error": f"no such route: POST {path}"})
        raise _HttpError(405, {"error": f"method {method} not allowed"})

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise _HttpError(400, {"error": f"invalid JSON body: {error}"}) from None
        if not isinstance(payload, dict):
            raise _HttpError(400, {"error": "JSON body must be an object"})
        return payload

    def _require_engine(self) -> LayoutEngine | ShardedEngine:
        engine = self.engine
        if engine is None:
            raise _HttpError(503, {"error": "engine is not open"})
        return engine

    async def _in_executor(self, fn: Callable[[], Any]) -> Any:
        """Run a cheap observability call off-loop (bypasses the queue)."""
        assert self._pump_pool is not None
        return await asyncio.get_running_loop().run_in_executor(self._pump_pool, fn)

    async def _get_stats(self) -> dict[str, Any]:
        engine = self._require_engine()
        stats = await self._in_executor(engine.stats)
        payload: dict[str, Any] = {
            "stats": stats.to_dict(),
            "reorg_active": engine.reorg_active,
            "num_shards": engine.num_shards if isinstance(engine, ShardedEngine) else 1,
        }
        return payload

    async def _get_shards(self) -> dict[str, Any]:
        engine = self._require_engine()
        if isinstance(engine, ShardedEngine):
            per_shard = await self._in_executor(engine.shard_stats)
            reorgs = [shard.reorg_active for shard in engine.shards]
        else:
            per_shard = [await self._in_executor(engine.stats)]
            reorgs = [engine.reorg_active]
        return {
            "shards": [
                {"shard": index, "reorg_active": active, **stats.to_dict()}
                for index, (stats, active) in enumerate(
                    zip(per_shard, reorgs, strict=True)
                )
            ]
        }

    def _get_events(self, query: dict[str, list[str]]) -> dict[str, Any]:
        def _int_param(name: str) -> int | None:
            values = query.get(name)
            if not values:
                return None
            try:
                return int(values[-1])
            except ValueError:
                raise _HttpError(
                    400, {"error": f"query parameter {name!r} must be an integer"}
                ) from None
        return {
            "events": self.events.tail(_int_param("since"), _int_param("limit")),
            "total_recorded": self.events.total_recorded,
        }

    async def _post_query(self, payload: dict[str, Any]) -> dict[str, Any]:
        engine = self._require_engine()
        single = "where" in payload
        if single:
            texts = [payload["where"]]
        elif "queries" in payload:
            texts = list(payload["queries"])
        else:
            raise _HttpError(400, {"error": "body must have 'where' or 'queries'"})
        if not texts:
            raise _HttpError(400, {"error": "'queries' must not be empty"})
        schema = self.store.manifest.schema
        queries = []
        for text in texts:
            if not isinstance(text, str):
                raise _HttpError(400, {"error": "each query must be a string"})
            try:
                queries.append(Query(parse_predicate(text, schema)))
            except PredicateSyntaxError as error:
                raise _HttpError(
                    400, {"error": str(error), "position": error.position, "where": text}
                ) from None
        results = await self._submit(lambda: engine.query_batch(queries))
        encoded = [dataclasses.asdict(result) for result in results]
        if single:
            return {"result": encoded[0]}
        return {"results": encoded}

    async def _post_ingest(self, payload: dict[str, Any]) -> dict[str, Any]:
        engine = self._require_engine()
        schema = self.store.manifest.schema
        try:
            if "rows" in payload:
                table = table_from_rows(schema, payload["rows"])
            elif "columns" in payload:
                table = table_from_columns(schema, payload["columns"])
            else:
                raise _HttpError(400, {"error": "body must have 'rows' or 'columns'"})
        except ValueError as error:
            raise _HttpError(400, {"error": str(error)}) from None

        def _ingest() -> int:
            # One durable log append + one engine ingest, atomically ordered
            # with respect to other ingests: the log's sequence numbers must
            # match the order the engine absorbed the batches in.
            with self._ingest_lock:
                self.store.append_batch(table)
                return engine.ingest(table)

        partitions_written = await self._submit(_ingest)
        return {
            "rows_ingested": table.num_rows,
            "partitions_written": int(partitions_written),
            "batches_logged": self.store.batches_logged,
        }

    async def _post_reorg(self, payload: dict[str, Any]) -> dict[str, Any]:
        engine = self._require_engine()
        shards = payload.get("shards")
        target = await self._submit(
            lambda: reorganize_derived(
                engine, self.store, payload.get("builder"),
                [int(s) for s in shards] if shards else None,
            )
        )
        return {
            "started": True,
            "target": target.layout_id,
            "pipelined": bool(self.store.engine_config().async_reorg),
        }

    async def _post_abort(self) -> dict[str, Any]:
        engine = self._require_engine()
        refunded = await self._in_executor(engine.abort_reorg)
        return {"refunded": float(refunded)}

    # -------------------------------------------------------------------- http
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await self._handle(reader, writer)
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=30.0)
        except asyncio.TimeoutError:
            return
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        body = await reader.readexactly(length) if length > 0 else b""
        split = urlsplit(target)
        try:
            status, payload, extra = await self._route(
                method, split.path, parse_qs(split.query), body
            )
        except _HttpError as error:
            status, payload, extra = error.status, error.payload, error.headers
        except Exception as error:  # pragma: no cover - defensive catch-all
            status, payload, extra = 500, {"error": f"internal error: {error}"}, {}
        await self._write_response(writer, status, payload, extra)

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        extra_headers: dict[str, str],
    ) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        with contextlib.suppress(ConnectionError):
            await writer.drain()


def run_server(
    store_root: Path | str,
    config: ServerConfig | None = None,
    *,
    announce: Callable[[str], None] = print,
) -> None:
    """Open a store directory and serve it until interrupted.

    The blocking entry point behind ``repro serve``: binds, announces
    ``serving on http://host:port`` (flushable via ``announce``), installs
    ``SIGINT``/``SIGTERM`` handlers that trigger the graceful drain, and
    returns once shutdown completes.
    """
    server = EngineServer(StoreDir(store_root), config)

    async def _main() -> None:
        await server.start()
        announce(f"serving on http://{server.config.host}:{server.bound_port}")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, server.request_shutdown)
        await server.serve_until_shutdown()

    asyncio.run(_main())
