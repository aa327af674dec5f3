"""Runners of the two serving workloads, against a real ``repro serve``.

Closed loop, two clients: each client of the round's op lists sends its
next request only after the previous reply — what a caller such as
``repro query --url`` does — from one ``asyncio`` loop in this process,
one connection per request (the server answers ``Connection: close``).
A read that the server answers with a 500 is sent again, as a caller would
(see ``READ_ATTEMPTS``); the caller's wait covers every attempt.
The server is a subprocess: ``python -m repro.cli serve --workers 2`` for
the end-to-end numbers, ``bench/serve_traced.py`` (same server, wrappers
installed) for the per-layer ones.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
import urllib.request
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.engine.factory import StoreDir

from .inprocess import RoundResult
from .workloads import HttpOp, ServeInputs

__all__ = ["ServerProcess", "run_serve_round"]

_BENCH_DIR = Path(__file__).resolve().parent
_SRC_DIR = Path(repro.__file__).resolve().parents[1]
#: a request that takes longer than this counts as failed
REQUEST_TIMEOUT = 60.0
STARTUP_TIMEOUT = 60.0
#: Times a read (query, batch, health) is sent before it counts as failed.
#: On CPython 3.11.7 concurrent ``np.load`` calls — the shard fan-out
#: threads — now and then raise ``SystemError: AST constructor recursion
#: depth mismatch`` (about 1 in 600 ``serve_sharded_read`` requests), which
#: the server answers with a 500.  Every reply is counted by status
#: (``server.app.http_500``); writes are never sent twice.
READ_ATTEMPTS = 3
_READS = ("query", "batch", "health")


class ServerProcess:
    """One ``repro serve`` subprocess over a store directory."""

    def __init__(self, store_root: Path, log: Path, spans: Path | None = None):
        self.store_root = store_root
        self.log = log
        self.spans = spans
        self.port = 0
        self._proc: subprocess.Popen[str] | None = None

    def start(self) -> float:
        """Spawn the server; returns seconds until the first ``/health`` 200."""
        if self.spans is None:
            command = [sys.executable, "-m", "repro.cli", "serve", str(self.store_root),
                       "--port", "0", "--workers", "2"]
        else:
            command = [sys.executable, str(_BENCH_DIR / "serve_traced.py"),
                       str(self.store_root), "--workers", "2", "--spans", str(self.spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC_DIR), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        with open(self.log, "a") as log:
            self._proc = subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=log, text=True
            )
        assert self._proc.stdout is not None
        ready, _, _ = select.select([self._proc.stdout], [], [], STARTUP_TIMEOUT)
        line = self._proc.stdout.readline().strip() if ready else ""
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start (see {self.log}): {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        with urllib.request.urlopen(self.url("/health"), timeout=STARTUP_TIMEOUT) as reply:
            if reply.status != 200:
                raise RuntimeError(f"/health answered {reply.status}")
        return time.perf_counter() - started

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process."""
        assert self._proc is not None
        for line in Path(f"/proc/{self._proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful ``POST /shutdown``; kill if the process outlives it."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        try:
            if proc.poll() is None and self.port:
                request = urllib.request.Request(self.url("/shutdown"), data=b"{}", method="POST")
                with urllib.request.urlopen(request, timeout=10):
                    pass
            proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


@dataclass
class _Record:
    op: HttpOp
    client: int
    status: int  # of the last attempt; 0 = no reply (connection error or timeout)
    #: status of every attempt, the last one included
    replies: list[int]
    seconds: float
    body: bytes
    #: ingests acknowledged when the request was sent / sent when it returned
    acked_before: int
    sent_after: int


class _Ingests:
    """Ingest progress shared by the clients, for the readers' bounds."""

    sent = 0
    acked = 0


async def _request(port: int, op: HttpOp) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = f"{op.method} {op.path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(op.body)}\r\n\r\n"
        writer.write(head.encode("latin-1") + op.body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head_bytes, _, body = raw.partition(b"\r\n\r\n")
    return int(head_bytes.split(b" ", 2)[1]), body


async def _client(
    port: int, client: int, ops: list[HttpOp], ingests: _Ingests, out: list[_Record]
) -> None:
    for op in ops:
        acked_before = ingests.acked
        if op.kind == "ingest":
            ingests.sent += 1
        replies: list[int] = []
        sent = time.perf_counter()
        for _ in range(READ_ATTEMPTS if op.kind in _READS else 1):
            try:
                status, body = await asyncio.wait_for(_request(port, op), REQUEST_TIMEOUT)
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                status, body = 0, b""
            replies.append(status)
            if status != 500:
                break
        seconds = time.perf_counter() - sent
        if op.kind == "ingest" and 200 <= status < 300:
            ingests.acked += 1
        out.append(
            _Record(op, client, status, replies, seconds, body, acked_before, ingests.sent)
        )


def _check(record: _Record, errors: list[str], total_rows: int | None = None) -> int:
    """Compare one query reply with the oracle; returns rows matched.

    A reader's query races the writer's ingests, so its answer is bounded
    by the batches acknowledged before it was sent and those sent before
    it returned; with no ingest in flight the two bounds are equal.
    """
    op = record.op
    payload = json.loads(record.body)
    results = [payload["result"]] if "result" in payload else payload["results"]
    matched = 0
    for index, result in enumerate(results):
        base = op.base_matched[index]
        prefix = op.ingest_matched[index] if op.ingest_matched else None
        low = base + (prefix[record.acked_before] if prefix else 0)
        high = base + (prefix[record.sent_after] if prefix else 0)
        matched += result["rows_matched"]
        if not low <= result["rows_matched"] <= high:
            errors.append(
                f"{op.phase} query: rows_matched {result['rows_matched']} "
                f"outside oracle bounds [{low}, {high}]"
            )
        if total_rows is not None and result["total_rows"] != total_rows:
            errors.append(f"total_rows {result['total_rows']} != acknowledged {total_rows}")
    return matched


def _get_json(server: ServerProcess, path: str) -> dict:
    with urllib.request.urlopen(server.url(path), timeout=REQUEST_TIMEOUT) as reply:
        return json.loads(reply.read())


def _store_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def run_serve_round(
    make_inputs: Callable[[], ServeInputs], workdir: Path, traced: bool = False
) -> RoundResult:
    """One round of a serving workload; the op lists decide which.

    Set-up: generate, initialize the store, pre-load its ingest log, spawn
    the server, warm up.  Timed: both clients' op lists, then the wait for
    a live reorganization's commit.  With ``after_restart`` queries the
    server is then shut down and started again on the same directory.
    """
    started = time.perf_counter()
    inputs = make_inputs()
    store_root = workdir / "store"
    store = StoreDir.initialize(store_root, inputs.manifest)
    for batch in inputs.wal_batches:
        store.append_batch(batch)
    base_rows = sum(batch.num_rows for batch in inputs.wal_batches)
    span_files = [workdir / "serve.spans.jsonl", workdir / "reopen.spans.jsonl"]
    server = ServerProcess(store_root, workdir / "server.log", span_files[0] if traced else None)
    ingests = _Ingests()
    warmup: list[_Record] = []
    timed: list[_Record] = []
    marks: dict[str, float] = {}

    async def drive() -> None:
        heads = [[op for op in ops if op.phase == "warmup"] for ops in inputs.clients]
        tails = [[op for op in ops if op.phase != "warmup"] for ops in inputs.clients]
        await asyncio.gather(
            *(_client(server.port, c, ops, ingests, warmup) for c, ops in enumerate(heads))
        )
        marks["setup_done"] = time.perf_counter()
        marks["window_start"] = time.time()
        await asyncio.gather(
            *(_client(server.port, c, ops, ingests, timed) for c, ops in enumerate(tails))
        )
        # A live reorganization is part of the work: wait for its commit.
        while True:
            stats = await asyncio.to_thread(_get_json, server, "/stats")
            if not stats["reorg_active"]:
                break
            await asyncio.sleep(0.02)
        marks["timed_done"] = time.perf_counter()
        marks["window_end"] = time.time()
        marks["reorg_s"] = stats["stats"]["reorg_seconds"]

    errors: list[str] = []
    extras: dict[str, float] = {}
    try:
        server.start()
        asyncio.run(drive())
        extras["rss_peak_mb"] = server.peak_rss_mb()
        total_rows = base_rows + sum(r.op.rows for r in timed if 200 <= r.status < 300)
        extras["store_bytes_per_user_byte"] = _store_bytes(store_root) / (
            total_rows * inputs.user_bytes_per_row
        )
        server.stop()
        matched_after_restart = 0
        if inputs.after_restart:
            # Restart on the same directory: reopen cost, then every
            # acknowledged row must still be there.
            server = ServerProcess(
                store_root, workdir / "server.log", span_files[1] if traced else None
            )
            extras["reopen_s"] = server.start()
            again: list[_Record] = []
            asyncio.run(_client(server.port, 0, inputs.after_restart, ingests, again))
            for record in again:
                if 200 <= record.status < 300:
                    matched_after_restart += _check(record, errors, total_rows)
                else:
                    errors.append(f"query after restart answered {record.status}")
    finally:
        server.stop()

    # A client that ingests sees exactly its own acknowledged rows; the
    # other client's answers race those ingests and do not repeat exactly.
    writers = {r.client for r in timed if r.op.kind == "ingest"}
    matched = 0
    for record in warmup + timed:
        if record.op.kind in ("query", "batch") and 200 <= record.status < 300:
            rows = _check(record, errors)
            if not writers or record.client in writers:
                matched += rows

    def seconds(kind: tuple[str, ...], phase: str | None = None) -> list[float]:
        return [
            r.seconds for r in timed
            if r.op.kind in kind and 200 <= r.status < 300
            and (phase is None or r.op.phase == phase)
        ]

    queries = ("query", "batch")
    samples = {"ingest": seconds(("ingest",)), "health": seconds(("health",))}
    for phase in ("idle", "ingest", "reorg"):
        samples[f"{phase}.query"] = seconds(queries, phase)
    statuses = [status for r in timed for status in r.replies]
    failures = [
        f"{r.op.method} {r.op.path} ({r.op.kind}, {r.op.phase}) answered "
        f"{r.status or 'nothing'}: {r.body[:200].decode(errors='replace')}"
        for r in timed if not 200 <= r.status < 300
    ]
    retried = [
        f"{r.op.method} {r.op.path} ({r.op.kind}, {r.op.phase}) answered "
        f"{r.replies[:-1]} before {r.status}"
        for r in warmup + timed if len(r.replies) > 1
    ]
    extras.update(
        {
            "reorg_s": marks["reorg_s"],
            "server.app.http_2xx": sum(200 <= s < 300 for s in statuses),
            "server.app.http_4xx": sum(400 <= s < 500 for s in statuses),
            "server.app.http_500": sum(s == 500 for s in statuses),
            "server.app.http_503": sum(s == 503 for s in statuses),
            "server.app.response_bytes": sum(len(r.body) for r in timed),
        }
    )
    return RoundResult(
        setup_s=marks["setup_done"] - started,
        total_s=marks["timed_done"] - marks["setup_done"],
        window=(marks["window_start"], marks["window_end"]),
        query_seconds=seconds(queries),
        attempted=len(timed),
        failed=len(failures),
        errors=errors,
        failures=failures,
        retried=retried,
        extras=extras,
        deterministic={
            "op_list_hash": inputs.op_hash,
            "sum_rows_matched": matched,
            "sum_rows_matched_after_restart": matched_after_restart,
            "total_rows": total_rows,
        },
        samples=samples,
        span_files=[path for path in span_files if path.exists()],
    )
