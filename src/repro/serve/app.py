"""The asyncio HTTP front end.

One event loop owns all coordination state — the in-flight dedup
registry, the admission counter, the aggregated stats — and never runs
circuit work itself: requests are parsed, deduplicated, admitted, then
shipped to the :class:`~repro.serve.pool.WorkerPool`.

Request lifecycle for ``POST /compile``:

1. parse + canonicalise → the sha256 content key (a 400 on bad input);
2. lease the key in the :class:`~repro.serve.dedup.InflightRegistry` —
   waiters attach to the leader's future and *bypass admission* (they
   add no work, so backpressure must not reject them);
3. leaders pass admission control: when ``max_pending`` worker jobs
   are already queued/running, answer 429 + ``Retry-After``;
4. the worker compiles under the request budget; an expired deadline
   comes back as certified anytime bounds (status ``bounds``, HTTP
   200) — never a 5xx.

``POST /query`` follows 1→3→4 (no dedup lease: queries are cheap warm
loads; deduping them would serialise throughput for no saved work).

The HTTP layer is deliberately tiny: HTTP/1.1 with keep-alive and
``Content-Length`` bodies only (no chunked uploads), enough for the
stdlib client, the load generator, and curl.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..ir import facade
from ..perf.instrument import Counter
from .dedup import InflightRegistry
from .pool import WorkerPool, run_compile, run_query
from .protocol import (DEFAULT_MAX_BODY, ProtocolError,
                       parse_compile_request, parse_query_request)

__all__ = ["ServerConfig", "Server", "run_server"]

#: HTTP status per worker reply status
STATUS_HTTP = {"ok": 200, "bounds": 200, "invalid": 400,
               "not_found": 404, "budget_exceeded": 408, "busy": 429,
               "error": 500}


@dataclass
class ServerConfig:
    """Deployment knobs (see docs/serving.md)."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 → ephemeral, report actual
    workers: int = 2                 # 0 → in-process thread pool
    cache_dir: Optional[str] = None  # None → private temp dir
    max_pending: int = 32            # admission: queued+running jobs
    default_deadline_s: Optional[float] = 30.0
    max_deadline_s: float = 300.0
    max_body: int = DEFAULT_MAX_BODY
    verify: bool = True
    retry_after_s: int = 1


class Server:
    """The compile/query service over one shared ArtifactStore."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self._tempdir: Optional[Any] = None
        cache_dir = self.config.cache_dir
        if cache_dir is None:
            import tempfile
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-serve-")
            cache_dir = self._tempdir.name
        self.cache_dir = cache_dir
        self.pool = WorkerPool(cache_dir, self.config.workers,
                               self.config.verify)
        self.registry = InflightRegistry()
        self.stats = Counter()
        self.worker_stats = Counter()
        self._pending = 0
        self._started = time.perf_counter()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self.address: Tuple[str, int] = (self.config.host, 0)

    # -- request handling (event-loop side) ----------------------------------
    def _budget_caps(self, deadline_s: Optional[float]
                     ) -> Optional[float]:
        """The effective per-request deadline."""
        if deadline_s is None:
            return self.config.default_deadline_s
        return min(deadline_s, self.config.max_deadline_s)

    def _admit(self) -> bool:
        """Reserve a worker slot, or refuse (the 429 path)."""
        if self._pending >= self.config.max_pending:
            self.stats.incr("admission_rejects")
            return False
        self._pending += 1
        self.stats.incr("admitted")
        return True

    def _release(self) -> None:
        self._pending -= 1

    def _absorb_worker_stats(self, reply: Dict[str, Any]) -> None:
        for name, value in (reply.pop("store_stats", None) or {}).items():
            self.worker_stats.incr(name, value)

    async def _dispatch(self, fn: Any, payload: Dict[str, Any]
                        ) -> Dict[str, Any]:
        """Run one job on the pool, tracking admission occupancy."""
        try:
            reply = await self.pool.run(fn, payload)
        finally:
            self._release()
        self._absorb_worker_stats(reply)
        return reply

    async def _handle_compile(self, body: bytes
                              ) -> Tuple[int, Dict[str, Any]]:
        request = parse_compile_request(body)
        try:
            ticket = facade.compile_ticket(request.dimacs,
                                           request.config)
        except ValueError as error:
            raise ProtocolError(str(error)) from error
        self.stats.incr("compile_requests")
        loop = asyncio.get_running_loop()
        future, leader = self.registry.lease(ticket.key, loop)
        if not leader:
            # attached to a compile already in flight: no new work,
            # no admission charge — just await the shared result
            self.stats.incr("compile_dedup_waits")
            reply = dict(await asyncio.shield(future))
            reply["deduplicated"] = True
            return STATUS_HTTP.get(reply.get("status", "error"), 500), \
                reply
        if not self._admit():
            busy = {"status": "busy",
                    "error": "compile queue full; retry later"}
            # waiters that already attached share the rejection
            self.registry.settle(ticket.key, busy)
            return 429, busy
        payload = ticket.as_wire()
        payload["deadline_s"] = self._budget_caps(request.deadline_s)
        payload["max_nodes"] = request.max_nodes
        payload["optimize"] = request.optimize
        payload["proof"] = request.proof
        try:
            reply = await self._dispatch(run_compile, payload)
        except BaseException as error:
            self.registry.settle(ticket.key, error)
            raise
        self.registry.settle(ticket.key, reply)
        if reply.get("status") == "bounds":
            self.stats.incr("compile_bounds_answers")
        elif reply.get("cached"):
            self.stats.incr("compile_store_hits")
        return STATUS_HTTP.get(reply.get("status", "error"), 500), reply

    async def _handle_query(self, body: bytes
                            ) -> Tuple[int, Dict[str, Any]]:
        request = parse_query_request(body)
        self.stats.incr("query_requests")
        if not self._admit():
            return 429, {"status": "busy",
                         "error": "query queue full; retry later"}
        payload: Dict[str, Any] = {
            "key": request.key, "query": request.query,
            "num_vars": request.num_vars,
            "weights": request.weights,
            "weight_batch": request.weight_batch,
            "deadline_s": self._budget_caps(request.deadline_s),
            "optimize": request.optimize}
        if request.query == "explain":
            payload["instance"] = {str(v): bool(s) for v, s
                                   in request.instance.items()} \
                if request.instance else {}
            payload["limit"] = request.limit
            payload["smallest"] = request.smallest
        reply = await self._dispatch(run_query, payload)
        return STATUS_HTTP.get(reply.get("status", "error"), 500), reply

    def _stats_snapshot(self) -> Dict[str, Any]:
        front = self.stats.as_dict()
        compiles = front.get("compile_requests", 0)
        fresh = self.registry.stats["dedup_leases"]
        dedup_rate = 1.0 - fresh / compiles if compiles else 0.0
        store = self.worker_stats.as_dict()
        loads = store.get("artifact_hits", 0) + \
            store.get("artifact_misses", 0)
        warm_rate = store.get("artifact_hits", 0) / loads if loads \
            else 0.0
        return {"status": "ok",
                "uptime_s": round(time.perf_counter() - self._started, 3),
                "pending": self._pending,
                "inflight_compiles": self.registry.depth(),
                "dedup_hit_rate": round(dedup_rate, 4),
                "warm_hit_rate": round(warm_rate, 4),
                "frontend": front,
                "dedup": self.registry.stats.as_dict(),
                "workers": store}

    # -- HTTP plumbing -------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes
                     ) -> Tuple[int, Dict[str, Any]]:
        if method == "POST" and path == "/compile":
            return await self._handle_compile(body)
        if method == "POST" and path == "/query":
            return await self._handle_query(body)
        if method == "GET" and path == "/stats":
            return 200, self._stats_snapshot()
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}
        return 404, {"status": "error",
                     "error": f"no route {method} {path}"}

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break
                if not request_line or request_line.strip() == b"":
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    break
                method, path = parts[0].upper(), parts[1]
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or 0)
                if length > self.config.max_body:
                    await self._respond(
                        writer, 413,
                        {"status": "error", "error": "body too large"},
                        close=True)
                    break
                body = await reader.readexactly(length) if length \
                    else b""
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                try:
                    status, reply = await self._route(method, path, body)
                except ProtocolError as error:
                    status, reply = error.status, \
                        {"status": "invalid", "error": str(error)}
                except Exception as error:
                    self.stats.incr("internal_errors")
                    status, reply = 500, {
                        "status": "error",
                        "error": f"{type(error).__name__}: {error}"}
                await self._respond(writer, status, reply,
                                    close=not keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # server shutdown cancelled an idle keep-alive connection;
            # absorbing it lets the task end quietly instead of
            # tripping the stream-protocol callback's logger
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       reply: Dict[str, Any], close: bool) -> None:
        try:
            payload = json.dumps(reply, allow_nan=False).encode("utf-8")
        except ValueError as error:
            # strict JSON only (RFC 8259): a non-finite float the
            # workers failed to send as text is a server fault
            self.stats.incr("internal_errors")
            status = 500
            payload = json.dumps({"status": "error",
                                  "error": f"unencodable reply: {error}"}
                                 ).encode("utf-8")
        self.stats.incr(f"http_{status // 100}xx")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  408: "Request Timeout", 413: "Payload Too Large",
                  429: "Too Many Requests",
                  500: "Internal Server Error"}.get(status, "Status")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}"]
        if status == 429:
            head.append(f"Retry-After: {self.config.retry_after_s}")
        if close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + payload)
        await writer.drain()

    # -- lifecycle -----------------------------------------------------------
    async def _serve_forever(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host,
            self.config.port,
            limit=max(self.config.max_body + 65536, 2 ** 20),
            family=socket.AF_INET)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._ready.set()
        async with self._server:
            await self._server.serve_forever()

    def start(self) -> Tuple[str, int]:
        """Run the server on a daemon thread; returns (host, port)."""
        def runner() -> None:
            try:
                asyncio.run(self._serve_forever())
            except asyncio.CancelledError:
                pass
            finally:
                self._ready.set()
        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._server is None:
            raise RuntimeError("server failed to bind "
                               f"{self.config.host}:{self.config.port}")
        return self.address

    def stop(self) -> None:
        """Stop accepting, drain the pool, release the cache dir."""
        loop, server = self._loop, self._server
        if loop is not None and server is not None:
            def _shutdown() -> None:
                server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()
            try:
                loop.call_soon_threadsafe(_shutdown)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.pool.shutdown()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


def run_server(config: ServerConfig) -> int:
    """Blocking entry point for ``repro serve`` (SIGTERM-aware).

    Prints ``c serve listening HOST PORT`` once bound, which startup
    scripts (CI smoke, bench-load) parse to find the ephemeral port.
    """
    server = Server(config)
    host, port = server.start()
    print(f"c serve listening {host} {port}", flush=True)
    print(f"c serve cache-dir {server.cache_dir}", flush=True)
    done = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: done.set())
    done.wait()
    print("c serve shutting down", flush=True)
    server.stop()
    return 0
