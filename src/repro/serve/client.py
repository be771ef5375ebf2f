"""A small blocking client for the serve API (one keep-alive socket).

One :class:`ServeClient` holds one keep-alive connection — the shape
both the load generator and the CI smoke script use.  Thread-unsafe by
design; give each worker thread its own client.

It speaks just the HTTP/1.1 the server answers with (a status line,
headers, a ``Content-Length`` body): a request is one ``sendall`` and
a reply a few ``recv`` calls, so a client thread sharing a process
with the server takes little of its interpreter time.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["ServeClient"]


class ServeClient:
    """Blocking JSON-over-HTTP client for one server."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader: Any = None

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = None

    def _exchange(self, request: bytes) -> Tuple[int, bytes]:
        """Send one request; read its reply's status and body."""
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP,
                                  socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")
        self._sock.sendall(request)
        status = self._reader.readline().split(b" ", 2)
        headers: Dict[str, str] = {}
        for line in iter(self._reader.readline, b"\r\n"):
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        body = self._reader.read(length)
        if len(status) < 2 or not status[1].isdigit() or \
                len(body) < length:
            raise ConnectionError("server closed the connection")
        if headers.get("connection", "").lower() == "close":
            self.close()
        return int(status[1]), body

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; returns (http_status, decoded body)."""
        payload = b"" if body is None else \
            json.dumps(body).encode("utf-8")
        head = [f"{method} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}"]
        if body is not None:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(payload)}")
        request = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") \
            + payload
        for attempt in (0, 1):
            try:
                status, raw = self._exchange(request)
                break
            except OSError:
                # a keep-alive connection the server closed between
                # requests: reconnect once, then give up
                self.close()
                if attempt:
                    raise
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            decoded = {"status": "error", "error": raw.decode(
                "utf-8", "replace")}
        return status, decoded

    # -- API calls -----------------------------------------------------------
    def compile(self, dimacs: str,
                config: Optional[Mapping[str, Any]] = None,
                deadline_s: Optional[float] = None,
                max_nodes: Optional[int] = None,
                optimize: bool = False,
                proof: bool = False
                ) -> Tuple[int, Dict[str, Any]]:
        body: Dict[str, Any] = {"dimacs": dimacs}
        if config:
            body["config"] = dict(config)
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if max_nodes is not None:
            body["max_nodes"] = max_nodes
        if optimize:
            body["optimize"] = True
        if proof:
            body["proof"] = True
        return self.request("POST", "/compile", body)

    def query(self, key: str, query: str = "count",
              num_vars: Optional[int] = None,
              weights: Optional[Mapping[int, float]] = None,
              weight_batch: Optional[
                  List[Mapping[int, float]]] = None,
              deadline_s: Optional[float] = None,
              optimize: bool = False,
              instance: Optional[Mapping[int, bool]] = None,
              limit: Optional[int] = None,
              smallest: bool = False
              ) -> Tuple[int, Dict[str, Any]]:
        body: Dict[str, Any] = {"key": key, "query": query}
        if num_vars is not None:
            body["num_vars"] = num_vars
        if weights is not None:
            body["weights"] = {str(k): v for k, v in weights.items()}
        if weight_batch is not None:
            body["weight_batch"] = [
                {str(k): v for k, v in row.items()}
                for row in weight_batch]
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if optimize:
            body["optimize"] = True
        if instance is not None:
            body["instance"] = {str(v): bool(s)
                                for v, s in instance.items()}
        if limit is not None:
            body["limit"] = limit
        if smallest:
            body["smallest"] = True
        return self.request("POST", "/query", body)

    def stats(self) -> Dict[str, Any]:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats returned {status}: {body}")
        return body

    def health(self) -> bool:
        try:
            status, _ = self.request("GET", "/healthz")
        except (ConnectionError, OSError):
            return False
        return status == 200
