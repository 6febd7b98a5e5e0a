"""Closed-loop HTTP/1.1 load from one process, and the oracle check.

Each connection is one thread with one keep-alive socket that sends its
next request only after the previous reply's last body byte arrived, the
way a tenant that waits for every answer behaves.  Latency runs from
just before the request is written to just after the last body byte is
read.  A non-200 status, a transport error or a body that differs from
the oracle by a single byte is a failed operation.
"""

from __future__ import annotations

import itertools
import multiprocessing
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

# Oracle bodies needed before check() computes them on a process pool.
ORACLE_POOL_MIN = 32


class TransportError(Exception):
    """The connection broke, was refused or answered malformed HTTP."""


def encode_request(
    host: str,
    method: str,
    path: str,
    body: bytes = b"",
    headers: "dict[str, str] | None" = None,
) -> bytes:
    """The exact bytes :class:`Connection` writes for one request."""
    head = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body:
        head.append("Content-Type: application/json")
    head.append(f"Content-Length: {len(body)}")
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


class Connection:
    """One keep-alive client socket speaking just enough HTTP/1.1."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buf = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: "dict[str, str] | None" = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one request; ``(status, lower-cased headers, body)``."""
        data = encode_request(self.host, method, path, body, headers)
        try:
            sock = self._connect()
            sock.sendall(data)
            return self._read_response(sock)
        except (OSError, ValueError) as exc:
            self.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc

    def _read_until(self, sock: socket.socket, marker: bytes) -> bytes:
        while marker not in self._buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ValueError("connection closed mid-response")
            self._buf += chunk
        head, _, self._buf = self._buf.partition(marker)
        return head

    def _read_response(self, sock: socket.socket):
        head = self._read_until(sock, b"\r\n\r\n").decode("latin-1")
        status_line, *lines = head.split("\r\n")
        status = int(status_line.split()[1])
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        while len(self._buf) < length:
            chunk = sock.recv(max(65536, length - len(self._buf)))
            if not chunk:
                raise ValueError("connection closed mid-body")
            self._buf += chunk
        body, self._buf = self._buf[:length], self._buf[length:]
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, body


@dataclass
class Sample:
    """One attempted request and what came back."""

    seq: int  # send order across all connections
    index: int  # position in the workload's request list
    start: float  # perf_counter() just before the write
    seconds: float
    status: int = 0
    headers: dict = field(default_factory=dict)
    body: bytes = b""
    error: str = ""


def closed_loop(
    host: str,
    port: int,
    requests: list,
    *,
    connections: int,
    seconds: float,
    headers_for=None,
    on_sample=None,
) -> tuple[list[Sample], float]:
    """Drive ``connections`` closed loops for ``seconds``.

    Requests are taken in order from the shared list (wrapping if a run
    outlasts it).  ``headers_for(seq)`` adds headers to the ``seq``-th
    send.  ``on_sample(sample)`` runs after each reply, outside its
    timing.  Returns the samples and the wall seconds from
    the first send to the last reply.
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = itertools.count()
    start_barrier = threading.Barrier(connections + 1)
    t_start = 0.0

    def worker() -> None:
        conn = Connection(host, port)
        local: list[Sample] = []
        start_barrier.wait()
        try:
            while time.perf_counter() < t_start + seconds:
                with lock:
                    n = next(cursor)
                index = n % len(requests)
                request = requests[index]
                headers = None if headers_for is None else headers_for(n)
                t0 = time.perf_counter()
                try:
                    status, hdrs, body = conn.request(
                        "POST", "/analyse", request.body, headers
                    )
                    sample = Sample(
                        n, index, t0, time.perf_counter() - t0,
                        status, hdrs, body,
                    )
                except TransportError as exc:
                    sample = Sample(
                        n, index, t0, time.perf_counter() - t0, error=str(exc)
                    )
                local.append(sample)
                if on_sample is not None:
                    on_sample(sample)
        finally:
            conn.close()
            with lock:
                samples.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    t_start = time.perf_counter()
    start_barrier.wait()
    for thread in threads:
        thread.join()
    wall = max(s.start + s.seconds for s in samples) - t_start
    samples.sort(key=lambda s: s.start)
    return samples, wall


def check(samples: list[Sample], requests: list, oracles: dict) -> list[bool]:
    """Per-sample verdict: 200 and the oracle's bytes exactly.

    ``oracles`` maps request index -> expected body and is filled on
    demand, outside every timed window, on a two-process pool when there
    are many to compute.
    """
    missing = sorted(
        {s.index for s in samples if s.index not in oracles}
    )
    if len(missing) >= ORACLE_POOL_MIN:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(2, mp_context=context) as pool:
            bodies = pool.map(
                type(requests[0]).oracle,
                [requests[i] for i in missing],
                chunksize=64,
            )
            oracles.update(zip(missing, bodies))
    else:
        oracles.update((i, requests[i].oracle()) for i in missing)
    return [
        not sample.error
        and sample.status == 200
        and sample.body == oracles[sample.index]
        for sample in samples
    ]
