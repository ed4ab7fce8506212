"""Closed-loop HTTP/1.1 load generator for ``repro serve``.

Each client owns one connection and keeps it open; it reconnects only when
the server closed it (every response of the current server says
``Connection: close``), and counts each TCP connect.  A closed-loop client
sends its next request only after the previous answer arrived.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Dict, List, Optional

clock = time.monotonic


class RequestFailed(RuntimeError):
    pass


class Client:
    """One connection, one request at a time; records every exchange."""

    def __init__(self, port: int, timeout_s: float = 60.0) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        self.connects = 0
        self.records: List[dict] = []

    def call(self, method: str, path: str, payload: Optional[dict] = None,
             kind: str = "", keep: bool = True) -> dict:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if self.connection.sock is None:
            self.connects += 1
        started = clock()
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            raise RequestFailed(f"{method} {path}: {error}") from error
        finished = clock()
        if response.status != 200:
            raise RequestFailed(f"{method} {path}: HTTP {response.status} {raw[:200]!r}")
        answer = json.loads(raw)
        if keep:
            self.records.append(
                {"kind": kind, "start": started, "end": finished, "payload": payload,
                 "answer": answer}
            )
        return answer

    def score(self, nodes: List[int], kind: str) -> dict:
        return self.call("POST", "/score", {"nodes": [int(n) for n in nodes]}, kind)

    def update(self, relation: str, src: int, dst: int, kind: str = "update") -> dict:
        return self.call(
            "POST", "/update", {"edges_added": {relation: [[int(src)], [int(dst)]]}}, kind
        )

    def metrics(self) -> dict:
        return self.call("GET", "/metrics", keep=False)

    def close(self) -> None:
        self.connection.close()


def closed_loop(clients: List[Client], plans: List[Callable[[Client, int], None]],
                deadline: float, steps: Optional[int] = None) -> None:
    """Run ``plans[i](clients[i], n)`` for n = 0, 1, ... in one thread per
    client until ``deadline`` (or for ``steps`` steps); each plan step is
    one whole round of operations.  Re-raises the first failure after
    every thread stopped."""
    errors: List[BaseException] = []
    stop = threading.Event()

    def loop(client: Client, plan: Callable[[Client, int], None]) -> None:
        step = 0
        try:
            while not stop.is_set() and clock() < deadline and (steps is None or step < steps):
                plan(client, step)
                step += 1
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
            stop.set()

    threads = [
        threading.Thread(target=loop, args=(client, plan), daemon=True)
        for client, plan in zip(clients, plans)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(min(max(deadline - clock(), 0.0), 600.0) + 120.0)
    if any(thread.is_alive() for thread in threads):
        stop.set()
        raise RequestFailed("a client did not finish within 120 s of the deadline")
    if errors:
        raise errors[0]


def counts(clients: List[Client]) -> Dict[str, int]:
    """Score requests and nodes scored across ``clients``' records."""
    requests = nodes = 0
    for client in clients:
        for record in client.records:
            if record["payload"] is not None and "nodes" in record["payload"]:
                requests += 1
                nodes += len(record["payload"]["nodes"])
    return {"requests": requests, "nodes_scored": nodes}
