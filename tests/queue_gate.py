"""Test helpers that make the daemon's grouped acks deterministic.

Each shard's apply loop commits whatever writes are already queued on
that shard as one group.  :class:`GatedQueue` holds one shard's loop off
while a test fills its admission queue, so the group it then forms is
exactly the requests the test queued — no sleeps, no timing
assumptions.  This is the only helper that touches a daemon's private
queues.
"""

from __future__ import annotations

import queue
import threading
import time


class GatedQueue(queue.Queue):
    """An admission queue the apply loop cannot take from until opened."""

    def __init__(self, maxsize: int) -> None:
        super().__init__(maxsize)
        self.opened = threading.Event()

    def get(self, block=True, timeout=None):
        if not self.opened.wait(timeout if block else 0):
            raise queue.Empty
        return super().get(block, timeout)


def install_gate(daemon, shard: int = 0) -> GatedQueue:
    """Give a not-yet-started daemon's ``shard`` a closed
    :class:`GatedQueue`."""
    gate = GatedQueue(daemon.config.max_queue)
    daemon._shards[shard].queue = gate
    return gate


def wait_queued(daemon, count: int, shard: int = 0) -> None:
    """Poll until at least ``count`` requests sit in ``shard``'s queue."""
    deadline = time.monotonic() + 10.0
    while daemon._shards[shard].queue.qsize() < count:
        assert time.monotonic() < deadline, "requests never queued"
        time.sleep(0.002)


def run_on_own_connections(connect, calls):
    """Start each ``call(client)`` on its own ``connect()`` client.

    Each call runs in its own thread.  Returns ``(results, join)``:
    after ``join()``, ``results[i]`` is call ``i``'s return value or
    the exception it raised.
    """
    results = [None] * len(calls)
    clients = [connect() for _ in calls]

    def run(index):
        try:
            results[index] = calls[index](clients[index])
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            results[index] = exc

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(calls))]
    for thread in threads:
        thread.start()

    def join():
        for thread in threads:
            thread.join(timeout=10.0)
        for client in clients:
            client.close()

    return results, join
