"""Work-first scheduling of a run's tasks on its thread pool.

``map_on_pool(pool, fn, items)`` is ``[fn(item) for item in items]``, run
in order on the thread that reaches it. Code about to block (the mock
agent's delay, any HTTP request through ``httpreq.send``, or a map's own
wait on an item running elsewhere) first calls ``before_wait()``, which
submits the items not yet started of every map open on this thread to
the pool. A map whose next item is still queued takes it back
(``Future.cancel()``) and runs it itself. One whose next item runs
elsewhere runs its own later queued items, newest first, until that item
is done, and blocks only when none of them is left queued. So a run whose
calls never block uses one worker thread, and a run that waits overlaps
its waits as far as the pool's threads allow. This is the work-first
principle of Cilk-5 (Frigo, Leiserson and Randall, PLDI 1998): the
thread that reaches work runs it, and other threads get work only when
that thread would otherwise sit idle.

A thread blocks only on a future that ``cancel()`` could not take back,
so it is running or done: an item of one of the thread's own maps,
started after the task the thread runs. So the waits cannot form a cycle
and no pool size deadlocks.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, Future


class _Local(threading.local):
    def __init__(self):
        self.maps: list[_Map] = []  # the maps open on this thread, outermost first


_local = _Local()


def _settled(call, *args) -> Future:
    """A finished future holding the outcome of ``call(*args)``, as a pool
    worker would have set it."""
    future = Future()
    try:
        future.set_result(call(*args))
    except BaseException as exc:
        future.set_exception(exc)
    return future


class _Map:
    """One open ``map_on_pool``: items before ``started`` have been run
    here or submitted to the pool; ``futures`` holds the submitted ones by
    index."""

    __slots__ = ("pool", "fn", "items", "started", "futures")

    def __init__(self, pool: Executor, fn, items: list):
        self.pool, self.fn, self.items = pool, fn, items
        self.started = 0
        self.futures: dict[int, Future] = {}

    def run(self, index: int):
        return self.fn(self.items[index])

    def spill(self) -> None:
        for index in range(self.started, len(self.items)):
            self.futures[index] = self.pool.submit(self.run, index)
        self.started = len(self.items)

    def collect(self, index: int):
        """The outcome of submitted item ``index``: run here if still
        queued, else awaited, running this map's later queued items,
        newest first, meanwhile."""
        future = self.futures[index]
        if future.cancel():
            return self.run(index)
        if not future.done():
            before_wait()
            for later in range(len(self.items) - 1, index, -1):
                if future.done():
                    break
                if self.futures[later].cancel():
                    self.futures[later] = _settled(self.run, later)
        return future.result()


def before_wait() -> None:
    """Called just before a blocking wait: submits every item not yet
    started, from every map open on this thread, to its pool."""
    for open_map in _local.maps:
        if open_map.started < len(open_map.items):
            open_map.spill()


def map_on_pool(pool: Executor, fn, items) -> list:
    """``[fn(item) for item in items]``, work-first on ``pool``. Every item
    runs to its end, even when another fails; then the first exception in
    item order is raised."""
    current = _Map(pool, fn, list(items))
    maps = _local.maps
    maps.append(current)
    results = []
    failure = None
    try:
        for index, item in enumerate(current.items):
            try:
                if index in current.futures:
                    results.append(current.collect(index))
                else:
                    current.started = index + 1
                    results.append(fn(item))
            except Exception as exc:
                failure = failure or exc
    finally:
        maps.pop()
    # every item has settled; a cancelled call still in the pool's queue
    # holds this map, so it keeps neither the function nor the items
    current.fn = current.items = current.futures = None
    if failure is not None:
        raise failure
    return results
