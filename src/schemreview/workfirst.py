"""Work-first scheduling of a run's tasks on its thread pool.

``map_on_pool(pool, fn, items)`` is ``[fn(item) for item in items]``, run
in order on the thread that reaches it. Code about to block (the mock
agent's delay, any HTTP request through ``httpreq.send``, or
``map_on_pool``'s own wait on an item running elsewhere) first calls
``before_wait()``. That hands every item not yet
started, from every map open on this thread, to the pool's run queue,
and asks the pool for one worker per item. A worker runs the oldest
queued task. A map whose next item is still queued takes it back and
runs it itself; one whose next item runs elsewhere runs the run's newest
queued tasks while it waits (help-while-waiting), and blocks only once
the queue is empty. So a run whose calls never block runs on one worker
thread with no handoffs, and a run that waits overlaps its waits as far
as the pool's threads allow. This is the work-first principle of Cilk-5
(Frigo, Leiserson and Randall, PLDI 1998): the thread that reaches work
runs it, and other threads get work only when that thread would
otherwise sit idle.

A thread blocks only on an item that another thread has started. A task
waits only for the items of its own maps and for the tasks it helps
while it waits, all started after it, so the waits cannot form a cycle
and no pool size deadlocks.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Executor, Future


class _Local(threading.local):
    def __init__(self):
        self.maps: list[_Map] = []  # the maps open on this thread, outermost first


_local = _Local()
_queues: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # pool -> _RunQueue
_queues_lock = threading.Lock()


class _Task(Future):
    """One item handed to the run queue; the future holds its outcome."""

    def __init__(self, fn, item):
        super().__init__()
        self.fn = fn
        self.item = item

    def run(self) -> None:
        try:
            result = self.fn(self.item)
        except BaseException as exc:
            self.set_exception(exc)
        else:
            self.set_result(result)


class _RunQueue:
    """A pool's tasks handed over by ``before_wait`` and not started yet,
    oldest first."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tasks: dict[_Task, None] = {}

    def put(self, tasks) -> None:
        with self._lock:
            self._tasks.update(dict.fromkeys(tasks))

    def remove(self, task: _Task) -> bool:
        """Whether ``task`` was still queued; it no longer is."""
        with self._lock:
            return self._tasks.pop(task, False) is None

    def pop(self, newest: bool) -> _Task | None:
        with self._lock:
            if not self._tasks:
                return None
            if newest:
                return self._tasks.popitem()[0]
            task = next(iter(self._tasks))
            del self._tasks[task]
            return task


def _queue_of(pool: Executor) -> _RunQueue:
    with _queues_lock:
        queue = _queues.get(pool)
        if queue is None:
            queue = _queues[pool] = _RunQueue()
        return queue


def _work(queue: _RunQueue) -> None:
    """A worker's share of the run: the oldest queued task, if any is left.
    It holds the queue, not a task, so a task taken back or cancelled while
    the worker waits in the pool's queue does not keep ``fn`` alive."""
    task = queue.pop(newest=False)
    if task is not None:
        task.run()


class _Map:
    """One open ``map_on_pool``: items before ``started`` have been run
    here; from ``spilled_at`` on, each is a task handed to ``queue``."""

    __slots__ = ("pool", "fn", "items", "started", "spilled_at", "tasks", "queue")

    def __init__(self, pool: Executor, fn, items: list):
        self.pool, self.fn, self.items = pool, fn, items
        self.started = 0
        self.spilled_at = len(items)
        self.tasks: list[_Task] = []
        self.queue: _RunQueue | None = None

    def spill(self) -> None:
        self.spilled_at, self.started = self.started, len(self.items)
        self.tasks = [_Task(self.fn, item) for item in self.items[self.spilled_at:]]
        self.queue = _queue_of(self.pool)
        self.queue.put(self.tasks)
        for _ in self.tasks:
            self.pool.submit(_work, self.queue)

    def collect(self, task: _Task):
        """The outcome of a task of this map: run here if still queued,
        else awaited, helping with the run's newest tasks meanwhile."""
        if self.queue.remove(task):
            return task.fn(task.item)
        if not task.done():
            before_wait()
            while not task.done():
                other = self.queue.pop(newest=True)
                if other is None:
                    break
                other.run()
        return task.result()

    def cancel_queued(self) -> None:
        for task in self.tasks:
            if self.queue.remove(task):
                task.cancel()


def before_wait() -> None:
    """Called just before a blocking wait: hands every item not yet
    started, from every map open on this thread, to its pool."""
    for open_map in _local.maps:
        if open_map.started < len(open_map.items):
            open_map.spill()


def map_on_pool(pool: Executor, fn, items) -> list:
    """``[fn(item) for item in items]``, work-first on ``pool``: the items
    run in order on the calling thread until it is about to wait
    (``before_wait``); then those not yet started spill to the pool and
    the results are collected in order. A run whose calls never block
    uses no thread but the caller's; the pool's size still bounds the
    threads, and so the concurrent calls, of a run that waits.
    Exceptions surface in item order: on the first one the items still
    queued are cancelled and it is re-raised."""
    current = _Map(pool, fn, list(items))
    maps = _local.maps
    maps.append(current)
    try:
        results = []
        for index, item in enumerate(current.items):
            if index < current.spilled_at:
                current.started = index + 1
                results.append(fn(item))
            else:
                results.append(current.collect(current.tasks[index - current.spilled_at]))
        return results
    except BaseException:
        current.cancel_queued()
        raise
    finally:
        maps.pop()


def cancel_queued(pool: Executor) -> None:
    """Cancel every task waiting in ``pool``'s run queue; a map waiting on
    one raises ``CancelledError``. With ``pool.shutdown(cancel_futures=True)``
    this frees a run's threads, for example to fail a deadlocked run."""
    queue = _queue_of(pool)
    while (task := queue.pop(newest=True)) is not None:
        task.cancel()
