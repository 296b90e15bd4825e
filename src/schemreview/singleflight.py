"""In-flight request coalescing.

While a computation for a key is running, concurrent callers wait for it
and share its result (or its exception). The entry is removed the moment
the computation finishes, so deduplication is in-flight only: a caller
arriving after completion starts a fresh computation.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, TypeVar

from .workfirst import before_wait

T = TypeVar("T")


class SingleFlight:
    def __init__(self):
        self._lock = threading.Lock()
        self._flights: dict[str, Future] = {}

    def run(self, key: str, fn: Callable[[], T]) -> T:
        with self._lock:
            fut = self._flights.get(key)
            if fut is not None:
                leader = False
            else:
                fut = Future()
                self._flights[key] = fut
                leader = True
        if not leader:
            if not fut.done():
                before_wait()
            return fut.result()
        try:
            result = fn()
        except BaseException as exc:
            with self._lock:
                self._flights.pop(key, None)
            fut.set_exception(exc)
            raise
        with self._lock:
            self._flights.pop(key, None)
        fut.set_result(result)
        return result
