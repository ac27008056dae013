"""Order-preserving concurrent dispatch of step generators.

run_window() serves a stream of step generators (see gateway.drive) on the
calling thread, keeping a window of them in progress. Cache hits and the
pipeline's own work run inline; a cache miss goes to a pool of
max_in_flight threads, which run only ChatBackend.complete. Identical
misses in flight at once share one call. Results are committed in stream
order, each as soon as it and everything before it are done, so the output
is the same as serving the stream one generator at a time.

Overlap starts only against a slow backend (ChatBackend.slow). Against a
fast one, handing a call to a thread would cost more than it saves, and
every call runs inline.
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Callable, Iterator, Sequence

from .gateway import ChatBackend, Gather, Message, Steps, drive

#: Generators in progress per backend call allowed in flight.
WINDOW_PER_CALL = 4

_BLOCKED = object()  # a request waits on a call in flight
_END = object()


class _Task:
    """One step generator in progress: a window entry, or a sub-generator of
    a Gather that one yielded."""

    __slots__ = ("steps", "order", "parent", "index", "results", "waiting",
                 "done", "value", "error")

    def __init__(self, steps: Steps, order: tuple, parent: "_Task | None" = None,
                 index: int = 0):
        self.steps = steps
        self.order = order          # position in the stream; sub-generators extend it
        self.parent = parent
        self.index = index          # position in the parent's Gather
        self.results: list = []     # return values of this task's Gather
        self.waiting = 0            # sub-generators of the Gather still running
        self.done = False
        self.value = None
        self.error: Exception | None = None


def run_window(backend: ChatBackend, source: Iterator[Steps | None],
               commit: Callable[[object], None]) -> None:
    """Serve every generator `source` yields; call commit() with each return
    value in source order.

    source yields None while its next generator cannot start yet because it
    needs a result still in progress. An exception from a generator or its
    backend calls is raised once everything before it is committed.
    """
    _Window(backend).run(source, commit)


class _Window:
    """The state of one run_window() call."""

    def __init__(self, backend: ChatBackend):
        self.backend = backend
        self.width = WINDOW_PER_CALL * backend.config.limits.max_in_flight
        self.pool: ThreadPoolExecutor | None = None
        self.inflight: dict[str, Future] = {}  # cache key -> the call serving it
        # call -> (cache key, the tasks waiting on it with their request)
        self.waiters: dict[Future, tuple[str, list[tuple[_Task, Sequence[Message]]]]] = {}
        self.failed = False
        self.admitted = 0

    def run(self, source: Iterator[Steps | None], commit: Callable[[object], None]) -> None:
        window: deque[_Task] = deque()
        more = True
        try:
            while more or window:
                while more and not self.failed and len(window) < self.width:
                    steps = next(source, _END)
                    if steps is None:
                        break
                    if steps is _END:
                        more = False
                        break
                    if not window and not self.inflight and not self.backend.slow:
                        commit(drive(steps, self.backend.complete))
                        continue
                    task = _Task(steps, (self.admitted,))
                    self.admitted += 1
                    window.append(task)
                    self._advance(task, None)
                    self._commit_done(window, commit)
                self._commit_done(window, commit)
                if window:
                    self._wait()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _commit_done(window: deque[_Task], commit: Callable[[object], None]) -> None:
        while window and window[0].done:
            task = window.popleft()
            if task.error is not None:
                raise task.error
            commit(task.value)

    def _advance(self, task: _Task, value) -> None:
        """Send value into the task and serve its requests until it blocks
        on a call in flight or ends."""
        try:
            while True:
                request = task.steps.send(value)
                if type(request) is Gather:
                    self._gather(task, request.steps)
                    return
                value = self._serve(task, request)
                if value is _BLOCKED:
                    return
        except StopIteration as stop:
            value = stop.value
        except Exception as exc:  # kept for its turn in commit order
            self._fail(task, exc)
            return
        self._finish(task, value)

    def _serve(self, task: _Task, messages: Sequence[Message]):
        """The completion now, or _BLOCKED after the task is queued on a call."""
        backend = self.backend
        slow = backend.slow
        key = None
        if slow or self.inflight:
            key = backend.key(messages)
            call = self.inflight.get(key)
            if call is None and slow and backend.cache.get(backend.config.name, key) is None:
                if self.pool is None:
                    self.pool = ThreadPoolExecutor(backend.config.limits.max_in_flight,
                                                   thread_name_prefix="delib-dispatch")
                call = self.inflight[key] = self.pool.submit(backend.complete, messages, key)
                self.waiters[call] = (key, [])
            if call is not None:
                self.waiters[call][1].append((task, messages))
                return _BLOCKED
        return backend.complete(messages, key)

    def _gather(self, task: _Task, steps: list[Steps]) -> None:
        if not steps:
            self._advance(task, [])
            return
        task.results = [None] * len(steps)
        task.waiting = len(steps)
        for i, sub in enumerate(steps):
            self._advance(_Task(sub, task.order + (i,), task, i), None)
            if task.done:  # a sub-generator failed, or the last one finished
                return

    def _finish(self, task: _Task, value) -> None:
        task.done = True
        task.value = value
        parent = task.parent
        if parent is not None and not parent.done:
            parent.results[task.index] = value
            parent.waiting -= 1
            if not parent.waiting:
                self._advance(parent, parent.results)

    def _fail(self, task: _Task, exc: Exception) -> None:
        task.done = True
        task.error = exc
        self.failed = True  # start nothing new; what is in progress runs out
        if task.parent is not None and not task.parent.done:
            self._fail(task.parent, exc)

    def _wait(self) -> None:
        """Block until a call ends, then resume the tasks waiting on it in
        stream order. The first gets the call's result; the others serve
        their request again, now a cache hit, as they would one at a time."""
        done, _ = wait(self.waiters, return_when=FIRST_COMPLETED)
        ready = []
        for call in done:
            key, tasks = self.waiters.pop(call)
            del self.inflight[key]
            tasks.sort(key=lambda entry: entry[0].order)
            ready.append((tasks[0][0].order, tasks[0][0], call, None))
            ready += [(t.order, t, None, messages) for t, messages in tasks[1:]]
        ready.sort(key=lambda entry: entry[0])
        for _order, task, call, messages in ready:
            if task.parent is not None and task.parent.done:
                continue  # its Gather already failed
            try:
                value = call.result() if call is not None else self._serve(task, messages)
            except Exception as exc:  # kept for its turn in commit order
                self._fail(task, exc)
                continue
            if value is not _BLOCKED:
                self._advance(task, value)
