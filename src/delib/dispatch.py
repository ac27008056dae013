"""Order-preserving concurrent dispatch of step generators.

run_window() serves a stream of step generators (see gateway.Steps) on the
calling thread, keeping a window of them in progress. Cache hits and the
pipeline's own work run inline. A cache miss becomes a call, sent one
attempt at a time by a pool of max_in_flight threads; a thread that comes
free takes the pending call earliest in the stream. Identical misses in
flight at once share one call. A transiently failed attempt waits out its
backoff on a thread of its own, which holds no pool thread and no
admission token, then rejoins the pending calls at its stream position.
Results are committed in stream order, each as soon as it and everything
before it are done, so the output is the same as serving the stream one
generator at a time.

Overlap starts only against a slow backend (ChatBackend.slow). Against a
fast one, handing a call to a thread would cost more than it saves, and
every call runs inline.
"""
from __future__ import annotations

import heapq
import queue
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

from .gateway import ChatBackend, CompletionResult, Message, Steps, _Transient

#: Generators in progress per backend call allowed in flight.
WINDOW_PER_CALL = 8

_BLOCKED = object()  # a request waits on a call in flight
_END = object()


class _Task:
    """One step generator in progress: a window entry."""

    __slots__ = ("steps", "order", "done", "value", "error")

    def __init__(self, steps: Steps, order: int):
        self.steps = steps
        self.order = order  # position in the stream
        self.done = False
        self.value = None
        self.error: Exception | None = None


class _Call:
    """A cache miss on its way to the backend, and the tasks waiting on it."""

    __slots__ = ("key", "messages", "order", "attempt", "tasks", "result", "error")

    def __init__(self, key: str, messages: Sequence[Message], order: int):
        self.key = key
        self.messages = messages
        # the stream position of the task that made it: a task has at most
        # one call at a time, so no two pending calls share one
        self.order = order
        self.attempt = 0
        self.tasks: list[tuple[_Task, Sequence[Message]]] = []  # with their request
        self.result: CompletionResult | None = None
        self.error: Exception | None = None


def run_window(backend: ChatBackend, source: Iterator[Steps],
               commit: Callable[[object], None]) -> None:
    """Serve every generator `source` yields; call commit() with each return
    value in source order.

    An exception from a generator or its backend calls is raised once
    everything before it is committed.
    """
    _Window(backend).run(source, commit)


class _Window:
    """The state of one run_window() call."""

    def __init__(self, backend: ChatBackend):
        self.backend = backend
        self.width = WINDOW_PER_CALL * backend.config.limits.max_in_flight
        self.pool: ThreadPoolExecutor | None = None
        self.inflight: dict[str, _Call] = {}  # cache key -> the call serving it
        self.ended: queue.SimpleQueue[_Call] = queue.SimpleQueue()  # from pool and backoff threads
        self.lock = threading.Lock()  # guards the two below
        self.pending: list[tuple[int, _Call]] = []  # heap of calls awaiting a pool thread
        self.closed = False
        self.failed = False
        self.admitted = 0

    def run(self, source: Iterator[Steps], commit: Callable[[object], None]) -> None:
        window: deque[_Task] = deque()
        more = True
        try:
            while more or window:
                while more and not self.failed and len(window) < self.width:
                    steps = next(source, _END)
                    if steps is _END:
                        more = False
                        break
                    task = _Task(steps, self.admitted)
                    self.admitted += 1
                    window.append(task)
                    self._advance(task, None)
                    self._commit_done(window, commit)
                self._commit_done(window, commit)
                if window:
                    self._wait()
        finally:
            if self.pool is not None:
                with self.lock:
                    self.closed = True  # backoff threads still sleeping send nothing
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
                value = self._serve(task, task.steps.send(value))
                if value is _BLOCKED:
                    return
        except StopIteration as stop:
            task.done = True
            task.value = stop.value
        except Exception as exc:  # kept for its turn in commit order
            self._fail(task, exc)

    def _serve(self, task: _Task, messages: Sequence[Message]):
        """The completion now, or _BLOCKED after the task is queued on a call."""
        backend = self.backend
        key = backend.key(messages)
        call = self.inflight.get(key)
        if call is None:
            if not backend.slow or backend.cache.get(backend.config.name, key) is not None:
                return backend.complete(messages, key)
            if self.pool is None:
                self.pool = ThreadPoolExecutor(backend.config.limits.max_in_flight,
                                               thread_name_prefix="delib-dispatch")
            call = self.inflight[key] = _Call(key, messages, task.order)
            with self.lock:
                self._send(call)
        call.tasks.append((task, messages))
        return _BLOCKED

    def _send(self, call: _Call) -> None:
        """Queue the call's next attempt; the caller holds self.lock."""
        heapq.heappush(self.pending, (call.order, call))
        self.pool.submit(self._attempt)

    def _attempt(self) -> None:
        """On a pool thread: one attempt of the earliest pending call."""
        with self.lock:
            _order, call = heapq.heappop(self.pending)
        try:
            call.result = self.backend.complete(call.messages, call.key, call.attempt)
        except Exception as exc:  # the window thread acts on it
            call.error = exc
        self.ended.put(call)

    def _back_off(self, call: _Call) -> None:
        """On a thread of the call's own: wait out its backoff, then queue its
        next attempt. A window entry waits on one call at a time, so it has
        at most one such thread."""
        try:
            self.backend.sleep(self.backend.backoff(call.attempt))
        except Exception as exc:  # the window thread acts on it
            call.error = exc
        with self.lock:
            if self.closed:
                return
            if call.error is None:
                self._send(call)
            else:
                self.ended.put(call)

    def _fail(self, task: _Task, exc: Exception) -> None:
        task.done = True
        task.error = exc
        self.failed = True  # start nothing new; what is in progress runs out

    def _wait(self) -> None:
        """Block until a call ends, then resume the tasks waiting on it in
        stream order. A transient failure goes to its backoff instead. The
        first task gets the call's result; the others serve their request
        again, now a cache hit, as they would one at a time."""
        ended = [self.ended.get()]
        while not self.ended.empty():
            ended.append(self.ended.get())
        ready = []
        for call in ended:
            if isinstance(call.error, _Transient):
                call.attempt += 1
                call.error = None
                threading.Thread(target=self._back_off, args=(call,),
                                 name="delib-backoff", daemon=True).start()
                continue
            del self.inflight[call.key]
            tasks = sorted(call.tasks, key=lambda entry: entry[0].order)
            ready.append((tasks[0][0].order, tasks[0][0], call, None))
            ready += [(t.order, t, None, messages) for t, messages in tasks[1:]]
        ready.sort(key=lambda entry: entry[0])
        for _order, task, call, messages in ready:
            try:
                if call is None:
                    value = self._serve(task, messages)
                elif call.error is not None:
                    raise call.error
                else:
                    value = call.result
            except Exception as exc:  # kept for its turn in commit order
                self._fail(task, exc)
                continue
            if value is not _BLOCKED:
                self._advance(task, value)
