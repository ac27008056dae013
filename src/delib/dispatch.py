"""Order-preserving concurrent dispatch of step generators.

run_window() serves a stream of step generators (see gateway.drive) on the
calling thread, keeping a window of them in progress. Cache hits and the
pipeline's own work run inline. A cache miss becomes a call, sent one
attempt at a time by a pool of max_in_flight threads; a thread that comes
free takes the pending call earliest in the stream. Identical misses in
flight at once share one call. A transiently failed attempt waits out its
backoff on a thread of its window entry, which holds no pool thread and no
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

from .gateway import ChatBackend, CompletionResult, Gather, Message, Steps, _Transient, drive

#: Generators in progress per backend call allowed in flight.
WINDOW_PER_CALL = 8

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


class _Call:
    """A cache miss on its way to the backend, and the tasks waiting on it."""

    __slots__ = ("key", "messages", "order", "attempt", "tasks", "result", "error")

    def __init__(self, key: str, messages: Sequence[Message], order: tuple):
        self.key = key
        self.messages = messages
        # the stream position of the task that made it: a task has at most
        # one call at a time, so no two pending calls share one
        self.order = order
        self.attempt = 0
        self.tasks: list[tuple[_Task, Sequence[Message]]] = []  # with their request
        self.result: CompletionResult | None = None
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
        self.inflight: dict[str, _Call] = {}  # cache key -> the call serving it
        self.ended: queue.SimpleQueue[_Call] = queue.SimpleQueue()  # from pool and backoff threads
        self.lock = threading.Lock()  # guards the three below
        self.pending: list[tuple[tuple, _Call]] = []  # heap of calls awaiting a pool thread
        self.backing_off: dict[int, deque[_Call]] = {}  # window entry -> its calls in backoff
        self.closed = False
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
                call = self.inflight[key] = _Call(key, messages, task.order)
                with self.lock:
                    self._send(call)
            if call is not None:
                call.tasks.append((task, messages))
                return _BLOCKED
        return backend.complete(messages, key)

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
        """Retry a call after its backoff. Each window entry has at most one
        backoff thread, which serves its entry's calls one after another."""
        call.attempt += 1
        call.error = None
        entry = call.order[0]
        with self.lock:
            calls = self.backing_off.setdefault(entry, deque())
            calls.append(call)
            if len(calls) > 1:
                return  # the entry's backoff thread is running
        threading.Thread(target=self._serve_backoffs, args=(entry, calls),
                         name="delib-backoff", daemon=True).start()

    def _serve_backoffs(self, entry: int, calls: deque[_Call]) -> None:
        """On an entry's backoff thread: wait out each call's backoff in
        turn, then queue its next attempt."""
        while True:
            call = calls[0]
            try:
                self.backend.sleep(self.backend.backoff(call.attempt))
            except Exception as exc:  # the window thread acts on it
                call.error = exc
            with self.lock:
                calls.popleft()
                if not calls:
                    del self.backing_off[entry]
                if self.closed:
                    return
                if call.error is None:
                    self._send(call)
                else:
                    self.ended.put(call)
                if not calls:
                    return

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
        stream order. A transient failure goes to its backoff instead. The
        first task gets the call's result; the others serve their request
        again, now a cache hit, as they would one at a time."""
        ended = [self.ended.get()]
        while not self.ended.empty():
            ended.append(self.ended.get())
        ready = []
        for call in ended:
            if isinstance(call.error, _Transient):
                self._back_off(call)
                continue
            del self.inflight[call.key]
            tasks = sorted(call.tasks, key=lambda entry: entry[0].order)
            ready.append((tasks[0][0].order, tasks[0][0], call, None))
            ready += [(t.order, t, None, messages) for t, messages in tasks[1:]]
        ready.sort(key=lambda entry: entry[0])
        for _order, task, call, messages in ready:
            if task.parent is not None and task.parent.done:
                continue  # its Gather already failed
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
