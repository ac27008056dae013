"""Chat-completion access: HTTP backends, retries, caching, scripted mocks.

Both remote and local backends speak the OpenAI-compatible chat-completions
shape, so swapping them is pure configuration. Responses are cached on disk
(or in memory) keyed by a digest of (backend, model, decoding, messages);
the first observed response is frozen, making reruns reproducible.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, Sequence

from .errors import ConfigError, DataError, SchemaError, TransportError
from .parsing import ParsedPrediction, dumps_canonical, parse_prediction, read_json, replace_text

if TYPE_CHECKING:
    from .prompting import PromptBundle

Message = dict  # {"role": "system"|"user"|"assistant", "content": str}


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    max_output_tokens: int = 1024
    response_format_hint: str | None = None

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be a finite number >= 0, "
                              f"got {self.temperature!r}")
        if self.max_output_tokens < 1:
            raise ConfigError(f"max_output_tokens must be >= 1, got {self.max_output_tokens!r}")


@dataclass(frozen=True)
class Limits:
    max_in_flight: int = 4
    retry_budget: int = 3
    requests_per_minute: int | None = None

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        rate = self.requests_per_minute
        if rate is not None and (type(rate) not in (int, float) or not rate >= 1):  # NaN too
            raise ConfigError(f"requests_per_minute must be a number >= 1, got {rate!r}")


@dataclass(frozen=True)
class BackendConfig:
    name: str
    endpoint: str = ""
    model: str = ""
    auth_env: str | None = None
    decoding: DecodingParams = field(default_factory=DecodingParams)
    limits: Limits = field(default_factory=Limits)

    def digest(self) -> str:
        fields = {"name": self.name, "endpoint": self.endpoint, "model": self.model,
                  "temperature": self.decoding.temperature,
                  "max_output_tokens": self.decoding.max_output_tokens}
        if self.decoding.response_format_hint is not None:
            # only when set, so digests of configs without a hint stay as they were
            fields["response_format_hint"] = self.decoding.response_format_hint
        payload = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(slots=True)
class CompletionResult:
    text: str
    usage: dict | None = None
    cached: bool = False


#: json.dumps(value, ensure_ascii=False) for a str.
_json_str = json.encoder.encode_basestring
#: Distinct system messages a table of hash states keeps a state for.
MAX_SYSTEM_STATES = 64


class SystemStates(dict):
    """Hash states kept per system message. A prompt's system message is
    one of a few templates, so a state that has absorbed one serves every
    later prompt that starts with it. At most MAX_SYSTEM_STATES are kept,
    so a caller that sends a new system message each time does not grow
    the table. A kept state is only ever copied, never updated."""

    def keep(self, system: str, state):
        """Keep state for system while there is room; returns state."""
        if len(self) < MAX_SYSTEM_STATES:
            self[system] = state
        return state


def _plain(message) -> bool:
    """Whether message is the usual {"role": str, "content": str}."""
    return (type(message) is dict and len(message) == 2
            and type(message.get("role")) is str and type(message.get("content")) is str)


class CacheKeys:
    """The reusable parts of one backend's cache keys.

    A cache key is the sha256 of dumps_canonical({"backend", "decoding",
    "messages", "model"}): a head fixed by the config, the messages, and a
    fixed tail. The head is encoded once. For the shape a run sends, a
    plain system message and one plain message after it, a hash state that
    has absorbed the head and the system message is kept for each distinct
    system message (a SystemStates table), so a completion encodes and
    hashes only the message after it. Any other list is hashed as the
    definition says.

    Next to each, a hash state may be kept after the start of a user
    message: its text up to the last newline, such as a few-shot prompt's
    example block. It serves every later user message that starts with that
    text, since JSON escapes each character alone, so that the escaped text
    is the escaped start followed by the escaped rest. The state is built
    only when a user message starts with the start of the one before it
    under the same system message: most prompts put the sentence before
    their last line, and a state for a start that never comes again would
    cost a copy for nothing.
    """

    def __init__(self, config: BackendConfig):
        decoding = dumps_canonical(
            {"temperature": config.decoding.temperature,
             "max_output_tokens": config.decoding.max_output_tokens,
             "response_format_hint": config.decoding.response_format_hint})
        self.head = hashlib.sha256(
            f'{{"backend": {_json_str(config.name)}, "decoding": {decoding}, '
            '"messages": ['.encode())
        self.tail = f'], "model": {_json_str(config.model)}}}'.encode()
        self._after_system = SystemStates()
        # system message -> (start of a user text, the state after it); set
        # as one tuple, so a thread never reads one's text with another's state
        self._after_user_start: dict[str, tuple[str, "hashlib._Hash"]] = {}
        # system message -> the start of the last user text that had no state
        self._last_start: dict[str, str] = {}

    def key(self, messages: Sequence[Message]) -> str:
        if (len(messages) == 2 and _plain(messages[0]) and messages[0]["role"] == "system"
                and _plain(messages[1])):
            first, user = messages
            system = first["content"]
            state = self._after_system.get(system)
            if state is None:
                state = self.head.copy()
                state.update(dumps_canonical(first).encode())
                self._after_system.keep(system, state)
            state, rest = self._after_start(system, state, user["content"])
            rest += f', "role": {_json_str(user["role"])}}}'
        else:
            state = self.head.copy()
            rest = dumps_canonical(list(messages))[1:-1]
        state.update(rest.encode())
        state.update(self.tail)
        return state.hexdigest()

    def _after_start(self, system: str, after_system, text: str):
        """A copy of a state after system and the start of a user message
        with this text, and the rest of the message to hash after it, up to
        the closing quote of its content."""
        kept = self._after_user_start.get(system)
        if kept is None or not text.startswith(kept[0]):
            last = self._last_start.get(system)
            if not last or not text.startswith(last):
                if system in self._after_system:
                    self._last_start[system] = text[:text.rfind("\n") + 1]
                return after_system.copy(), f', {{"content": {_json_str(text)}'
            state = after_system.copy()
            state.update(f', {{"content": {_json_str(last)[:-1]}'.encode())
            kept = self._after_user_start[system] = (last, state)
        start, state = kept
        return state.copy(), _json_str(text[len(start):])[1:]


def cache_key(config: BackendConfig, messages: Sequence[Message],
              keys: CacheKeys | None = None) -> str:
    """The response-cache key of messages sent to the backend `config`
    describes; `keys` are that backend's reusable parts (built here when
    not given). The key is a stable on-disk format: see CacheKeys."""
    return (keys if keys is not None else CacheKeys(config)).key(messages)


class ResponseCache:
    """Cache layout: <root>/<backend>/<first 2 hex of key>/<key>.json.

    root=None keeps entries in memory only (useful for throwaway runs).
    Writes are atomic (parsing.replace_text) and serialized by a lock per
    instance; reads are lock-free. A file that is not an object with a str
    text raises DataError rather than counting as a miss, which would
    replace the first observed response.
    """

    def __init__(self, root: str | Path | None):
        self.root = Path(root) if root is not None else None
        self._memory: dict[str, dict] = {}
        self._write_lock = threading.Lock()

    def _path(self, backend: str, key: str) -> Path:
        assert self.root is not None
        return self.root / backend / key[:2] / f"{key}.json"

    def get(self, backend: str, key: str) -> dict | None:
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        if self.root is None:
            return None
        path = self._path(backend, key)
        if not path.is_file():
            return None
        entry = read_json(path)
        if type(entry) is not dict or type(entry.get("text")) is not str:
            raise DataError(f"{path}: not a cache entry: it needs a string text")
        self._memory[key] = entry
        return entry

    def put(self, backend: str, key: str, entry: dict) -> None:
        with self._write_lock:
            self._memory[key] = entry
            if self.root is None:
                return
            path = self._path(backend, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            replace_text(path, dumps_canonical(entry))


class _RateLimiter:
    """Spaces admissions 60/per_minute seconds apart on a schedule (a
    GCRA-style next-slot time, ITU-T I.371): each call takes the next free
    slot under the lock, then sleeps once, outside it, until that slot."""

    def __init__(self, per_minute: float, sleep: Callable[[float], None],
                 clock: Callable[[], float]):
        self.interval = 60.0 / per_minute
        self.sleep = sleep
        self.clock = clock
        self._next = -math.inf  # the earliest time the next call may start
        self._lock = threading.Lock()

    def admit(self) -> None:
        with self._lock:
            now = self.clock()
            slot = max(now, self._next)
            self._next = slot + self.interval
        if slot > now:
            self.sleep(slot - now)


#: Seconds an HTTP request may take before it fails as transient.
HTTP_TIMEOUT_S = 120.0


class HttpTransport:
    """POSTs OpenAI-compatible chat-completions requests."""

    def __init__(self, config: BackendConfig):
        self.config = config

    def _auth_header(self) -> dict:
        if not self.config.auth_env:
            return {}
        token = os.environ.get(self.config.auth_env)
        if not token:
            raise ConfigError(
                f"backend {self.config.name!r}: credential environment "
                f"variable {self.config.auth_env} is not set")
        return {"Authorization": f"Bearer {token}"}

    def __call__(self, messages: Sequence[Message]) -> tuple[int, dict]:
        import requests

        # first, so a missing credential fails before the call is sent
        headers = {"Content-Type": "application/json", **self._auth_header()}
        body = {
            "model": self.config.model,
            "messages": list(messages),
            "temperature": self.config.decoding.temperature,
            "max_tokens": self.config.decoding.max_output_tokens,
        }
        if self.config.decoding.response_format_hint:
            body["response_format"] = {"type": self.config.decoding.response_format_hint}
        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=HTTP_TIMEOUT_S)
        except requests.RequestException as exc:
            raise _Transient(f"request failed: {exc}") from exc
        if resp.status_code == 200:
            try:
                return 200, resp.json()
            except ValueError as exc:
                raise TransportError(f"malformed response body: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise _Transient(f"HTTP {resp.status_code}")
        if resp.status_code in (401, 403):
            raise ConfigError(f"authentication failed (HTTP {resp.status_code})")
        raise TransportError(f"HTTP {resp.status_code}: {resp.text[:500]}")


class _Transient(Exception):
    """Retryable transport failure (timeout, 429, 5xx)."""


@dataclass
class MockRule:
    """Scripted response matched by regex over the joined prompt text.

    response may be a string or a callable over the message list. faults is
    a queue of transient failures injected before the response is served.
    """
    pattern: str
    response: str | Callable[[Sequence[Message]], str]
    faults: list[str] = field(default_factory=list)
    _regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # compiled when the rule is made: a malformed pattern raises re.error here
        self._regex = re.compile(self.pattern)

    def matches(self, prompt_text: str) -> bool:
        return self._regex.search(prompt_text) is not None


class ScriptedTransport:
    """Deterministic transport for tests and offline pipeline runs.

    Safe to call from several threads: the call count and each rule's
    fault queue change under one lock.
    """

    def __init__(self, rules: Sequence[MockRule] = (), default: str | None = None):
        self.rules = list(rules)
        self.default = default
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, messages: Sequence[Message]) -> tuple[int, dict]:
        prompt_text = "\n".join(m["content"] for m in messages)
        rule = next((r for r in self.rules if r.matches(prompt_text)), None)
        with self._lock:
            self.calls += 1
            fault = rule.faults.pop(0) if rule is not None and rule.faults else None
        if fault is not None:
            raise _Transient(fault)
        if rule is not None:
            text = rule.response(messages) if callable(rule.response) else rule.response
            return 200, _completion_body(text)
        if self.default is not None:
            return 200, _completion_body(self.default)
        raise TransportError("mock backend: no rule matches the prompt")


def _completion_body(text: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": 0, "completion_tokens": 0}}


#: A transport call slower than this is worth overlapping with other work:
#: it is about the cost of handing a call to a thread and back.
SLOW_CALL_S = 0.00025
#: Transport calls the backend's slowness looks back over.
RECENT_CALLS = 16
_RECENT_MASK = (1 << RECENT_CALLS) - 1


class ChatBackend:
    """One configured backend with cache, retry, and admission control.

    complete() may be called from several threads at once: max_in_flight
    bounds the transport calls in flight and requests_per_minute their rate.
    `slow` is true while most of the last RECENT_CALLS transport calls took
    longer than SLOW_CALL_S (their median exceeds it), so neither one outlier
    nor a cold first call sets it. The times are measured with perf_counter
    and never recorded; `clock` is the one requests_per_minute spaces calls by.
    `hits` counts the completions the cache has answered.
    """

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None,
                 transport: Callable[[Sequence[Message]], tuple[int, dict]] | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 backoff_base: float = 0.5,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.cache = cache if cache is not None else ResponseCache(None)
        self.transport = transport if transport is not None else HttpTransport(config)
        self.sleep = sleep
        self.backoff_base = backoff_base
        # one token per call allowed on the wire: taken before a transport
        # call and returned after it, so a retry's backoff holds none. A
        # SimpleQueue's get and put run in C; a Semaphore's run in Python.
        self._admission = queue.SimpleQueue()
        for _ in range(config.limits.max_in_flight):
            self._admission.put(None)
        self._rate = (_RateLimiter(config.limits.requests_per_minute, sleep, clock)
                      if config.limits.requests_per_minute is not None else None)
        self._keys = CacheKeys(config)
        self._recent = 0  # bit i: the (i+1)-th most recent transport call was slow
        self._recent_lock = threading.Lock()
        self.slow = False
        self.hits = 0
        self._hits_lock = threading.Lock()

    def _note_call(self, seconds: float) -> None:
        with self._recent_lock:
            self._recent = (self._recent << 1 | (seconds > SLOW_CALL_S)) & _RECENT_MASK
            self.slow = self._recent.bit_count() > RECENT_CALLS // 2

    def key(self, messages: Sequence[Message]) -> str:
        """The cache key of messages."""
        return cache_key(self.config, messages, self._keys)

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before attempt number `attempt` (1 is the first retry)."""
        return self.backoff_base * (2 ** (attempt - 1))

    def complete(self, messages: Sequence[Message], key: str | None = None,
                 attempt: int | None = None) -> CompletionResult:
        """The completion of messages, from the cache or the transport;
        key, when given, is self.key(messages).

        Without `attempt`, a transient failure is retried up to the retry
        budget, sleeping backoff(n) before attempt n. With attempt=n, only
        attempt n of a cache miss is made, without reading the cache: while
        the budget allows another attempt, a transient failure is raised as
        _Transient, and the caller waits out backoff(n + 1) before retrying.
        """
        if key is None:
            key = self.key(messages)
        if attempt is not None:
            return self._attempt(messages, key, attempt)
        entry = self.cache.get(self.config.name, key)
        if entry is not None:
            with self._hits_lock:
                self.hits += 1
            return CompletionResult(entry["text"], entry.get("usage"), cached=True)
        attempt = 0
        while True:
            try:
                return self._attempt(messages, key, attempt)
            except _Transient:
                attempt += 1
                self.sleep(self.backoff(attempt))

    def _attempt(self, messages: Sequence[Message], key: str,
                 attempt: int) -> CompletionResult:
        """One admitted transport call for a cache miss; its response is
        cached. A null content (a reasoning model can spend its whole token
        budget thinking) is the empty response."""
        if self._rate is not None:
            self._rate.admit()
        self._admission.get()
        sent = time.perf_counter()
        try:
            status, body = self.transport(messages)
        except _Transient as exc:
            self._note_call(time.perf_counter() - sent)
            if attempt < self.config.limits.retry_budget:
                raise
            raise TransportError(
                f"backend {self.config.name!r}: retries exhausted "
                f"({self.config.limits.retry_budget + 1} attempts): {exc}") from exc
        finally:
            self._admission.put(None)
        self._note_call(time.perf_counter() - sent)
        try:
            text = body["choices"][0]["message"]["content"]
            if text is None:
                text = ""
            elif type(text) is not str:
                raise TypeError("content is not a string")
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion body: {body!r:.300}") from exc
        usage = body.get("usage")
        self.cache.put(self.config.name, key, {"key": key, "text": text, "usage": usage})
        return CompletionResult(text, usage)


@dataclass
class ClassifyOutcome:
    prediction: ParsedPrediction | None
    completion: CompletionResult
    failure: str | None = None  # SCHEMA_FAILURE reason when prediction is None


# Orchestration is written as step generators: a generator yields the
# messages of each completion it needs, one at a time, and is sent the
# CompletionResult; its return value is the result. drive() serves one with
# blocking calls; dispatch.run_window() serves many with backend calls
# overlapped.
Steps = Generator[Sequence[Message], CompletionResult, object]


def drive(steps: Steps, complete: Callable[[Sequence[Message]], CompletionResult]):
    """Run a step generator to its return value, serving each request with
    one blocking call of complete (such as ChatBackend.complete)."""
    value = None
    try:
        while True:
            value = complete(steps.send(value))
    except StopIteration as stop:
        return stop.value


def classify_steps(bundle: PromptBundle, repair_policy: str = "LENIENT") -> Steps:
    """Step generator for classify(); returns a ClassifyOutcome."""
    completion = yield [{"role": "system", "content": bundle.system},
                        {"role": "user", "content": bundle.user}]
    try:
        prediction = parse_prediction(completion.text, bundle.expected_schema, repair_policy)
    except SchemaError as exc:
        return ClassifyOutcome(prediction=None, completion=completion,
                               failure=exc.reason)
    return ClassifyOutcome(prediction=prediction, completion=completion)


def classify(backend: ChatBackend, bundle: PromptBundle) -> ClassifyOutcome:
    """Complete the bundle's messages and parse them LENIENT against its
    schema: classify_steps served by blocking calls.

    Parse failures after a successful completion become structured
    SCHEMA_FAILURE outcomes; transport errors propagate.
    """
    return drive(classify_steps(bundle), backend.complete)


def mock_backend(rules: Sequence[MockRule] = (), default: str | None = None,
                 name: str = "mock", cache: ResponseCache | None = None,
                 model: str = "mock-model", decoding: DecodingParams = DecodingParams(),
                 limits: Limits = Limits()) -> ChatBackend:
    """Deterministic scripted backend that can drive the whole pipeline."""
    config = BackendConfig(name=name, model=model, decoding=decoding, limits=limits)
    return ChatBackend(config, cache=cache, transport=ScriptedTransport(rules, default),
                       sleep=lambda _t: None)
