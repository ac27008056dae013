import hashlib
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.config import Settings, build_backend
from delib.errors import ConfigError, TransportError
from delib.gateway import (BackendConfig, CacheKeys, ChatBackend, DecodingParams,
                           Limits, MockRule, ResponseCache, ScriptedTransport,
                           cache_key, classify, mock_backend)
from delib.prompting import PromptBundle, Variant
from delib.runner import run_variant

from conftest import build_corpus

MSGS = [{"role": "system", "content": "sys"},
        {"role": "user", "content": "classify this"}]


def bundle(user="classify this", schema="SIMPLE"):
    return PromptBundle(system="sys", user=user, expected_schema=schema,
                        sentence_id="s1")


class TestCacheKey:
    def test_stable(self):
        cfg = BackendConfig(name="b", model="m")
        assert cache_key(cfg, MSGS) == cache_key(cfg, list(MSGS))

    def test_sensitive_to_model_and_messages(self):
        cfg = BackendConfig(name="b", model="m")
        other_model = BackendConfig(name="b", model="m2")
        other_msgs = MSGS[:1] + [{"role": "user", "content": "classify that"}]
        keys = {cache_key(cfg, MSGS), cache_key(other_model, MSGS),
                cache_key(cfg, other_msgs)}
        assert len(keys) == 3

    def test_sensitive_to_temperature(self):
        from delib.gateway import DecodingParams
        a = BackendConfig(name="b", model="m")
        b = BackendConfig(name="b", model="m",
                          decoding=DecodingParams(temperature=0.7))
        assert cache_key(a, MSGS) != cache_key(b, MSGS)


HINTED = BackendConfig(name="local-llama", endpoint="http://localhost:8000/v1",
                       model="llama-3.1-8b-instruct",
                       decoding=DecodingParams(temperature=0.0, max_output_tokens=256,
                                               response_format_hint="json_object"))
HINTED_MSGS = [
    {"role": "system",
     "content": 'Classify the sentence.\nAnswer in JSON: {"deliberative": 0 or 1}'},
    {"role": "user",
     "content": 'Sentence: "Le comité a décidé — 2026 ✓"\n\tnew line \\ back'}]


def reference_cache_key(config, messages):
    """The on-disk cache key format, spelled out."""
    payload = json.dumps(
        {"backend": config.name, "model": config.model,
         "decoding": {"temperature": config.decoding.temperature,
                      "max_output_tokens": config.decoding.max_output_tokens,
                      "response_format_hint": config.decoding.response_format_hint},
         "messages": list(messages)},
        sort_keys=True, ensure_ascii=False).encode()
    return hashlib.sha256(payload).hexdigest()


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_message = st.fixed_dictionaries(
    {"role": st.sampled_from(["system", "user", "assistant"]), "content": _text},
    optional={"name": _text})


class TestCacheKeyFormat:
    def test_pinned_digest(self):
        # A change here invalidates every on-disk ResponseCache.
        expected = "75deb224e8e6c73ca2827e6cac3a25f2c7ff69cad03461a8ccededea6c41a380"
        assert reference_cache_key(HINTED, HINTED_MSGS) == expected
        assert cache_key(HINTED, HINTED_MSGS) == expected
        assert ChatBackend(HINTED, transport=lambda m: None).key(HINTED_MSGS) == expected

    @settings(max_examples=300, deadline=None)
    @given(name=_text, model=_text,
           temperature=st.floats(min_value=0, allow_infinity=False),
           max_tokens=st.integers(1, 10 ** 6),
           hint=st.none() | _text,
           conversations=st.lists(st.lists(_message, max_size=4), min_size=1, max_size=4))
    def test_matches_reference(self, name, model, temperature, max_tokens, hint,
                               conversations):
        config = BackendConfig(name=name, model=model, decoding=DecodingParams(
            temperature=temperature, max_output_tokens=max_tokens,
            response_format_hint=hint))
        keys = CacheKeys(config)
        for messages in conversations + conversations:  # second pass: kept states
            expected = reference_cache_key(config, messages)
            assert cache_key(config, messages) == expected
            assert cache_key(config, tuple(messages), keys) == expected

    def test_many_system_messages(self):
        keys = CacheKeys(HINTED)
        for i in range(200):
            messages = [{"role": "system", "content": f"system {i % 100}"},
                        {"role": "user", "content": "u"}]
            assert keys.key(messages) == reference_cache_key(HINTED, messages)


class SystemStateKeys:
    """CacheKeys.key as it was before states after the start of a user
    message were kept: a state after each system message only."""

    def __init__(self, config):
        self.reference = CacheKeys(config)
        self.after_system = {}

    @staticmethod
    def encode(message):
        if type(message) is dict and len(message) == 2:
            role, content = message.get("role"), message.get("content")
            if type(role) is str and type(content) is str:
                return (f'{{"content": {json.encoder.encode_basestring(content)}, '
                        f'"role": {json.encoder.encode_basestring(role)}}}')
        return json.dumps(message, sort_keys=True, ensure_ascii=False)

    def key(self, messages):
        messages = list(messages)
        first = messages[0] if messages else None
        if (type(first) is dict and len(first) == 2 and first.get("role") == "system"
                and type(first.get("content")) is str):
            state = self.after_system.get(first["content"])
            if state is None:
                state = self.reference.head.copy()
                state.update(self.encode(first).encode())
                self.after_system[first["content"]] = state
            state = state.copy()
            rest = "".join([", " + self.encode(m) for m in messages[1:]])
        else:
            state = self.reference.head.copy()
            rest = ", ".join([self.encode(m) for m in messages])
        state.update(rest.encode())
        state.update(self.reference.tail)
        return state.hexdigest()


# escapes, control characters, line breaks JSON leaves alone, non-ASCII text
_tricky = st.text(st.sampled_from('ab "\\/\n\r\t\x00\x1f\x7fé✓\u2028\U0001f600') |
                  st.characters(blacklist_categories=("Cs",)), max_size=12)
_SHAPES = ("user", "assistant", "extra key", "list content", "three", "system only",
           "no system")


def _conversation(system, start, rest, shape):
    text = start + rest
    if shape == "no system":
        return [{"role": "user", "content": text}]
    messages = [{"role": "system", "content": system}]
    if shape == "system only":
        return messages
    user = {"role": "assistant" if shape == "assistant" else "user", "content": text}
    if shape == "extra key":
        user["name"] = rest
    if shape == "list content":
        user["content"] = [start, rest]
    messages.append(user)
    if shape == "three":
        messages.append({"role": "assistant", "content": rest})
    return messages


class TestUserStartStates:
    @settings(max_examples=200, deadline=None)
    @given(systems=st.lists(_tricky, min_size=1, max_size=2),
           starts=st.lists(st.lists(_tricky, max_size=3).map("\n".join),
                           min_size=1, max_size=3),
           turns=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), _tricky,
                                    st.sampled_from(_SHAPES)), max_size=16))
    def test_matches_system_state_keys(self, systems, starts, turns):
        """One CacheKeys serves a stream of conversations whose user texts
        share starts, and each key equals the one computed without states
        after a user message's start."""
        keys, reference = CacheKeys(HINTED), SystemStateKeys(HINTED)
        for s, u, rest, shape in turns:
            messages = _conversation(systems[s % len(systems)], starts[u % len(starts)],
                                     rest, shape)
            assert keys.key(messages) == reference.key(messages)

    def test_few_shot_block_kept_per_system_message(self):
        keys, reference = CacheKeys(HINTED), SystemStateKeys(HINTED)
        block = 'Examples:\n"We should" → 1\n\t\\ ✓\n'
        for i in range(6):
            for system in ("sys a", "sys b"):
                messages = [{"role": "system", "content": system},
                            {"role": "user", "content": f"{block}Sentence {i}: \"x\""}]
                assert keys.key(messages) == reference.key(messages)
        assert keys._after_user_start["sys a"][0] == block


class TestBackendDigest:
    def test_unchanged_without_hint(self):
        # run ids of existing runs derive from this digest
        assert BackendConfig(name="b", model="m").digest() == "1405afbaaa8e"

    def test_sensitive_to_response_format_hint(self):
        plain = BackendConfig(name=HINTED.name, endpoint=HINTED.endpoint,
                              model=HINTED.model,
                              decoding=DecodingParams(temperature=0.0,
                                                      max_output_tokens=256))
        assert plain.digest() == "5718413a6acc"
        assert HINTED.digest() != plain.digest()


class TestResponseCache:
    def test_disk_roundtrip_and_layout(self, tmp_path):
        cache = ResponseCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put("mock", key, {"key": key, "text": "hello"})
        path = tmp_path / "mock" / "ab" / f"{key}.json"
        assert path.is_file()
        assert json.loads(path.read_text())["text"] == "hello"
        fresh = ResponseCache(tmp_path)
        assert fresh.get("mock", key)["text"] == "hello"

    def test_miss_is_none(self, tmp_path):
        assert ResponseCache(tmp_path).get("mock", "f" * 64) is None
        assert ResponseCache(None).get("mock", "f" * 64) is None

    def test_concurrent_writers_of_one_key(self, tmp_path):
        key = "cd" + "1" * 62
        caches = [ResponseCache(tmp_path) for _ in range(2)]
        errors = []

        def write(cache, n):
            try:
                for i in range(200):
                    cache.put("mock", key, {"key": key, "text": f"writer {n} put {i}"})
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(caches[n % 2], n)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        files = sorted(p.name for p in (tmp_path / "mock").rglob("*") if p.is_file())
        assert files == [f"{key}.json"]
        entry = json.loads((tmp_path / "mock" / "cd" / f"{key}.json").read_text())
        assert entry["text"].startswith("writer ")

    def test_memory_only(self):
        cache = ResponseCache(None)
        cache.put("mock", "k", {"text": "x"})
        assert cache.get("mock", "k") == {"text": "x"}


class TestLimits:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            Limits(max_in_flight=0)
        with pytest.raises(ConfigError):
            Limits(retry_budget=-1)


class TestRetries:
    def _backend(self, faults, budget=3, response='{"deliberative": 1}'):
        rule = MockRule(pattern=r".", response=response, faults=list(faults))
        config = BackendConfig(name="mock", model="m",
                               limits=Limits(retry_budget=budget))
        sleeps = []
        backend = ChatBackend(config, transport=ScriptedTransport([rule]),
                              sleep=sleeps.append)
        return backend, sleeps

    def test_twice_429_then_success(self):
        backend, sleeps = self._backend(["HTTP 429", "HTTP 429"])
        result = backend.complete(MSGS)
        assert result.attempt == 2
        assert result.cached is False
        assert backend.transport.calls == 3

    def test_backoff_doubles(self):
        backend, sleeps = self._backend(["HTTP 429", "HTTP 503"])
        backend.complete(MSGS)
        assert sleeps == [0.5, 1.0]

    def test_budget_exhausted(self):
        backend, _ = self._backend(["boom"] * 4, budget=3)
        with pytest.raises(TransportError, match="retries exhausted"):
            backend.complete(MSGS)
        assert backend.transport.calls == 4

    def test_zero_budget_fails_immediately(self):
        backend, _ = self._backend(["boom"], budget=0)
        with pytest.raises(TransportError):
            backend.complete(MSGS)
        assert backend.transport.calls == 1


class TestCompleteCaching:
    def test_second_call_served_from_cache(self, tmp_path):
        cache = ResponseCache(tmp_path)
        backend = mock_backend(default='{"deliberative": 0}', cache=cache)
        first = backend.complete(MSGS)
        second = backend.complete(MSGS)
        assert first.cached is False and second.cached is True
        assert second.text == first.text
        assert backend.transport.calls == 1

    def test_cache_survives_new_backend(self, tmp_path):
        cache_a = ResponseCache(tmp_path)
        mock_backend(default='{"deliberative": 0}', cache=cache_a).complete(MSGS)
        backend_b = mock_backend(default='{"deliberative": 1}',
                                 cache=ResponseCache(tmp_path))
        # frozen first response wins over the new scripted default
        assert backend_b.complete(MSGS).text == '{"deliberative": 0}'
        assert backend_b.transport.calls == 0

    def test_faulted_attempts_not_cached(self):
        rule = MockRule(pattern=r".", response='{"deliberative": 1}',
                        faults=["HTTP 429"])
        backend = ChatBackend(BackendConfig(name="mock", model="m"),
                              transport=ScriptedTransport([rule]),
                              sleep=lambda _t: None)
        result = backend.complete(MSGS)
        assert result.attempt == 1
        assert backend.complete(MSGS).cached is True


class TestAuth:
    def test_missing_credential_env_is_config_error(self, monkeypatch):
        monkeypatch.delenv("DELIB_TEST_KEY", raising=False)
        config = BackendConfig(name="remote", endpoint="http://localhost:9",
                               model="m", auth_env="DELIB_TEST_KEY")
        backend = ChatBackend(config)
        with pytest.raises(ConfigError, match="DELIB_TEST_KEY"):
            backend.complete(MSGS)

    def test_credential_check_precedes_dispatch(self, monkeypatch):
        monkeypatch.delenv("DELIB_TEST_KEY", raising=False)
        config = BackendConfig(name="remote", endpoint="http://localhost:9",
                               model="m", auth_env="DELIB_TEST_KEY")
        backend = ChatBackend(config)
        with pytest.raises(ConfigError):
            backend.complete(MSGS)
        assert backend.transport.calls == 0


class TestConcurrency:
    def test_in_flight_never_exceeds_limit(self):
        active = 0
        peak = 0
        lock = threading.Lock()
        gate = threading.Event()

        def slow_transport(messages):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            gate.wait(0.05)
            with lock:
                active -= 1
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        config = BackendConfig(name="mock", model="m",
                               limits=Limits(max_in_flight=2))
        backend = ChatBackend(config, transport=slow_transport,
                              sleep=lambda _t: None)
        threads = [threading.Thread(
            target=backend.complete,
            args=([{"role": "user", "content": f"msg {i}"}],))
            for i in range(8)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert peak <= 2

    def test_backoff_does_not_hold_a_slot(self):
        # A's first call fails and A then waits in its backoff; with the one
        # slot of max_in_flight=1, B's call must reach the transport anyway.
        in_backoff = threading.Event()
        end_backoff = threading.Event()
        b_sent = threading.Event()

        def backoff(_seconds):
            in_backoff.set()
            end_backoff.wait(10)

        def answer_b(_messages):
            b_sent.set()
            return '{"deliberative": 0}'

        transport = ScriptedTransport([
            MockRule(pattern=r"^A$", response='{"deliberative": 1}', faults=["HTTP 503"]),
            MockRule(pattern=r"^B$", response=answer_b)])
        config = BackendConfig(name="mock", model="m", limits=Limits(max_in_flight=1))
        backend = ChatBackend(config, transport=transport, sleep=backoff)
        a = threading.Thread(target=backend.complete,
                             args=([{"role": "user", "content": "A"}],))
        b = threading.Thread(target=backend.complete,
                             args=([{"role": "user", "content": "B"}],))
        a.start()
        backing_off = in_backoff.wait(5)
        b.start()
        reached = b_sent.wait(2)  # every wait is bounded: the old code fails, not hangs
        end_backoff.set()
        a.join(5)
        b.join(5)
        assert backing_off
        assert not a.is_alive() and not b.is_alive()
        assert reached, "B waited for A's backoff to end"
        assert transport.calls == 3

    def test_rate_limiter_spaces_slots(self):
        """Calls made at one instant from several threads get slots 60/rate
        apart, and each sleeps once, until its own slot."""
        from delib.gateway import _RateLimiter
        waits, lock = [], threading.Lock()

        def record(seconds):
            with lock:
                waits.append(seconds)

        limiter = _RateLimiter(120, record, clock=lambda: 100.0)
        threads = [threading.Thread(target=lambda: [limiter.admit() for _ in range(5)])
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert not any(thread.is_alive() for thread in threads)
        # the first call takes the current slot without sleeping
        assert sorted(waits) == [0.5 * k for k in range(1, 20)]

    def test_rate_limiter_sleeps_only_before_a_due_slot(self):
        from delib.gateway import _RateLimiter
        now, waits = [0.0], []
        limiter = _RateLimiter(2, waits.append, clock=lambda: now[0])
        limiter.admit()  # the first call's slot is now
        now[0] = 30.0
        limiter.admit()  # on its slot, 60/2 s later
        now[0] = 500.0
        limiter.admit()  # after an idle spell...
        limiter.admit()  # ...the next call still waits a whole interval: no burst
        assert waits == [30.0]

    def test_rate_limited_mock_run_does_not_spin(self, tmp_path):
        """A mock backend's sleep returns at once; the limiter must not turn
        that into a busy wait."""
        backend = build_backend(Settings(backends={"echo": {
            "type": "mock", "default_response": {"deliberative": 0},
            "limits": {"requests_per_minute": 1}}}, cache_dir=None), "echo")
        corpus = build_corpus([(f"Sentence number {i}.", "K1", i % 2) for i in range(100)])
        cpu = time.process_time()
        run_variant(corpus, Variant.ZERO_SHOT, backend, tmp_path)
        assert backend.transport.calls == 100
        assert time.process_time() - cpu < 1.0


class TestScriptedTransport:
    def test_first_matching_rule_wins(self):
        transport = ScriptedTransport([
            MockRule(pattern=r"special", response="A"),
            MockRule(pattern=r".", response="B"),
        ])
        _, body = transport([{"role": "user", "content": "a special prompt"}])
        assert body["choices"][0]["message"]["content"] == "A"
        _, body = transport([{"role": "user", "content": "plain"}])
        assert body["choices"][0]["message"]["content"] == "B"

    def test_callable_response_sees_messages(self):
        transport = ScriptedTransport([MockRule(
            pattern=r".",
            response=lambda msgs: msgs[-1]["content"].upper())])
        _, body = transport([{"role": "user", "content": "echo me"}])
        assert body["choices"][0]["message"]["content"] == "ECHO ME"

    def test_no_match_no_default_raises(self):
        transport = ScriptedTransport([MockRule(pattern=r"never-seen", response="x")])
        with pytest.raises(TransportError, match="no rule matches"):
            transport([{"role": "user", "content": "hello"}])


class TestClassify:
    def test_success(self):
        backend = mock_backend(default='{"deliberative": 1}')
        outcome = classify(backend, bundle())
        assert outcome.prediction.label == 1
        assert outcome.failure is None

    def test_schema_failure_is_structured(self):
        backend = mock_backend(default="I cannot answer that.")
        outcome = classify(backend, bundle())
        assert outcome.prediction is None
        assert outcome.failure
        assert outcome.completion.text == "I cannot answer that."

    def test_strict_rejects_what_lenient_repairs(self):
        text = 'Sure! {"deliberative": "1"}'
        backend = mock_backend(default=text)
        assert classify(backend, bundle(), "LENIENT").prediction.label == 1
        assert classify(backend, bundle(), "STRICT").prediction is None

    def test_transport_error_propagates(self):
        backend = mock_backend(rules=[MockRule(pattern=r"never", response="x")])
        with pytest.raises(TransportError):
            classify(backend, bundle())
