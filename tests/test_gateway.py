import hashlib
import http.server
import json
import re
import socket
import threading
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.cli import main
from delib.config import Settings, build_backend
from delib.corpus import save_jsonl
from delib.errors import ConfigError, TransportError
from delib.gateway import (BackendConfig, CacheKeys, ChatBackend, DecodingParams,
                           Limits, MockRule, ResponseCache, ScriptedTransport,
                           cache_key, classify, classify_steps, drive, mock_backend)
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

    @settings(max_examples=max(300, settings.default.max_examples), deadline=None)
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
    @settings(max_examples=max(200, settings.default.max_examples), deadline=None)
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

    def test_state_built_only_once_a_start_repeats(self):
        keys, reference = CacheKeys(HINTED), SystemStateKeys(HINTED)

        def ask(user):
            messages = [{"role": "system", "content": "sys"},
                        {"role": "user", "content": user}]
            assert keys.key(messages) == reference.key(messages)

        ask('Sentence: "a"\nLabel it.')  # the start holds the sentence
        ask('Sentence: "b"\nLabel it.')
        ask("Examples:\n1\nSentence: c")
        assert "sys" not in keys._after_user_start
        ask("Examples:\n1\nSentence: d")
        assert keys._after_user_start["sys"][0] == "Examples:\n1\n"
        ask("Examples:\n1\nSentence: e\nand more")  # served by the kept state
        assert keys._after_user_start["sys"][0] == "Examples:\n1\n"


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
        assert backend.complete(MSGS).cached is False
        assert backend.transport.calls == 2
        assert backend.complete(MSGS).cached is True


def content_backend(content, cache):
    """A backend whose every completion body has this message content."""
    def transport(_messages):
        return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
    return ChatBackend(BackendConfig(name="content", model="m"), cache=cache,
                       transport=transport, sleep=lambda _t: None)


class TestCompletionContent:
    def test_null_content_is_an_empty_response(self, tmp_path):
        """A reasoning model that spends its token budget thinking answers
        with null content: the sentence gets a SCHEMA_FAILURE record, and the
        cached empty text serves a rerun."""
        corpus = build_corpus([("We should act.", "K1", 1)])
        backend = content_backend(None, ResponseCache(tmp_path / "cache"))
        manifest = run_variant(corpus, Variant.ZERO_SHOT, backend, tmp_path / "runs")
        record = json.loads((tmp_path / "runs" / manifest.run_id / "records.jsonl").read_text())
        assert record["final_label"] is None
        assert record["failure"] == "no parsable JSON object in response"
        assert manifest.schema_failures == 1
        [entry] = (tmp_path / "cache").rglob("*.json")
        assert json.loads(entry.read_text())["text"] == ""
        # a malformed body if it reached the transport: the rerun is served from the cache
        again = content_backend(0, ResponseCache(tmp_path / "cache"))
        rerun = run_variant(corpus, Variant.ZERO_SHOT, again, tmp_path / "rerun")
        assert rerun.cached == 1 and rerun.schema_failures == 1

    @pytest.mark.parametrize("content", [0, True, ["text"], {"text": "x"}])
    def test_other_content_is_malformed_and_not_cached(self, tmp_path, content):
        backend = content_backend(content, ResponseCache(tmp_path))
        with pytest.raises(TransportError, match="malformed completion body"):
            backend.complete(MSGS)
        assert list(tmp_path.rglob("*")) == []
        assert backend.cache.get("content", backend.key(MSGS)) is None


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with server.answer(request body) -> (status, text)
    and keeps (path, headers, body) of each request in server.received."""
    disable_nagle_algorithm = True

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.received.append((self.path, dict(self.headers), body))
        status, text = self.server.answer(body)
        data = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *_args):
        pass


def _completion(text):
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}],
                       "usage": {"prompt_tokens": 1, "completion_tokens": 1}})


@pytest.fixture
def chat_server():
    """An OpenAI-compatible endpoint on a loopback port."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.received = []
    server.answer = lambda _body: (200, _completion("{}"))
    # a short poll interval, so that shutdown() returns at once
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _endpoint(port):
    return f"http://127.0.0.1:{port}/v1"


def _http_backend(port, **config):
    return ChatBackend(BackendConfig(name="served", endpoint=_endpoint(port), model="m",
                                     limits=Limits(retry_budget=2), **config),
                       sleep=lambda _s: None)


class TestHttpTransport:
    def test_200_gives_the_text(self, chat_server):
        chat_server.answer = lambda _body: (200, _completion("an answer"))
        result = _http_backend(chat_server.server_port).complete(MSGS)
        assert result.text == "an answer"
        [(path, _headers, body)] = chat_server.received
        assert path == "/v1/chat/completions"
        assert body == {"model": "m", "messages": MSGS, "temperature": 0.0,
                        "max_tokens": 1024}

    @pytest.mark.parametrize("status,text,error,match,sent", [
        (401, "{}", ConfigError, r"authentication failed \(HTTP 401\)", 1),
        (403, "{}", ConfigError, r"authentication failed \(HTTP 403\)", 1),
        (429, "{}", TransportError, r"retries exhausted \(3 attempts\): HTTP 429", 3),
        (503, "{}", TransportError, r"retries exhausted \(3 attempts\): HTTP 503", 3),
        (404, "no such route", TransportError, "HTTP 404: no such route", 1),
        (200, "not json", TransportError, "malformed response body", 1),
    ], ids=["401", "403", "429", "503", "404", "200 not json"])
    def test_status_mapping(self, chat_server, status, text, error, match, sent):
        chat_server.answer = lambda _body: (status, text)
        backend = _http_backend(chat_server.server_port)
        with pytest.raises(error, match=match):
            backend.complete(MSGS)
        assert len(chat_server.received) == sent
        assert backend.cache.get("served", backend.key(MSGS)) is None

    def test_a_closed_port_is_transient(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(TransportError,
                           match=r"retries exhausted \(3 attempts\): request failed"):
            _http_backend(port).complete(MSGS)

    def test_credential_and_response_format_are_sent(self, chat_server, monkeypatch):
        monkeypatch.setenv("DELIB_TEST_KEY", "s3cret")
        backend = _http_backend(chat_server.server_port, auth_env="DELIB_TEST_KEY",
                                decoding=DecodingParams(response_format_hint="json_object"))
        backend.complete(MSGS)
        [(_path, headers, body)] = chat_server.received
        assert headers["Authorization"] == "Bearer s3cret"
        assert body["response_format"] == {"type": "json_object"}

    def test_a_run_over_http_writes_the_mock_run_records(self, chat_server, tmp_path,
                                                          capsys):
        """The same answers from an endpoint and from a mock give the same
        records, apart from the run id."""
        rules = [("should|think|could", {"deliberative": 1}), (".", {"deliberative": 0})]

        def answer(body):
            prompt = "\n".join(m["content"] for m in body["messages"])
            response = next(r for pattern, r in rules if re.search(pattern, prompt))
            return 200, _completion(json.dumps(response))

        chat_server.answer = answer
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"backends": {
            "served": {"endpoint": _endpoint(chat_server.server_port), "model": "mock-model"},
            "scripted": {"type": "mock", "rules": [
                {"pattern": pattern, "response": r} for pattern, r in rules]}},
            "runs_dir": "runs", "cache_dir": "cache"}), encoding="utf-8")
        data = tmp_path / "corpus.jsonl"
        save_jsonl(build_corpus([("We should consider the new proposal.", "K1", 1),
                                 ("The meeting happened on Tuesday.", "K1", 0),
                                 ("I think this approach is wrong.", "K2", 1),
                                 ("The budget was approved last year.", "K2", 0)]), data)
        records = {}
        for name in ("served", "scripted"):
            assert main(["--config", str(config), "run", "--variant", "ZERO_SHOT",
                         "--backend", name, "--corpus", str(data)]) == 0
            run_id = capsys.readouterr().out.split()[1].rstrip(":")
            text = (tmp_path / "runs" / run_id / "records.jsonl").read_text(encoding="utf-8")
            records[name] = text.replace(run_id, "RUN")
        assert len(chat_server.received) == 4
        assert len(list((tmp_path / "runs").iterdir())) == 2
        assert records["served"] == records["scripted"]


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
        sent = []
        monkeypatch.setattr("requests.post", lambda *a, **k: sent.append(a))
        config = BackendConfig(name="remote", endpoint="http://localhost:9",
                               model="m", auth_env="DELIB_TEST_KEY")
        backend = ChatBackend(config)
        with pytest.raises(ConfigError):
            backend.complete(MSGS)
        assert sent == []


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

    def test_backend_spaces_calls_by_its_clock(self):
        """complete() admits transport calls 60/rate seconds apart on the
        backend's clock; a cache hit takes no slot."""
        now, waits, sent = [100.0], [], []

        def sleep(seconds):
            waits.append(seconds)
            now[0] += seconds

        def transport(_messages):
            sent.append(now[0])
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        config = BackendConfig(name="paced", model="m",
                               limits=Limits(requests_per_minute=120))
        backend = ChatBackend(config, transport=transport, sleep=sleep,
                              clock=lambda: now[0])
        for i in (0, 1, 1, 2, 3):
            backend.complete([{"role": "user", "content": f"call {i}"}])
        assert sent == [100.0, 100.5, 101.0, 101.5]
        assert waits == [0.5, 0.5, 0.5]

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

        def classify_as(policy):
            return drive(classify_steps(bundle(), policy), backend.complete)
        assert classify_as("LENIENT").prediction.label == 1
        assert classify_as("STRICT").prediction is None

    def test_transport_error_propagates(self):
        backend = mock_backend(rules=[MockRule(pattern=r"never", response="x")])
        with pytest.raises(TransportError):
            classify(backend, bundle())
