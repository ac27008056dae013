"""Concurrent dispatch against a slow backend.

The scripted mock answers in microseconds, so every other test stays on the
inline path. Here each call takes a few milliseconds, which makes the run
window overlap calls; the records must still match serial dispatch byte for
byte.
"""
import hashlib
import json
import sys
import threading
import time

import pytest

import delib.dispatch
from delib.cli import main
from delib.corpus import Corpus, Sentence, sentence_id
from delib.errors import TransportError
from delib.gateway import (RECENT_CALLS, BackendConfig, ChatBackend, HttpTransport,
                           Limits, MockRule, ResponseCache, ScriptedTransport,
                           _Transient, mock_backend)
from delib.prompting import Variant
from delib.runner import run_grid, run_variant

from conftest import universal_mock_rules

DELAY_S = 0.003
FAULTY = "The contested memo 2 was sent in K2."


def dispatch_corpus():
    """Two batches; some texts repeat within and across batches, and the
    reasoning for "contested" sentences contradicts gold (excluded examples)."""
    rows = []
    for batch in ("K1", "K2", "K3"):
        for i in range(4):
            rows.append((f"We should weigh option {i} carefully.", batch, 1))
            rows.append((f"The office filed report {i} on time.", batch, 0))
            rows.append((f"The contested memo {i} was sent in {batch}.", batch, 0))
        rows.append(("We should weigh option 0 carefully.", batch, 1))
    sentences, seen = [], {}
    for text, batch, label in rows:
        base = sentence_id(batch, text)
        n = seen.get(base, 0)
        seen[base] = n + 1
        sentences.append(Sentence(id=base if n == 0 else f"{base}-{n}", batch=batch,
                                  text=text, gold_label=label))
    return Corpus(sentences=sentences)


def scripted_rules(faults=2):
    """The universal rules, contradicting reasoning for contested sentences,
    and transient faults on the first calls about one sentence."""
    rules = universal_mock_rules()

    def contradicting(messages):
        label = int(messages[-1]["content"].rsplit("(deliberative=", 1)[1][0])
        return json.dumps({"step1": "x", "step2": "y", "deliberative": 1 - label})

    def as_universal(messages):
        text = "\n".join(m["content"] for m in messages)
        rule = next(r for r in rules if r.matches(text))
        return rule.response(messages) if callable(rule.response) else rule.response

    return [MockRule(pattern=r"contested[\s\S]*Known-correct label:", response=contradicting),
            MockRule(pattern=FAULTY, response=as_universal, faults=["HTTP 503"] * faults),
            *rules]


class SlowTransport:
    """A ScriptedTransport that takes 1-3 DELAY_S per call, varying with the
    prompt so that calls end out of order, and tracks the calls in flight."""

    def __init__(self, rules):
        self.inner = ScriptedTransport(rules)
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.prompts = []

    @property
    def calls(self):
        return self.inner.calls

    def __call__(self, messages):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.prompts.append(messages[-1]["content"])
        try:
            digest = hashlib.sha256(messages[-1]["content"].encode()).digest()
            time.sleep(DELAY_S * (1 + digest[0] / 128))
            return self.inner(messages)
        finally:
            with self._lock:
                self.in_flight -= 1


def slow_backend(max_in_flight, faults=2, retry_budget=3):
    # Same name and model as mock_backend, so the run ids match.
    config = BackendConfig(name="mock", model="mock-model",
                           limits=Limits(max_in_flight=max_in_flight,
                                         retry_budget=retry_budget))
    return ChatBackend(config, cache=ResponseCache(None),
                       transport=SlowTransport(scripted_rules(faults)),
                       sleep=lambda _t: None, clock=lambda: 0.0)


def run_files(runs_dir, manifests):
    """variant -> (records bytes, manifest without its wall-clock fields)."""
    out = {}
    for variant, manifest in manifests.items():
        run_dir = runs_dir / manifest.run_id
        saved = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        del saved["started_at"], saved["finished_at"]
        out[variant] = ((run_dir / "records.jsonl").read_bytes(), saved)
    return out


@pytest.fixture(scope="module")
def serial_grid(tmp_path_factory):
    """The grid dispatched one call at a time by the zero-latency mock."""
    runs = tmp_path_factory.mktemp("serial")
    rules = scripted_rules()
    contradict, excluded = rules[0].response, []
    rules[0].response = lambda messages: excluded.append(1) or contradict(messages)
    backend = mock_backend(rules)
    manifests = run_grid(dispatch_corpus(), backend, runs, k=2)
    zero_shot = run_files(runs, manifests)[Variant.ZERO_SHOT][0].decode().splitlines()
    # The grid exercises what concurrency must not change: repeated texts
    # served from the cache, transient faults, and excluded examples.
    assert sum(json.loads(line)["cached"] for line in zero_shot) >= 3
    assert not rules[1].faults
    assert excluded
    return run_files(runs, manifests), backend.transport.calls


class TestConcurrentGrid:
    @pytest.mark.parametrize("max_in_flight", [1, 4])
    def test_byte_identical_to_serial(self, serial_grid, tmp_path, max_in_flight):
        expected, serial_calls = serial_grid
        backend = slow_backend(max_in_flight)
        manifests = run_grid(dispatch_corpus(), backend, tmp_path, k=2)
        assert run_files(tmp_path, manifests) == expected
        assert backend.transport.calls == serial_calls
        assert backend.transport.max_in_flight == max_in_flight

    def test_interrupt_then_resume_byte_identical(self, serial_grid, tmp_path):
        expected, _ = serial_grid
        corpus = dispatch_corpus()
        partial = run_variant(corpus, Variant.MULTI_AGENT, slow_backend(4), tmp_path,
                              k=2, stop_after=7)
        assert partial.status == "interrupted"
        assert partial.n_records == 7
        resumed = run_variant(corpus, Variant.MULTI_AGENT, slow_backend(4), tmp_path, k=2)
        assert resumed.status == "finished"
        assert resumed.dispatched == len(corpus) - 7
        records = (tmp_path / resumed.run_id / "records.jsonl").read_bytes()
        assert records == expected[Variant.MULTI_AGENT][0]


class TestFailureMidWindow:
    def _prefix(self, serial_grid):
        """Serial ZERO_SHOT records before the first sentence that fails."""
        lines = serial_grid[0][Variant.ZERO_SHOT][0].splitlines(keepends=True)
        first = [s.text for s in dispatch_corpus().sentences].index(FAULTY)
        # Past the first RECENT_CALLS calls, which find the backend slow,
        # and short of the end of the window.
        assert RECENT_CALLS < first < len(lines) - 4
        return b"".join(lines[:first])

    def test_earlier_records_committed_then_raised(self, serial_grid, tmp_path):
        backend = slow_backend(4, faults=100, retry_budget=1)
        with pytest.raises(TransportError, match="retries exhausted"):
            run_variant(dispatch_corpus(), Variant.ZERO_SHOT, backend, tmp_path, k=2)
        (run_dir,) = tmp_path.iterdir()
        assert (run_dir / "records.jsonl").read_bytes() == self._prefix(serial_grid)
        texts = [s.text for s in dispatch_corpus().sentences]
        later = set(texts[texts.index(FAULTY) + 1:]) - set(texts[:texts.index(FAULTY)])
        assert any(t in p for p in backend.transport.prompts for t in later)

    def test_cli_exits_3(self, serial_grid, tmp_path, monkeypatch):
        config = tmp_path / "config.yaml"
        config.write_text("backends: {slow: {type: mock}}\nruns_dir: runs\n",
                          encoding="utf-8")
        data = tmp_path / "corpus.jsonl"
        with data.open("w", encoding="utf-8") as fh:
            for s in dispatch_corpus().sentences:
                fh.write(json.dumps({"batch": s.batch, "text": s.text,
                                     "label": s.gold_label}) + "\n")
        monkeypatch.setattr("delib.cli.build_backend",
                            lambda _settings, _name: slow_backend(4, faults=100,
                                                                  retry_budget=1))
        code = main(["--config", str(config), "run", "--variant", "ZERO_SHOT",
                     "--backend", "slow", "--corpus", str(data), "--k", "2"])
        assert code == 3
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "records.jsonl").read_bytes() == self._prefix(serial_grid)


def test_backend_is_slow_while_most_recent_calls_are():
    """The median of the last RECENT_CALLS transport calls decides; one
    outlier either way does not."""
    def transport(messages):
        if messages[0]["content"] == "slow":
            time.sleep(0.001)
        return 200, {"choices": [{"message": {"content": "{}"}}]}

    backend = ChatBackend(BackendConfig(name="b"), transport=transport)
    calls = iter(range(10**6))

    def call(kind, n=1):
        for _ in range(n):
            backend.complete([{"role": "system", "content": kind},
                              {"role": "user", "content": str(next(calls))}])
        return backend.slow

    assert RECENT_CALLS == 16
    assert not call("slow")
    assert not call("slow", 7)
    assert call("slow")         # 9 of the last 9
    assert call("fast")         # 9 of the last 10
    assert call("fast", 6)      # 9 of 16
    assert not call("fast")     # 8 of 16


def test_fast_backend_never_starts_the_pool(tmp_path, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a zero-latency backend started the pool")

    monkeypatch.setattr(delib.dispatch, "ThreadPoolExecutor", NoPool)
    manifests = run_grid(dispatch_corpus(), mock_backend(scripted_rules()), tmp_path, k=2)
    assert all(m.status == "finished" for m in manifests.values())


class _Ok:
    status_code = 200

    @staticmethod
    def json():
        return {"choices": [{"message": {"content": "{}"}}]}


@pytest.mark.parametrize("kind", ["scripted", "http"])
def test_transport_counters_survive_threads(kind, monkeypatch):
    """More threads than cores and a short switch interval: a lost update
    to the call count or a fault popped twice would break the totals."""
    n_threads, per_thread, n_faults = 8, 250, 700
    if kind == "scripted":
        rule = MockRule(pattern=".", response="{}", faults=["503"] * n_faults)
        transport = ScriptedTransport([rule])
    else:
        rule = None
        monkeypatch.setattr("requests.post", lambda *a, **k: _Ok())
        transport = HttpTransport(BackendConfig(name="h", endpoint="http://localhost", model="m"))
    faults = []

    def worker():
        for _ in range(per_thread):
            try:
                transport([{"role": "user", "content": "x"}])
            except _Transient:
                faults.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert transport.calls == n_threads * per_thread
    if rule is not None:
        assert len(faults) == n_faults and not rule.faults
