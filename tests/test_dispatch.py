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
from delib.dispatch import run_window
from delib.gateway import (RECENT_CALLS, SLOW_CALL_S, BackendConfig, ChatBackend,
                           HttpTransport, Limits, MockRule, ResponseCache,
                           ScriptedTransport, _Transient, drive, mock_backend)
from delib.prompting import Variant
from delib.runner import run_grid, run_variant

from conftest import StopRun, raise_after, stopped_manifest, universal_mock_rules

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
        with pytest.raises(StopRun):
            run_variant(corpus, Variant.MULTI_AGENT, slow_backend(4), tmp_path, k=2,
                        progress=raise_after(7))
        partial = stopped_manifest(tmp_path)
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

    def test_run_is_marked_interrupted_and_resumes(self, serial_grid, tmp_path):
        """Retries exhausted in the middle of a slow-backend window: the
        manifest says interrupted with the counts of the records written,
        and a resume finishes the run byte-identical to serial dispatch.
        (A multi-agent record has no `cached` field, which would differ for
        calls the window finished after the failure.)"""
        corpus = dispatch_corpus()
        stopped = slow_backend(4, faults=100, retry_budget=1)
        with pytest.raises(TransportError, match="retries exhausted"):
            run_variant(corpus, Variant.MULTI_AGENT, stopped, tmp_path, k=2)
        assert stopped.transport.max_in_flight > 1  # stopped inside a window
        partial = stopped_manifest(tmp_path)
        assert partial.status == "interrupted"
        assert partial.n_records == [s.text for s in corpus.sentences].index(FAULTY)
        resumed = run_variant(corpus, Variant.MULTI_AGENT, slow_backend(4), tmp_path, k=2)
        assert resumed.status == "finished"
        assert resumed.dispatched == len(corpus) - partial.n_records
        assert ((tmp_path / resumed.run_id / "records.jsonl").read_bytes()
                == serial_grid[0][Variant.MULTI_AGENT][0])

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


class LoggedTransport:
    """Answers each prompt with itself after a millisecond, which keeps the
    backend slow, and logs each call as it starts. A prompt in `hold` waits
    for its event (at most 5 s); a prompt in `faults` first fails
    transiently once per fault listed."""

    def __init__(self, hold=None, faults=None):
        self.hold = hold or {}
        self.faults = faults or {}
        self.log = []
        self._lock = threading.Lock()

    def __call__(self, messages):
        prompt = messages[-1]["content"]
        with self._lock:
            self.log.append(prompt)
            queued = self.faults.get(prompt)
            fault = queued.pop() if queued else None
        time.sleep(0.001)
        if prompt in self.hold:
            self.hold[prompt].wait(5)
        if fault is not None:
            raise _Transient(fault)
        return 200, {"choices": [{"message": {"content": prompt}}]}


def window_backend(transport, max_in_flight, sleep=lambda _t: None, retry_budget=3):
    config = BackendConfig(name="window", model="m",
                           limits=Limits(max_in_flight=max_in_flight,
                                         retry_budget=retry_budget))
    backend = ChatBackend(config, transport=transport, sleep=sleep, clock=lambda: 0.0)
    for i in range(RECENT_CALLS):  # slow calls, so the window uses its pool at once
        backend.complete([{"role": "user", "content": f"warm-up {i}"}])
    assert backend.slow
    transport.log.clear()
    return backend


def asking(*prompts):
    """Steps that ask for each prompt in turn; returns the answers."""
    answers = []
    for prompt in prompts:
        completion = yield [{"role": "user", "content": prompt}]
        answers.append(completion.text)
    return answers


def wait_until(condition, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class PhasedTransport:
    """Answers each prompt with itself: at once, or after SLOW_CALL_S * 4
    for a prompt that starts with "slow". Logs the thread of each call."""

    def __init__(self):
        self.threads = []
        self._lock = threading.Lock()

    def __call__(self, messages):
        prompt = messages[-1]["content"]
        if prompt.startswith("slow"):
            time.sleep(SLOW_CALL_S * 4)
        with self._lock:
            self.threads.append(threading.current_thread().name)
        return 200, {"choices": [{"message": {"content": prompt}}]}


def asking_cached(*prompts):
    """Steps that ask for each prompt in turn; returns (answer, cached) pairs."""
    answers = []
    for prompt in prompts:
        completion = yield [{"role": "user", "content": prompt}]
        answers.append((completion.text, completion.cached))
    return answers


def test_window_turns_slow_and_fast_again_as_one_at_a_time():
    """Fast calls, then slow ones, then fast ones again, with prompts that
    repeat within and across the phases: the window starts its pool once the
    backend turns slow and serves inline again once it turns fast, and it
    commits what serving each generator through drive() commits, with the
    same cached flags and the same transport calls.

    A prompt that several generators ask is the first request of each, or a
    later request of one that an earlier generator asked first: the first
    generator to ask then gets the call, as one at a time."""
    def stream():
        for i in range(20):
            yield asking_cached(f"fast{i % 8}", f"fast-own{i}", f"fast{i % 8}")
        for i in range(30):
            yield asking_cached(f"slow{i % 6}", f"slow-own{i}", f"fast{i % 8}")
        for i in range(40):
            yield asking_cached(f"back{i % 5}", f"back-own{i}", f"slow{i % 6}")

    def backend():
        return ChatBackend(BackendConfig(name="phased", model="m",
                                         limits=Limits(max_in_flight=2)),
                           transport=PhasedTransport(), sleep=lambda _t: None,
                           clock=lambda: 0.0)

    serial = backend()
    expected = [drive(steps, serial.complete) for steps in stream()]
    windowed = backend()
    committed = []
    run_window(windowed, stream(), committed.append)
    assert committed == expected
    assert len(windowed.transport.threads) == len(serial.transport.threads)
    here = threading.current_thread().name
    threads = windowed.transport.threads
    pooled = [i for i, name in enumerate(threads) if name.startswith("delib-dispatch")]
    assert threads[0] == here and pooled, threads
    assert here in threads[pooled[-1]:], threads


class TestWindowScheduling:
    def test_backoff_does_not_hold_the_only_slot(self):
        # A fails once and waits out its backoff; with max_in_flight=1, B's
        # call must reach the transport before that backoff ends.
        transport = LoggedTransport(faults={"A": ["HTTP 503"]})
        sleeps, reached = [], []

        def backoff(seconds):
            sleeps.append(seconds)
            reached.append(wait_until(lambda: "B" in transport.log))

        backend = window_backend(transport, 1, sleep=backoff)
        committed = []
        run_window(backend, iter([asking("A"), asking("B")]), committed.append)
        assert committed == [["A"], ["B"]]
        assert sleeps == [0.5]
        assert reached == [True], "B waited for A's backoff to end"
        assert transport.log.count("A") == 2

    def test_head_entry_goes_first_when_a_slot_frees(self):
        # h1 ends while x1 and x2 hold both slots and x3..x7 wait. The head
        # entry's next call, h2, is queued after them, yet it is sent first
        # when a slot frees.
        release = threading.Event()
        transport = LoggedTransport(hold={f"x{i}": release for i in range(1, 8)})
        backend = window_backend(transport, 2)
        timer = threading.Timer(0.05, release.set)

        def head():
            yield [{"role": "user", "content": "h1"}]
            timer.start()  # x1..x7 are admitted by now, and h2 is queued at once
            second = yield [{"role": "user", "content": "h2"}]
            return ["h1", second.text]

        committed = []
        run_window(backend, iter([head()] + [asking(f"x{i}") for i in range(1, 8)]),
                   committed.append)
        timer.join()
        assert committed == [["h1", "h2"]] + [[f"x{i}"] for i in range(1, 8)]
        log = transport.log
        assert all(log.index("h2") < log.index(f"x{i}") for i in range(3, 8)), log

    def test_exhausted_retry_raises_after_earlier_commits(self):
        transport = LoggedTransport(faults={"p3": ["HTTP 503"] * 10})
        backend = window_backend(transport, 2, retry_budget=2)
        committed = []
        with pytest.raises(TransportError, match=r"retries exhausted \(3 attempts\): HTTP 503"):
            run_window(backend, iter([asking(f"p{i}") for i in range(6)]), committed.append)
        assert committed == [["p0"], ["p1"], ["p2"]]
        assert transport.log.count("p3") == 3

    def test_many_threads_with_a_short_switch_interval(self):
        """More pool threads than cores, retries re-entering the queue, and
        frequent thread switches: a call lost or sent twice would break the
        commits or the call count."""
        n = 150
        transport = LoggedTransport(faults={f"s{i}": ["HTTP 503"] * (i % 3) for i in range(n)})
        backend = window_backend(transport, 8)
        committed = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_window(backend, iter([asking(f"s{i}", f"t{i}") for i in range(n)]),
                       committed.append)
        finally:
            sys.setswitchinterval(interval)
        assert committed == [[f"s{i}", f"t{i}"] for i in range(n)]
        assert len(transport.log) == 2 * n + sum(i % 3 for i in range(n))
        assert not [t for t in threading.enumerate() if t.name.startswith("delib-dispatch")]

    def test_faulty_grid_never_waits_in_real_time(self, serial_grid, tmp_path):
        # Backoffs of 0.5 s, 1 s and 2 s through a sleep that returns at once.
        sleeps = []
        backend = slow_backend(4, faults=3)
        backend.sleep = sleeps.append
        assert backend.backoff_base == 0.5
        start = time.monotonic()
        manifests = run_grid(dispatch_corpus(), backend, tmp_path, k=2)
        elapsed = time.monotonic() - start
        assert sorted(sleeps) == [0.5, 1.0, 2.0]
        assert elapsed < sum(sleeps)
        assert run_files(tmp_path, manifests) == serial_grid[0]
