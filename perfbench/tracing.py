"""In-memory spans around the calls into each `delib` layer.

`Tracer.installed()` replaces the public functions the pipeline calls
across layer boundaries with timing wrappers, in the namespaces the callers
look them up in, and restores them on exit. Each span records its name,
start, end, parent span and request id (the sentence id). A span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter, defaultdict

import delib.agents
import delib.corpus
import delib.evaluation
import delib.gateway
import delib.indicators
import delib.prompting
import delib.runner
from delib.errors import SchemaError
from delib.templates import TemplateSet


def _sentence_id(sentence, *_a, **_k):
    return sentence.id


def _bundle_id(_backend, bundle, *_a, **_k):
    return bundle.sentence_id


def _example_id(example, *_a, **_k):
    return example.sentence.id


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self.requests: list[str | None] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str, request: str | None) -> int:
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.requests[parent]
        self.names.append(name)
        self.requests.append(request)
        self.parents.append(parent)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        i = self._open(name, request)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, request=None, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            i = self._open(name, request(*args, **kwargs) if request else None)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                self._close(i)
            if on_result:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- counters fed from results -------------------------------------

    def _on_parse(self, pred) -> None:
        self.counters["parsing.repairs"] += len(pred.repairs)

    def _on_parse_error(self, exc) -> None:
        if isinstance(exc, SchemaError):
            self.counters["parsing.schema_failures"] += 1

    def _on_reasoning(self, example) -> None:
        self.counters["prompting.reasoning_excluded"] += example is None

    def _on_completion(self, result) -> None:
        self.counters["gateway.cache_hits"] += result.cached

    def _on_orchestration(self, trace) -> None:
        self.counters[f"agents.{trace.resolution}"] += 1

    # -- installation --------------------------------------------------

    def _targets(self):
        """(namespace, attribute, span name, request, on_result, on_error)."""
        render = ("render_zero_shot", "render_few_shot", "render_cot", "render_cot_few_shot")
        yield TemplateSet, "render", "templates.render", None, None, None
        for name in render:
            yield delib.runner, name, "prompting.render", _sentence_id, None, None
        for name in ("render_zero_shot", "render_cot", "render_cot_few_shot"):
            yield delib.agents, name, "prompting.render", _sentence_id, None, None
        yield (delib.prompting, "render_reasoning_prompt", "prompting.render",
               _example_id, None, None)
        for name in ("select_few_shot_examples", "build_error_pool", "reasoned_examples"):
            yield delib.runner, name, "prompting.examples", None, None, None
        yield (delib.prompting, "generate_example_reasoning", "prompting.reasoning",
               _example_id, self._on_reasoning, None)
        for ns in (delib.runner, delib.agents, delib.gateway):
            yield ns, "classify", "gateway.classify", _bundle_id, None, None
        yield delib.gateway, "cache_key", "gateway.cache_key", None, None, None
        yield (delib.gateway, "parse_prediction", "parsing.parse", None,
               self._on_parse, self._on_parse_error)
        yield (delib.runner, "run_majority_vote", "agents.majority_vote", _sentence_id,
               self._on_orchestration, None)
        yield (delib.runner, "run_predictor_critic_judge", "agents.predictor_critic_judge",
               _sentence_id, self._on_orchestration, None)
        yield delib.runner, "run_variant", "runner.run_variant", None, None, None
        for name in ("evaluate_run", "compare_runs", "comparison_text", "comparison_csv",
                     "per_batch_series_csv", "metrics_text", "metrics_csv"):
            yield delib.evaluation, name, "evaluation", None, None, None
        yield delib.indicators, "extract_indicators", "indicators.extract", None, None, None
        for name in ("load_lexicons", "build_easy_sets", "occurrence_table",
                     "cooccurrence_stats", "verb_frequency", "occurrence_csv",
                     "cooccurrence_csv", "verbs_csv"):
            yield delib.indicators, name, "indicators.tables", None, None, None

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for ns, attr, name, request, on_result, on_error in self._targets():
                original = getattr(ns, attr)
                saved.append((ns, attr, original))
                setattr(ns, attr, self.wrap(name, original, request, on_result, on_error))
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)

    @contextlib.contextmanager
    def corpus_installed(self):
        original = delib.corpus.parse_dataset
        delib.corpus.parse_dataset = self.wrap("corpus.parse", original)
        try:
            yield self
        finally:
            delib.corpus.parse_dataset = original

    def instrument_backend(self, backend) -> None:
        """Wrap the calls a ChatBackend makes through its own attributes."""
        backend.complete = self.wrap("gateway.complete", backend.complete,
                                     on_result=self._on_completion)
        backend.cache.get = self.wrap("gateway.cache_get", backend.cache.get)
        backend.cache.put = self.wrap("gateway.cache_put", backend.cache.put)
        backend.transport = self.wrap("gateway.transport", backend.transport)
        backend.sleep = self.wrap("gateway.backoff", backend.sleep)

    # -- reduction -----------------------------------------------------

    def totals(self) -> tuple[Counter, dict, dict]:
        """(span count, total seconds, self seconds) per span name."""
        child = defaultdict(float)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        count: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            count[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return count, total, own

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name]

    @staticmethod
    def write_header(fh) -> None:
        fh.write("cycle,index,name,start_us,end_us,parent,request\n")

    def write(self, fh, cycle: int) -> None:
        """One line per span: start and end in µs from the tracer's
        creation, parent index (-1 for none), request (sentence) id."""
        t0 = self.t0
        for i, name in enumerate(self.names):
            fh.write(f"{cycle},{i},{name},{(self.starts[i] - t0) * 1e6:.1f},"
                     f"{(self.ends[i] - t0) * 1e6:.1f},{self.parents[i]},"
                     f"{self.requests[i] or ''}\n")
