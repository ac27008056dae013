"""The benchmark's layer tracer still finds every name it wraps.

perfbench/tracing.py replaces functions in delib's modules by name. A name
that no longer resolves makes a traced benchmark run fail on entry, so a
rename in the package shows up here as a named test failure.
"""
import importlib.util
from pathlib import Path

import delib.corpus
from delib.gateway import mock_backend

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_installed_wraps_every_target_and_restores_it():
    tracer = load_tracing().Tracer()
    targets = [(ns, attr) for ns, attr, *_ in tracer._targets()]
    originals = [getattr(ns, attr) for ns, attr in targets]
    with tracer.installed():
        for (ns, attr), original in zip(targets, originals):
            assert getattr(ns, attr).__wrapped__ is original, (ns, attr)
    for (ns, attr), original in zip(targets, originals):
        assert getattr(ns, attr) is original, (ns, attr)


def test_corpus_installed_wraps_parse_dataset_and_restores_it():
    tracer = load_tracing().Tracer()
    original = delib.corpus.parse_dataset
    with tracer.corpus_installed():
        assert delib.corpus.parse_dataset.__wrapped__ is original
    assert delib.corpus.parse_dataset is original


def test_instrument_backend_traces_a_completion():
    tracer = load_tracing().Tracer()
    backend = mock_backend(default='{"deliberative": 1}')
    tracer.instrument_backend(backend)
    result = backend.complete([{"role": "user", "content": "We should act."}])
    assert result.text == '{"deliberative": 1}'
    count, _total, _own = tracer.totals()
    assert {name: count[name] for name in ("gateway.complete", "gateway.cache_get",
                                           "gateway.cache_put", "gateway.transport")} \
        == {"gateway.complete": 1, "gateway.cache_get": 1, "gateway.cache_put": 1,
            "gateway.transport": 1}
