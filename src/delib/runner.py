"""Experiment execution: one run = (variant, backend, corpus scope).

Storage is plain files under runs/<run_id>/: manifest.json plus
records.jsonl with one PredictionRecord per sentence. Interrupted runs
resume by skipping sentences that already have records; combined with the
response cache this makes a run a checkpointed pure map.
"""
from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

# classify, run_majority_vote, run_predictor_critic_judge, reasoned_examples
# and the render_* functions stay importable here: perfbench/tracing.py wraps
# them by these names. A run renders through VARIANTS and each batch's
# ExampleSet.
from .agents import (ORCHESTRATIONS, OrchestrationFailure, run_majority_vote,
                     run_predictor_critic_judge)
from .corpus import Corpus
from .dispatch import run_window
from .errors import DataError
from .gateway import ChatBackend, Steps, classify, classify_steps
from .parsing import dumps_canonical, read_json, read_jsonl, replace_text
from .prompting import (VARIANTS, ExampleSet, Variant, build_error_pool, reasoned_examples,
                        reasoned_examples_steps, render_cot, render_cot_few_shot,
                        render_few_shot, render_zero_shot, select_few_shot_examples)
from .templates import DEFAULT_TEMPLATES, TemplateSet

log = logging.getLogger(__name__)


@dataclass
class RunManifest:
    run_id: str
    variant: str
    backend_digest: str
    backend_name: str
    corpus_digest: str
    template_version: str
    seed: int
    k: int
    batches: list[str]
    repair_policy: str
    started_at: str = ""
    finished_at: str = ""
    dispatched: int = 0
    cached: int = 0
    schema_failures: int = 0
    n_records: int = 0
    status: str = "running"

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        """The manifest d holds; TypeError unless d has exactly its fields,
        each of its annotated type."""
        manifest = cls(**d)
        for f in fields(cls):
            value = getattr(manifest, f.name)
            if f.type == "list[str]":
                typed = type(value) is list and all(type(v) is str for v in value)
            else:
                typed = type(value).__name__ == f.type
            if not typed:
                raise TypeError(f"{f.name} is not a {f.type}")
        return manifest


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def compute_run_id(variant: Variant, backend_digest: str, corpus_digest: str,
                   seed: int, k: int, template_version: str,
                   repair_policy: str, scope: Sequence[str] | None = None) -> str:
    """scope: the sorted batches of a run over part of the corpus; None (or
    empty) for the whole corpus, whose run ids it leaves unchanged."""
    fields = [variant.value, backend_digest, corpus_digest, seed,
              k, template_version, repair_policy]
    if scope:
        fields.append(list(scope))
    payload = json.dumps(fields)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:10]
    return f"{variant.value.lower()}-{digest}"


def _is_record(record) -> bool:
    """An object with a str sentence_id and a final_label of 0, 1 or null."""
    if type(record) is not dict or type(record.get("sentence_id")) is not str:
        return False
    label = record.get("final_label", "")
    return label is None or (type(label) is int and 0 <= label <= 1)


def _iter_records(run_dir: str | Path) -> Iterator[dict]:
    """The records of a run's records.jsonl in file order, skipping blank lines;
    a line that is not one record (see _is_record) raises DataError naming it."""
    path = Path(run_dir) / "records.jsonl"
    if not path.is_file():
        return
    for line_no, record in read_jsonl(
            path, "; if the run was interrupted, resuming it repairs the file"):
        if not _is_record(record):
            raise DataError(
                f"{path}: line {line_no} is not a prediction record: it needs a "
                "string sentence_id and a final_label of 0, 1 or null")
        yield record


def load_records(run_dir: str | Path) -> dict[str, dict]:
    return {record["sentence_id"]: record for record in _iter_records(run_dir)}


def _truncate_torn_tail(path: Path) -> None:
    """Cut an unterminated last line, left by a write the process did not
    finish, so that appending resumes on a line boundary."""
    if not path.is_file():
        return
    with path.open("rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            log.warning("%s: dropping a torn last line of %d bytes", path, len(data) - end)
            fh.truncate(end)


def load_manifest(run_dir: str | Path) -> RunManifest:
    path = Path(run_dir) / "manifest.json"
    if not path.is_file():
        raise DataError(f"no manifest in {run_dir}")
    try:
        return RunManifest.from_dict(read_json(path))
    except TypeError as exc:  # not the manifest's fields
        raise DataError(f"{path}: not a run manifest: {exc}") from exc


def load_predictions(run_dir: str | Path) -> dict[str, int | None]:
    """sentence id -> final label, None for schema failures."""
    return {record["sentence_id"]: record["final_label"]
            for record in _iter_records(run_dir)}


def _seed_for_batch(seed: int, batch: str) -> int:
    digest = hashlib.sha256(f"{seed}:{batch}".encode()).hexdigest()
    return int(digest[:8], 16)


def _batch_examples_steps(
    variant: Variant, corpus: Corpus, batch: str, k: int, seed: int,
    templates: TemplateSet, zero_shot_predictions: Mapping[str, int | None] | None,
) -> Steps:
    """Steps of the example set for one target batch, per the variant's pool
    rules; returns the ExampleSet, or None for variants without examples."""
    spec = VARIANTS[variant]
    if spec.examples is None:
        return None
    batch_seed = _seed_for_batch(seed, batch)
    pool = (build_error_pool(zero_shot_predictions, corpus, batch)
            if spec.needs_zero_shot else None)
    if spec.examples == "reasoned_error":
        examples = yield from reasoned_examples_steps(corpus, batch, k, batch_seed,
                                                      pool=pool, templates=templates)
        return ExampleSet.cot(examples, templates)
    return ExampleSet.few_shot(
        select_few_shot_examples(corpus, batch, k, batch_seed, pool=pool), templates)


def run_variant(
    corpus: Corpus,
    variant: Variant,
    backend: ChatBackend,
    runs_dir: str | Path,
    batches: Sequence[str] | None = None,
    k: int = 5,
    seed: int = 0,
    repair_policy: str = "LENIENT",
    templates: TemplateSet = DEFAULT_TEMPLATES,
    zero_shot_run_dir: str | Path | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> RunManifest:
    """Execute one variant over the sentences of `batches` (None: the whole
    corpus), resumably; examples come from the corpus's other batches. A
    batch the corpus does not hold raises DataError.

    Error-based variants require zero_shot_run_dir pointing at a completed
    zero-shot run for the same backend. An exception that stops the run,
    KeyboardInterrupt too, marks the manifest `interrupted` and propagates.

    The example set of every batch to dispatch is built first, so a
    failure to build one stops the run before it writes any record. Then
    backend calls for several sentences may be in flight at once (up to the
    backend's max_in_flight), but records are written in scope order and
    are the same as when sentences are dispatched one at a time. The
    manifest's `cached` is the number of completions the backend's cache
    answered during this call.
    """
    if k < 1:
        raise DataError(f"k must be at least 1, got {k}")
    wanted = None if batches is None else set(batches)
    absent = [] if wanted is None else sorted(wanted - set(corpus.batches()))
    if absent:
        raise DataError(f"the corpus has no sentences of batches: {', '.join(absent)}")
    scope = [s for s in corpus.sentences if wanted is None or s.batch in wanted]
    if not scope:
        raise DataError("run scope contains no sentences")
    scope_batches = sorted({s.batch for s in scope})

    zero_shot_predictions = None
    if VARIANTS[variant].needs_zero_shot:
        if zero_shot_run_dir is None:
            raise DataError(
                f"variant {variant.value} requires a completed zero-shot run "
                "(--zero-shot-run)")
        found = load_manifest(zero_shot_run_dir).variant
        if found != Variant.ZERO_SHOT.value:
            raise DataError(
                f"variant {variant.value} requires a ZERO_SHOT run as its zero-shot "
                f"dependency, but {zero_shot_run_dir} is a {found} run")
        zero_shot_predictions = load_predictions(zero_shot_run_dir)
        if not zero_shot_predictions:
            raise DataError(f"zero-shot run at {zero_shot_run_dir} has no records")

    partial = len(scope_batches) < len(corpus.batches())
    backend_digest = backend.config.digest()
    corpus_digest = corpus.digest()
    template_version = templates.version
    run_id = compute_run_id(variant, backend_digest, corpus_digest,
                            seed, k, template_version, repair_policy,
                            scope_batches if partial else None)
    run_dir = Path(runs_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    records_path = run_dir / "records.jsonl"
    _truncate_torn_tail(records_path)
    existing = load_predictions(run_dir)

    manifest = RunManifest(
        run_id=run_id, variant=variant.value,
        backend_digest=backend_digest,
        backend_name=backend.config.name,
        corpus_digest=corpus_digest, template_version=template_version,
        seed=seed, k=k, batches=scope_batches, repair_policy=repair_policy,
        started_at=_now(), n_records=len(existing),
        schema_failures=sum(1 for label in existing.values() if label is None),
    )
    manifest_path = run_dir / "manifest.json"
    replace_text(manifest_path, json.dumps(manifest.to_dict(), indent=2))

    pending = [s for s in scope if s.id not in existing]
    hits = backend.hits

    def commit(record: dict) -> None:
        record["run_id"] = run_id
        records_fh.write(dumps_canonical(record) + "\n")
        manifest.dispatched += 1
        if record["final_label"] is None:
            manifest.schema_failures += 1
        manifest.n_records += 1
        if progress:
            progress(manifest.dispatched, len(pending))

    try:
        # the batches' example sets, built with their backend calls overlapped
        pending_batches = list(dict.fromkeys(s.batch for s in pending))
        example_sets: list[ExampleSet | None] = []
        run_window(backend, (_batch_examples_steps(variant, corpus, batch, k, seed, templates,
                                                   zero_shot_predictions)
                             for batch in pending_batches), example_sets.append)
        examples_by_batch = dict(zip(pending_batches, example_sets))
        with records_path.open("a", encoding="utf-8") as records_fh:
            run_window(backend, (_dispatch_steps(s, variant, examples_by_batch[s.batch],
                                                 templates, repair_policy) for s in pending),
                       commit)
        manifest.status = "finished"
        manifest.finished_at = _now()
    except BaseException:
        manifest.status = "interrupted"
        raise
    finally:
        manifest.cached = backend.hits - hits
        replace_text(manifest_path, json.dumps(manifest.to_dict(), indent=2))
    return manifest


def _dispatch_steps(sentence, variant: Variant, example_set: ExampleSet | None,
                    templates: TemplateSet, repair_policy: str) -> Steps:
    """Steps of one sentence under one variant; returns its record."""
    record: dict = {"sentence_id": sentence.id, "variant": variant.value}
    spec = VARIANTS[variant]
    bundle = spec.prompt(sentence, example_set, templates)

    if spec.agents:
        try:
            trace = yield from ORCHESTRATIONS[spec.agents](
                sentence, templates, repair_policy, first=bundle)
        except OrchestrationFailure as failure:
            record.update(final_label=None, failure=f"{failure.role}: {failure.reason}")
        else:
            record.update(final_label=trace.final_label, trace=trace.to_dict())
        return record

    outcome = yield from classify_steps(bundle, repair_policy)
    record["raw_digest"] = hashlib.sha256(outcome.completion.text.encode()).hexdigest()[:16]
    if outcome.prediction is None:
        record.update(final_label=None, failure=outcome.failure)
        return record
    pred = outcome.prediction
    record["final_label"] = pred.label
    record["repairs"] = pred.repairs
    if pred.step1 is not None:
        record["step1"] = pred.step1
        record["step2"] = pred.step2
    return record


def run_grid(corpus: Corpus, backend: ChatBackend, runs_dir: str | Path,
             **kwargs) -> dict[Variant, RunManifest]:
    """Run all eight variants in VARIANTS order, ZERO_SHOT first: the
    error-based variants take their examples from its run."""
    manifests: dict[Variant, RunManifest] = {}
    zero_shot_dir = None
    for variant in VARIANTS:
        manifests[variant] = run_variant(corpus, variant, backend, runs_dir,
                                         zero_shot_run_dir=zero_shot_dir, **kwargs)
        zero_shot_dir = Path(runs_dir) / manifests[Variant.ZERO_SHOT].run_id
    return manifests
