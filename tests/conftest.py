import json
import os

import pytest
from hypothesis import settings

from delib.corpus import Corpus, Sentence, sentence_id
from delib.gateway import MockRule
from delib.runner import load_manifest

# HYPOTHESIS_PROFILE=ci runs each hypothesis test that sets no example count
# of its own 1000 times: CI runs the fast-path reference tests so.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Batch shapes of the annotated White House corpus: (n_sentences, n_ad).
# Note: the published table's batch rows sum to 4,504 sentences while its
# printed grand total says 4,502; the AD counts sum consistently to 1,291.
# The stand-in corpus follows the finer-grained batch rows.
FULL_SHAPE = {
    "K1": (1262, 270),
    "K2": (992, 411),
    "K3": (1522, 400),
    "R4": (728, 210),
    "K5": (300, 24),  # excluded downstream for class imbalance
}
KEPT_BATCHES = ("K1", "K2", "K3", "R4")
TOTAL_KEPT = sum(FULL_SHAPE[b][0] for b in KEPT_BATCHES)  # 4,504
TOTAL_KEPT_AD = sum(FULL_SHAPE[b][1] for b in KEPT_BATCHES)  # 1,291


def make_sentence(text: str, batch: str = "K1", label: int = 0) -> Sentence:
    return Sentence(id=sentence_id(batch, text), batch=batch, text=text,
                    gold_label=label)


def build_corpus(rows):
    """rows: iterable of (text, batch, label)."""
    return Corpus(sentences=[make_sentence(t, b, l) for t, b, l in rows])


def synthetic_full_rows():
    for batch, (n, n_ad) in FULL_SHAPE.items():
        for i in range(n):
            if i < n_ad:
                yield (f"We should revise option {i} for {batch}.", batch, 1)
            else:
                yield (f"The office processed case {i} for {batch}.", batch, 0)


@pytest.fixture(scope="session")
def full_corpus():
    """Synthetic corpus with the exact published batch volumes and AD counts
    (the public dataset itself is not vendored)."""
    return build_corpus(synthetic_full_rows())


@pytest.fixture(scope="session")
def full_corpus_jsonl(full_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "full.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for s in full_corpus.sentences:
            fh.write(json.dumps({"id": s.id, "batch": s.batch, "text": s.text,
                                 "label": s.gold_label}) + "\n")
    return path


@pytest.fixture
def small_corpus():
    return build_corpus([
        ("We should consider the new proposal.", "K1", 1),
        ("The meeting happened on Tuesday.", "K1", 0),
        ("I think this approach is wrong.", "K2", 1),
        ("The budget was approved last year.", "K2", 0),
        ("We could expand the program soon.", "K3", 1),
        ("The report lists four options.", "K3", 0),
    ])


def universal_mock_rules(simple_label: int = 1, cot_label: int = 1,
                         critic_agrees: bool = True, judge_label: int = 0):
    """Scripted rules covering every prompt kind in the pipeline.

    The reasoning-elicitation rule restates the known-correct label it is
    shown; the critic either endorses the predictor's label or contradicts
    it; everything else answers a constant.
    """
    def reasoning_response(messages):
        user = messages[-1]["content"]
        label = user.rsplit("(deliberative=", 1)[1][0]
        return json.dumps({"step1": "pre", "step2": "del", "deliberative": int(label)})

    def critic_response(messages):
        user = messages[-1]["content"]
        label = int(user.rsplit("Predictor's label: deliberative=", 1)[1][0])
        if critic_agrees:
            return json.dumps({"assessment": "sound", "issues": "none",
                               "suggestion": label})
        return json.dumps({"assessment": "flawed", "issues": "weak step2",
                           "suggestion": 1 - label})

    return [
        MockRule(pattern=r"Known-correct label:", response=reasoning_response),
        MockRule(pattern=r'"assessment"', response=critic_response),
        MockRule(pattern=r'"rationale"', response=json.dumps(
            {"rationale": "judged", "deliberative": judge_label})),
        MockRule(pattern=r'"step1"', response=json.dumps(
            {"step1": "pre", "step2": "del", "deliberative": cot_label})),
        MockRule(pattern=r".", response=json.dumps({"deliberative": simple_label})),
    ]


class StopRun(Exception):
    """Raised by a raise_after() callback to stop a run."""


def raise_after(n, exc=StopRun):
    """A run_variant progress callback that raises exc once n records are
    written, as an interrupt or a crash would stop the run."""
    def progress(done, _total):
        if done == n:
            raise exc
    return progress


def stopped_manifest(runs_dir):
    """The manifest of the only run in runs_dir, after checking that its
    n_records is the number of lines in its records.jsonl."""
    (run_dir,) = runs_dir.iterdir()
    manifest = load_manifest(run_dir)
    lines = (run_dir / "records.jsonl").read_bytes().splitlines()
    assert manifest.n_records == len(lines)
    return manifest
