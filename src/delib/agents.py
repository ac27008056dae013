"""Multi-agent orchestrations: majority vote, predictor-critic-judge, and
the disagreement-flip analysis over judge-decided traces."""
from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import Corpus, Sentence
from .errors import DataError
# classify and the render_* functions stay importable here: perfbench/tracing.py
# wraps them by these names.
from .gateway import ChatBackend, Steps, classify, classify_steps, drive
from .prompting import (PromptBundle, render_cot, render_cot_few_shot, render_prompt,
                        render_zero_shot)
from .templates import DEFAULT_TEMPLATES, TemplateSet

log = logging.getLogger(__name__)

PREDICTOR = "PREDICTOR"
SECOND = "SECOND"
CRITIC = "CRITIC"
JUDGE = "JUDGE"

AGREEMENT = "AGREEMENT"
TIEBREAK = "TIEBREAK"
CRITIC_ACCEPTED = "CRITIC_ACCEPTED"
JUDGE_DECIDED = "JUDGE_DECIDED"
RESOLUTIONS = (AGREEMENT, TIEBREAK, CRITIC_ACCEPTED, JUDGE_DECIDED)


def _is_label(value) -> bool:
    return type(value) is int and 0 <= value <= 1


class OrchestrationFailure(Exception):
    """An agent step hit a schema failure; the sentence gets a failure record."""

    def __init__(self, sentence_id: str, role: str, reason: str):
        super().__init__(f"{role} schema failure on {sentence_id}: {reason}")
        self.sentence_id = sentence_id
        self.role = role
        self.reason = reason


@dataclass
class AgentStep:
    role: str
    prompt_digest: str
    output: dict
    raw_digest: str
    label: int

    def to_dict(self) -> dict:
        return {"role": self.role, "prompt_digest": self.prompt_digest,
                "output": self.output, "raw_digest": self.raw_digest,
                "label": self.label}

    @classmethod
    def from_dict(cls, d) -> "AgentStep":
        """The step d holds; TypeError unless d is an object with a str role
        and digests, an object output and a label of 0 or 1."""
        if not (type(d) is dict and _is_label(d.get("label"))
                and type(d.get("output")) is dict
                and all(type(d.get(k)) is str for k in ("role", "prompt_digest", "raw_digest"))):
            raise TypeError("a step is not an agent step: it needs a str role and digests, "
                            "an object output and a label of 0 or 1")
        return cls(role=d["role"], prompt_digest=d["prompt_digest"],
                   output=d["output"], raw_digest=d["raw_digest"], label=d["label"])


@dataclass
class AgentTrace:
    sentence_id: str
    steps: list[AgentStep]
    final_label: int
    resolution: str

    def to_dict(self) -> dict:
        return {"sentence_id": self.sentence_id,
                "steps": [s.to_dict() for s in self.steps],
                "final_label": self.final_label, "resolution": self.resolution}

    @classmethod
    def from_dict(cls, d) -> "AgentTrace":
        """The trace d holds; TypeError unless d is an object with a str
        sentence_id, a list of at least two steps (see AgentStep.from_dict), a
        final_label of 0 or 1 and a known resolution."""
        if not (type(d) is dict and type(d.get("sentence_id")) is str
                and type(d.get("steps")) is list and len(d["steps"]) >= 2
                and _is_label(d.get("final_label")) and d.get("resolution") in RESOLUTIONS):
            raise TypeError("not an agent trace: it needs a str sentence_id, a list of at "
                            "least two steps, a final_label of 0 or 1 and a known resolution")
        return cls(sentence_id=d["sentence_id"],
                   steps=[AgentStep.from_dict(s) for s in d["steps"]],
                   final_label=d["final_label"], resolution=d["resolution"])


@dataclass
class DisagreementReport:
    n_disagreements: int = 0
    judge_followed_critic: int = 0
    # (from_label, to_label, gold) -> count, over judge-followed-critic flips
    flips: dict = field(default_factory=dict)

    @property
    def corrected_to_nondeliberative(self) -> int:
        return sum(n for (f, t, _g), n in self.flips.items() if f == 1 and t == 0)

    @property
    def corrected_to_deliberative(self) -> int:
        return sum(n for (f, t, _g), n in self.flips.items() if f == 0 and t == 1)

    @property
    def true_positives_flagged_false(self) -> int:
        return self.flips.get((1, 0, 1), 0)

    @property
    def false_positives_caught(self) -> int:
        return self.flips.get((1, 0, 0), 0)

    def to_dict(self) -> dict:
        return {
            "n_disagreements": self.n_disagreements,
            "judge_followed_critic": self.judge_followed_critic,
            "flips": {f"{f}->{t} gold={g}": n for (f, t, g), n in sorted(self.flips.items())},
            "corrected_to_nondeliberative": self.corrected_to_nondeliberative,
            "corrected_to_deliberative": self.corrected_to_deliberative,
            "true_positives_flagged_false": self.true_positives_flagged_false,
            "false_positives_caught": self.false_positives_caught,
        }


def _agent_step(role: str, bundle: PromptBundle, repair_policy: str) -> Steps:
    """Steps of one agent; returns (AgentStep, ParsedPrediction)."""
    outcome = yield from classify_steps(bundle, repair_policy)
    if outcome.prediction is None:
        raise OrchestrationFailure(bundle.sentence_id, role, outcome.failure)
    pred = outcome.prediction
    output = {"label": pred.label}
    if pred.step1 is not None:
        output["step1"] = pred.step1
        output["step2"] = pred.step2
    output.update(pred.extra)
    raw_digest = hashlib.sha256(outcome.completion.text.encode()).hexdigest()[:16]
    return AgentStep(role=role, prompt_digest=bundle.digest(), output=output,
                     raw_digest=raw_digest, label=pred.label), pred


def majority_vote_steps(sentence: Sentence, templates: TemplateSet = DEFAULT_TEMPLATES,
                        repair_policy: str = "LENIENT", *, first: PromptBundle) -> Steps:
    """Step generator for run_majority_vote(); returns the AgentTrace.
    first is the first vote's prompt."""
    step1, pred1 = yield from _agent_step(PREDICTOR, first, repair_policy)
    second_bundle = render_prompt("vote_second", sentence, templates, first_label=pred1.label)
    step2, pred2 = yield from _agent_step(SECOND, second_bundle, repair_policy)
    if pred1.label == pred2.label:
        return AgentTrace(sentence_id=sentence.id, steps=[step1, step2],
                          final_label=pred1.label, resolution=AGREEMENT)
    tiebreak_bundle = render_prompt("vote_tiebreak", sentence, templates,
                                    first_label=pred1.label, second_label=pred2.label)
    step3, pred3 = yield from _agent_step(JUDGE, tiebreak_bundle, repair_policy)
    return AgentTrace(sentence_id=sentence.id, steps=[step1, step2, step3],
                      final_label=pred3.label, resolution=TIEBREAK)


def run_majority_vote(sentence: Sentence, backend: ChatBackend) -> AgentTrace:
    """Two zero-shot-style votes; a third agent breaks ties. LENIENT, with
    the bundled templates."""
    return drive(majority_vote_steps(sentence, first=render_zero_shot(sentence)),
                 backend.complete)


def predictor_critic_judge_steps(
        sentence: Sentence, templates: TemplateSet = DEFAULT_TEMPLATES,
        repair_policy: str = "LENIENT", *, first: PromptBundle) -> Steps:
    """Step generator for run_predictor_critic_judge(); returns the AgentTrace.
    first is the predictor's prompt."""
    step_p, pred = yield from _agent_step(PREDICTOR, first, repair_policy)

    critic_bundle = render_prompt("critic", sentence, templates, step1=pred.step1,
                                  step2=pred.step2, predictor_label=pred.label)
    step_c, critic = yield from _agent_step(CRITIC, critic_bundle, repair_policy)

    assessment = critic.extra.get("assessment")
    if assessment == "sound" and critic.label != pred.label:
        # A sound assessment endorses the prediction; the contradicting
        # combination is a schema violation under STRICT and is normalized
        # to flawed under LENIENT.
        if repair_policy == "STRICT":
            raise OrchestrationFailure(sentence.id, CRITIC,
                                       "sound assessment with contradicting suggestion")
        log.warning("critic on %s: sound assessment with contradicting "
                    "suggestion, normalized to flawed", sentence.id)
        step_c.output["assessment"] = assessment = "flawed"

    if critic.label == pred.label:
        return AgentTrace(sentence_id=sentence.id, steps=[step_p, step_c],
                          final_label=pred.label, resolution=CRITIC_ACCEPTED)

    judge_bundle = render_prompt("judge", sentence, templates, step1=pred.step1,
                                 step2=pred.step2, predictor_label=pred.label,
                                 assessment=assessment, issues=critic.extra.get("issues", ""),
                                 critic_label=critic.label)
    step_j, judge = yield from _agent_step(JUDGE, judge_bundle, repair_policy)
    return AgentTrace(sentence_id=sentence.id, steps=[step_p, step_c, step_j],
                      final_label=judge.label, resolution=JUDGE_DECIDED)


def run_predictor_critic_judge(sentence: Sentence, backend: ChatBackend) -> AgentTrace:
    """CoT predictor, critic review, judge only on disagreement. LENIENT,
    with the bundled templates."""
    return drive(predictor_critic_judge_steps(sentence, first=render_cot(sentence)),
                 backend.complete)


#: The step generator of each VariantSpec.agents orchestration.
ORCHESTRATIONS = {"vote": majority_vote_steps, "critic": predictor_critic_judge_steps}


def analyze_disagreements(traces: Sequence[AgentTrace], corpus: Corpus) -> DisagreementReport:
    """Over judge-decided traces: how often the judge followed the critic,
    with each resulting label flip classified by direction and gold."""
    gold = {s.id: s.gold_label for s in corpus.sentences}
    report = DisagreementReport()
    for trace in traces:
        if trace.resolution != JUDGE_DECIDED:
            continue
        if trace.sentence_id not in gold:
            raise DataError(f"trace for unknown sentence id: {trace.sentence_id}")
        report.n_disagreements += 1
        predictor_label = trace.steps[0].label
        critic_label = trace.steps[1].label
        if trace.final_label == critic_label:
            report.judge_followed_critic += 1
            key = (predictor_label, trace.final_label, gold[trace.sentence_id])
            report.flips[key] = report.flips.get(key, 0) + 1
    return report
