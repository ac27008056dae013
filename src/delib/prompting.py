"""The prompting variants, their prompt rendering and example selection."""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Literal, Mapping, Sequence

from .corpus import Corpus, Sentence
from .errors import DataError
from .gateway import SystemStates, classify_steps, drive
from .templates import DEFAULT_TEMPLATES, TemplateSet


class Variant(str, Enum):
    ZERO_SHOT = "ZERO_SHOT"
    FEW_SHOT = "FEW_SHOT"
    FEW_SHOT_ERROR = "FEW_SHOT_ERROR"
    COT = "COT"
    COT_FEW_SHOT_ERROR = "COT_FEW_SHOT_ERROR"
    MULTI_AGENT = "MULTI_AGENT"
    COT_MULTI_AGENT = "COT_MULTI_AGENT"
    COT_FEW_SHOT_ERROR_MULTI_AGENT = "COT_FEW_SHOT_ERROR_MULTI_AGENT"


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str
    expected_schema: str
    sentence_id: str

    def digest(self) -> str:
        """sha256(f"{system}\\x00{user}") in 16 hex digits, resumed from a
        state that has absorbed the system prompt and the separator."""
        state = _AFTER_SYSTEM.get(self.system)
        if state is None:
            state = _AFTER_SYSTEM.keep(self.system,
                                       hashlib.sha256(f"{self.system}\x00".encode()))
        state = state.copy()
        state.update(self.user.encode())
        return state.hexdigest()[:16]


_AFTER_SYSTEM = SystemStates()


@dataclass(frozen=True)
class Example:
    sentence: Sentence
    reasoning: Mapping[str, str] | None = None  # {"step1": ..., "step2": ...}


def _label_name(label: int) -> str:
    return "ALWAYS DELIBERATIVE" if label else "NOT ALWAYS DELIBERATIVE"


@dataclass(frozen=True)
class ExampleSet:
    """The examples for one target batch and their prompt block, rendered
    once for every sentence of the batch."""
    examples: Sequence[Example]
    block: str

    @classmethod
    def few_shot(cls, examples: Sequence[Example],
                 templates: TemplateSet = DEFAULT_TEMPLATES) -> "ExampleSet":
        return cls(examples, "\n".join(
            templates.render("example_line", text=ex.sentence.text,
                             label_name=_label_name(ex.sentence.gold_label),
                             label=ex.sentence.gold_label)
            for ex in examples))

    @classmethod
    def cot(cls, examples: Sequence[Example],
            templates: TemplateSet = DEFAULT_TEMPLATES) -> "ExampleSet":
        blocks = []
        for ex in examples:
            if not ex.reasoning:
                raise DataError(f"example {ex.sentence.id} is missing generated reasoning")
            blocks.append(templates.render(
                "cot_example_block", text=ex.sentence.text,
                step1=ex.reasoning["step1"], step2=ex.reasoning["step2"],
                label_name=_label_name(ex.sentence.gold_label), label=ex.sentence.gold_label))
        return cls(examples, "\n\n".join(blocks))


#: kind -> (system template, user template, expected schema) of each prompt
#: the package sends.
PROMPTS: dict[str, tuple[str, str, str]] = {
    "zero_shot": ("zero_shot.system", "zero_shot.user", "SIMPLE"),
    "few_shot": ("few_shot.system", "few_shot.user", "SIMPLE"),
    "cot": ("cot.system", "cot.user", "COT"),
    "cot_few_shot": ("cot.system", "cot_few_shot.user", "COT"),
    "reasoning": ("reasoning.system", "reasoning.user", "COT"),
    "vote_second": ("vote_second.system", "vote_second.user", "SIMPLE"),
    "vote_tiebreak": ("vote_tiebreak.system", "vote_tiebreak.user", "SIMPLE"),
    "critic": ("critic.system", "critic.user", "CRITIC"),
    "judge": ("judge.system", "judge.user", "JUDGE"),
}


def render_prompt(kind: str, sentence: Sentence, templates: TemplateSet,
                  **values) -> PromptBundle:
    """The PROMPTS[kind] prompt about sentence; values fill the user
    template's placeholders other than {{sentence}}."""
    system, user, schema = PROMPTS[kind]
    return PromptBundle(
        system=templates.render(system),
        user=templates.render(user, sentence=sentence.text, **values),
        expected_schema=schema,
        sentence_id=sentence.id,
    )


# The render_* functions and the blocking twins below (generate_example_reasoning,
# reasoned_examples) render with the bundled templates: perfbench/tracing.py
# wraps them by name. A run renders through VARIANTS and its step generators.

def render_zero_shot(sentence: Sentence) -> PromptBundle:
    return render_prompt("zero_shot", sentence, DEFAULT_TEMPLATES)


def render_few_shot(sentence: Sentence, examples: Sequence[Example]) -> PromptBundle:
    return VARIANTS[Variant.FEW_SHOT].prompt(
        sentence, ExampleSet.few_shot(examples), DEFAULT_TEMPLATES)


def render_cot(sentence: Sentence) -> PromptBundle:
    return render_prompt("cot", sentence, DEFAULT_TEMPLATES)


def render_cot_few_shot(sentence: Sentence, examples: Sequence[Example]) -> PromptBundle:
    return VARIANTS[Variant.COT_FEW_SHOT_ERROR].prompt(
        sentence, ExampleSet.cot(examples), DEFAULT_TEMPLATES)


@dataclass(frozen=True)
class VariantSpec:
    """What a prompting variant does for one sentence.

    first is the PROMPTS kind of the single agent's prompt, or the first
    agent's. examples is the few-shot pool of each target batch: None,
    "random", "error" (the zero-shot run's mistakes) or "reasoned_error"
    (those with generated CoT reasoning). agents is the orchestration: None
    for a single agent, "vote" (majority vote) or "critic"
    (predictor-critic-judge).
    """
    first: str
    examples: Literal["random", "error", "reasoned_error"] | None = None
    agents: Literal["vote", "critic"] | None = None

    @property
    def needs_zero_shot(self) -> bool:
        """The example pool is built from a zero-shot run's predictions."""
        return self.examples in ("error", "reasoned_error")

    def prompt(self, sentence: Sentence, example_set: ExampleSet | None,
               templates: TemplateSet) -> PromptBundle:
        """The first agent's prompt; example_set is None without a pool."""
        if self.examples is None:
            return render_prompt(self.first, sentence, templates)
        if not example_set.examples:
            raise DataError(f"render_{self.first}: no examples supplied")
        for ex in example_set.examples:
            if ex.sentence.batch == sentence.batch:
                raise DataError(
                    f"example {ex.sentence.id} comes from the target batch {sentence.batch}")
        return render_prompt(self.first, sentence, templates, examples=example_set.block)


#: One spec per variant, in dependency order: ZERO_SHOT comes before every
#: variant that needs a zero-shot run.
VARIANTS: dict[Variant, VariantSpec] = {
    Variant.ZERO_SHOT: VariantSpec("zero_shot"),
    Variant.FEW_SHOT: VariantSpec("few_shot", examples="random"),
    Variant.FEW_SHOT_ERROR: VariantSpec("few_shot", examples="error"),
    Variant.COT: VariantSpec("cot"),
    Variant.COT_FEW_SHOT_ERROR: VariantSpec("cot_few_shot", examples="reasoned_error"),
    Variant.MULTI_AGENT: VariantSpec("zero_shot", agents="vote"),
    Variant.COT_MULTI_AGENT: VariantSpec("cot", agents="critic"),
    Variant.COT_FEW_SHOT_ERROR_MULTI_AGENT: VariantSpec(
        "cot_few_shot", examples="reasoned_error", agents="critic"),
}


def _shuffled_candidates(corpus: Corpus, target_batch: str, k: int, seed: int,
                         pool: Sequence[Sentence] | None) -> list[Sentence]:
    """The candidate sentences from batches other than the target, in
    seeded order: the whole corpus for pool=None, else the pool (e.g. the
    error pool). The order depends only on the number of candidates. Fewer
    than k raises DataError."""
    candidates = [s for s in (corpus.sentences if pool is None else pool)
                  if s.batch != target_batch]
    if len(candidates) < k:
        raise DataError(
            f"insufficient example pool for batch {target_batch}: "
            f"need {k}, have {len(candidates)}")
    random.Random(seed).shuffle(candidates)
    return candidates


def select_few_shot_examples(
    corpus: Corpus,
    target_batch: str,
    k: int,
    seed: int,
    pool: Sequence[Sentence] | None = None,
) -> list[Example]:
    """Sample k examples without replacement from batches other than the
    target, with a seeded generator for reproducibility.

    pool=None draws from the whole corpus; otherwise pool is a list of
    candidate sentences (e.g. the error pool), filtered to non-target batches.
    """
    return [Example(s) for s in _shuffled_candidates(corpus, target_batch, k, seed, pool)[:k]]


def build_error_pool(
    zero_shot_run: Mapping[str, int | None],
    corpus: Corpus,
    target_batch: str,
) -> list[Sentence]:
    """Sentences from non-target batches the zero-shot run got wrong, in
    corpus order.

    zero_shot_run maps sentence id to the predicted label (None marks a
    schema failure, which neither errors nor joins the pool). Every
    non-target batch must be covered by the run.
    """
    uncovered = sorted({
        s.batch for s in corpus.sentences
        if s.batch != target_batch and s.id not in zero_shot_run})
    if uncovered:
        raise DataError(
            "zero-shot run does not cover batches: " + ", ".join(uncovered))
    return [s for s in corpus.sentences
            if s.batch != target_batch and zero_shot_run[s.id] not in (None, s.gold_label)]


def render_reasoning_prompt(example: Example, templates: TemplateSet = DEFAULT_TEMPLATES,
                            attempt: int = 0) -> PromptBundle:
    label = example.sentence.gold_label
    bundle = render_prompt("reasoning", example.sentence, templates,
                           label_name=_label_name(label), label=label)
    if attempt:
        # Changes the cache key so the retry is not served the cached
        # contradicting response.
        bundle = replace(bundle, user=f"{bundle.user}\n\n(retry {attempt})")
    return bundle


def example_reasoning_steps(example: Example, templates: TemplateSet = DEFAULT_TEMPLATES):
    """Step generator for generate_example_reasoning(); returns the reasoned
    example, or None when it is excluded. Responses parse LENIENT under
    either repair policy of the run the example serves."""
    for attempt in (0, 1):
        bundle = render_reasoning_prompt(example, templates, attempt=attempt)
        outcome = yield from classify_steps(bundle)
        pred = outcome.prediction
        if pred is not None and pred.label == example.sentence.gold_label:
            return replace(example, reasoning={"step1": pred.step1, "step2": pred.step2})
    return None


def generate_example_reasoning(example: Example, backend) -> Example | None:
    """Elicit step1/step2 reasoning consistent with the example's gold label.

    Responses come through the backend's persistent cache, so repeat calls
    for the same (model, example) are free. A response whose concluding
    label contradicts gold is retried once; a second contradiction flags
    the example as excluded (returns None).
    """
    return drive(example_reasoning_steps(example), backend.complete)


def reasoned_examples_steps(
    corpus: Corpus,
    target_batch: str,
    k: int,
    seed: int,
    pool: Sequence[Sentence] | None = None,
    templates: TemplateSet = DEFAULT_TEMPLATES,
):
    """Step generator for reasoned_examples(); returns the examples."""
    out: list[Example] = []
    for candidate in _shuffled_candidates(corpus, target_batch, k, seed, pool):
        example = yield from example_reasoning_steps(Example(candidate), templates)
        if example is not None:
            out.append(example)
            if len(out) == k:
                return out
    raise DataError(
        f"insufficient example pool for batch {target_batch} after reasoning "
        f"exclusions: need {k}, have {len(out)}")


def reasoned_examples(corpus: Corpus, target_batch: str, k: int, seed: int,
                      backend) -> list[Example]:
    """First k candidates of the whole corpus (seeded order) with valid
    generated reasoning.

    Candidates whose reasoning contradicts gold twice are skipped, keeping
    selection deterministic for a fixed (corpus, batch, k, seed, backend).
    """
    return drive(reasoned_examples_steps(corpus, target_batch, k, seed), backend.complete)
