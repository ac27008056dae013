"""The prompting variants, their prompt rendering and example selection."""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from typing import Callable, Literal, Mapping, Sequence

from .corpus import Corpus, Sentence
from .errors import DataError
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
        payload = f"{self.system}\x00{self.user}".encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class Example:
    sentence: Sentence
    gold_label: int
    reasoning: Mapping[str, str] | None = None  # {"step1": ..., "step2": ...}


def _label_name(label: int) -> str:
    return "ALWAYS DELIBERATIVE" if label else "NOT ALWAYS DELIBERATIVE"


def render_zero_shot(sentence: Sentence, templates: TemplateSet = DEFAULT_TEMPLATES) -> PromptBundle:
    return PromptBundle(
        system=templates.render("zero_shot.system"),
        user=templates.render("zero_shot.user", sentence=sentence.text),
        expected_schema="SIMPLE",
        sentence_id=sentence.id,
    )


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
                             label_name=_label_name(ex.gold_label), label=ex.gold_label)
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
                label_name=_label_name(ex.gold_label), label=ex.gold_label))
        return cls(examples, "\n\n".join(blocks))


def render_few_shot(sentence: Sentence, examples: Sequence[Example],
                    templates: TemplateSet = DEFAULT_TEMPLATES) -> PromptBundle:
    return render_few_shot_with(sentence, ExampleSet.few_shot(examples, templates), templates)


def render_few_shot_with(sentence: Sentence, example_set: ExampleSet,
                         templates: TemplateSet = DEFAULT_TEMPLATES) -> PromptBundle:
    """render_few_shot() with the example block already rendered."""
    if not example_set.examples:
        raise DataError("render_few_shot: no examples supplied")
    _check_examples(sentence, example_set.examples)
    return PromptBundle(
        system=templates.render("few_shot.system"),
        user=templates.render("few_shot.user", examples=example_set.block,
                              sentence=sentence.text),
        expected_schema="SIMPLE",
        sentence_id=sentence.id,
    )


def render_cot(sentence: Sentence, templates: TemplateSet = DEFAULT_TEMPLATES) -> PromptBundle:
    return PromptBundle(
        system=templates.render("cot.system"),
        user=templates.render("cot.user", sentence=sentence.text),
        expected_schema="COT",
        sentence_id=sentence.id,
    )


def render_cot_few_shot(sentence: Sentence, examples: Sequence[Example],
                        templates: TemplateSet = DEFAULT_TEMPLATES) -> PromptBundle:
    return render_cot_few_shot_with(sentence, ExampleSet.cot(examples, templates), templates)


def render_cot_few_shot_with(sentence: Sentence, example_set: ExampleSet,
                             templates: TemplateSet = DEFAULT_TEMPLATES) -> PromptBundle:
    """render_cot_few_shot() with the example block already rendered."""
    if not example_set.examples:
        raise DataError("render_cot_few_shot: no examples supplied")
    _check_examples(sentence, example_set.examples)
    return PromptBundle(
        system=templates.render("cot.system"),
        user=templates.render("cot_few_shot.user", examples=example_set.block,
                              sentence=sentence.text),
        expected_schema="COT",
        sentence_id=sentence.id,
    )


def _check_examples(sentence: Sentence, examples: Sequence[Example]) -> None:
    for ex in examples:
        if ex.sentence.batch == sentence.batch:
            raise DataError(
                f"example {ex.sentence.id} comes from the target batch {sentence.batch}")


def _zero_shot_prompt(sentence: Sentence, _example_set: ExampleSet | None,
                      templates: TemplateSet) -> PromptBundle:
    return render_zero_shot(sentence, templates)


def _cot_prompt(sentence: Sentence, _example_set: ExampleSet | None,
                templates: TemplateSet) -> PromptBundle:
    return render_cot(sentence, templates)


@dataclass(frozen=True)
class VariantSpec:
    """What a prompting variant does for one sentence.

    prompt renders the single agent's prompt, or the first agent's, from
    (sentence, example_set, templates); example_set is None without a pool.
    examples is the few-shot pool of each target batch: None, "random",
    "error" (the zero-shot run's mistakes) or "reasoned_error" (those with
    generated CoT reasoning). agents is the orchestration: None for a single
    agent, "vote" (majority vote) or "critic" (predictor-critic-judge).
    """
    prompt: Callable[[Sentence, ExampleSet | None, TemplateSet], PromptBundle]
    examples: Literal["random", "error", "reasoned_error"] | None = None
    agents: Literal["vote", "critic"] | None = None

    @property
    def needs_zero_shot(self) -> bool:
        """The example pool is built from a zero-shot run's predictions."""
        return self.examples in ("error", "reasoned_error")


#: One spec per variant, in dependency order: ZERO_SHOT comes before every
#: variant that needs a zero-shot run.
VARIANTS: dict[Variant, VariantSpec] = {
    Variant.ZERO_SHOT: VariantSpec(_zero_shot_prompt),
    Variant.FEW_SHOT: VariantSpec(render_few_shot_with, examples="random"),
    Variant.FEW_SHOT_ERROR: VariantSpec(render_few_shot_with, examples="error"),
    Variant.COT: VariantSpec(_cot_prompt),
    Variant.COT_FEW_SHOT_ERROR: VariantSpec(render_cot_few_shot_with,
                                            examples="reasoned_error"),
    Variant.MULTI_AGENT: VariantSpec(_zero_shot_prompt, agents="vote"),
    Variant.COT_MULTI_AGENT: VariantSpec(_cot_prompt, agents="critic"),
    Variant.COT_FEW_SHOT_ERROR_MULTI_AGENT: VariantSpec(
        render_cot_few_shot_with, examples="reasoned_error", agents="critic"),
}


def _shuffled_candidates(corpus: Corpus, target_batch: str, k: int, seed: int,
                         pool: Sequence[Example] | None) -> list[Example]:
    """The candidates from batches other than the target, in seeded order:
    the whole corpus for pool=None, else the prebuilt pool (e.g. the error
    pool). Fewer than k raises DataError."""
    if pool is None:
        candidates = [Example(sentence=s, gold_label=s.gold_label)
                      for s in corpus.sentences if s.batch != target_batch]
    else:
        candidates = [ex for ex in pool if ex.sentence.batch != target_batch]
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
    pool: Sequence[Example] | None = None,
) -> list[Example]:
    """Sample k examples without replacement from batches other than the
    target, with a seeded generator for reproducibility.

    pool=None draws from the whole corpus; otherwise pool is a prebuilt
    candidate list (e.g. the error pool), filtered to non-target batches.
    """
    return _shuffled_candidates(corpus, target_batch, k, seed, pool)[:k]


def build_error_pool(
    zero_shot_run: Mapping[str, int | None],
    corpus: Corpus,
    target_batch: str,
) -> list[Example]:
    """Sentences from non-target batches the zero-shot run got wrong.

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
    pool = []
    for s in corpus.sentences:
        if s.batch == target_batch:
            continue
        pred = zero_shot_run[s.id]
        if pred is not None and pred != s.gold_label:
            pool.append(Example(sentence=s, gold_label=s.gold_label))
    return pool


def render_reasoning_prompt(example: Example, templates: TemplateSet = DEFAULT_TEMPLATES,
                            attempt: int = 0) -> PromptBundle:
    user = templates.render("reasoning.user", sentence=example.sentence.text,
                            label_name=_label_name(example.gold_label),
                            label=example.gold_label)
    if attempt:
        # Changes the cache key so the retry is not served the cached
        # contradicting response.
        user += f"\n\n(retry {attempt})"
    return PromptBundle(
        system=templates.render("reasoning.system"),
        user=user,
        expected_schema="COT",
        sentence_id=example.sentence.id,
    )


def example_reasoning_steps(example: Example, templates: TemplateSet = DEFAULT_TEMPLATES,
                            repair_policy: str = "LENIENT"):
    """Step generator for generate_example_reasoning(); returns the reasoned
    example, or None when it is excluded."""
    from .gateway import classify_steps  # local import to avoid a cycle

    for attempt in (0, 1):
        bundle = render_reasoning_prompt(example, templates, attempt=attempt)
        outcome = yield from classify_steps(bundle, repair_policy)
        pred = outcome.prediction
        if pred is not None and pred.label == example.gold_label:
            return replace(example, reasoning={"step1": pred.step1, "step2": pred.step2})
    return None


def generate_example_reasoning(example: Example, backend,
                               templates: TemplateSet = DEFAULT_TEMPLATES,
                               repair_policy: str = "LENIENT") -> Example | None:
    """Elicit step1/step2 reasoning consistent with the example's gold label.

    Responses come through the backend's persistent cache, so repeat calls
    for the same (model, example) are free. A response whose concluding
    label contradicts gold is retried once; a second contradiction flags
    the example as excluded (returns None).
    """
    from .gateway import drive

    return drive(example_reasoning_steps(example, templates, repair_policy), backend.complete)


def reasoned_examples_steps(
    corpus: Corpus,
    target_batch: str,
    k: int,
    seed: int,
    pool: Sequence[Example] | None = None,
    templates: TemplateSet = DEFAULT_TEMPLATES,
):
    """Step generator for reasoned_examples(); returns the examples.

    Reasoning is requested together for as many candidates as examples are
    still missing, so it may run concurrently; more are requested only to
    replace exclusions. The candidates tried are exactly those a
    one-at-a-time search would try: it too stops at the k-th valid one.
    """
    from .gateway import Gather

    order = iter(_shuffled_candidates(corpus, target_batch, k, seed, pool))
    out: list[Example] = []
    while len(out) < k:
        tries = list(islice(order, k - len(out)))
        if not tries:
            raise DataError(
                f"insufficient example pool for batch {target_batch} after reasoning "
                f"exclusions: need {k}, have {len(out)}")
        reasoned = yield Gather(example_reasoning_steps(ex, templates) for ex in tries)
        out += [ex for ex in reasoned if ex is not None]
    return out


def reasoned_examples(
    corpus: Corpus,
    target_batch: str,
    k: int,
    seed: int,
    backend,
    pool: Sequence[Example] | None = None,
    templates: TemplateSet = DEFAULT_TEMPLATES,
) -> list[Example]:
    """First k pool candidates (seeded order) with valid generated reasoning.

    Candidates whose reasoning contradicts gold twice are skipped, keeping
    selection deterministic for a fixed (corpus, batch, k, seed, backend).
    """
    from .gateway import drive

    return drive(reasoned_examples_steps(corpus, target_batch, k, seed, pool, templates),
                 backend.complete)
