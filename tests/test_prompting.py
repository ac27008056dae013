from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.agents import majority_vote_steps, predictor_critic_judge_steps
from delib.errors import DataError
from delib.gateway import CompletionResult, MockRule, drive, mock_backend
from delib.prompting import (VARIANTS, Example, ExampleSet, Variant, build_error_pool,
                             generate_example_reasoning, render_cot,
                             render_cot_few_shot, render_few_shot,
                             render_reasoning_prompt, render_zero_shot,
                             select_few_shot_examples)
from delib.templates import DEFAULT_TEMPLATES

from conftest import build_corpus, make_sentence

GOLDEN_DIR = Path(__file__).parent / "golden"

ZS_QUESTION = "Would the following be considered deliberative under FOIA exemption 5?"
COT_STEP2 = ("Does it express an opinion, recommendation, or internal "
             "deliberation rather than a fact?")

AMERICORPS = ("You could also announce that you will expand AmeriCorps "
              "to include a new child-care corps.")


def example(text, batch="K2", label=1, reasoning=None):
    return Example(sentence=make_sentence(text, batch, label),
                   gold_label=label, reasoning=reasoning)


class TestRenderZeroShot:
    def test_contains_question(self):
        bundle = render_zero_shot(make_sentence("Any sentence."))
        assert ZS_QUESTION in bundle.user

    def test_deterministic(self):
        s = make_sentence("Same sentence.")
        assert render_zero_shot(s) == render_zero_shot(s)

    def test_sentence_once_verbatim(self):
        s = make_sentence('A sentence with "quotes" inside.')
        bundle = render_zero_shot(s)
        assert bundle.user.count(s.text) == 1

    def test_schema(self):
        assert render_zero_shot(make_sentence("x")).expected_schema == "SIMPLE"


class TestRenderFewShot:
    def test_example_line_format(self):
        s = make_sentence("Target sentence.", "K1")
        bundle = render_few_shot(s, [example(AMERICORPS, "K2", 1)])
        assert (f'Sentence: "{AMERICORPS}" Correct label: '
                "ALWAYS DELIBERATIVE (deliberative=1)") in bundle.user

    def test_negative_label_line(self):
        s = make_sentence("Target.", "K1")
        bundle = render_few_shot(s, [example("Plain fact.", "K2", 0)])
        assert "NOT ALWAYS DELIBERATIVE (deliberative=0)" in bundle.user

    def test_zero_examples_errors(self):
        with pytest.raises(DataError):
            render_few_shot(make_sentence("t"), [])

    def test_five_examples_in_order(self):
        s = make_sentence("Target.", "K1")
        exs = [example(f"Example {i}.", "K2", i % 2) for i in range(5)]
        bundle = render_few_shot(s, exs)
        positions = [bundle.user.index(e.sentence.text) for e in exs]
        assert positions == sorted(positions)
        assert len(positions) == 5

    def test_target_batch_example_rejected(self):
        s = make_sentence("Target.", "K1")
        with pytest.raises(DataError, match="target batch"):
            render_few_shot(s, [example("Bad.", "K1", 1)])


class TestRenderCot:
    def test_contains_step2(self):
        bundle = render_cot(make_sentence("x"))
        assert COT_STEP2 in bundle.system

    def test_contains_definitions(self):
        bundle = render_cot(make_sentence("x"))
        assert "predecisional" in bundle.system
        assert "deliberative" in bundle.system

    def test_schema_and_determinism(self):
        s = make_sentence("x")
        assert render_cot(s).expected_schema == "COT"
        assert render_cot(s) == render_cot(s)


class TestRenderCotFewShot:
    def test_worked_examples_precede_target(self):
        s = make_sentence("Target.", "K1")
        exs = [example(f"Ex {i}.", "K2", 1,
                       reasoning={"step1": f"s1-{i}", "step2": f"s2-{i}"})
               for i in range(5)]
        bundle = render_cot_few_shot(s, exs)
        assert bundle.user.count("step1:") == 5
        assert bundle.user.index("s1-4") < bundle.user.index(s.text)

    def test_missing_reasoning_errors(self):
        with pytest.raises(DataError, match="reasoning"):
            render_cot_few_shot(make_sentence("T", "K1"), [example("E", "K2", 1)])

    def test_deterministic(self):
        s = make_sentence("T", "K1")
        exs = [example("E", "K2", 1, reasoning={"step1": "a", "step2": "b"})]
        assert render_cot_few_shot(s, exs) == render_cot_few_shot(s, exs)


class TestGoldenSnapshots:
    """Byte-exact golden prompts, one file per single-agent variant."""

    def _check(self, name, bundle):
        path = GOLDEN_DIR / f"{name}.txt"
        rendered = f"[system]\n{bundle.system}\n[user]\n{bundle.user}\n"
        assert rendered == path.read_text(encoding="utf-8"), f"snapshot {name} drifted"

    def test_snapshots(self):
        target = make_sentence("We should expand the pilot program.", "K1", 1)
        exs = [example(AMERICORPS, "K2", 1,
                       reasoning={"step1": "No final decision yet.",
                                  "step2": "It recommends an action."}),
               example("The act passed in 1997.", "K3", 0,
                       reasoning={"step1": "Decision already made.",
                                  "step2": "It states a fact."})]
        self._check("zero_shot", render_zero_shot(target))
        self._check("few_shot", render_few_shot(target, exs))
        self._check("cot", render_cot(target))
        self._check("cot_few_shot", render_cot_few_shot(target, exs))

    @pytest.mark.parametrize("variant, name", [
        (Variant.ZERO_SHOT, "zero_shot"), (Variant.FEW_SHOT, "few_shot"),
        (Variant.FEW_SHOT_ERROR, "few_shot"), (Variant.COT, "cot"),
        (Variant.COT_FEW_SHOT_ERROR, "cot_few_shot"), (Variant.MULTI_AGENT, "zero_shot"),
        (Variant.COT_MULTI_AGENT, "cot"),
        (Variant.COT_FEW_SHOT_ERROR_MULTI_AGENT, "cot_few_shot"),
    ])
    def test_variant_table_first_prompts(self, variant, name):
        """Each table row renders the golden prompt of its first agent."""
        target = make_sentence("We should expand the pilot program.", "K1", 1)
        exs = [example(AMERICORPS, "K2", 1,
                       reasoning={"step1": "No final decision yet.",
                                  "step2": "It recommends an action."}),
               example("The act passed in 1997.", "K3", 0,
                       reasoning={"step1": "Decision already made.",
                                  "step2": "It states a fact."})]
        spec = VARIANTS[variant]
        example_set = {None: None, "random": ExampleSet.few_shot(exs),
                       "error": ExampleSet.few_shot(exs),
                       "reasoned_error": ExampleSet.cot(exs)}[spec.examples]
        self._check(name, spec.prompt(target, example_set, DEFAULT_TEMPLATES))

    def _check_messages(self, name, messages):
        system, user = (m["content"] for m in messages)
        path = GOLDEN_DIR / f"{name}.txt"
        rendered = f"[system]\n{system}\n[user]\n{user}\n"
        assert rendered == path.read_text(encoding="utf-8"), f"snapshot {name} drifted"

    @staticmethod
    def _agent_prompts(steps, responses):
        """The messages of each completion an orchestration asks for, when
        the completions answer `responses` in turn."""
        sent, answers = [], iter(responses)

        def complete(messages):
            sent.append(messages)
            return CompletionResult(text=next(answers))
        drive(steps, complete)
        return sent

    def test_agent_snapshots(self):
        target = make_sentence('We should "expand" the pilot program.', "K1", 1)
        _zero, second, tiebreak = self._agent_prompts(
            majority_vote_steps(target),
            ['{"deliberative": 1}', '{"deliberative": 0}', '{"deliberative": 1}'])
        self._check_messages("vote_second", second)
        self._check_messages("vote_tiebreak", tiebreak)
        _cot, critic, judge = self._agent_prompts(
            predictor_critic_judge_steps(target), [
                '{"step1": "No decision yet.", "step2": "It recommends.", '
                '"deliberative": 1}',
                '{"assessment": "flawed", "issues": "step2 reads a fact as advice", '
                '"suggestion": 0}',
                '{"rationale": "The critic is right.", "deliberative": 0}'])
        self._check_messages("critic", critic)
        self._check_messages("judge", judge)

    def test_reasoning_snapshots(self):
        ex = example(AMERICORPS, "K2", 1)
        self._check("reasoning", render_reasoning_prompt(ex))
        self._check("reasoning_retry1", render_reasoning_prompt(ex, attempt=1))


class TestVariantTable:
    def test_one_spec_per_variant_in_enum_order(self):
        assert set(VARIANTS) == set(Variant)
        assert list(VARIANTS) == list(Variant)

    def test_error_based_and_multi_agent_triples(self):
        assert {v for v, spec in VARIANTS.items() if spec.needs_zero_shot} == {
            Variant.FEW_SHOT_ERROR, Variant.COT_FEW_SHOT_ERROR,
            Variant.COT_FEW_SHOT_ERROR_MULTI_AGENT}
        assert {v for v, spec in VARIANTS.items() if spec.agents} == {
            Variant.MULTI_AGENT, Variant.COT_MULTI_AGENT,
            Variant.COT_FEW_SHOT_ERROR_MULTI_AGENT}
        assert VARIANTS[Variant.MULTI_AGENT].agents == "vote"


class TestSelectFewShot:
    def test_forced_source_batch(self):
        rows = ([(f"k1 {i}", "K1", i % 2) for i in range(10)]
                + [(f"k2 {i}", "K2", i % 2) for i in range(10)])
        corpus = build_corpus(rows)
        out = select_few_shot_examples(corpus, "K2", k=5, seed=7)
        assert len(out) == 5
        assert all(e.sentence.batch == "K1" for e in out)
        again = select_few_shot_examples(corpus, "K2", k=5, seed=7)
        assert out == again

    def test_only_target_batch_errors(self):
        corpus = build_corpus([(f"t {i}", "K2", 0) for i in range(10)])
        with pytest.raises(DataError, match="insufficient example pool"):
            select_few_shot_examples(corpus, "K2", k=5, seed=1)

    def test_different_seeds_differ(self, full_corpus):
        a = select_few_shot_examples(full_corpus, "K2", k=5, seed=1)
        b = select_few_shot_examples(full_corpus, "K2", k=5, seed=2)
        assert all(e.sentence.batch != "K2" for e in a + b)
        assert a != b

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_never_from_target_batch(self, seed):
        rows = ([(f"k1 {i}", "K1", i % 2) for i in range(8)]
                + [(f"k2 {i}", "K2", i % 2) for i in range(8)]
                + [(f"k3 {i}", "K3", i % 2) for i in range(8)])
        corpus = build_corpus(rows)
        out = select_few_shot_examples(corpus, "K2", k=5, seed=seed)
        assert all(e.sentence.batch != "K2" for e in out)


class TestErrorPool:
    def _run_for(self, corpus, wrong_ids):
        return {s.id: (1 - s.gold_label if s.id in wrong_ids else s.gold_label)
                for s in corpus.sentences}

    def test_counts_mismatches(self):
        rows = ([(f"k1 {i}", "K1", i % 2) for i in range(50)]
                + [(f"k2 {i}", "K2", i % 2) for i in range(50)]
                + [(f"t {i}", "K3", i % 2) for i in range(20)])
        corpus = build_corpus(rows)
        non_target = [s for s in corpus.sentences if s.batch != "K3"]
        wrong = {s.id for s in non_target[:10]}
        run = self._run_for(corpus, wrong)
        pool = build_error_pool(run, corpus, "K3")
        assert len(pool) == 10
        # brute-force check: pooled examples carry gold, not the bad guess
        assert all(e.gold_label == e.sentence.gold_label for e in pool)
        assert {e.sentence.id for e in pool} == wrong

    def test_perfect_run_empty_pool(self, small_corpus):
        run = self._run_for(small_corpus, set())
        pool = build_error_pool(run, small_corpus, "K3")
        assert pool == []
        with pytest.raises(DataError, match="insufficient example pool"):
            select_few_shot_examples(small_corpus, "K3", k=1, seed=0, pool=pool)

    def test_target_batch_errors_ignored(self, small_corpus):
        target_ids = {s.id for s in small_corpus.sentences if s.batch == "K3"}
        run = self._run_for(small_corpus, target_ids)
        assert build_error_pool(run, small_corpus, "K3") == []

    def test_uncovered_batch_errors(self, small_corpus):
        run = {s.id: s.gold_label for s in small_corpus.sentences
               if s.batch != "K1"}
        with pytest.raises(DataError, match="K1"):
            build_error_pool(run, small_corpus, "K3")

    def test_schema_failures_not_pooled(self, small_corpus):
        run = {s.id: None for s in small_corpus.sentences}
        assert build_error_pool(run, small_corpus, "K3") == []


class TestExampleReasoning:
    def test_consistent_reasoning_attached(self):
        backend = mock_backend([MockRule(
            pattern=r"Known-correct label:.*deliberative=1",
            response='{"step1":"a","step2":"b","deliberative":1}')])
        out = generate_example_reasoning(example("E", "K2", 1), backend)
        assert out.reasoning == {"step1": "a", "step2": "b"}

    def test_cached_second_call(self):
        backend = mock_backend([MockRule(
            pattern=r"Known-correct label:",
            response='{"step1":"a","step2":"b","deliberative":1}')])
        ex = example("E", "K2", 1)
        generate_example_reasoning(ex, backend)
        calls_before = backend.transport.calls
        generate_example_reasoning(ex, backend)
        assert backend.transport.calls == calls_before

    def test_contradicting_reasoning_flagged(self):
        # adversarial mock always concludes the wrong label
        backend = mock_backend([MockRule(
            pattern=r"Known-correct label:",
            response='{"step1":"a","step2":"b","deliberative":0}')])
        assert generate_example_reasoning(example("E", "K2", 1), backend) is None

    def test_retry_once_with_fresh_request(self):
        # first elicitation contradicts; the retry (distinct cache key) agrees
        backend = mock_backend([
            MockRule(pattern=r"\(retry 1\)",
                     response='{"step1":"a","step2":"b","deliberative":1}'),
            MockRule(pattern=r"Known-correct label:",
                     response='{"step1":"a","step2":"b","deliberative":0}'),
        ])
        out = generate_example_reasoning(example("E", "K2", 1), backend)
        assert out is not None


class TestSentenceContainedOnce:
    @given(text=st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs"),
                               whitelist_characters=".,;?!"),
        min_size=1).filter(lambda t: t.strip()))
    @settings(max_examples=60, deadline=None)
    def test_all_variants_contain_sentence_once(self, text):
        s = make_sentence(text, "K1", 1)
        exs = [example("Some other sentence entirely xyzzy.", "K2", 1,
                       reasoning={"step1": "a", "step2": "b"})]
        quoted = f'Sentence: "{text}"'
        for bundle in (render_zero_shot(s), render_few_shot(s, exs),
                       render_cot(s), render_cot_few_shot(s, exs)):
            assert quoted in bundle.user
            if not "Some other sentence entirely xyzzy.".startswith(text):
                assert bundle.user.count(quoted) == 1
