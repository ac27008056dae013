import itertools
import json

import pytest

from delib.agents import (AGREEMENT, CRITIC, CRITIC_ACCEPTED, JUDGE,
                          JUDGE_DECIDED, PREDICTOR, SECOND, TIEBREAK,
                          AgentStep, AgentTrace, OrchestrationFailure,
                          analyze_disagreements, predictor_critic_judge_steps,
                          run_majority_vote, run_predictor_critic_judge)
from delib.errors import DataError
from delib.gateway import MockRule, drive, mock_backend
from delib.prompting import VARIANTS, Example, ExampleSet, Variant, render_cot
from delib.templates import DEFAULT_TEMPLATES

from conftest import build_corpus, make_sentence


def simple(label):
    return json.dumps({"deliberative": label})


def cot(label, step1="reasoning one", step2="reasoning two"):
    return json.dumps({"step1": step1, "step2": step2, "deliberative": label})


def critic(assessment, suggestion, issues="some issues"):
    return json.dumps({"assessment": assessment, "issues": issues,
                       "suggestion": suggestion})


def judge(label, rationale="on balance"):
    return json.dumps({"rationale": rationale, "deliberative": label})


def vote_backend(first, second, tiebreak=None):
    """Scripted voting chain. Rule order: tiebreak > second > first, since
    each later prompt contains the earlier prompts' marker lines."""
    rules = []
    if tiebreak is not None:
        rules.append(MockRule(pattern=r"Second reviewer's prediction",
                              response=simple(tiebreak)))
    rules.append(MockRule(pattern=r"First reviewer's prediction",
                          response=simple(second)))
    rules.append(MockRule(pattern=r".", response=simple(first)))
    return mock_backend(rules)


def pcj_backend(predictor_label, critic_assessment, critic_suggestion,
                judge_label=None, predictor_response=None):
    rules = []
    if judge_label is not None:
        rules.append(MockRule(pattern=r"Critic's review", response=judge(judge_label)))
    rules.append(MockRule(pattern=r"Predictor's reasoning",
                          response=critic(critic_assessment, critic_suggestion)))
    rules.append(MockRule(
        pattern=r".", response=predictor_response or cot(predictor_label)))
    return mock_backend(rules)


class TestMajorityVote:
    @pytest.mark.parametrize("first,second,tiebreak", list(
        itertools.product((0, 1), repeat=3)))
    def test_all_vote_patterns(self, first, second, tiebreak):
        """Exhaustive truth table for the 2-vote + tiebreak chain."""
        s = make_sentence("We should consider the option.", "K1", 1)
        backend = vote_backend(first, second, tiebreak)
        trace = run_majority_vote(s, backend)
        if first == second:
            assert trace.resolution == AGREEMENT
            assert trace.final_label == first
            assert [st.role for st in trace.steps] == [PREDICTOR, SECOND]
            assert backend.transport.calls == 2
        else:
            assert trace.resolution == TIEBREAK
            assert trace.final_label == tiebreak
            assert [st.role for st in trace.steps] == [PREDICTOR, SECOND, JUDGE]
            assert backend.transport.calls == 3

    def test_second_vote_sees_first_label(self):
        seen = []
        rules = [
            MockRule(pattern=r"First reviewer's prediction",
                     response=lambda msgs: (seen.append(msgs[-1]["content"]),
                                            simple(1))[1]),
            MockRule(pattern=r".", response=simple(1)),
        ]
        run_majority_vote(make_sentence("x", "K1"), mock_backend(rules))
        assert "deliberative=1" in seen[0]

    def test_schema_failure_in_second_vote(self):
        rules = [MockRule(pattern=r"First reviewer's prediction",
                          response="not json"),
                 MockRule(pattern=r".", response=simple(1))]
        with pytest.raises(OrchestrationFailure) as exc:
            run_majority_vote(make_sentence("x", "K1"), mock_backend(rules))
        assert exc.value.role == SECOND


class TestPredictorCriticJudge:
    def test_agreement_skips_judge(self):
        backend = pcj_backend(1, "sound", 1)
        trace = run_predictor_critic_judge(make_sentence("x", "K1"), backend)
        assert trace.resolution == CRITIC_ACCEPTED
        assert trace.final_label == 1
        assert [st.role for st in trace.steps] == [PREDICTOR, CRITIC]
        assert backend.transport.calls == 2

    def test_judge_resolves_disagreement(self):
        backend = pcj_backend(1, "flawed", 0, judge_label=0)
        trace = run_predictor_critic_judge(make_sentence("x", "K1"), backend)
        assert trace.resolution == JUDGE_DECIDED
        assert trace.final_label == 0
        assert [st.role for st in trace.steps] == [PREDICTOR, CRITIC, JUDGE]
        assert backend.transport.calls == 3

    def test_judge_may_side_with_predictor(self):
        backend = pcj_backend(1, "flawed", 0, judge_label=1)
        trace = run_predictor_critic_judge(make_sentence("x", "K1"), backend)
        assert trace.resolution == JUDGE_DECIDED
        assert trace.final_label == 1

    def test_sound_contradiction_strict_fails(self):
        backend = pcj_backend(1, "sound", 0, judge_label=0)
        s = make_sentence("x", "K1")
        with pytest.raises(OrchestrationFailure) as exc:
            drive(predictor_critic_judge_steps(s, DEFAULT_TEMPLATES, "STRICT",
                                               first=render_cot(s)), backend.complete)
        assert exc.value.role == CRITIC

    def test_sound_contradiction_lenient_normalizes(self, caplog):
        backend = pcj_backend(1, "sound", 0, judge_label=0)
        with caplog.at_level("WARNING"):
            trace = run_predictor_critic_judge(make_sentence("x", "K1"), backend)
        assert trace.resolution == JUDGE_DECIDED
        assert trace.steps[1].output["assessment"] == "flawed"
        assert "normalized to flawed" in caplog.text

    def test_few_shot_error_predictor(self):
        exs = [Example(sentence=make_sentence("E", "K2", 1),
                       reasoning={"step1": "a", "step2": "b"})]
        s = make_sentence("x", "K1")
        backend = pcj_backend(1, "sound", 1)
        trace = drive(predictor_critic_judge_steps(
            s, first=VARIANTS[Variant.COT_FEW_SHOT_ERROR].prompt(
                s, ExampleSet.cot(exs, DEFAULT_TEMPLATES), DEFAULT_TEMPLATES)),
            backend.complete)
        assert trace.final_label == 1

    def test_few_shot_error_predictor_requires_examples(self):
        with pytest.raises(DataError, match="no examples supplied"):
            VARIANTS[Variant.COT_FEW_SHOT_ERROR].prompt(
                make_sentence("x", "K1"), ExampleSet.cot([], DEFAULT_TEMPLATES),
                DEFAULT_TEMPLATES)

    def test_predictor_schema_failure(self):
        backend = mock_backend(default="no json at all")
        with pytest.raises(OrchestrationFailure) as exc:
            run_predictor_critic_judge(make_sentence("x", "K1"), backend)
        assert exc.value.role == PREDICTOR


class TestTraceSerialization:
    def test_roundtrip(self):
        trace = AgentTrace(
            sentence_id="abc", resolution=JUDGE_DECIDED, final_label=0,
            steps=[AgentStep(role=PREDICTOR, prompt_digest="d1", label=1,
                             raw_digest="r1",
                             output={"label": 1, "step1": "a", "step2": "b"}),
                   AgentStep(role=CRITIC, prompt_digest="d2", label=0,
                             raw_digest="r2",
                             output={"label": 0, "assessment": "flawed",
                                     "issues": "x"}),
                   AgentStep(role=JUDGE, prompt_digest="d3", label=0,
                             raw_digest="r3",
                             output={"label": 0, "rationale": "y"})])
        assert AgentTrace.from_dict(trace.to_dict()) == trace
        # json-safe
        assert AgentTrace.from_dict(json.loads(json.dumps(trace.to_dict()))) == trace

    @pytest.mark.parametrize("damage", [
        "not an object", "no sentence_id", "no steps", "one step",
        "final_label true", "unknown resolution", "step not an object",
        "step without prompt_digest", "step label 2", "step output a list"])
    def test_from_dict_rejects_a_damaged_trace(self, damage):
        d = trace_for("abc", 1, 0, 0).to_dict()
        step = d["steps"][0]
        if damage == "not an object":
            d = 5
        elif damage == "no sentence_id":
            del d["sentence_id"]
        elif damage == "no steps":
            del d["steps"]
        elif damage == "one step":
            del d["steps"][1:]
        elif damage == "final_label true":
            d["final_label"] = True
        elif damage == "unknown resolution":
            d["resolution"] = "VOTE"
        elif damage == "step not an object":
            d["steps"][1] = 3
        elif damage == "step without prompt_digest":
            del step["prompt_digest"]
        elif damage == "step label 2":
            step["label"] = 2
        else:
            step["output"] = []
        with pytest.raises(TypeError, match="not an agent"):
            AgentTrace.from_dict(d)


def trace_for(sid, predictor, critic_label, final, resolution=JUDGE_DECIDED):
    return AgentTrace(
        sentence_id=sid, resolution=resolution, final_label=final,
        steps=[AgentStep(role=PREDICTOR, prompt_digest="p", label=predictor,
                         raw_digest="r", output={}),
               AgentStep(role=CRITIC, prompt_digest="c", label=critic_label,
                         raw_digest="r", output={}),
               AgentStep(role=JUDGE, prompt_digest="j", label=final,
                         raw_digest="r", output={})])


class TestDisagreementAnalysis:
    def corpus(self):
        return build_corpus([
            ("gold one a", "K1", 1), ("gold one b", "K1", 1),
            ("gold zero a", "K1", 0), ("gold zero b", "K1", 0),
        ])

    def test_hand_counted_fixture(self):
        corpus = self.corpus()
        ids = [s.id for s in corpus.sentences]
        g1a, g1b, g0a, g0b = ids
        traces = [
            # judge follows critic: 1 -> 0 on a gold-1 (true positive lost)
            trace_for(g1a, predictor=1, critic_label=0, final=0),
            # judge follows critic: 1 -> 0 on a gold-0 (false positive caught)
            trace_for(g0a, predictor=1, critic_label=0, final=0),
            # judge follows critic: 0 -> 1 on a gold-0 (wrongly promoted)
            trace_for(g0b, predictor=0, critic_label=1, final=1),
            # judge sides with the predictor: not a flip
            trace_for(g1b, predictor=1, critic_label=0, final=1),
            # critic accepted: not a disagreement at all
            trace_for(g1b, predictor=1, critic_label=1, final=1,
                      resolution=CRITIC_ACCEPTED),
        ]
        report = analyze_disagreements(traces, corpus)
        assert report.n_disagreements == 4
        assert report.judge_followed_critic == 3
        assert report.flips == {(1, 0, 1): 1, (1, 0, 0): 1, (0, 1, 0): 1}
        assert report.true_positives_flagged_false == 1
        assert report.false_positives_caught == 1
        assert report.corrected_to_nondeliberative == 2
        assert report.corrected_to_deliberative == 1

    def test_unknown_sentence_id(self):
        with pytest.raises(DataError, match="unknown sentence id"):
            analyze_disagreements([trace_for("nope", 1, 0, 0)], self.corpus())

    def test_empty_traces(self):
        report = analyze_disagreements([], self.corpus())
        assert report.n_disagreements == 0
        assert report.flips == {}

    def test_to_dict_keys_are_strings(self):
        corpus = self.corpus()
        sid = corpus.sentences[0].id
        report = analyze_disagreements([trace_for(sid, 1, 0, 0)], corpus)
        d = report.to_dict()
        assert d["flips"] == {"1->0 gold=1": 1}
        json.dumps(d)  # must be serializable as-is
