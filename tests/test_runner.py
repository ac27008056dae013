import json
from collections import Counter
from pathlib import Path

import pytest

from delib.errors import DataError
from delib.gateway import ResponseCache, mock_backend
from delib.prompting import VARIANTS, Variant
from delib.runner import (GRID_ORDER, _record_line, compute_run_id, load_manifest,
                          load_predictions, load_records, run_grid,
                          run_variant)
from delib.templates import TemplateSet

from conftest import build_corpus, universal_mock_rules


def corpus_for_runs():
    rows = []
    for i in range(8):
        rows.append((f"We should weigh option {i} carefully.", "K1", 1))
        rows.append((f"The office filed report {i} on time.", "K1", 0))
    for i in range(8):
        rows.append((f"I think plan {i} needs work.", "K2", 1))
        rows.append((f"The act of {1990 + i} set the rate.", "K2", 0))
    return build_corpus(rows)


def backend():
    return mock_backend(universal_mock_rules())


class TestRunId:
    def test_deterministic_and_prefixed(self):
        a = compute_run_id(Variant.COT, "b" * 12, "c" * 12, 0, 5, "1", "LENIENT")
        b = compute_run_id(Variant.COT, "b" * 12, "c" * 12, 0, 5, "1", "LENIENT")
        assert a == b
        assert a.startswith("cot-")

    def test_sensitive_to_inputs(self):
        base = compute_run_id(Variant.COT, "b" * 12, "c" * 12, 0, 5, "1", "LENIENT")
        assert base != compute_run_id(Variant.COT, "b" * 12, "c" * 12, 1, 5, "1", "LENIENT")
        assert base != compute_run_id(Variant.COT, "b" * 12, "c" * 12, 0, 5, "2", "LENIENT")
        assert base != compute_run_id(Variant.COT, "b" * 12, "c" * 12, 0, 5, "1", "STRICT")
        assert base != compute_run_id(Variant.COT, "x" * 12, "c" * 12, 0, 5, "1", "LENIENT")
        assert base != compute_run_id(Variant.COT, "b" * 12, "c" * 12, 0, 5, "1", "LENIENT",
                                      ["K1"])
        assert base == compute_run_id(Variant.COT, "b" * 12, "c" * 12, 0, 5, "1", "LENIENT",
                                      None)


class TestRunVariant:
    def test_zero_shot_small(self, tmp_path):
        corpus = build_corpus([("We should act.", "K1", 1),
                               ("It rained.", "K1", 0),
                               ("I suggest waiting.", "K2", 1)])
        manifest = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path)
        assert manifest.status == "finished"
        assert manifest.n_records == 3
        assert manifest.schema_failures == 0
        run_dir = tmp_path / manifest.run_id
        records = load_records(run_dir)
        assert set(records) == {s.id for s in corpus.sentences}
        for rec in records.values():
            assert rec["final_label"] == 1  # mock always answers 1
            assert rec["variant"] == "ZERO_SHOT"
            assert rec["run_id"] == manifest.run_id
        saved = load_manifest(run_dir)
        assert saved.status == "finished"
        assert saved.n_records == 3

    def test_empty_scope(self, tmp_path):
        corpus = corpus_for_runs()
        with pytest.raises(DataError, match="no sentences"):
            run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path,
                        batches=["K9"])

    def test_batch_filter(self, tmp_path):
        corpus = corpus_for_runs()
        manifest = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path,
                               batches=["K1"])
        assert manifest.batches == ["K1"]
        assert manifest.n_records == 16

    def test_batch_scopes_get_their_own_runs(self, tmp_path):
        corpus = corpus_for_runs()
        k1 = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path, batches=["K1"])
        k2 = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path, batches=["K2"])
        assert k1.run_id != k2.run_id
        assert (k2.batches, k2.n_records, k2.dispatched) == (["K2"], 16, 16)
        ids = {rec["sentence_id"] for rec in load_records(tmp_path / k2.run_id).values()}
        assert ids == {s.id for s in corpus.sentences if s.batch == "K2"}

    def test_full_scope_run_id_unchanged(self, tmp_path):
        corpus = corpus_for_runs()
        b = backend()
        everything = run_variant(corpus, Variant.ZERO_SHOT, b, tmp_path)
        assert everything.run_id == compute_run_id(
            Variant.ZERO_SHOT, b.config.digest(), corpus.digest(), 0, 5, "1", "LENIENT")
        listed = run_variant(corpus, Variant.ZERO_SHOT, b, tmp_path,
                             batches=["K2", "K1", "K9"])
        assert listed.run_id == everything.run_id

    def test_error_variant_requires_zero_shot(self, tmp_path):
        with pytest.raises(DataError, match="zero-shot run"):
            run_variant(corpus_for_runs(), Variant.FEW_SHOT_ERROR, backend(),
                        tmp_path, k=2)

    def test_schema_failures_counted(self, tmp_path):
        corpus = build_corpus([("a", "K1", 1), ("b", "K1", 0)])
        bad = mock_backend(default="no json here")
        manifest = run_variant(corpus, Variant.ZERO_SHOT, bad, tmp_path)
        assert manifest.schema_failures == 2
        preds = load_predictions(tmp_path / manifest.run_id)
        assert set(preds.values()) == {None}


class TestResume:
    def test_interrupt_then_resume_byte_identical(self, tmp_path):
        corpus = corpus_for_runs()
        dir_a = tmp_path / "interrupted"
        dir_b = tmp_path / "straight"

        partial = run_variant(corpus, Variant.ZERO_SHOT, backend(), dir_a,
                              stop_after=5)
        assert partial.status == "interrupted"
        assert partial.n_records == 5

        resumed = run_variant(corpus, Variant.ZERO_SHOT, backend(), dir_a)
        assert resumed.status == "finished"
        assert resumed.n_records == 32
        assert resumed.dispatched == 27  # only the remainder was dispatched

        straight = run_variant(corpus, Variant.ZERO_SHOT, backend(), dir_b)
        assert straight.run_id == resumed.run_id
        rec_a = (dir_a / resumed.run_id / "records.jsonl").read_bytes()
        rec_b = (dir_b / straight.run_id / "records.jsonl").read_bytes()
        assert rec_a == rec_b

    def test_resume_after_torn_last_line_byte_identical(self, tmp_path):
        """A crash mid-write leaves part of a line; resuming drops it and
        redoes that sentence."""
        corpus = corpus_for_runs()
        straight = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path / "straight")
        expected = (tmp_path / "straight" / straight.run_id / "records.jsonl").read_bytes()
        lines = expected.splitlines(keepends=True)

        run_dir = tmp_path / "torn" / straight.run_id
        run_dir.mkdir(parents=True)
        (run_dir / "records.jsonl").write_bytes(b"".join(lines[:5]) + lines[5][:40])
        with pytest.raises(DataError, match="line 6"):
            load_records(run_dir)

        resumed = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path / "torn")
        assert resumed.dispatched == 27
        assert (run_dir / "records.jsonl").read_bytes() == expected

    def test_finished_run_dispatches_nothing(self, tmp_path):
        corpus = corpus_for_runs()
        be = backend()
        run_variant(corpus, Variant.ZERO_SHOT, be, tmp_path)
        calls = be.transport.calls
        again = run_variant(corpus, Variant.ZERO_SHOT, be, tmp_path)
        assert be.transport.calls == calls
        assert again.dispatched == 0
        assert again.n_records == 32

    def test_warm_rerun_with_shared_cache(self, tmp_path):
        """Fresh run directory, shared response cache: zero new transport
        calls because every completion is a cache hit."""
        corpus = corpus_for_runs()
        cache = ResponseCache(tmp_path / "cache")
        be1 = mock_backend(universal_mock_rules(), cache=cache)
        run_variant(corpus, Variant.ZERO_SHOT, be1, tmp_path / "runs1")
        assert be1.transport.calls == 32

        be2 = mock_backend(universal_mock_rules(), cache=ResponseCache(tmp_path / "cache"))
        manifest = run_variant(corpus, Variant.ZERO_SHOT, be2, tmp_path / "runs2")
        assert be2.transport.calls == 0
        assert manifest.cached == 32


class TestVariants:
    def test_few_shot(self, tmp_path):
        corpus = corpus_for_runs()
        manifest = run_variant(corpus, Variant.FEW_SHOT, backend(), tmp_path, k=3)
        assert manifest.status == "finished"
        assert manifest.n_records == 32

    def test_example_block_rendered_once_per_batch(self, tmp_path):
        class CountingTemplates(TemplateSet):
            def __init__(self):
                super().__init__()
                self.renders = Counter()

            def render(self, name, **values):
                self.renders[name] += 1
                return super().render(name, **values)

        counting = CountingTemplates()
        corpus = corpus_for_runs()
        plain = run_variant(corpus, Variant.FEW_SHOT, backend(), tmp_path / "a", k=3)
        counted = run_variant(corpus, Variant.FEW_SHOT, backend(), tmp_path / "b", k=3,
                              templates=counting)
        assert counting.renders["example_line"] == 2 * 3  # two batches, k=3
        assert counting.renders["few_shot.user"] == len(corpus.sentences)
        assert ((tmp_path / "a" / plain.run_id / "records.jsonl").read_bytes()
                == (tmp_path / "b" / counted.run_id / "records.jsonl").read_bytes())

    def test_few_shot_error_uses_zero_shot_errors(self, tmp_path):
        corpus = corpus_for_runs()
        # mock answers 1 everywhere, so every gold-0 sentence is an error
        zs = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path)
        manifest = run_variant(corpus, Variant.FEW_SHOT_ERROR, backend(),
                               tmp_path, k=3,
                               zero_shot_run_dir=tmp_path / zs.run_id)
        assert manifest.status == "finished"

    @pytest.mark.parametrize("variant, dependency", [
        (Variant.FEW_SHOT_ERROR, Variant.COT),
        (Variant.COT_FEW_SHOT_ERROR, Variant.MULTI_AGENT),
    ])
    def test_error_variant_rejects_other_dependency(self, tmp_path, variant, dependency):
        corpus = corpus_for_runs()
        other = run_variant(corpus, dependency, backend(), tmp_path)
        with pytest.raises(DataError, match=f"is a {dependency.value} run"):
            run_variant(corpus, variant, backend(), tmp_path, k=2,
                        zero_shot_run_dir=tmp_path / other.run_id)

    def test_cot_records_steps(self, tmp_path):
        corpus = build_corpus([("We should act.", "K1", 1)])
        manifest = run_variant(corpus, Variant.COT, backend(), tmp_path)
        rec = next(iter(load_records(tmp_path / manifest.run_id).values()))
        assert rec["step1"] and rec["step2"]

    def test_multi_agent_records_trace(self, tmp_path):
        corpus = build_corpus([("We should act.", "K1", 1)])
        manifest = run_variant(corpus, Variant.MULTI_AGENT, backend(), tmp_path)
        rec = next(iter(load_records(tmp_path / manifest.run_id).values()))
        assert rec["trace"]["resolution"] == "AGREEMENT"
        assert [s["role"] for s in rec["trace"]["steps"]] == ["PREDICTOR", "SECOND"]

    def test_cot_multi_agent_disagreement_path(self, tmp_path):
        corpus = build_corpus([("We should act.", "K1", 1)])
        be = mock_backend(universal_mock_rules(critic_agrees=False, judge_label=0))
        manifest = run_variant(corpus, Variant.COT_MULTI_AGENT, be, tmp_path)
        rec = next(iter(load_records(tmp_path / manifest.run_id).values()))
        assert rec["trace"]["resolution"] == "JUDGE_DECIDED"
        assert rec["final_label"] == 0

    def test_cot_few_shot_error_multi_agent(self, tmp_path):
        corpus = corpus_for_runs()
        zs = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path)
        manifest = run_variant(
            corpus, Variant.COT_FEW_SHOT_ERROR_MULTI_AGENT, backend(),
            tmp_path, k=2, zero_shot_run_dir=tmp_path / zs.run_id)
        assert manifest.status == "finished"
        assert manifest.schema_failures == 0


class TestGrid:
    def test_full_grid_order_and_outputs(self, tmp_path):
        corpus = corpus_for_runs()
        manifests = run_grid(corpus, backend(), tmp_path, k=2)
        assert list(manifests) == list(GRID_ORDER)
        for manifest in manifests.values():
            assert manifest.status == "finished"
            assert manifest.n_records == 32
        assert len({m.run_id for m in manifests.values()}) == len(GRID_ORDER)

    def test_grid_auto_inserts_zero_shot(self, tmp_path):
        corpus = corpus_for_runs()
        manifests = run_grid(corpus, backend(), tmp_path, k=2,
                             variants=[Variant.FEW_SHOT_ERROR])
        assert list(manifests) == [Variant.ZERO_SHOT, Variant.FEW_SHOT_ERROR]

    @pytest.mark.parametrize("variant", [Variant.FEW_SHOT_ERROR, Variant.COT_FEW_SHOT_ERROR,
                                         Variant.COT_FEW_SHOT_ERROR_MULTI_AGENT])
    def test_error_based_variant_runs_after_zero_shot(self, tmp_path, variant):
        manifests = run_grid(corpus_for_runs(), backend(), tmp_path, k=2, variants=[variant])
        assert list(manifests) == [Variant.ZERO_SHOT, variant]
        assert all(m.status == "finished" for m in manifests.values())

    def test_grid_order_runs_zero_shot_before_its_dependents(self):
        assert GRID_ORDER == tuple(VARIANTS)
        dependents = [v for v, spec in VARIANTS.items() if spec.needs_zero_shot]
        assert dependents
        assert all(GRID_ORDER.index(Variant.ZERO_SHOT) < GRID_ORDER.index(v)
                   for v in dependents)

    def test_grid_subset_without_dependencies(self, tmp_path):
        corpus = build_corpus([("We should act.", "K1", 1),
                               ("It rained.", "K1", 0)])
        manifests = run_grid(corpus, backend(), tmp_path,
                             variants=[Variant.COT, Variant.ZERO_SHOT])
        assert list(manifests) == [Variant.ZERO_SHOT, Variant.COT]


class TestRecordFiles:
    def test_records_are_json_lines_sorted_keys(self, tmp_path):
        corpus = build_corpus([("We should act.", "K1", 1)])
        manifest = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path)
        raw = (tmp_path / manifest.run_id / "records.jsonl").read_text()
        line = raw.strip()
        rec = json.loads(line)
        assert list(rec) == sorted(rec)
        assert json.dumps(rec, sort_keys=True, ensure_ascii=False) == line

    def test_record_line_matches_json_dumps(self):
        record = {
            "sentence_id": "3f2a9c", "variant": "COT_MULTI_AGENT",
            "run_id": "cot_multi_agent-0a1b", "final_label": 1,
            "trace": {"resolution": "JUDGE_DECIDED", "final_label": 1, "steps": [
                {"role": "PREDICTOR", "label": 0, "cached": 1, "repairs": ["fence-strip"],
                 "raw_digest": "ab12", "step1": "Le comité « décidera » — 2026 ✓",
                 "step2": 'quote " backslash \\ tab \t newline \n \u2028 😀'},
                {"role": "CRITIC", "label": 1, "assessment": "flawed", "issues": "ß≠ss",
                 "failure": None, "latency_ms": 0}]},
        }
        line = _record_line(record)
        assert line == json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        assert line == (
            '{"final_label": 1, "run_id": "cot_multi_agent-0a1b", "sentence_id": "3f2a9c", '
            '"trace": {"final_label": 1, "resolution": "JUDGE_DECIDED", "steps": [{"cached": 1, '
            '"label": 0, "raw_digest": "ab12", "repairs": ["fence-strip"], "role": "PREDICTOR", '
            '"step1": "Le comité « décidera » — 2026 ✓", "step2": "quote \\" backslash '
            '\\\\ tab \\t newline \\n \u2028 😀"}, {"assessment": "flawed", '
            '"failure": null, "issues": "ß≠ss", "label": 1, "latency_ms": 0, "role": "CRITIC"}]}, '
            '"variant": "COT_MULTI_AGENT"}\n')

    def test_load_predictions_maps_failures(self, tmp_path):
        corpus = build_corpus([("ok", "K1", 1), ("bad bad", "K1", 0)])
        def flaky(messages):
            text = messages[-1]["content"]
            return "garbage" if "bad bad" in text else '{"deliberative": 1}'
        from delib.gateway import MockRule
        be = mock_backend([MockRule(pattern=r".", response=flaky)])
        manifest = run_variant(corpus, Variant.ZERO_SHOT, be, tmp_path)
        preds = load_predictions(tmp_path / manifest.run_id)
        assert set(preds.values()) == {1, None}

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="no manifest"):
            load_manifest(tmp_path)


class TestLoadRecordsEdgeCases:
    A = '{"final_label": 1, "sentence_id": "a"}'
    B = '{"final_label": null, "sentence_id": "b"}'

    def write(self, tmp_path, text):
        (tmp_path / "records.jsonl").write_text(text, encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize("bad", [
        '{"final_label": 0, "sentence_id": "c"} x',
        '{"final_label": 0, "sentence_id": "c"}{"final_label": 1, "sentence_id": "d"}',
        '{"final_label": 0, "sentence_id": "c"',
        '[1, 2',
    ])
    @pytest.mark.parametrize("load", [load_records, load_predictions])
    def test_malformed_line_names_its_number(self, tmp_path, load, bad):
        run_dir = self.write(tmp_path, f"{self.A}\n\n{bad}\n{self.B}\n")
        with pytest.raises(DataError, match="line 3 is not a JSON record"):
            load(run_dir)

    @pytest.mark.parametrize("load", [load_records, load_predictions])
    def test_leading_and_trailing_whitespace_load(self, tmp_path, load):
        run_dir = self.write(tmp_path, f"  {self.A}\n\t{self.B} \n")
        assert set(load(run_dir)) == {"a", "b"}

    def test_blank_lines_are_skipped(self, tmp_path):
        run_dir = self.write(tmp_path, f"\n{self.A}\n   \n\xa0\n\n{self.B}\n\n")
        assert load_predictions(run_dir) == {"a": 1, "b": None}
        assert load_records(run_dir)["b"] == {"final_label": None, "sentence_id": "b"}

    def test_complete_last_line_without_newline_loads(self, tmp_path):
        run_dir = self.write(tmp_path, f"{self.A}\n{self.B}")
        assert load_predictions(run_dir) == {"a": 1, "b": None}

    def test_later_record_of_a_sentence_wins(self, tmp_path):
        later = '{"final_label": 0, "sentence_id": "a"}'
        run_dir = self.write(tmp_path, f"{self.A}\n{self.B}\n{later}\n")
        assert list(load_predictions(run_dir).items()) == [("a", 0), ("b", None)]
        assert list(load_records(run_dir)) == ["a", "b"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_records(tmp_path) == {} and load_predictions(tmp_path) == {}
