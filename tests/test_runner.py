import errno
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

import delib.templates
from delib.errors import DataError
from delib.gateway import MockRule, ResponseCache, mock_backend
from delib.prompting import VARIANTS, Variant
from delib.parsing import dumps_canonical
from delib.runner import (compute_run_id, load_manifest, load_predictions,
                          load_records, run_grid, run_variant)
from delib.templates import TemplateSet

from conftest import (StopRun, build_corpus, raise_after, stopped_manifest,
                      universal_mock_rules)


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

    def test_run_id_names_the_override_template_content(self, tmp_path):
        corpus = corpus_for_runs()
        bundled = delib.templates._BUNDLED
        base = run_variant(corpus, Variant.COT, backend(), tmp_path / "runs").run_id
        copy = tmp_path / "copy"
        shutil.copytree(bundled, copy)
        assert run_variant(corpus, Variant.COT, backend(), tmp_path / "runs",
                           templates=TemplateSet(copy)).run_id == base
        ids = {base}
        for name in ("cot.user", "definitions"):
            edited = tmp_path / name
            edited.mkdir()
            text = (bundled / f"{name}.txt").read_text(encoding="utf-8")
            (edited / f"{name}.txt").write_text(text + "Be brief.\n", encoding="utf-8")
            ids.add(run_variant(corpus, Variant.COT, backend(), tmp_path / "runs",
                                templates=TemplateSet(edited)).run_id)
        assert len(ids) == 3


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
        listed = run_variant(corpus, Variant.ZERO_SHOT, b, tmp_path, batches=["K2", "K1"])
        assert listed.run_id == everything.run_id
        with pytest.raises(DataError, match="no sentences of batches: K9"):
            run_variant(corpus, Variant.ZERO_SHOT, b, tmp_path, batches=["K2", "K1", "K9"])

    def test_error_variant_requires_zero_shot(self, tmp_path):
        with pytest.raises(DataError, match="zero-shot run"):
            run_variant(corpus_for_runs(), Variant.FEW_SHOT_ERROR, backend(),
                        tmp_path, k=2)

    def test_error_variant_requires_zero_shot_records(self, tmp_path):
        corpus = corpus_for_runs()
        zero_shot = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path)
        (tmp_path / zero_shot.run_id / "records.jsonl").write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="has no records"):
            run_variant(corpus, Variant.FEW_SHOT_ERROR, backend(), tmp_path, k=2,
                        zero_shot_run_dir=tmp_path / zero_shot.run_id)

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

        with pytest.raises(StopRun):
            run_variant(corpus, Variant.ZERO_SHOT, backend(), dir_a, progress=raise_after(5))
        partial = stopped_manifest(dir_a)
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

    def test_keyboard_interrupt_marks_the_run_interrupted(self, tmp_path):
        """Ctrl-C during the sentences of a few-shot run leaves the manifest
        interrupted with the counts of the records written; resuming
        finishes the run byte-identical to an uninterrupted one."""
        corpus = corpus_for_runs()
        with pytest.raises(KeyboardInterrupt):
            run_variant(corpus, Variant.FEW_SHOT, backend(), tmp_path / "stopped", k=2,
                        progress=raise_after(9, KeyboardInterrupt))
        partial = stopped_manifest(tmp_path / "stopped")
        assert partial.status == "interrupted"
        assert partial.n_records == partial.dispatched == 9

        resumed = run_variant(corpus, Variant.FEW_SHOT, backend(), tmp_path / "stopped", k=2)
        assert resumed.status == "finished"
        assert resumed.dispatched == 32 - 9
        straight = run_variant(corpus, Variant.FEW_SHOT, backend(), tmp_path / "straight", k=2)
        assert ((tmp_path / "stopped" / resumed.run_id / "records.jsonl").read_bytes()
                == (tmp_path / "straight" / straight.run_id / "records.jsonl").read_bytes())

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

    def test_resume_after_a_last_line_torn_inside_a_character(self, tmp_path):
        """Records hold model reasoning unescaped, so a crash can tear the
        last line inside a multi-byte character: reading the file names that
        line, and resuming drops it and redoes that sentence."""
        def cot_backend():
            return mock_backend([MockRule(pattern=r'"step1"', response=json.dumps(
                {"step1": "the memo\u2019s plan", "step2": "it weighs options",
                 "deliberative": 1}))])

        corpus = corpus_for_runs()
        straight = run_variant(corpus, Variant.COT, cot_backend(), tmp_path / "straight")
        expected = (tmp_path / "straight" / straight.run_id / "records.jsonl").read_bytes()
        lines = expected.splitlines(keepends=True)
        cut = lines[-1].index("\u2019".encode()) + 1

        run_dir = tmp_path / "torn" / straight.run_id
        run_dir.mkdir(parents=True)
        (run_dir / "records.jsonl").write_bytes(b"".join(lines[:-1]) + lines[-1][:cut])
        with pytest.raises(DataError, match=f"line {len(lines)} is not UTF-8"):
            load_records(run_dir)

        resumed = run_variant(corpus, Variant.COT, cot_backend(), tmp_path / "torn")
        assert resumed.dispatched == 1
        assert (run_dir / "records.jsonl").read_bytes() == expected

    @pytest.mark.parametrize("failing", [1, 2], ids=["first write", "last write"])
    def test_a_failed_manifest_write_leaves_the_manifest_before_it(self, tmp_path, monkeypatch,
                                                                     failing):
        """A manifest write that fails part-way, as on a full disk, leaves the
        manifest written before it and no temp file; resuming finishes the
        run, and a finished run's directory holds only its two files."""
        corpus = corpus_for_runs()
        with pytest.raises(StopRun):
            run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path, progress=raise_after(5))
        (run_dir,) = tmp_path.iterdir()
        written = [(run_dir / "manifest.json").read_text(encoding="utf-8")]
        write_text = Path.write_text

        def write_failing(path, text, *args, **kwargs):
            if path.name.startswith("manifest.json"):
                if len(written) == failing:
                    write_text(path, text[:len(text) // 2], *args, **kwargs)
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(text)
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_failing)
        with pytest.raises(OSError, match="No space left"):
            run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path)
        assert (run_dir / "manifest.json").read_text(encoding="utf-8") == written[-1]
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "records.jsonl"]
        monkeypatch.undo()
        resumed = run_variant(corpus, Variant.ZERO_SHOT, backend(), tmp_path)
        assert resumed.status == "finished" and resumed.n_records == 32
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "records.jsonl"]

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
        assert list(manifests) == list(VARIANTS)
        for manifest in manifests.values():
            assert manifest.status == "finished"
            assert manifest.n_records == 32
        assert len({m.run_id for m in manifests.values()}) == len(VARIANTS)

    def test_grid_order_runs_zero_shot_before_its_dependents(self):
        order = tuple(VARIANTS)
        dependents = [v for v, spec in VARIANTS.items() if spec.needs_zero_shot]
        assert dependents
        assert all(order.index(Variant.ZERO_SHOT) < order.index(v) for v in dependents)


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
        line = dumps_canonical(record) + "\n"  # how run_variant writes a record
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
        with pytest.raises(DataError) as raised:
            load(run_dir)
        message = str(raised.value)
        assert message.startswith(f"{run_dir / 'records.jsonl'}: line 3 is not JSON (")
        assert message.endswith("); if the run was interrupted, resuming it repairs the file")

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
