import errno
import json
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import delib.indicators
from delib.cli import main
from delib.config import build_backend, load_settings
from delib.corpus import parse_dataset, sentence_id
from delib.errors import ConfigError, DataError
from delib.prompting import Variant
from delib.runner import load_manifest, load_records, run_variant

from conftest import build_corpus


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def make_workspace(tmp_path):
    """Config file, mock backends answering from the prompt, and a corpus."""
    config = tmp_path / "config.yaml"
    config.write_text(
        """
backends:
  offline:
    type: mock
    default_response: {deliberative: 1}
  echo:
    type: mock
    rules:
      - pattern: 'should|think|could'
        response: {deliberative: 1}
      - pattern: '.'
        response: {deliberative: 0}
  critic:
    type: mock
    rules:
      - pattern: 'You are a critic'
        response: {assessment: sound, issues: none, suggestion: 1}
    default_response: {step1: a, step2: b, deliberative: 1}
cache_dir: cache
runs_dir: runs
reports_dir: reports
""", encoding="utf-8")
    corpus = build_corpus([
        ("We should consider the new proposal.", "K1", 1),
        ("The meeting happened on Tuesday.", "K1", 0),
        ("I think this approach is wrong.", "K2", 1),
        ("The budget was approved last year.", "K2", 0),
        ("We could expand the program soon.", "K2", 1),
        ("The report lists four options.", "K2", 0),
    ])
    data = tmp_path / "corpus.jsonl"
    with data.open("w", encoding="utf-8") as fh:
        for s in corpus.sentences:
            fh.write(json.dumps({"batch": s.batch, "text": s.text,
                                 "label": s.gold_label}) + "\n")
    return tmp_path, config, data


def invoke(config, *args):
    return main(["--config", str(config), *map(str, args)])


class TestExitCodes:
    def test_no_command_is_usage_error(self, workspace, capsys):
        _, config, _ = workspace
        assert main(["--config", str(config)]) == 1

    def test_unknown_option(self, workspace):
        _, config, data = workspace
        assert invoke(config, "stats", "--nope") == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.yaml"), "stats",
                     "--corpus", "x"]) == 2

    def test_undefined_backend(self, workspace, capsys):
        _, config, data = workspace
        code = invoke(config, "run", "--variant", "ZERO_SHOT",
                      "--backend", "nonexistent", "--corpus", data)
        assert code == 2
        assert "not defined" in capsys.readouterr().err

    def test_data_error(self, workspace, capsys):
        tmp_path, config, _ = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"batch": "K1"}\n', encoding="utf-8")
        assert invoke(config, "stats", "--corpus", bad) == 4

    def test_missing_run(self, workspace):
        _, config, data = workspace
        assert invoke(config, "eval", "--run", "nope", "--corpus", data) == 4


class TestIngestAndStats:
    def test_ingest_csv_to_jsonl(self, workspace, capsys):
        tmp_path, config, _ = workspace
        src = tmp_path / "src.csv"
        src.write_text("sentence,batch,label\nhello there,K1,1\nbye now,K5,0\n",
                       encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert invoke(config, "ingest", "--input", src, "--format", "csv",
                      "--out", out, "--batches", "K1") == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["batch"] == "K1"
        assert "wrote 1 sentences" in capsys.readouterr().out

    def test_stats_table(self, workspace, capsys):
        tmp_path, config, data = workspace
        csv_out = tmp_path / "stats.csv"
        assert invoke(config, "stats", "--corpus", data, "--csv", csv_out) == 0
        out = capsys.readouterr().out
        assert "K1" in out and "ALL" in out
        assert csv_out.read_text().startswith("batch,")


class TestRunEvalCompare:
    def _run(self, config, data, variant="ZERO_SHOT", backend="echo", extra=()):
        return invoke(config, "run", "--variant", variant,
                      "--backend", backend, "--corpus", data, *extra)

    def _latest_run_id(self, tmp_path, prefix):
        candidates = [p.name for p in (tmp_path / "runs").iterdir()
                      if p.name.startswith(prefix)]
        assert candidates
        return candidates[0]

    def test_run_and_eval(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data) == 0
        out = capsys.readouterr().out
        assert "finished" in out and "6 records" in out
        run_id = self._latest_run_id(tmp_path, "zero_shot-")

        assert invoke(config, "eval", "--run", run_id, "--corpus", data,
                      "--per-batch") == 0
        out = capsys.readouterr().out
        # the echo backend is keyword-perfect on this corpus
        assert "1.000" in out
        report_dir = tmp_path / "reports" / run_id
        assert (report_dir / "metrics.txt").is_file()
        assert (report_dir / "metrics.csv").read_text().startswith("scope,")
        summary = json.loads((report_dir / "summary.json").read_text())
        assert [r["scope"] for r in summary] == ["ALL", "K1", "K2"]
        assert summary[0]["recall"] == 1.0

    def test_eval_of_torn_records_is_data_error(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data) == 0
        run_id = self._latest_run_id(tmp_path, "zero_shot-")
        with (tmp_path / "runs" / run_id / "records.jsonl").open("a") as fh:
            fh.write('{"cached": 0, "final_lab')
        capsys.readouterr()
        assert invoke(config, "eval", "--run", run_id, "--corpus", data) == 4
        assert "line 7" in capsys.readouterr().err

    def test_eval_failures_as_negative_flag(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data) == 0
        run_id = self._latest_run_id(tmp_path, "zero_shot-")
        capsys.readouterr()
        assert invoke(config, "eval", "--run", run_id, "--corpus", data,
                      "--failures-as-negative") == 0

    def test_compare(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data) == 0
        capsys.readouterr()

        zs = self._latest_run_id(tmp_path, "zero_shot-")
        out_dir = tmp_path / "cmp"
        assert invoke(config, "compare", "--runs", zs, "--corpus", data,
                      "--out-dir", out_dir) == 0
        out = capsys.readouterr().out
        assert "ZERO_SHOT" in out
        assert (out_dir / "comparison.csv").read_text().startswith("group,run,")
        assert (out_dir / "per_batch_series.csv").read_text().startswith(
            "run,batch,precision,recall")

    def test_compare_of_a_run_named_twice_is_usage_error(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data) == 0
        zs = self._latest_run_id(tmp_path, "zero_shot-")
        capsys.readouterr()
        assert invoke(config, "compare", "--runs", f"{zs}, {zs}", "--corpus", data) == 1
        captured = capsys.readouterr()
        assert f"run {zs} is named twice" in captured.err
        assert "ZERO_SHOT" not in captured.out

    def test_error_variant_without_dependency(self, workspace, capsys):
        _, config, data = workspace
        code = self._run(config, data, variant="FEW_SHOT_ERROR")
        assert code == 4
        assert "zero-shot run" in capsys.readouterr().err

    def test_error_variant_rejects_non_zero_shot_dependency(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data, variant="COT") == 0
        cot_dir = tmp_path / "runs" / self._latest_run_id(tmp_path, "cot-")
        capsys.readouterr()
        code = self._run(config, data, variant="FEW_SHOT_ERROR",
                         extra=("--zero-shot-run", cot_dir))
        assert code == 4
        assert "is a COT run" in capsys.readouterr().err

    def test_error_variant_takes_a_bare_zero_shot_run_id(self, workspace, capsys):
        tmp_path, config, data = workspace
        # the offline backend answers 1 throughout, so each batch has an error
        assert self._run(config, data, backend="offline") == 0
        zero_shot = self._latest_run_id(tmp_path, "zero_shot-")
        capsys.readouterr()
        code = self._run(config, data, variant="FEW_SHOT_ERROR", backend="offline",
                         extra=("--zero-shot-run", zero_shot, "--k", 1))
        assert code == 0, capsys.readouterr().err
        assert "finished, 6 records" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_1_is_usage_error(self, workspace, capsys, k):
        tmp_path, config, data = workspace
        assert self._run(config, data, variant="FEW_SHOT", extra=("--k", k)) == 1
        assert "--k" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("k", [0, -1])
    def test_run_variant_rejects_k_below_1(self, workspace, k):
        tmp_path, _, data = workspace
        with pytest.raises(DataError, match="k must be at least 1"):
            run_variant(parse_dataset(data), Variant.FEW_SHOT, build_backend(
                load_settings(tmp_path / "config.yaml"), "echo"), tmp_path / "runs", k=k)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("damage", ["malformed", "not an object", "unknown key",
                                        "missing key"])
    def test_eval_of_damaged_manifest_is_data_error(self, workspace, capsys, damage):
        tmp_path, config, data = workspace
        assert self._run(config, data) == 0
        run_id = self._latest_run_id(tmp_path, "zero_shot-")
        path = tmp_path / "runs" / run_id / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if damage == "malformed":
            text = path.read_text(encoding="utf-8")[:-5]
        elif damage == "not an object":
            text = json.dumps([manifest])
        elif damage == "unknown key":
            text = json.dumps({**manifest, "extra": 1})
        else:
            del manifest["variant"]
            text = json.dumps(manifest)
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(config), "eval", "--run", run_id,
                     "--corpus", str(data)]) == 4
        err = capsys.readouterr().err
        if damage == "malformed":
            last = text.count("\n") + 1  # the cut falls inside the last value
            assert f"error: {path}: line {last} is not JSON (Unterminated string" in err
        else:
            assert f"error: {path}: not a run manifest: " in err

    def test_batches_scope_the_run_and_examples_come_from_the_rest(self, workspace, capsys,
                                                                    monkeypatch):
        tmp_path, config, data = workspace
        prompts = []

        def recording_backend(settings, name):
            backend = build_backend(settings, name)
            transport = backend.transport
            backend.transport = lambda messages: prompts.append(messages) or transport(messages)
            return backend

        monkeypatch.setattr("delib.cli.build_backend", recording_backend)
        assert self._run(config, data, variant="FEW_SHOT",
                         extra=("--batches", "K1", "--k", 2)) == 0, capsys.readouterr().err
        corpus = parse_dataset(data)
        k1 = [s for s in corpus.sentences if s.batch == "K1"]
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert sorted(load_records(run_dir)) == sorted(s.id for s in k1)
        assert len(prompts) == len(k1)
        for messages in prompts:
            user = messages[-1]["content"]
            # the one K1 sentence in a prompt is the one it asks about
            assert sum(s.text in user for s in k1) == 1
            assert sum(s.text in user for s in corpus.sentences if s.batch == "K2") == 2

        api = run_variant(corpus, Variant.FEW_SHOT, build_backend(load_settings(config), "echo"),
                          tmp_path / "api", batches=["K1"], k=2)
        assert run_dir.name == api.run_id
        assert api.batches == ["K1"]

    def test_batch_names_are_stripped(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data, extra=("--batches", "K1, K2")) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert load_manifest(run_dir).batches == ["K1", "K2"]
        assert len(load_records(run_dir)) == len(parse_dataset(data))

    def test_a_batch_the_corpus_lacks_is_data_error(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data, extra=("--batches", "K1,K9")) == 4
        assert "the corpus has no sentences of batches: K9" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("args", [
        ("run", "--variant", "ZERO_SHOT", "--backend", "echo", "--batches", "K1,,K2"),
        ("ingest", "--out", "out.jsonl", "--batches", "K1, "),
        ("compare", "--runs", "a,,b"),
    ], ids=["run --batches", "ingest --batches", "compare --runs"])
    def test_an_empty_name_is_usage_error(self, workspace, capsys, args):
        tmp_path, config, data = workspace
        corpus = ("--input",) if args[0] == "ingest" else ("--corpus",)
        assert invoke(config, *args, *corpus, data) == 1
        assert "has an empty name" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def _recorded_run(self, monkeypatch, config, data, variant, backend):
        """Run the variant twice (the second run resumes a finished run);
        returns the user message of each completion sent."""
        prompts = []

        def recording_backend(settings, name):
            built = build_backend(settings, name)
            transport = built.transport
            built.transport = lambda messages: (prompts.append(messages[-1]["content"])
                                                or transport(messages))
            return built

        monkeypatch.setattr("delib.cli.build_backend", recording_backend)
        for _ in range(2):
            assert self._run(config, data, variant=variant, backend=backend) == 0
        return prompts

    def test_placeholder_in_an_answer_is_sent_verbatim(self, workspace, monkeypatch):
        _, config, data = workspace
        config.write_text(config.read_text(encoding="utf-8").replace(
            "default_response: {step1: a,", "default_response: {step1: 'weigh {{policy}}',"),
            encoding="utf-8")
        prompts = self._recorded_run(monkeypatch, config, data, "COT_MULTI_AGENT", "critic")
        critic = [p for p in prompts if "weigh {{policy}}" in p]
        assert len(critic) == len(parse_dataset(data).sentences)

    def test_placeholder_in_a_sentence_is_sent_verbatim(self, workspace, monkeypatch):
        _, config, data = workspace
        with data.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"batch": "K1", "text": "We should read {{sentence}} here.",
                                 "label": 1}) + "\n")
        prompts = self._recorded_run(monkeypatch, config, data, "ZERO_SHOT", "echo")
        assert len(prompts) == 7
        assert sum("We should read {{sentence}} here." in p for p in prompts) == 1

    def test_run_is_resumable_via_cache(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert self._run(config, data) == 0
        assert self._run(config, data) == 0
        out = capsys.readouterr().out
        assert out.count("6 records") == 2


class TestAnalyzeAndDisagreements:
    def test_analyze_over_two_runs(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert invoke(config, "run", "--variant", "ZERO_SHOT",
                      "--backend", "echo", "--corpus", data) == 0
        assert invoke(config, "run", "--variant", "ZERO_SHOT",
                      "--backend", "offline", "--corpus", data) == 0
        capsys.readouterr()
        run_ids = [p.name for p in (tmp_path / "runs").iterdir()]
        out_dir = tmp_path / "analysis"
        assert invoke(config, "analyze", "--runs", ",".join(run_ids),
                      "--corpus", data, "--out-dir", out_dir) == 0
        out = capsys.readouterr().out
        assert "easy-1: 3 sentences" in out  # echo perfect, offline all-1
        assert "easy-0: 0 sentences" in out
        easy = json.loads((out_dir / "easy_sets.json").read_text())
        assert len(easy["easy_1"]) == 3 and easy["easy_0"] == []
        assert (out_dir / "occurrence.csv").read_text().startswith("set,n,modal")
        assert (out_dir / "example_sentences.csv").is_file()

    def test_analyze_tokenizes_each_easy_set_sentence_once(self, workspace, capsys,
                                                           monkeypatch):
        tmp_path, config, data = workspace
        for backend in ("echo", "offline"):
            assert invoke(config, "run", "--variant", "ZERO_SHOT",
                          "--backend", backend, "--corpus", data) == 0
        run_ids = [p.name for p in (tmp_path / "runs").iterdir()]
        tokenized = []
        tokenize = delib.indicators.tokenize
        monkeypatch.setattr(delib.indicators, "tokenize",
                            lambda text: tokenized.append(text) or tokenize(text))
        assert invoke(config, "analyze", "--runs", ",".join(run_ids), "--corpus", data,
                      "--out-dir", tmp_path / "analysis") == 0
        easy = json.loads((tmp_path / "analysis" / "easy_sets.json").read_text())
        assert len(easy["easy_1"]) == 3
        assert len(tokenized) == len(set(tokenized)) == 3

    def test_top_verbs_below_1_is_usage_error(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert invoke(config, "analyze", "--runs", "a,b", "--corpus", data,
                      "--top-verbs", 0) == 1
        assert "--top-verbs" in capsys.readouterr().err

    def test_analyze_needs_two_runs(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert invoke(config, "run", "--variant", "ZERO_SHOT",
                      "--backend", "echo", "--corpus", data) == 0
        run_id = [p.name for p in (tmp_path / "runs").iterdir()][0]
        assert invoke(config, "analyze", "--runs", run_id,
                      "--corpus", data) == 4

    def test_analyze_of_a_run_named_twice_is_usage_error(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert invoke(config, "run", "--variant", "ZERO_SHOT",
                      "--backend", "echo", "--corpus", data) == 0
        run_id = [p.name for p in (tmp_path / "runs").iterdir()][0]
        capsys.readouterr()
        # once by id and once by directory
        assert invoke(config, "analyze", "--runs", f"{run_id},{tmp_path / 'runs' / run_id}",
                      "--corpus", data) == 1
        assert f"run {run_id} is named twice" in capsys.readouterr().err

    def test_disagreements_requires_traces(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert invoke(config, "run", "--variant", "ZERO_SHOT",
                      "--backend", "echo", "--corpus", data) == 0
        run_id = [p.name for p in (tmp_path / "runs").iterdir()][0]
        code = invoke(config, "disagreements", "--run", run_id, "--corpus", data)
        assert code == 4
        assert "no agent traces" in capsys.readouterr().err

    def test_disagreements_on_multi_agent_run(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert run_cot_multi_agent(config, data) == 0
        run_id = only_run_dir(tmp_path).name
        capsys.readouterr()
        assert invoke(config, "disagreements", "--run", run_id,
                      "--corpus", data) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_disagreements"] == 0  # constant mock always agrees

    def test_a_failed_agent_gives_a_failure_record(self, workspace, capsys):
        """A critic answering no JSON on one sentence: that sentence gets a
        failure record naming the role, counted as a schema failure by the
        manifest and by eval, and disagreements passes over it."""
        tmp_path, config, data = workspace
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["backends"]["flawed"] = {"type": "mock", "rules": [
            {"pattern": "You are the judge", "response": {"rationale": "r", "deliberative": 0}},
            {"pattern": "You are a critic[\\s\\S]*Tuesday", "response": "not json"},
            {"pattern": "You are a critic",
             "response": {"assessment": "flawed", "issues": "i", "suggestion": 0}}],
            "default_response": {"step1": "a", "step2": "b", "deliberative": 1}}
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert invoke(config, "run", "--variant", "COT_MULTI_AGENT", "--backend", "flawed",
                      "--corpus", data) == 0
        run_dir = only_run_dir(tmp_path)
        tuesday = sentence_id("K1", "The meeting happened on Tuesday.")
        (line,) = [line for line in (run_dir / "records.jsonl").read_text().splitlines()
                   if tuesday in line]
        assert line == (
            '{"failure": "CRITIC: no parsable JSON object in response", "final_label": null, '
            f'"run_id": "{run_dir.name}", "sentence_id": "{tuesday}", '
            '"variant": "COT_MULTI_AGENT"}')
        assert load_manifest(run_dir).schema_failures == 1
        capsys.readouterr()
        assert invoke(config, "eval", "--run", run_dir.name, "--corpus", data) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.split()[:6] == ["ALL", "0", "0", "3", "2", "1"]  # TP FP FN TN Fail
        assert invoke(config, "disagreements", "--run", run_dir.name, "--corpus", data) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_disagreements"] == report["judge_followed_critic"] == 5
        assert report["flips"] == {"1->0 gold=0": 2, "1->0 gold=1": 3}

    def test_disagreements_needs_a_predictor_critic_judge_run(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert invoke(config, "run", "--variant", "MULTI_AGENT",
                      "--backend", "offline", "--corpus", data) == 0
        capsys.readouterr()
        assert invoke(config, "disagreements", "--run", only_run_dir(tmp_path).name,
                      "--corpus", data) == 4
        assert "is a MULTI_AGENT run" in capsys.readouterr().err

    def test_analyze_of_a_directory_that_is_not_a_run(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert run_zero_shot(config, data) == 0
        not_a_run = tmp_path / "not_a_run"
        not_a_run.mkdir()
        capsys.readouterr()
        assert invoke(config, "analyze", "--runs", f"{only_run_dir(tmp_path)},{not_a_run}",
                      "--corpus", data) == 4
        assert f"no manifest in {not_a_run}" in capsys.readouterr().err


def run_zero_shot(config, data):
    return invoke(config, "run", "--variant", "ZERO_SHOT", "--backend", "echo",
                  "--corpus", data)


def run_cot_multi_agent(config, data):
    """A predictor-critic-judge run whose critic always agrees."""
    return invoke(config, "run", "--variant", "COT_MULTI_AGENT", "--backend", "critic",
                  "--corpus", data)


def only_run_dir(tmp_path):
    (run_dir,) = (tmp_path / "runs").iterdir()
    return run_dir


class TestDamagedArtifacts:
    """Each damaged file exits 4 through main() with its path in the message."""

    @pytest.mark.parametrize("line", ['{"foo": 1}', "[1, 2]", "7",
                                      '{"sentence_id": 3, "final_label": 1}',
                                      '{"sentence_id": "x"}'])
    def test_eval_of_a_line_that_is_not_a_record(self, workspace, capsys, line):
        tmp_path, config, data = workspace
        assert run_zero_shot(config, data) == 0
        records = only_run_dir(tmp_path) / "records.jsonl"
        with records.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert invoke(config, "eval", "--run", records.parent.name, "--corpus", data) == 4
        err = capsys.readouterr().err
        assert str(records) in err and "line 7 is not a prediction record" in err

    @pytest.mark.parametrize("trace", [5, {"steps": 3}, {"sentence_id": "x"},
                                       "a step without prompt_digest"])
    def test_disagreements_over_a_damaged_trace(self, workspace, capsys, trace):
        tmp_path, config, data = workspace
        assert run_cot_multi_agent(config, data) == 0
        records = only_run_dir(tmp_path) / "records.jsonl"
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        if trace == "a step without prompt_digest":
            trace = record["trace"]
            del trace["steps"][0]["prompt_digest"]
        record["trace"] = trace
        lines[1] = json.dumps(record) + "\n"
        records.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert invoke(config, "disagreements", "--run", records.parent.name,
                      "--corpus", data) == 4
        err = capsys.readouterr().err
        assert f"{records}: the trace of {record['sentence_id']}: " in err

    @pytest.mark.parametrize("label", ['"1"', "true", "2", "1.0"])
    def test_a_label_that_is_not_0_1_or_null_is_not_scored(self, workspace, capsys, label):
        tmp_path, config, data = workspace
        assert run_zero_shot(config, data) == 0
        records = only_run_dir(tmp_path) / "records.jsonl"
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        assert '"final_label": 1,' in lines[0]
        lines[0] = lines[0].replace('"final_label": 1,', f'"final_label": {label},')
        records.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert invoke(config, "eval", "--run", records.parent.name, "--corpus", data) == 4
        assert "line 1 is not a prediction record" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("batches", 5), ("batches", [1]),
                                             ("run_id", 5), ("seed", "0"), ("k", True)])
    def test_eval_of_a_manifest_field_of_the_wrong_type(self, workspace, capsys,
                                                         field, value):
        tmp_path, config, data = workspace
        assert run_zero_shot(config, data) == 0
        path = only_run_dir(tmp_path) / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest[field] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert invoke(config, "eval", "--run", path.parent.name, "--corpus", data) == 4
        err = capsys.readouterr().err
        assert str(path) in err and f"{field} is not a" in err

    @pytest.mark.parametrize("damage", ["truncated", "not an object", "no text",
                                        "text not a string"])
    def test_run_over_a_damaged_cache_entry(self, workspace, capsys, damage):
        tmp_path, config, data = workspace
        assert run_zero_shot(config, data) == 0
        shutil.rmtree(tmp_path / "runs")
        entry = sorted((tmp_path / "cache").rglob("*.json"))[0]
        text = entry.read_text(encoding="utf-8")
        cached = json.loads(text)
        if damage == "truncated":
            text = text[:len(text) // 2]
        elif damage == "not an object":
            text = json.dumps([cached])
        elif damage == "no text":
            del cached["text"]
            text = json.dumps(cached)
        else:
            text = json.dumps({**cached, "text": 1})
        entry.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run_zero_shot(config, data) == 4
        err = capsys.readouterr().err
        if damage == "truncated":
            assert f"error: {entry}: line 1 is not JSON (" in err
        else:
            assert f"error: {entry}: not a cache entry: it needs a string text" in err
        assert entry.read_text(encoding="utf-8") == text  # not replaced by a new answer

    def test_runs_dir_that_is_a_file(self, workspace, capsys):
        tmp_path, config, data = workspace
        (tmp_path / "runs").write_text("", encoding="utf-8")
        assert run_zero_shot(config, data) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "runs") in err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A workspace with a finished ZERO_SHOT run, a finished COT_MULTI_AGENT
    run and their disk cache."""
    root = tmp_path_factory.mktemp("finished")
    make_workspace(root)
    assert run_zero_shot(root / "config.yaml", root / "corpus.jsonl") == 0
    assert run_cot_multi_agent(root / "config.yaml", root / "corpus.jsonl") == 0
    return root


_JSON_VALUES = [None, True, 0, 2, 1.5, "", "1", "K1", [], ["K1"], [1, 2], {}, {"a": 1}]


#: The exit codes a command may return after each target's damage: a corpus
#: that still parses runs, and a config that still loads may name a runs dir
#: without the run (exit 4).
_DAMAGE_CODES = {"records": range(5), "manifest": range(5), "cache": range(5),
                 "corpus": {0, 4}, "config": {0, 2, 4}}
#: Damage that every command reports with one code: bytes that are not UTF-8
#: exit 4 in any input; a NUL is JSON in no corpus line and YAML in no config.
_BYTE_DAMAGE_CODES = {("corpus", "invalid byte"): 4, ("corpus", "cut inside a character"): 4,
                      ("corpus", "NUL byte"): 4, ("config", "invalid byte"): 4,
                      ("config", "cut inside a character"): 4, ("config", "NUL byte"): 2}


_DAMAGES = st.sampled_from(["truncate", "drop a key", "wrong type", "non-object",
                            "invalid byte", "NUL byte", "cut inside a character"])


def damage_file(path, damage, data):
    """Write path back with one damage, as text or as bytes: a JSONL file's
    drawn line, or another file's whole document (a config as YAML)."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True) if path.suffix == ".jsonl" else [text]
    i = data.draw(st.integers(0, len(lines) - 1))
    if damage == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif damage in ("drop a key", "wrong type", "non-object"):
        obj = (yaml.safe_load if path.suffix == ".yaml" else json.loads)(lines[i])
        if damage == "non-object":
            obj = data.draw(st.sampled_from(_JSON_VALUES))
        else:
            key = data.draw(st.sampled_from(sorted(obj)))
            if damage == "drop a key":
                del obj[key]
            else:
                obj[key] = data.draw(st.sampled_from(_JSON_VALUES))
        # JSON is YAML too
        lines[i] = json.dumps(obj) + ("\n" if lines[i].endswith("\n") else "")
        text = "".join(lines)
    if damage == "cut inside a character" and "\u00e9" not in text:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + "\u00e9" + text[at:]
    raw = text.encode("utf-8")
    if damage in ("invalid byte", "NUL byte"):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + (b"\xff" if damage == "invalid byte" else b"\x00") + raw[at:]
    elif damage == "cut inside a character":
        # just after the first byte of a multi-byte character
        raw = raw[:data.draw(st.sampled_from(
            [at + 1 for at, byte in enumerate(raw) if byte >= 0xc0]))]
    path.write_bytes(raw)


@given(target=st.sampled_from(sorted(_DAMAGE_CODES)), damage=_DAMAGES, data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_artifacts_exit_with_a_code(finished_run, capsys, target, damage, data):
    """Whatever the damage to a run's records, manifest or a cache entry, the
    corpus or the config, as text or as bytes (not UTF-8, or a NUL), eval,
    compare, disagreements and run (resuming, and into a fresh runs dir
    reading the cache) return a documented exit code and never raise."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "w"
        shutil.copytree(finished_run, root)
        run_dir = data.draw(st.sampled_from(sorted((root / "runs").iterdir())))
        (multi_agent_dir,) = (root / "runs").glob("cot_multi_agent-*")
        config, corpus = root / "config.yaml", root / "corpus.jsonl"
        if target == "cache":
            path = data.draw(st.sampled_from(sorted((root / "cache").rglob("*.json"))))
        else:
            path = {"records": run_dir / "records.jsonl", "manifest": run_dir / "manifest.json",
                    "corpus": corpus, "config": config}[target]
        damage_file(path, damage, data)

        fresh = root / "fresh.yaml"
        fresh.write_bytes(config.read_bytes().replace(b"runs_dir: runs", b"runs_dir: fresh"))
        codes = [invoke(config, "eval", "--run", run_dir.name, "--corpus", corpus),
                 invoke(config, "compare", "--runs", run_dir.name, "--corpus", corpus),
                 invoke(config, "disagreements", "--run", multi_agent_dir.name,
                        "--corpus", corpus),
                 run_zero_shot(config, corpus),
                 run_zero_shot(fresh, corpus),
                 run_cot_multi_agent(config, corpus),
                 run_cot_multi_agent(fresh, corpus)]
        capsys.readouterr()
        assert set(codes) <= set(_DAMAGE_CODES[target]), codes
        if (target, damage) in _BYTE_DAMAGE_CODES:
            assert set(codes) == {_BYTE_DAMAGE_CODES[target, damage]}, codes


@given(target=st.sampled_from(["corpus", "config"]), damage=_DAMAGES, data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_damaged_corpus_or_config_is_named_first(capsys, target, damage, data):
    """`ingest` of a damaged corpus and `stats` of a good corpus under a
    damaged `--config` exit with a code the damage may give, and any exit
    but 0 prints `error: <the damaged file's path>` first."""
    with tempfile.TemporaryDirectory() as scratch:
        root, config, corpus = make_workspace(Path(scratch))
        path = {"corpus": corpus, "config": config}[target]
        damage_file(path, damage, data)
        capsys.readouterr()
        if target == "corpus":
            code = invoke(config, "ingest", "--input", corpus, "--out", root / "out.jsonl")
        else:
            code = invoke(config, "stats", "--corpus", corpus)
        err = capsys.readouterr().err
        assert code in _DAMAGE_CODES[target], (code, err)
        assert code == 0 or err.startswith(f"error: {path}"), err


def _override(root, key, bundled_file):
    """Point the config's key at a directory holding a copy of a bundled file."""
    (root / key).mkdir()
    shutil.copy(bundled_file, root / key)
    with (root / "config.yaml").open("a", encoding="utf-8") as fh:
        fh.write(f"{key}: {key}\n")
    return root / key / bundled_file.name


def _cache_entry_of_a_new_run(root):
    """An echo cache entry that a ZERO_SHOT run reads once the runs are gone."""
    shutil.rmtree(root / "runs")
    return sorted((root / "cache" / "echo").rglob("*.json"))[0]


PACKAGE = Path(delib.indicators.__file__).parent

#: Each input kind: the file a case damages and the command that reads it.
_INPUTS = {
    "corpus JSONL": lambda root, runs: (
        root / "corpus.jsonl", ("ingest", "--input", root / "corpus.jsonl",
                                "--out", root / "out.jsonl")),
    "corpus CSV": lambda root, runs: (
        root / "corpus.csv", ("ingest", "--input", root / "corpus.csv", "--format", "csv",
                              "--out", root / "out.jsonl")),
    "config": lambda root, runs: (
        root / "config.yaml", ("stats", "--corpus", root / "corpus.jsonl")),
    "template override": lambda root, runs: (
        _override(root, "template_dir", PACKAGE / "templates" / "zero_shot.user.txt"),
        ("run", "--variant", "ZERO_SHOT", "--backend", "echo",
         "--corpus", root / "corpus.jsonl")),
    "lexicon override": lambda root, runs: (
        _override(root, "lexicon_dir", PACKAGE / "lexicons" / "modal.txt"),
        ("analyze", "--runs", ",".join(runs), "--corpus", root / "corpus.jsonl")),
    "records": lambda root, runs: (
        root / "runs" / runs[0] / "records.jsonl",
        ("eval", "--run", runs[0], "--corpus", root / "corpus.jsonl")),
    "manifest": lambda root, runs: (
        root / "runs" / runs[0] / "manifest.json",
        ("eval", "--run", runs[0], "--corpus", root / "corpus.jsonl")),
    "cache entry": lambda root, runs: (
        _cache_entry_of_a_new_run(root),
        ("run", "--variant", "ZERO_SHOT", "--backend", "echo",
         "--corpus", root / "corpus.jsonl")),
}


@pytest.mark.parametrize("kind", list(_INPUTS))
def test_a_byte_that_is_not_utf8_exits_4_naming_the_file_and_line(finished_run, tmp_path,
                                                                   capsys, kind):
    """One 0xff byte at the start of the second line of each input kind (the
    first line of a one-line file)."""
    root = tmp_path / "w"
    shutil.copytree(finished_run, root)
    (root / "corpus.csv").write_text("sentence,batch,label\nhello there,K1,1\n",
                                     encoding="utf-8")
    runs = sorted(p.name for p in (root / "runs").iterdir())
    path, args = _INPUTS[kind](root, runs)
    data = path.read_bytes()
    at = data.find(b"\n") + 1
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    capsys.readouterr()
    assert invoke(root / "config.yaml", *args) == 4
    line = 2 if at else 1
    assert (f"error: {path}: line {line} is not UTF-8 (invalid start byte at offset {at})"
            in capsys.readouterr().err)


@pytest.mark.parametrize("kind", ["corpus JSONL", "records"])
def test_a_line_that_is_not_json_exits_4_naming_the_file_and_line(finished_run, tmp_path,
                                                                   capsys, kind):
    root = tmp_path / "w"
    shutil.copytree(finished_run, root)
    runs = sorted(p.name for p in (root / "runs").iterdir())
    path, args = _INPUTS[kind](root, runs)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join([lines[0], '{"text": "cut\n', *lines[1:]]), encoding="utf-8")
    capsys.readouterr()
    assert invoke(root / "config.yaml", *args) == 4
    assert (f"error: {path}: line 2 is not JSON (Invalid control character at)"
            in capsys.readouterr().err)


def test_a_csv_field_over_the_limit_exits_4_naming_the_file_and_line(workspace, capsys):
    tmp_path, config, _ = workspace
    path = tmp_path / "big.csv"
    path.write_text(f"sentence,batch,label\n{'x' * 200_000},K1,1\n", encoding="utf-8")
    assert invoke(config, "ingest", "--input", path, "--format", "csv",
                  "--out", tmp_path / "out.jsonl") == 4
    assert capsys.readouterr().err == (f"error: {path}: line 2 is not CSV "
                                       "(field larger than field limit (131072))\n")


def test_an_output_into_a_missing_directory_names_the_target(workspace, capsys):
    tmp_path, config, data = workspace
    target = tmp_path / "nodir" / "stats.csv"
    assert invoke(config, "stats", "--corpus", data, "--csv", target) == 4
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{target}'\n"


@pytest.mark.parametrize("output", ["ingest --out", "stats --csv", "eval reports"])
def test_an_output_write_cut_short_leaves_the_file_before_it(finished_run, tmp_path,
                                                             monkeypatch, capsys, output):
    """A whole-file output is replaced: a full disk during its temp write
    leaves the file as it was and no temp file, and the command exits 4."""
    root = tmp_path / "w"
    shutil.copytree(finished_run, root)
    corpus = root / "corpus.jsonl"
    (zero_shot,) = (root / "runs").glob("zero_shot-*")
    path, args = {
        "ingest --out": (root / "out.jsonl",
                         ("ingest", "--input", corpus, "--out", root / "out.jsonl")),
        "stats --csv": (root / "stats.csv",
                        ("stats", "--corpus", corpus, "--csv", root / "stats.csv")),
        "eval reports": (root / "reports" / zero_shot.name / "metrics.txt",
                         ("eval", "--run", zero_shot.name, "--corpus", corpus)),
    }[output]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"previous\n")
    write_text = Path.write_text

    def write_failing(target, text, *args, **kwargs):
        if target.name.endswith(".tmp"):
            write_text(target, text[:len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_text(target, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_failing)
    capsys.readouterr()
    assert invoke(root / "config.yaml", *args) == 4
    assert f"No space left on device: '{path}'" in capsys.readouterr().err
    assert path.read_bytes() == b"previous\n"
    assert sorted(p.name for p in path.parent.iterdir() if p.name.endswith(".tmp")) == []


def valid_config():
    """A config whose echo backend sets every key build_backend reads for a mock."""
    return {"backends": {"echo": {
                "type": "mock", "model": "mock-model", "temperature": 0.0,
                "max_output_tokens": 64, "response_format_hint": "json_object",
                "limits": {"max_in_flight": 2, "retry_budget": 1, "requests_per_minute": 6000},
                "rules": [{"pattern": "should|think|could", "response": {"deliberative": 1}},
                          {"pattern": ".", "response": "{\"deliberative\": 0}"}],
                "default_response": {"deliberative": 0}}},
            "cache_dir": "cache", "runs_dir": "runs", "reports_dir": "reports"}


def run_with_config(root, doc):
    """`delib run` of ZERO_SHOT on the echo backend under the config doc."""
    _, config, data = make_workspace(root)
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return invoke(config, "run", "--variant", "ZERO_SHOT", "--backend", "echo",
                  "--corpus", data)


def _echo(**changes):
    def change(doc):
        doc["backends"]["echo"].update(changes)
    return change


def _limit(**changes):
    def change(doc):
        doc["backends"]["echo"]["limits"].update(changes)
    return change


def _top(**changes):
    return lambda doc: doc.update(changes)


@pytest.mark.parametrize("change,names", [
    (_limit(requests_per_minute="60"), ["'echo'", "requests_per_minute"]),
    (_limit(requests_per_minute=0), ["'echo'", "requests_per_minute"]),
    (_limit(requests_per_minute=-1), ["'echo'", "requests_per_minute"]),
    (_limit(max_in_flight="many"), ["'echo'", "max_in_flight"]),
    (_echo(temperature="hot"), ["'echo'", "temperature"]),
    (_top(backends=["echo"]), ["backends"]),
    (_echo(limits=[2, 1]), ["'echo'", "limits"]),
    (_echo(rules={"pattern": "x"}), ["'echo'", "rules must be a list"]),
    (_echo(rules=[{"response": "x"}]), ["'echo'", "rules[0]", "pattern"]),
    (_echo(rules=[{"pattern": "[", "response": "x"}]), ["'echo'", "rules[0].pattern"]),
    (_top(runs_dir=5), ["runs_dir"]),
    (_echo(temperature=True), ["'echo'", "temperature"]),
    (_limit(max_in_flight=True), ["'echo'", "max_in_flight"]),
    (_limit(retry_budget=False), ["'echo'", "retry_budget"]),
    (_limit(requests_per_minute=True), ["'echo'", "requests_per_minute"]),
    (_limit(max_in_flight=2.7), ["'echo'", "max_in_flight"]),
    (_echo(max_output_tokens=12.9), ["'echo'", "max_output_tokens"]),
    (_limit(max_in_flight=float("inf")), ["'echo'", "max_in_flight"]),
    (_echo(temperature=float("nan")), ["'echo'", "temperature"]),
    (_echo(temperature=float("inf")), ["'echo'", "temperature"]),
    (_echo(temperature=-1), ["'echo'", "temperature"]),
    (_echo(max_output_tokens=0), ["'echo'", "max_output_tokens"]),
    (_echo(max_output_tokens=-5), ["'echo'", "max_output_tokens"]),
    (_echo(type="mokc"), ["'echo'", "type", "'mokc'"]),
    (_limit(requests_per_minute=float("nan")), ["'echo'", "requests_per_minute"]),
    (_echo(response_format_hint=[1, 2]), ["'echo'", "response_format_hint"]),
    (_echo(response_format_hint=""), ["'echo'", "response_format_hint"]),
    # a misspelt key would otherwise be dropped and its default used
    (_top(run_dir="elsewhere"), ["config.yaml: run_dir is not a known key"]),
    (_echo(tempreature=0.7), ["backend 'echo': tempreature is not a known key"]),
    (_limit(max_inflight=9), ["backend 'echo': limits.max_inflight is not a known key"]),
    (_echo(rules=[{"pattern": ".", "respnse": "x"}]),
     ["backend 'echo': rules[0].respnse is not a known key"]),
], ids=["rpm '60'", "rpm 0", "rpm -1", "max_in_flight many", "temperature hot",
        "backends a list", "limits a list", "rules a mapping", "rule without pattern", "rule pattern not a regex",
        "runs_dir 5", "temperature yes", "max_in_flight true", "retry_budget false",
        "rpm true", "max_in_flight 2.7", "max_output_tokens 12.9", "max_in_flight inf",
        "temperature nan", "temperature inf", "temperature -1", "max_output_tokens 0",
        "max_output_tokens -5", "type mokc", "rpm nan", "hint a list", "hint empty",
        "unknown root key", "unknown backend key", "unknown limits key", "unknown rule key"])
def test_a_malformed_config_value_exits_2(tmp_path, capsys, change, names):
    doc = valid_config()
    change(doc)
    assert run_with_config(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(name in err for name in names), err


def test_config_values_that_parse_keep_working(tmp_path, capsys):
    doc = valid_config()
    _limit(max_in_flight="3", retry_budget=2.0, requests_per_minute=600.5)(doc)
    _echo(temperature="0", max_output_tokens="64")(doc)
    assert run_with_config(tmp_path, doc) == 0
    backend = build_backend(load_settings(tmp_path / "config.yaml"), "echo")
    assert (backend.config.limits.max_in_flight, backend.config.limits.retry_budget) == (3, 2)
    assert backend.config.decoding.temperature == 0.0


def _config_paths(node, path=()):
    """The path of every value in a parsed config, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _config_paths(value, path + (key,))


# No number among them: a number in requests_per_minute is a valid rate.
_CONFIG_VALUES = [None, True, "", "many", [], ["x"], {}, {"a": 1}]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_config_value_of_another_type_exits_with_a_code(data):
    """Whatever value of the valid config changes its type, `run` returns
    a documented exit code and never raises."""
    doc = valid_config()
    path = data.draw(st.sampled_from(list(_config_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else doc
    new = data.draw(st.sampled_from([v for v in _CONFIG_VALUES if type(v) is not type(old)]))
    if path:
        parent[path[-1]] = new
    else:
        doc = new
    with tempfile.TemporaryDirectory() as scratch:
        assert run_with_config(Path(scratch), doc) in range(5)


class TestConfig:
    def test_relative_dirs_resolve_against_config(self, workspace):
        tmp_path, config, _ = workspace
        settings = load_settings(config)
        assert settings.runs_dir == tmp_path / "runs"

    def test_directories_resolve_once_at_load(self, tmp_path):
        config = tmp_path / "conf" / "c.yaml"
        config.parent.mkdir()
        elsewhere = tmp_path / "elsewhere"
        config.write_text(f"reports_dir: {elsewhere}\ncache_dir: null\n")
        settings = load_settings(config)
        assert settings.runs_dir == tmp_path / "conf" / "runs"  # the default
        assert settings.reports_dir == elsewhere  # absolute: kept as it is
        assert settings.cache_dir == tmp_path / "conf" / "cache"
        assert settings.template_dir is None and settings.lexicon_dir is None

    def test_http_backend_requires_endpoint(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text("backends:\n  remote:\n    model: m\n")
        settings = load_settings(config)
        with pytest.raises(ConfigError, match="endpoint and model"):
            build_backend(settings, "remote")

    def test_invalid_yaml(self, tmp_path):
        """The line is YAML's own mark of the problem: here, the stream's end."""
        config = tmp_path / "c.yaml"
        config.write_text("backends: [unclosed\n")
        with pytest.raises(ConfigError) as raised:
            load_settings(config)
        assert str(raised.value) == (f"{config}: line 2 is not YAML "
                                     "(expected ',' or ']', but got '<stream end>')")

    @pytest.mark.parametrize("text,message", [
        ("cache_dir: cache\nruns_dir: a: b\n", "line 2 is not YAML (mapping values are not "
                                                "allowed here)"),
        ("cache_dir: cache\r\nruns_dir: \x00\r\n", "line 2 is not YAML (special characters "
                                                    "are not allowed)"),
    ], ids=["syntax", "NUL"])
    def test_text_that_is_not_yaml_names_the_file_and_line(self, tmp_path, text, message):
        config = tmp_path / "c.yaml"
        config.write_bytes(text.encode("utf-8"))
        with pytest.raises(ConfigError) as raised:
            load_settings(config)
        assert str(raised.value) == f"{config}: {message}"

    def test_non_mapping_root(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text("- a\n- b\n")
        with pytest.raises(ConfigError) as raised:
            load_settings(config)
        assert str(raised.value) == f"{config}: config root must be a mapping"

    @pytest.mark.parametrize("text,message", [
        ("backends: [a]\n", "config key backends must be a mapping of backend names"),
        ("runs_dir: [a]\n", "config key runs_dir must be a path, got ['a']"),
    ], ids=["backends", "directory"])
    def test_a_config_of_the_wrong_shape_names_the_file(self, tmp_path, text, message):
        config = tmp_path / "c.yaml"
        config.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            load_settings(config)
        assert str(raised.value) == f"{config}: {message}"

    def test_http_backend_built_from_config(self, tmp_path, monkeypatch):
        config = tmp_path / "c.yaml"
        config.write_text(
            "backends:\n"
            "  remote:\n"
            "    endpoint: http://localhost:8000/v1\n"
            "    model: test-model\n"
            "    auth_env: DELIB_API_KEY\n"
            "    temperature: 0.0\n"
            "    limits: {max_in_flight: 2, retry_budget: 1}\n")
        backend = build_backend(load_settings(config), "remote")
        assert backend.config.model == "test-model"
        assert backend.config.limits.max_in_flight == 2
        monkeypatch.delenv("DELIB_API_KEY", raising=False)
        with pytest.raises(ConfigError, match="DELIB_API_KEY"):
            backend.complete([{"role": "user", "content": "x"}])
