import json
from pathlib import Path

import pytest

from delib.cli import main
from delib.config import build_backend, load_settings
from delib.errors import ConfigError

from conftest import build_corpus


@pytest.fixture
def workspace(tmp_path):
    """Config file, mock backend answering from the prompt, and a corpus."""
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

    def test_analyze_needs_two_runs(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert invoke(config, "run", "--variant", "ZERO_SHOT",
                      "--backend", "echo", "--corpus", data) == 0
        run_id = [p.name for p in (tmp_path / "runs").iterdir()][0]
        assert invoke(config, "analyze", "--runs", run_id,
                      "--corpus", data) == 4

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
        assert invoke(config, "run", "--variant", "MULTI_AGENT",
                      "--backend", "offline", "--corpus", data) == 0
        run_id = [p.name for p in (tmp_path / "runs").iterdir()
                  if p.name.startswith("multi_agent-")][0]
        capsys.readouterr()
        assert invoke(config, "disagreements", "--run", run_id,
                      "--corpus", data) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_disagreements"] == 0  # constant mock always agrees


class TestConfig:
    def test_relative_dirs_resolve_against_config(self, workspace):
        tmp_path, config, _ = workspace
        settings = load_settings(config)
        assert settings.resolve(settings.runs_dir) == tmp_path / "runs"

    def test_http_backend_requires_endpoint(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text("backends:\n  remote:\n    model: m\n")
        settings = load_settings(config)
        with pytest.raises(ConfigError, match="endpoint and model"):
            build_backend(settings, "remote")

    def test_invalid_yaml(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text("backends: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid config"):
            load_settings(config)

    def test_non_mapping_root(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_settings(config)

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
