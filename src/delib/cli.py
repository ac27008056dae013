"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 backend/transport failure, 4 data error (also a file that cannot be read or
written).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import corpus as corpus_mod
from . import evaluation, indicators, runner
from .agents import AgentTrace, analyze_disagreements
from .config import build_backend, load_settings
from .errors import DataError, DelibError
from .prompting import Variant
from .templates import TemplateSet


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML config resolving backends and directories.")
@click.pass_context
def cli(ctx, config_path):
    """Sentence-level deliberative-process-privilege classification."""
    ctx.obj = load_settings(config_path)


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--format", "fmt", default="jsonl",
              type=click.Choice(["jsonl", "csv", "tsv", "table"]))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--batches", default=None,
              help="Comma-separated batch codes to keep (e.g. K1,K2,K3,R4).")
def ingest(input_path, fmt, out_path, batches):
    """Normalize a source dataset into canonical JSONL."""
    corpus = corpus_mod.parse_dataset(input_path, format=fmt)
    if batches:
        corpus = corpus_mod.filter_batches(corpus, batches.split(","))
    corpus_mod.save_jsonl(corpus, out_path)
    click.echo(f"wrote {len(corpus)} sentences to {out_path}")


@cli.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--csv", "csv_path", default=None, type=click.Path())
def stats(corpus_path, csv_path):
    """Per-batch sentence and AD counts."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    rows = corpus_mod.corpus_stats(corpus)
    click.echo(corpus_mod.stats_table(rows))
    if csv_path:
        Path(csv_path).write_text(corpus_mod.stats_csv(rows), encoding="utf-8")


@cli.command()
@click.option("--variant", "variant_name", required=True,
              type=click.Choice([v.value for v in Variant], case_sensitive=False))
@click.option("--backend", "backend_name", required=True)
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--batches", default=None,
              help="Comma-separated batch codes to run; examples come from the others.")
@click.option("--k", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
@click.option("--strict-schema", is_flag=True, default=False)
@click.option("--zero-shot-run", "zero_shot_run", default=None,
              help="Run id or directory of the zero-shot dependency (error-based variants).")
@click.pass_obj
def run(settings, variant_name, backend_name, corpus_path, batches, k, seed,
        strict_schema, zero_shot_run):
    """Execute one prompting variant over the corpus."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    backend = build_backend(settings, backend_name)
    manifest = runner.run_variant(
        corpus, Variant(variant_name.upper()), backend, settings.runs_dir,
        batches=batches.split(",") if batches else None, k=k, seed=seed,
        repair_policy="STRICT" if strict_schema else "LENIENT",
        templates=TemplateSet(settings.template_dir),
        zero_shot_run_dir=_find_run_dir(settings, zero_shot_run) if zero_shot_run else None)
    click.echo(f"run {manifest.run_id}: {manifest.status}, "
               f"{manifest.n_records} records, "
               f"{manifest.schema_failures} schema failures")


def _find_run_dir(settings, run_id: str) -> Path:
    direct = Path(run_id)
    if direct.is_dir():
        return direct
    candidate = settings.runs_dir / run_id
    if candidate.is_dir():
        return candidate
    raise DataError(f"run not found: {run_id}")


@cli.command("eval")
@click.option("--run", "run_id", required=True)
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--per-batch", is_flag=True, default=False)
@click.option("--failures-as-negative", is_flag=True, default=False)
@click.pass_obj
def eval_cmd(settings, run_id, corpus_path, per_batch, failures_as_negative):
    """Metrics for one run (combined, optionally per batch)."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    run_dir = _find_run_dir(settings, run_id)
    manifest = runner.load_manifest(run_dir)
    corpus = corpus_mod.filter_batches(corpus, manifest.batches)
    predictions = runner.load_predictions(run_dir)
    scopes = ["ALL"] + (manifest.batches if per_batch else [])
    reports = evaluation.evaluate_run(predictions, corpus, scopes,
                                      failures_as_negative)
    click.echo(evaluation.metrics_text(reports))
    out_dir = settings.reports_dir / manifest.run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(evaluation.metrics_text(reports) + "\n",
                                         encoding="utf-8")
    (out_dir / "metrics.csv").write_text(evaluation.metrics_csv(reports),
                                         encoding="utf-8")
    (out_dir / "summary.json").write_text(
        json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True),
        encoding="utf-8")
    click.echo(f"reports written to {out_dir}")


@cli.command()
@click.option("--runs", "run_ids", required=True,
              help="Comma-separated run ids or directories.")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--out-dir", "out_dir", default=None, type=click.Path())
@click.pass_obj
def compare(settings, run_ids, corpus_path, out_dir):
    """Comparison grid over runs plus per-batch precision/recall series."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    combined: dict[str, evaluation.MetricsReport] = {}
    groups: dict[str, str] = {}
    per_batch: dict[str, list[evaluation.MetricsReport]] = {}
    for run_id in run_ids.split(","):
        run_dir = _find_run_dir(settings, run_id.strip())
        manifest = runner.load_manifest(run_dir)
        scoped = corpus_mod.filter_batches(corpus, manifest.batches)
        predictions = runner.load_predictions(run_dir)
        label = f"{manifest.variant} [{manifest.run_id}]"
        groups[label] = manifest.backend_name
        reports = evaluation.evaluate_run(predictions, scoped,
                                          ["ALL"] + manifest.batches)
        combined[label] = reports[0]
        per_batch[label] = reports[1:]
    rows = evaluation.compare_runs(combined, groups)
    click.echo(evaluation.comparison_text(rows))
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.txt").write_text(
            evaluation.comparison_text(rows) + "\n", encoding="utf-8")
        (out / "comparison.csv").write_text(
            evaluation.comparison_csv(rows), encoding="utf-8")
        (out / "per_batch_series.csv").write_text(
            evaluation.per_batch_series_csv(per_batch), encoding="utf-8")
        click.echo(f"comparison written to {out}")


@cli.command()
@click.option("--runs", "run_ids", required=True)
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--out-dir", "out_dir", default=None, type=click.Path())
@click.option("--top-verbs", default=10, show_default=True, type=click.IntRange(min=1))
@click.pass_obj
def analyze(settings, run_ids, corpus_path, out_dir, top_verbs):
    """Easy sets and the linguistic indicator tables."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    run_predictions = []
    for run_id in run_ids.split(","):
        run_predictions.append(
            runner.load_predictions(_find_run_dir(settings, run_id.strip())))
    lexicons = indicators.load_lexicons(settings.lexicon_dir)
    easy = indicators.build_easy_sets(run_predictions, corpus)
    by_id = corpus.by_id()
    # the tables read only the easy-set sentences
    profiles = {sid: indicators.extract_indicators(by_id[sid], lexicons)
                for sid in easy.easy_1 | easy.easy_0}

    sets = {"easy_1": easy.easy_1, "easy_0": easy.easy_0}
    click.echo(f"easy-1: {len(easy.easy_1)} sentences; "
               f"easy-0: {len(easy.easy_0)} sentences "
               f"(over {easy.n_runs} runs, lexicon digest {lexicons.digest})")

    occurrence = {}
    cooccurrence = {}
    verbs = {}
    for name, ids in sets.items():
        if not ids:
            click.echo(f"{name}: empty, skipping tables")
            continue
        occurrence[name] = indicators.occurrence_table(ids, profiles)
        cooccurrence[name] = indicators.cooccurrence_stats(ids, profiles)
        verbs[name] = indicators.verb_frequency(ids, profiles, top_verbs)

    for name, table in occurrence.items():
        cells = "  ".join(f"{c}={100 * table[c]:.1f}%" for c in indicators.CATEGORY_ORDER)
        click.echo(f"{name} (n={table['n']}): {cells}  "
                   f"past_tense={100 * table['past_tense']:.1f}%")
    for name, st in cooccurrence.items():
        click.echo(f"{name}: median unique={st['median_unique']} "
                   f"total={st['median_total']} >=2={100 * st['share_2plus']:.1f}% "
                   f"zero={100 * st['share_zero']:.1f}%")

    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "easy_sets.json").write_text(json.dumps(
            {"easy_1": sorted(easy.easy_1), "easy_0": sorted(easy.easy_0),
             "n_runs": easy.n_runs, "lexicon_digest": lexicons.digest},
            indent=2), encoding="utf-8")
        (out / "occurrence.csv").write_text(
            indicators.occurrence_csv(occurrence), encoding="utf-8")
        (out / "cooccurrence.csv").write_text(
            indicators.cooccurrence_csv(cooccurrence), encoding="utf-8")
        (out / "pairs.csv").write_text(indicators.pairs_csv(cooccurrence), encoding="utf-8")
        (out / "verbs.csv").write_text(indicators.verbs_csv(verbs), encoding="utf-8")
        with (out / "example_sentences.csv").open("w", encoding="utf-8") as fh:
            fh.write("unique_indicators,gold_label,text\n")
            for name, ids in sets.items():
                for sid in sorted(ids):
                    profile = profiles[sid]
                    text = by_id[sid].text.replace('"', '""')
                    fh.write(f'{profile.unique_count},{by_id[sid].gold_label},"{text}"\n')
        click.echo(f"analysis written to {out}")


@cli.command()
@click.option("--run", "run_id", required=True,
              help="A predictor-critic-judge multi-agent run.")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.pass_obj
def disagreements(settings, run_id, corpus_path):
    """Flip analysis over predictor/critic disagreements."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    run_dir = _find_run_dir(settings, run_id)
    records = runner.load_records(run_dir)
    traces = []
    for sentence_id, rec in records.items():
        if rec.get("trace"):
            try:
                traces.append(AgentTrace.from_dict(rec["trace"]))
            except TypeError as exc:
                raise DataError(f"{run_dir / 'records.jsonl'}: the trace of {sentence_id}: "
                                f"{exc}") from exc
    if not traces:
        raise DataError(f"run {run_id} holds no agent traces")
    report = analyze_disagreements(traces, corpus)
    click.echo(json.dumps(report.to_dict(), indent=2))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(exc.format_message(), err=True)
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except DelibError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except OSError as exc:  # its message names the path
        click.echo(f"error: {exc}", err=True)
        return DataError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
