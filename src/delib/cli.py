"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 backend/transport failure, 4 data error (also a file that cannot be read or
written).
"""
from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click

from . import corpus as corpus_mod
from . import evaluation, indicators, runner
from .agents import AgentTrace, analyze_disagreements
from .config import build_backend, load_settings
from .errors import DataError, DelibError
from .parsing import replace_text
from .prompting import VARIANTS, Variant
from .templates import TemplateSet


def _names(_ctx, param, value: str | None) -> list[str] | None:
    """The comma-separated names of an option's value, each stripped (None
    when the option is not given); an empty name is a usage error."""
    if value is None:
        return None
    names = [name.strip() for name in value.split(",")]
    if not all(names):
        raise click.BadParameter(f"{value!r} has an empty name", param=param)
    return names


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
              type=click.Choice(["jsonl", "csv", "tsv"]))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--batches", default=None, callback=_names,
              help="Comma-separated batch codes to keep (e.g. K1,K2,K3,R4).")
def ingest(input_path, fmt, out_path, batches):
    """Normalize a source dataset into canonical JSONL."""
    corpus = corpus_mod.parse_dataset(input_path, format=fmt)
    if batches:
        corpus = corpus_mod.filter_batches(corpus, batches)
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
        replace_text(Path(csv_path), corpus_mod.stats_csv(rows))


@cli.command()
@click.option("--variant", "variant_name", required=True,
              type=click.Choice([v.value for v in Variant], case_sensitive=False))
@click.option("--backend", "backend_name", required=True)
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--batches", default=None, callback=_names,
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
        batches=batches, k=k, seed=seed,
        repair_policy="STRICT" if strict_schema else "LENIENT",
        templates=TemplateSet(settings.template_dir),
        zero_shot_run_dir=_load_run(settings, zero_shot_run)[0] if zero_shot_run else None)
    click.echo(f"run {manifest.run_id}: {manifest.status}, "
               f"{manifest.n_records} records, "
               f"{manifest.schema_failures} schema failures")


def _load_run(settings, run_id: str) -> tuple[Path, runner.RunManifest]:
    """The directory of a run id (or directory) and its manifest."""
    run_dir = Path(run_id)
    if not run_dir.is_dir():
        run_dir = settings.runs_dir / run_id
        if not run_dir.is_dir():
            raise DataError(f"run not found: {run_id}")
    return run_dir, runner.load_manifest(run_dir)


def _load_runs(settings, run_ids: list[str]) -> list[tuple[Path, runner.RunManifest]]:
    """_load_run of each run id (or directory); a run named twice is a
    usage error."""
    runs = {}
    for run_id in run_ids:
        run_dir, manifest = _load_run(settings, run_id)
        if manifest.run_id in runs:
            raise click.BadParameter(f"run {manifest.run_id} is named twice",
                                     param_hint="'--runs'")
        runs[manifest.run_id] = run_dir, manifest
    return list(runs.values())


def _score_run(run_dir: Path, manifest: runner.RunManifest, corpus: corpus_mod.Corpus,
               per_batch: bool = True, failures_as_negative: bool = False) -> list:
    """A run's MetricsReports over the corpus sentences of its batches:
    ALL, then each batch when per_batch."""
    return evaluation.evaluate_run(
        runner.load_predictions(run_dir), corpus_mod.filter_batches(corpus, manifest.batches),
        ["ALL"] + (manifest.batches if per_batch else []), failures_as_negative)


def _write_reports(out_dir: str | Path, what: str, files: dict[str, str]) -> None:
    """Replace each report file's text under out_dir, creating it, and say so."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        replace_text(out_dir / name, text)
    click.echo(f"{what} written to {out_dir}")


@cli.command("eval")
@click.option("--run", "run_id", required=True)
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--per-batch", is_flag=True, default=False)
@click.option("--failures-as-negative", is_flag=True, default=False)
@click.pass_obj
def eval_cmd(settings, run_id, corpus_path, per_batch, failures_as_negative):
    """Metrics for one run (combined, optionally per batch)."""
    run_dir, manifest = _load_run(settings, run_id)
    reports = _score_run(run_dir, manifest, corpus_mod.parse_dataset(corpus_path),
                         per_batch, failures_as_negative)
    text = evaluation.metrics_text(reports)
    click.echo(text)
    _write_reports(settings.reports_dir / manifest.run_id, "reports", {
        "metrics.txt": text + "\n",
        "metrics.csv": evaluation.metrics_csv(reports),
        "summary.json": json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)})


@cli.command()
@click.option("--runs", "run_ids", required=True, callback=_names,
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
    for run_dir, manifest in _load_runs(settings, run_ids):
        reports = _score_run(run_dir, manifest, corpus)
        label = f"{manifest.variant} [{manifest.run_id}]"
        groups[label] = manifest.backend_name
        combined[label] = reports[0]
        per_batch[label] = reports[1:]
    rows = evaluation.compare_runs(combined, groups)
    text = evaluation.comparison_text(rows)
    click.echo(text)
    if out_dir:
        _write_reports(out_dir, "comparison", {
            "comparison.txt": text + "\n",
            "comparison.csv": evaluation.comparison_csv(rows),
            "per_batch_series.csv": evaluation.per_batch_series_csv(per_batch)})


@cli.command()
@click.option("--runs", "run_ids", required=True, callback=_names)
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--out-dir", "out_dir", default=None, type=click.Path())
@click.option("--top-verbs", default=10, show_default=True, type=click.IntRange(min=1))
@click.pass_obj
def analyze(settings, run_ids, corpus_path, out_dir, top_verbs):
    """Easy sets and the linguistic indicator tables."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    run_predictions = [runner.load_predictions(run_dir)
                       for run_dir, _manifest in _load_runs(settings, run_ids)]
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
        examples = io.StringIO()
        examples.write("unique_indicators,gold_label,text\n")
        csv.writer(examples, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n").writerows(
            (profiles[sid].unique_count, by_id[sid].gold_label, by_id[sid].text)
            for ids in sets.values() for sid in sorted(ids))
        _write_reports(out_dir, "analysis", {
            "easy_sets.json": json.dumps(
                {"easy_1": sorted(easy.easy_1), "easy_0": sorted(easy.easy_0),
                 "n_runs": easy.n_runs, "lexicon_digest": lexicons.digest}, indent=2),
            "occurrence.csv": indicators.occurrence_csv(occurrence),
            "cooccurrence.csv": indicators.cooccurrence_csv(cooccurrence),
            "pairs.csv": indicators.pairs_csv(cooccurrence),
            "verbs.csv": indicators.verbs_csv(verbs),
            "example_sentences.csv": examples.getvalue()})


@cli.command()
@click.option("--run", "run_id", required=True,
              help="A predictor-critic-judge multi-agent run.")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.pass_obj
def disagreements(settings, run_id, corpus_path):
    """Flip analysis over predictor/critic disagreements."""
    corpus = corpus_mod.parse_dataset(corpus_path)
    run_dir, manifest = _load_run(settings, run_id)
    spec = VARIANTS.get(manifest.variant)
    if spec is None or spec.agents != "critic":
        raise DataError(f"run {run_id} holds no agent traces of a predictor-critic-judge "
                        f"run: it is a {manifest.variant} run")
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
