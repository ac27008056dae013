"""Confusion matrices and the metric suite: precision, recall, F1, F2, MCC.

Positive class is AD (gold label 1). Schema failures are excluded from the
matrix and reported separately; --failures-as-negative reproduces the
alternative convention of scoring them as negative predictions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from .corpus import Corpus, csv_text
from .errors import DataError


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    n_schema_failures: int = 0

    @property
    def n_scored(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricsReport:
    scope: str
    precision: float
    recall: float
    f1: float
    f2: float
    mcc: float
    matrix: ConfusionMatrix

    def to_dict(self) -> dict:
        return {"scope": self.scope, "precision": self.precision,
                "recall": self.recall, "f1": self.f1, "f2": self.f2,
                "mcc": self.mcc,
                "matrix": {"tp": self.matrix.tp, "fp": self.matrix.fp,
                           "fn": self.matrix.fn, "tn": self.matrix.tn,
                           "n_schema_failures": self.matrix.n_schema_failures}}


def f_beta(precision: float, recall: float, beta: float) -> float:
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def mcc_value(tp: int, fp: int, fn: int, tn: int) -> float:
    factors = [(tp + fp), (tp + fn), (tn + fp), (tn + fn)]
    if any(f == 0 for f in factors):
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(math.prod(float(f) for f in factors))


def _tally_batches(
    predictions: Mapping[str, int | None],
    corpus: Corpus,
    failures_as_negative: bool,
) -> tuple[dict[str, list[int]], dict[str, tuple[int, str]]]:
    """One pass over the corpus: per batch, its (tp, fp, fn, tn, schema
    failure) counts and its first sentence without a prediction, as
    (corpus position, id).
    """
    known = {s.id for s in corpus.sentences}
    unknown = set(predictions) - known
    if unknown:
        raise DataError(f"predictions for unknown sentence ids: {sorted(unknown)[:5]}")
    counts: dict[str, list[int]] = {}
    gaps: dict[str, tuple[int, str]] = {}
    for i, s in enumerate(corpus.sentences):
        cells = counts.get(s.batch)
        if cells is None:
            cells = counts[s.batch] = [0, 0, 0, 0, 0]
        if s.id not in predictions:
            gaps.setdefault(s.batch, (i, s.id))
            continue
        pred = predictions[s.id]
        if pred is None:
            if not failures_as_negative:
                cells[4] += 1
                continue
            pred = 0
        if s.gold_label == 1:
            cells[0 if pred == 1 else 2] += 1
        else:
            cells[1 if pred == 1 else 3] += 1
    return counts, gaps


def _pooled(counts: dict[str, list[int]], gaps: dict[str, tuple[int, str]],
            batches: Collection[str]) -> ConfusionMatrix:
    """The matrix of the given tallied batches; DataError names their first
    sentence without a prediction in corpus order."""
    gap = min((gaps[b] for b in batches if b in gaps), default=None)
    if gap is not None:
        raise DataError(f"no prediction for sentence {gap[1]}")
    return ConfusionMatrix(*map(sum, zip(*(counts[b] for b in batches))))


def metrics(matrix: ConfusionMatrix, scope: str = "ALL") -> MetricsReport:
    tp, fp, fn = matrix.tp, matrix.fp, matrix.fn
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    return MetricsReport(
        scope=scope,
        precision=precision,
        recall=recall,
        f1=f_beta(precision, recall, 1.0),
        f2=f_beta(precision, recall, 2.0),
        mcc=mcc_value(tp, fp, fn, matrix.tn),
        matrix=matrix,
    )


def evaluate_run(
    predictions: Mapping[str, int | None],
    corpus: Corpus,
    scopes: Sequence[str] = ("ALL",),
    failures_as_negative: bool = False,
) -> list[MetricsReport]:
    """One MetricsReport per scope; "ALL" pools every corpus batch. The
    corpus is tallied once, per batch, for all the scopes."""
    reports = []
    present = set(corpus.batches())
    tally = None
    for scope in scopes:
        if scope != "ALL" and scope not in present:
            raise DataError(f"scope {scope!r} has zero sentences")
        if tally is None:
            tally = _tally_batches(predictions, corpus, failures_as_negative)
        matrix = _pooled(*tally, present if scope == "ALL" else (scope,))
        if matrix.n_scored == 0 and matrix.n_schema_failures == 0:
            raise DataError(f"scope {scope!r} has zero sentences")
        reports.append(metrics(matrix, scope=scope))
    return reports


_COLUMNS = ("precision", "recall", "f1", "f2", "mcc")


@dataclass
class ComparisonRow:
    group: str
    label: str
    report: MetricsReport
    best: set = None  # columns where this row is the group maximum


def compare_runs(
    reports: Mapping[str, MetricsReport],
    groups: Mapping[str, str] | None = None,
) -> list[ComparisonRow]:
    """Grid of runs with per-group column maxima marked.

    reports maps run label to its combined-scope report; groups maps run
    label to a display group (e.g. the backend name).
    """
    if not reports:
        raise DataError("compare_runs: no reports")
    groups = groups or {label: "all" for label in reports}
    rows = [ComparisonRow(group=groups.get(label, "all"), label=label,
                          report=rep, best=set())
            for label, rep in reports.items()]
    by_group: dict[str, list[ComparisonRow]] = {}
    for row in rows:
        by_group.setdefault(row.group, []).append(row)
    for members in by_group.values():
        for col in _COLUMNS:
            top = max(getattr(r.report, col) for r in members)
            for r in members:
                if getattr(r.report, col) == top:
                    r.best.add(col)
    return rows


def comparison_text(rows: Sequence[ComparisonRow]) -> str:
    header = f"{'Group':<14}{'Variant':<36}" + "".join(f"{c.upper():>9}" for c in _COLUMNS)
    lines = [header]
    for row in rows:
        cells = ""
        for col in _COLUMNS:
            value = f"{getattr(row.report, col):.3f}"
            if col in row.best:
                value += "*"
            cells += f"{value:>9}"
        lines.append(f"{row.group:<14}{row.label:<36}{cells}")
    lines.append("(* marks the per-group column maximum)")
    return "\n".join(lines)


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    return csv_text(
        ["group", "run", *_COLUMNS] + [f"best_{c}" for c in _COLUMNS],
        ([row.group, row.label]
         + [f"{getattr(row.report, c):.6f}" for c in _COLUMNS]
         + [int(c in row.best) for c in _COLUMNS] for row in rows))


def per_batch_series_csv(
    per_run_reports: Mapping[str, Sequence[MetricsReport]],
) -> str:
    """Figure-style CSV series: per-run, per-batch precision and recall."""
    return csv_text(["run", "batch", "precision", "recall"],
                    ([label, rep.scope, f"{rep.precision:.6f}", f"{rep.recall:.6f}"]
                     for label, reps in per_run_reports.items() for rep in reps))


def metrics_text(reports: Sequence[MetricsReport]) -> str:
    header = (f"{'Scope':<8}{'TP':>7}{'FP':>7}{'FN':>7}{'TN':>7}{'Fail':>7}"
              + "".join(f"{c.upper():>10}" for c in _COLUMNS))
    lines = [header]
    for rep in reports:
        m = rep.matrix
        lines.append(
            f"{rep.scope:<8}{m.tp:>7}{m.fp:>7}{m.fn:>7}{m.tn:>7}{m.n_schema_failures:>7}"
            + "".join(f"{getattr(rep, c):>10.3f}" for c in _COLUMNS))
    return "\n".join(lines)


def metrics_csv(reports: Sequence[MetricsReport]) -> str:
    return csv_text(
        ["scope", "tp", "fp", "fn", "tn", "n_schema_failures",
         "precision", "recall", "f1", "f2", "mcc"],
        ([rep.scope, rep.matrix.tp, rep.matrix.fp, rep.matrix.fn, rep.matrix.tn,
          rep.matrix.n_schema_failures] + [f"{getattr(rep, c):.6f}" for c in _COLUMNS]
         for rep in reports))
