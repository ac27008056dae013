"""Correctness gate: what every run of the grid must have produced.

The expected outcome of each (variant, sentence) follows from the scripted
transport's rule alone: labels never depend on the few-shot examples, so
the gate needs no knowledge of example selection.
"""
from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

from delib.agents import AGREEMENT, CRITIC_ACCEPTED, JUDGE_DECIDED, TIEBREAK
from delib.prompting import Variant

from gen import Behaviour

_SINGLE_KIND = {Variant.ZERO_SHOT: "zero_shot", Variant.FEW_SHOT: "few_shot",
                Variant.FEW_SHOT_ERROR: "few_shot", Variant.COT: "cot",
                Variant.COT_FEW_SHOT_ERROR: "cot"}


def expected(variant: Variant, b: Behaviour) -> tuple[int | None, str | None]:
    """(final label, resolution) the pipeline must record; None label for a
    schema failure, None resolution for single-agent variants."""
    def bad(kind: str) -> bool:
        return b.shape(kind) == "unparseable"

    if variant in _SINGLE_KIND:
        kind = _SINGLE_KIND[variant]
        return (None if bad(kind) else getattr(b, kind)), None
    if variant == Variant.MULTI_AGENT:
        if bad("zero_shot") or bad("vote_second"):
            return None, None
        if b.second_agrees:
            return b.zero_shot, AGREEMENT
        return (None, None) if bad("vote_tiebreak") else (b.tiebreak, TIEBREAK)
    if bad("cot") or bad("critic"):
        return None, None
    if b.critic_agrees:
        return b.cot, CRITIC_ACCEPTED
    if bad("judge"):
        return None, None
    return (1 - b.cot if b.judge_follows_critic else b.cot), JUDGE_DECIDED


def read_records(run_dir: Path) -> list[dict]:
    with (run_dir / "records.jsonl").open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run(variant: Variant, records: list[dict], corpus, table) -> list[str]:
    """Mismatches between one run's records and the transport's rule."""
    problems = []
    counts = Counter(r["sentence_id"] for r in records)
    scope = Counter(s.id for s in corpus.sentences)
    if counts != scope:
        problems.append(f"{variant.value}: records do not cover the scope exactly once "
                        f"({sum(counts.values())} records, {len(scope)} sentences)")
    by_id = corpus.by_id()
    want_res: Counter = Counter()
    got_res: Counter = Counter()
    wrong = 0
    for r in records:
        s = by_id.get(r["sentence_id"])
        if s is None:
            continue
        label, resolution = expected(variant, table[s.text])
        wrong += r["final_label"] != label
        want_res[resolution] += 1
        got_res[r["trace"]["resolution"] if r.get("trace") else None] += 1
    if wrong:
        problems.append(f"{variant.value}: {wrong} final labels differ from the rule")
    if want_res != got_res:
        problems.append(f"{variant.value}: resolutions {dict(got_res)} != {dict(want_res)}")
    return problems


def confusion(variant: Variant, corpus, table) -> dict[str, int]:
    m = Counter(tp=0, fp=0, fn=0, tn=0, n_schema_failures=0)
    for s in corpus.sentences:
        label, _ = expected(variant, table[s.text])
        if label is None:
            m["n_schema_failures"] += 1
        else:
            m[("t" if label == s.gold_label else "f") + ("p" if label else "n")] += 1
    return dict(m)


def check_metrics_csv(variant: Variant, path: Path, corpus, table) -> list[str]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = {row["scope"]: row for row in csv.DictReader(fh)}
    want = confusion(variant, corpus, table)
    got = {k: int(rows["ALL"][k]) for k in want} if "ALL" in rows else None
    if got != want:
        return [f"{variant.value}: metrics.csv ALL row {got} != {want}"]
    return []
