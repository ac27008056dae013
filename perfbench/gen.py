"""Seeded synthetic corpus and the scripted model's per-sentence behaviour.

The corpus keeps the published kept-batch shape (K1/K2/K3/R4: 4,504
sentences, 1,291 ALWAYS DELIBERATIVE) and varies sentence length from 8 to
60 words. Deliberative sentences lean on the lexicon categories the
indicator analysis counts (modal, first-person, future-temporal, reporting,
cognitive, stative); the others lean on past-tense factual statements, so
both easy sets come out non-empty. About 2% of sentences repeat an earlier
text of the same batch, which exercises the "-n" id suffix and gives
within-run cache hits.

`Behaviour` is what the scripted transport answers for one sentence text.
Every rate is applied as an exact count over the distinct texts, so the
number of wrong labels, disagreements and unparseable sentences is the same
for every seed and only which sentences carry them changes.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Published kept-batch shape: batch -> (sentences, ALWAYS DELIBERATIVE).
KEPT_SHAPE = {"K1": (1262, 270), "K2": (992, 411), "K3": (1522, 400), "R4": (728, 210)}

#: Prompt kinds, one per system template the pipeline renders.
KINDS = ("zero_shot", "few_shot", "cot", "vote_second", "vote_tiebreak",
         "critic", "judge", "reasoning")

DUPLICATE_SHARE = 0.02
EASY_SHARE = 0.35          # every agent answers gold on these
WRONG_SHARE = 0.30         # per prompt family, among the non-easy texts
SECOND_DISAGREES = 0.15
CRITIC_DISAGREES = 0.20
JUDGE_FOLLOWS_CRITIC = 0.50
TIEBREAK_GOLD = 0.70
REASONING_CONTRADICTS = 0.05     # first reasoning attempt restates the wrong label
REASONING_EXCLUDED = 0.02        # both attempts do, so the example is skipped
# Response shapes: fenced and prose-wrapped per prompt kind, unparseable per
# sentence; the rest are clean JSON.
FENCED_SHARE = 0.05
PROSE_SHARE = 0.05
UNPARSEABLE_SHARE = 0.01

_FIRST = ["We", "I", "Our office", "My team", "We", "Our staff"]
_MODAL = ["should", "could", "may", "might", "must", "would", "ought to"]
_COGNITIVE = ["believe", "think", "assume", "expect", "suppose", "feel", "doubt"]
_REPORTING = ["suggest", "propose", "recommend", "urge", "advise", "argue"]
_STATIVE = ["prefer", "want", "need", "hope", "wish", "agree"]
_FUTURE = ["soon", "later", "eventually", "shortly", "tomorrow"]
_PAST = ["processed", "approved", "signed", "issued", "held", "reviewed",
         "published", "received", "completed", "transferred", "filed", "closed"]
_PAST_SUBJECT = ["The office", "The committee", "The agency", "The department",
                 "Staff", "The council", "The board", "The secretary"]
_NOUN = ["proposal", "budget", "draft", "memo", "policy", "program", "grant",
         "schedule", "option", "statement", "plan", "contract", "request",
         "agenda", "briefing", "review", "allocation", "guidance", "report"]
_ADJ = ["revised", "new", "regional", "annual", "interim", "second", "final",
        "preliminary", "federal", "amended", "quarterly", "draft"]
_TAIL = ["for the regional office", "in the third quarter", "under the current framework",
         "regarding the grant program", "before the next hearing",
         "with the budget staff", "across the participating agencies",
         "during the transition period", "for the upcoming fiscal year",
         "as part of the review", "in coordination with counsel",
         "pending further analysis", "at the request of the director",
         "within the existing authority", "for public comment"]


@dataclass(frozen=True)
class Row:
    batch: str
    text: str
    label: int


@dataclass
class Behaviour:
    """Scripted answers for one distinct sentence text."""
    zero_shot: int
    few_shot: int
    cot: int
    second_agrees: bool = True
    tiebreak: int = 0
    critic_agrees: bool = True
    judge_follows_critic: bool = False
    reasoning_contradicts: int = 0   # attempts (0, 1 or 2) that restate the wrong label
    shapes: dict = field(default_factory=dict)  # kind -> clean|fenced|prose|unparseable

    def shape(self, kind: str) -> str:
        return self.shapes.get(kind, "clean")


def _noun_phrase(rng: random.Random) -> str:
    return f"the {rng.choice(_ADJ)} {rng.choice(_NOUN)}"


def _deliberative_clause(rng: random.Random) -> str:
    pick = rng.randrange(5)
    if pick == 0:
        return (f"{rng.choice(_FIRST)} {rng.choice(_MODAL)} revise "
                f"{_noun_phrase(rng)} {rng.choice(_FUTURE)}")
    if pick == 1:
        return (f"{rng.choice(_FIRST)} {rng.choice(_COGNITIVE)} that "
                f"{_noun_phrase(rng)} {rng.choice(_MODAL)} change")
    if pick == 2:
        return (f"{rng.choice(_FIRST)} {rng.choice(_REPORTING)} that we "
                f"reconsider {_noun_phrase(rng)}")
    if pick == 3:
        return f"{rng.choice(_FIRST)} {rng.choice(_STATIVE)} to keep {_noun_phrase(rng)} open"
    return f"perhaps {_noun_phrase(rng)} {rng.choice(_MODAL)} wait until {rng.choice(_FUTURE)}"


def _factual_clause(rng: random.Random) -> str:
    pick = rng.randrange(4)
    if pick == 0:
        return f"{rng.choice(_PAST_SUBJECT)} {rng.choice(_PAST)} {_noun_phrase(rng)}"
    if pick == 1:
        return f"{_noun_phrase(rng)} was {rng.choice(_PAST)} in {rng.randrange(1995, 2024)}"
    if pick == 2:
        return f"{rng.choice(_PAST_SUBJECT)} said that {_noun_phrase(rng)} was final"
    return f"{rng.choice(_PAST_SUBJECT)} {rng.choice(_PAST)} case {rng.randrange(10000)}"


def _sentence(rng: random.Random, label: int) -> str:
    """One sentence of 8 to 60 words; mostly lexicon cues of its own class."""
    target = min(60, max(8, int(rng.lognormvariate(3.0, 0.45))))
    words: list[str] = []
    while len(words) < target:
        own = rng.random() < 0.85
        clause = (_deliberative_clause if (label == 1) == own else _factual_clause)(rng)
        if words and rng.random() < 0.5:
            clause = f"and {clause}"
        words.extend(clause.split())
        if len(words) < target:
            words.extend(rng.choice(_TAIL).split())
    words = words[:max(target, 8)]
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def generate_rows(seed: int) -> list[Row]:
    """Corpus rows with the exact per-batch sentence and AD counts of KEPT_SHAPE."""
    rng = random.Random(f"corpus:{seed}")
    used: set[str] = set()
    rows: list[Row] = []
    for batch, (n, n_ad) in KEPT_SHAPE.items():
        labels = [1] * n_ad + [0] * (n - n_ad)
        rng.shuffle(labels)
        duplicates = set(rng.sample(range(1, n), round(DUPLICATE_SHARE * n)))
        seen_by_label: dict[int, list[str]] = {0: [], 1: []}
        for i, label in enumerate(labels):
            earlier = seen_by_label[label]
            if i in duplicates and earlier:
                text = rng.choice(earlier)
            else:
                text = _sentence(rng, label)
                while text in used:
                    text = _sentence(rng, label)
                used.add(text)
                earlier.append(text)
            rows.append(Row(batch, text, label))
    return rows


def subsample(rows: list[Row], fraction: float, seed: int) -> list[Row]:
    """Seeded subsample keeping each batch's share of the corpus and of AD."""
    rng = random.Random(f"subsample:{seed}")
    keep: set[int] = set()
    for batch in dict.fromkeys(r.batch for r in rows):
        for label in (0, 1):
            idx = [i for i, r in enumerate(rows) if r.batch == batch and r.label == label]
            keep.update(rng.sample(idx, round(fraction * len(idx))))
    return [r for i, r in enumerate(rows) if i in keep]


def write_jsonl(rows: list[Row], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps({"batch": r.batch, "text": r.text, "label": r.label}) + "\n")


def _exact(rng: random.Random, items: list, share: float) -> set:
    return set(rng.sample(items, round(share * len(items))))


def behaviours(rows: list[Row], seed: int) -> dict[str, Behaviour]:
    """Scripted answers for each distinct text of rows."""
    rng = random.Random(f"behaviour:{seed}")
    gold = {r.text: r.label for r in rows}
    texts = list(gold)
    easy = _exact(rng, texts, EASY_SHARE)
    hard = [t for t in texts if t not in easy]
    wrong = {family: _exact(rng, hard, WRONG_SHARE)
             for family in ("zero_shot", "few_shot", "cot")}
    second_disagrees = _exact(rng, hard, SECOND_DISAGREES / (1 - EASY_SHARE))
    critic_disagrees = _exact(rng, hard, CRITIC_DISAGREES / (1 - EASY_SHARE))
    follows = _exact(rng, sorted(critic_disagrees), JUDGE_FOLLOWS_CRITIC)
    tiebreak_gold = _exact(rng, texts, TIEBREAK_GOLD)
    contradicts = sorted(_exact(rng, texts, REASONING_CONTRADICTS))
    excluded = _exact(rng, contradicts, REASONING_EXCLUDED / REASONING_CONTRADICTS)
    # A sentence the model cannot answer breaks every prompt about it, so
    # each variant fails on the same sentences; fenced and prose-wrapped
    # answers vary by prompt kind.
    unparseable = _exact(rng, texts, UNPARSEABLE_SHARE)
    shapes: dict[str, dict[str, str]] = {
        t: dict.fromkeys(KINDS, "unparseable") if t in unparseable else {} for t in texts}
    parseable = [t for t in texts if t not in unparseable]
    for kind in KINDS:
        order = parseable[:]
        rng.shuffle(order)
        n_fenced = round(FENCED_SHARE * len(texts))
        n_prose = round(PROSE_SHARE * len(texts))
        for i, t in enumerate(order[:n_fenced + n_prose]):
            shapes[t][kind] = "fenced" if i < n_fenced else "prose"
    out = {}
    for t in texts:
        g = gold[t]
        out[t] = Behaviour(
            zero_shot=1 - g if t in wrong["zero_shot"] else g,
            few_shot=1 - g if t in wrong["few_shot"] else g,
            cot=1 - g if t in wrong["cot"] else g,
            second_agrees=t not in second_disagrees,
            tiebreak=g if t in tiebreak_gold else 1 - g,
            critic_agrees=t not in critic_disagrees,
            judge_follows_critic=t in follows,
            reasoning_contradicts=2 if t in excluded else 1 if t in contradicts else 0,
            shapes=shapes[t])
    return out
