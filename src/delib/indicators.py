"""Lexicon-based deliberativeness indicators and easy-set analysis.

Six indicator categories (stative/reporting/modal/cognitive verbs,
first-person words, future temporal words) plus a past-tense heuristic.
Verb categories match through an inflection map generated from the lexicon
lemmas (regular -s/-ed/-ing forms with doubling and e-drop rules, plus a
bundled irregular table); modal, first-person, and future-temporal entries
match on the surface form. No POS tagging: forms are matched wherever they
occur, which mirrors the purely lexical nature of the analysis and is a
documented approximation.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus, Sentence, csv_text
from .errors import ConfigError, DataError

_BUNDLED = Path(__file__).parent / "lexicons"

# Fixed priority for resolving a token that matches several categories.
CATEGORY_ORDER = ("modal", "first_person", "future_temporal",
                  "reporting", "cognitive", "stative")
# Categories matched on the surface form; the rest match on the lemma.
_SURFACE_CATEGORIES = ("modal", "first_person", "future_temporal")
# The word lists in the lexicon digest's order; "verbs" holds verb lemmas of
# no category. The lemmas of a list not matched on the surface get inflections.
_LEXICON_FILES = ("stative", "reporting", "modal", "cognitive",
                  "first_person", "future_temporal", "verbs")
_VERB_FILES = tuple(name for name in _LEXICON_FILES if name not in _SURFACE_CATEGORIES)
#: The fewest runs easy sets are built from; the category pairs
#: cooccurrence_stats reports per set.
FEWEST_EASY_RUNS = 2
TOP_PAIRS = 5

_VOWELS = set("aeiou")
_TOKEN = re.compile(r"[a-zA-Z]+(?:'[a-zA-Z]+)?")

_NT_SPECIAL = {"can't": ("can", "not"), "won't": ("will", "not"),
               "shan't": ("shall", "not"), "ain't": ("be", "not")}
_CLITICS = {"'m": "am", "'re": "are", "'ve": "have", "'ll": "will", "'d": "would"}


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    a, b, c = word[-3], word[-2], word[-1]
    return (a not in _VOWELS and b in _VOWELS and c not in _VOWELS
            and c not in "wxy")


def regular_forms(lemma: str) -> dict[str, str]:
    """Surface form -> 'pres'|'past' for a regular verb lemma."""
    forms: dict[str, str] = {lemma: "pres"}
    # third person singular
    if lemma.endswith(("s", "x", "z", "ch", "sh")):
        forms[lemma + "es"] = "pres"
    elif lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        forms[lemma[:-1] + "ies"] = "pres"
    else:
        forms[lemma + "s"] = "pres"
    # past / participle
    if lemma.endswith("e"):
        forms[lemma + "d"] = "past"
    elif lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        forms[lemma[:-1] + "ied"] = "past"
    elif _ends_cvc(lemma):
        forms[lemma + lemma[-1] + "ed"] = "past"
    else:
        forms[lemma + "ed"] = "past"
    # gerund
    if lemma.endswith("e") and not lemma.endswith("ee"):
        forms[lemma[:-1] + "ing"] = "pres"
    elif _ends_cvc(lemma):
        forms[lemma + lemma[-1] + "ing"] = "pres"
    else:
        forms[lemma + "ing"] = "pres"
    return forms


def _read_wordlist(path: Path) -> list[str]:
    words = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip().lower()
        if line:
            words.append(line)
    return words


@dataclass
class Lexicons:
    stative: frozenset
    reporting: frozenset
    modal: frozenset
    cognitive: frozenset
    first_person: frozenset
    future_temporal: frozenset
    inflections: Mapping[str, str]          # surface form -> lemma
    tense: Mapping[str, str]                # surface form -> pres|past
    categories: Mapping[str, str]           # token -> its CATEGORY_ORDER category
    digest: str = ""


def _resolve_categories(sets: Mapping[str, frozenset],
                        inflections: Mapping[str, str]) -> dict[str, str]:
    """Token -> category for every token that has one: the first category in
    CATEGORY_ORDER holding the token (surface categories) or its lemma."""
    categories: dict[str, str] = {}
    for token in (*(t for c in _SURFACE_CATEGORIES for t in sets[c]), *inflections):
        lemma = inflections.get(token)
        for category in CATEGORY_ORDER:
            if (token if category in _SURFACE_CATEGORIES else lemma) in sets[category]:
                categories[token] = category
                break
    return categories


def load_lexicons(directory: str | Path | None = None) -> Lexicons:
    """Load lexicon files (one word per line, # comments) and build the
    inflection map. A directory override replaces bundled files by name."""
    base = Path(directory) if directory else _BUNDLED
    if not base.is_dir():
        raise ConfigError(f"lexicon directory not found: {base}")

    def read(name: str) -> list[str]:
        path = base / f"{name}.txt"
        if not path.is_file():
            path = _BUNDLED / f"{name}.txt"
        if not path.is_file():
            raise ConfigError(f"missing lexicon file: {name}.txt")
        return _read_wordlist(path)

    words = {name: read(name) for name in _LEXICON_FILES}
    inflections: dict[str, str] = {}
    tense: dict[str, str] = {}
    irregular_lemmas: set[str] = set()
    for line in read("irregular"):
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("pres", "past"):
            raise ConfigError(f"irregular.txt: bad line {line!r}")
        form, lemma, tag = parts
        inflections[form] = lemma
        tense[form] = tag
        irregular_lemmas.add(lemma)

    for lemma in sorted(set().union(*(words[name] for name in _VERB_FILES))):
        inflections.setdefault(lemma, lemma)
        tense.setdefault(lemma, "pres")
        if lemma in irregular_lemmas:
            continue
        for form, tag in regular_forms(lemma).items():
            inflections.setdefault(form, lemma)
            tense.setdefault(form, tag)

    digest_src = "\n".join(
        [w for name in _LEXICON_FILES for w in sorted(words[name])]
        + sorted(f"{k}:{v}" for k, v in inflections.items()))
    digest = hashlib.sha256(digest_src.encode()).hexdigest()[:12]

    sets = {c: frozenset(words[c]) for c in CATEGORY_ORDER}
    return Lexicons(**sets, inflections=inflections, tense=tense,
                    categories=_resolve_categories(sets, inflections), digest=digest)


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens with contraction splitting.

    "don't" -> do, not; "can't" -> can, not; 'm/'re/'ve/'ll/'d clitics are
    expanded ("we'd" -> we, would). Possessive/'s clitics are dropped as
    ambiguous.
    """
    tokens: list[str] = []
    for raw in _TOKEN.findall(text):
        word = raw.lower()
        if "'" not in word:  # every rule below needs an apostrophe
            tokens.append(word)
            continue
        if word in _NT_SPECIAL:
            tokens.extend(_NT_SPECIAL[word])
            continue
        if word.endswith("n't") and len(word) > 3:
            tokens.extend((word[:-3], "not"))
            continue
        for clitic, expansion in _CLITICS.items():
            if word.endswith(clitic) and len(word) > len(clitic):
                tokens.extend((word[:-len(clitic)], expansion))
                break
        else:
            if word.endswith("'s") and len(word) > 2:
                word = word[:-2]
            tokens.append(word)
    return tokens


@dataclass
class IndicatorProfile:
    sentence_id: str
    hits: dict[str, list[str]] = field(default_factory=dict)
    past_tense: bool = False
    lemmas: frozenset = frozenset()  # verb lemmas; a modal is its own lemma

    @property
    def unique_count(self) -> int:
        return sum(1 for tokens in self.hits.values() if tokens)

    @property
    def total_count(self) -> int:
        return sum(len(tokens) for tokens in self.hits.values())

    def categories(self) -> frozenset:
        return frozenset(c for c, tokens in self.hits.items() if tokens)


def extract_indicators(sentence: Sentence, lexicons: Lexicons) -> IndicatorProfile:
    """Per-category indicator hits for one sentence.

    Each matched token counts toward exactly one category, resolved by the
    fixed CATEGORY_ORDER priority. Repeated tokens of one category all
    count toward total_count.
    """
    hits: dict[str, list[str]] = {c: [] for c in CATEGORY_ORDER}
    lemmas = set()
    tokens = tokenize(sentence.text)
    for token in tokens:
        category = lexicons.categories.get(token)
        if category is not None:
            hits[category].append(token)
        lemma = token if token in lexicons.modal else lexicons.inflections.get(token)
        if lemma is not None:
            lemmas.add(lemma)
    return IndicatorProfile(sentence_id=sentence.id, hits=hits,
                            past_tense=_past_tense(tokens, lexicons),
                            lemmas=frozenset(lemmas))


def _past_tense(tokens: Sequence[str], lexicons: Lexicons) -> bool:
    """True when the first finite verb encountered is a past-tense form.

    Heuristic: scan tokens left to right; a modal decides present, a known
    verb form decides by its tense tag, and an unknown -ed word that
    matches no lexicon decides past. No finite verb means False.
    """
    for token in tokens:
        if token in lexicons.modal:
            return False
        tag = lexicons.tense.get(token)
        if tag is not None:
            return tag == "past"
        if token.endswith("ed") and len(token) > 4 and token not in lexicons.categories:
            return True
    return False


@dataclass
class EasySets:
    easy_1: set
    easy_0: set
    n_runs: int


def build_easy_sets(runs: Sequence[Mapping[str, int | None]], corpus: Corpus) -> EasySets:
    """Sentences every run (at least FEWEST_EASY_RUNS) predicted correctly,
    split by gold label.

    A schema failure (None) in any run disqualifies the sentence.
    """
    if len(runs) < FEWEST_EASY_RUNS:
        raise DataError(f"need at least {FEWEST_EASY_RUNS} runs for easy sets, got {len(runs)}")
    easy_1: set[str] = set()
    easy_0: set[str] = set()
    for s in corpus.sentences:
        preds = [run.get(s.id) for run in runs]
        if any(p is None for p in preds):
            continue
        if all(p == s.gold_label for p in preds):
            (easy_1 if s.gold_label == 1 else easy_0).add(s.id)
    return EasySets(easy_1=easy_1, easy_0=easy_0, n_runs=len(runs))


def _profiled(ids: Iterable[str], profiles: Mapping[str, IndicatorProfile],
              table: str) -> list[str]:
    """ids as a list; DataError when it is empty or an id has no profile."""
    ids = list(ids)
    if not ids:
        raise DataError(f"{table}: empty sentence set")
    missing = [i for i in ids if i not in profiles]
    if missing:
        raise DataError(f"{table}: no profiles for: {missing[:5]}")
    return ids


def occurrence_table(ids: Iterable[str],
                     profiles: Mapping[str, IndicatorProfile]) -> dict:
    """Per-category share of sentences with at least one hit, plus the
    past-tense share and the denominator."""
    ids = _profiled(ids, profiles, "occurrence_table")
    n = len(ids)
    table = {"n": n}
    for category in CATEGORY_ORDER:
        hits = sum(1 for i in ids if profiles[i].hits.get(category))
        table[category] = hits / n
    table["past_tense"] = sum(1 for i in ids if profiles[i].past_tense) / n
    return table


def _lower_median(values: list[int]) -> int:
    # Lower-median convention for even sizes, matching integer reporting.
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def cooccurrence_stats(ids: Iterable[str],
                       profiles: Mapping[str, IndicatorProfile]) -> dict:
    """Medians of unique/total indicator counts, >=2 and zero shares, and
    the TOP_PAIRS most frequent unordered category pairs (past tense
    excluded from all counting)."""
    ids = _profiled(ids, profiles, "cooccurrence_stats")
    uniques = [profiles[i].unique_count for i in ids]
    totals = [profiles[i].total_count for i in ids]
    pair_counts: dict[tuple[str, str], int] = {}
    for i in ids:
        cats = sorted(profiles[i].categories())
        for a_idx in range(len(cats)):
            for b_idx in range(a_idx + 1, len(cats)):
                pair = (cats[a_idx], cats[b_idx])
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
    top_pairs = sorted(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_PAIRS]
    n = len(ids)
    return {
        "n": n,
        "median_unique": _lower_median(uniques),
        "median_total": _lower_median(totals),
        "share_2plus": sum(1 for u in uniques if u >= 2) / n,
        "share_zero": sum(1 for u in uniques if u == 0) / n,
        "top_pairs": [{"pair": list(p), "count": c} for p, c in top_pairs],
    }


def verb_frequency(ids: Iterable[str], profiles: Mapping[str, IndicatorProfile],
                   top_k: int = 10) -> list[tuple[str, float]]:
    """Share of sentences containing each verb lemma (counted once per
    sentence), descending, top-k. Modals count as their own lemma."""
    ids = _profiled(set(ids), profiles, "verb_frequency")
    counts: dict[str, int] = {}
    for i in ids:
        for lemma in profiles[i].lemmas:
            counts[lemma] = counts.get(lemma, 0) + 1
    n = len(ids)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [(lemma, count / n) for lemma, count in ranked]


def occurrence_csv(tables: Mapping[str, dict]) -> str:
    return csv_text(["set", "n", *CATEGORY_ORDER, "past_tense"],
                    ([name, table["n"]] + [f"{table[c]:.4f}" for c in CATEGORY_ORDER]
                     + [f"{table['past_tense']:.4f}"] for name, table in tables.items()))


def cooccurrence_csv(stats: Mapping[str, dict]) -> str:
    return csv_text(["set", "n", "median_unique", "median_total", "share_2plus", "share_zero"],
                    ([name, st["n"], st["median_unique"], st["median_total"],
                      f"{st['share_2plus']:.4f}", f"{st['share_zero']:.4f}"]
                     for name, st in stats.items()))


def pairs_csv(stats: Mapping[str, dict]) -> str:
    """The most frequent indicator-category pairs of each set, with each
    pair's share of the set's sentences."""
    return csv_text(["set", "first", "second", "count", "share"],
                    ([name, *p["pair"], p["count"], f"{p['count'] / st['n']:.4f}"]
                     for name, st in stats.items() for p in st["top_pairs"]))


def verbs_csv(tables: Mapping[str, list[tuple[str, float]]]) -> str:
    return csv_text(["set", "lemma", "share_of_sentences"],
                    ([name, lemma, f"{share:.4f}"]
                     for name, rows in tables.items() for lemma, share in rows))
