"""Sentence corpus: ingestion, batch filtering, class-balance statistics.

Canonical on-disk form is JSONL with fields {id, batch, text, label}.
A delimiter-separated table with header columns (sentence/text, batch,
label) is accepted as an alternate ingest format.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .parsing import loads_line

log = logging.getLogger(__name__)

# Header aliases for tabular ingest; first match wins, case-insensitive.
DEFAULT_COLUMN_ALIASES = {
    "text": ("sentence", "text", "sentence_text"),
    "batch": ("batch", "batch_code", "batch_id"),
    "label": ("label", "gold_label", "gold", "ad", "deliberative"),
}


@dataclass(frozen=True)
class Sentence:
    id: str
    batch: str
    text: str
    gold_label: int


@dataclass
class Corpus:
    sentences: list[Sentence]

    def __len__(self) -> int:
        return len(self.sentences)

    def by_id(self) -> dict[str, Sentence]:
        return {s.id: s for s in self.sentences}

    def batches(self) -> list[str]:
        seen: dict[str, None] = {}
        for s in self.sentences:
            seen.setdefault(s.batch)
        return list(seen)

    def digest(self) -> str:
        h = hashlib.sha256()
        for s in self.sentences:
            h.update(f"{s.id}\x1f{s.batch}\x1f{s.text}\x1f{s.gold_label}\n".encode())
        return h.hexdigest()[:16]


@dataclass
class BatchStats:
    batch: str
    n_sentences: int
    n_ad: int

    @property
    def ad_fraction(self) -> float:
        return self.n_ad / self.n_sentences if self.n_sentences else 0.0


def _normalize_for_id(text: str) -> str:
    if not unicodedata.is_normalized("NFC", text):
        text = unicodedata.normalize("NFC", text)
    # Printable text holds no whitespace but " " (a test checks every code
    # point), so without a doubled space only its ends can need collapsing
    if text.isprintable() and "  " not in text:
        return text.strip(" ")
    # str.split() splits on exactly the characters the regex \s matches
    return " ".join(text.split())


def sentence_id(batch: str, text: str) -> str:
    """Deterministic digest over (batch, NFC-normalized collapsed text):
    the first 16 hex digits of sha256 over the batch, a unit separator
    (0x1f) and the text."""
    payload = f"{batch}\x1f{_normalize_for_id(text)}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _coerce_label(value, row_no: int) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise DataError(f"row {row_no}: label {value!r} is not binary")


def _build_sentences(rows: Iterable[tuple[int, object, object, object]]) -> list[Sentence]:
    sentences: list[Sentence] = []
    occurrences: dict[str, int] = {}
    for row_no, batch, text, label in rows:
        if not isinstance(text, str) or not text.strip():
            raise DataError(f"row {row_no}: missing or empty text")
        if type(batch) is str:
            batch = batch.strip()
        elif batch:
            batch = str(batch).strip()
        if not batch:
            raise DataError(f"row {row_no}: missing batch code")
        gold = label if type(label) is int and 0 <= label <= 1 else _coerce_label(label, row_no)
        sid = sentence_id(batch, text)
        # Duplicate (batch, text) pairs stay distinct records: suffix an
        # occurrence counter so repeated gold annotations keep their weight.
        if sid in occurrences:
            n = occurrences[sid]
            occurrences[sid] = n + 1
            sid = f"{sid}-{n}"
        else:
            occurrences[sid] = 1
        sentences.append(Sentence(id=sid, batch=batch, text=text, gold_label=gold))
    return sentences


def _iter_jsonl(path: Path):
    with path.open("r", encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            try:
                obj = loads_line(line)
            except json.JSONDecodeError as exc:
                if not line.strip():
                    continue
                raise DataError(f"row {row_no}: invalid JSON ({exc})") from exc
            if type(obj) is not dict:
                raise DataError(f"row {row_no}: expected an object")
            try:
                batch, text, label = obj["batch"], obj["text"], obj["label"]
            except KeyError:
                raise DataError(f"row {row_no}: missing one of text/batch/label") from None
            yield row_no, batch, text, label


def _resolve_columns(header: Sequence[str]) -> dict[str, int]:
    lowered = [h.strip().lower() for h in header]
    resolved = {}
    for key, names in DEFAULT_COLUMN_ALIASES.items():
        for name in names:
            if name in lowered:
                resolved[key] = lowered.index(name)
                break
        else:
            raise DataError(f"header {header!r} has no column for {key!r}")
    return resolved


def _iter_table(path: Path, delimiter: str | None):
    raw = path.read_text(encoding="utf-8")
    if not raw.strip():
        raise DataError("no records: empty input")
    if delimiter is None:
        try:
            delimiter = csv.Sniffer().sniff(raw[:4096], delimiters=",\t;").delimiter
        except csv.Error:
            delimiter = ","
    reader = csv.reader(io.StringIO(raw), delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise DataError("no records: empty input")
    cols = _resolve_columns(header)
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            yield row_no, row[cols["batch"]], row[cols["text"]], row[cols["label"]]
        except IndexError:
            raise DataError(f"row {row_no}: too few columns") from None


def parse_dataset(source: str | Path, format: str = "jsonl") -> Corpus:
    """Load a corpus from JSONL or a delimited table.

    Malformed rows raise DataError with the offending row number; nothing
    is silently dropped.
    """
    path = Path(source)
    if not path.is_file():
        raise DataError(f"unreadable source: {path}")
    if format == "jsonl":
        rows = _iter_jsonl(path)
    elif format in ("csv", "tsv", "table"):
        rows = _iter_table(path, "\t" if format == "tsv" else None)
    else:
        raise DataError(f"unknown ingest format: {format!r}")
    sentences = _build_sentences(rows)
    if not sentences:
        raise DataError("no records")
    return Corpus(sentences=sentences)


def save_jsonl(corpus: Corpus, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for s in corpus.sentences:
            fh.write(json.dumps(
                {"id": s.id, "batch": s.batch, "text": s.text, "label": s.gold_label},
                ensure_ascii=False) + "\n")


def filter_batches(corpus: Corpus, include: Iterable[str]) -> Corpus:
    include = set(include)
    if not include:
        raise DataError("filter_batches: empty include set")
    present = set(corpus.batches())
    for missing in sorted(include - present):
        log.warning("filter_batches: batch %r not present in corpus", missing)
    return Corpus(sentences=[s for s in corpus.sentences if s.batch in include])


def corpus_stats(corpus: Corpus) -> list[BatchStats]:
    """Per-batch counts in first-seen order, plus a trailing ALL aggregate."""
    per: dict[str, BatchStats] = {}
    for s in corpus.sentences:
        st = per.setdefault(s.batch, BatchStats(batch=s.batch, n_sentences=0, n_ad=0))
        st.n_sentences += 1
        st.n_ad += s.gold_label
    rows = list(per.values())
    rows.append(BatchStats(
        batch="ALL",
        n_sentences=sum(r.n_sentences for r in rows),
        n_ad=sum(r.n_ad for r in rows),
    ))
    return rows


def stats_table(stats: list[BatchStats]) -> str:
    lines = [f"{'Batch':<8}{'Sentences':>10}{'AD':>8}{'AD %':>8}"]
    for st in stats:
        pct = f"{100 * st.ad_fraction:.0f}%"
        lines.append(f"{st.batch:<8}{st.n_sentences:>10}{st.n_ad:>8}{pct:>8}")
    return "\n".join(lines)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV document: the header row, then the rows, each ended by "\n"."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def stats_csv(stats: list[BatchStats]) -> str:
    return csv_text(["batch", "n_sentences", "n_ad", "ad_fraction"],
                    ([st.batch, st.n_sentences, st.n_ad, f"{st.ad_fraction:.6f}"]
                     for st in stats))
