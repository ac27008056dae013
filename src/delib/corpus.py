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
from typing import Iterable, NamedTuple, Sequence

from .errors import DataError
from .parsing import read_jsonl, read_text, replace_text

log = logging.getLogger(__name__)

# Header aliases for tabular ingest; first match wins, case-insensitive.
DEFAULT_COLUMN_ALIASES = {
    "text": ("sentence", "text", "sentence_text"),
    "batch": ("batch", "batch_code", "batch_id"),
    "label": ("label", "gold_label", "gold", "ad", "deliberative"),
}


class Sentence(NamedTuple):
    """One annotated sentence. Immutable and hashable; a NamedTuple rather
    than a frozen dataclass, whose __init__ sets each field through
    object.__setattr__ at several times the cost."""
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


def _coerce_label(value) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise ValueError(f"label {value!r} is not binary")


def _build_sentences(path: Path, rows: Iterable[tuple[int, object, object, object]]) -> list[Sentence]:
    """The sentences of (line, batch, text, label) rows; a missing field is None."""
    sentences: list[Sentence] = []
    occurrences: dict[str, int] = {}
    for line, batch, text, label in rows:
        try:
            if not isinstance(text, str) or not text.strip():
                raise ValueError("missing or empty text")
            if type(batch) is str:
                batch = batch.strip()
            elif batch:
                batch = str(batch).strip()
            if not batch:
                raise ValueError("missing batch code")
            gold = label if type(label) is int and 0 <= label <= 1 else _coerce_label(label)
        except ValueError as exc:
            raise DataError(f"{path}: line {line}: {exc}") from None
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
    for line, obj in read_jsonl(path):
        try:
            yield line, obj["batch"], obj["text"], obj["label"]
        except (KeyError, TypeError):  # a missing key, or not an object: the row checks name it
            yield line, *map((obj if type(obj) is dict else {}).get, ("batch", "text", "label"))


def _resolve_columns(path: Path, line: int, header: Sequence[str]) -> list[int]:
    lowered = [h.strip().lower() for h in header]
    resolved = []
    for key, names in DEFAULT_COLUMN_ALIASES.items():
        for name in names:
            if name in lowered:
                resolved.append(lowered.index(name))
                break
        else:
            raise DataError(f"{path}: line {line}: header {header!r} has no column for {key!r}")
    return resolved


def _iter_table(path: Path, delimiter: str | None):
    raw = read_text(path).removeprefix("\ufeff")  # a byte-order mark, as spreadsheets export
    if not raw.strip():
        raise DataError(f"{path}: empty input")
    if delimiter is None:
        try:
            delimiter = csv.Sniffer().sniff(raw[:4096], delimiters=",\t;").delimiter
        except csv.Error:
            delimiter = ","
    reader = csv.reader(io.StringIO(raw), delimiter=delimiter)
    try:
        header = next((row for row in reader if any(c.strip() for c in row)), [])
        text_at, batch_at, label_at = _resolve_columns(path, reader.line_num, header)
        line = reader.line_num + 1  # the line the next row starts on
        for row in reader:
            if any(c.strip() for c in row):
                try:
                    yield line, row[batch_at], row[text_at], row[label_at]
                except IndexError:  # a short row: the row checks name its first missing field
                    yield line, *map(dict(enumerate(row)).get, (batch_at, text_at, label_at))
            line = reader.line_num + 1
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num} is not CSV ({exc})") from exc


def parse_dataset(source: str | Path, format: str = "jsonl") -> Corpus:
    """Load a corpus from JSONL or a delimited table.

    A malformed row raises DataError naming the file and the line the row
    starts on; nothing is silently dropped.
    """
    path = Path(source)
    if not path.is_file():
        raise DataError(f"{path}: unreadable source")
    if format == "jsonl":
        rows = _iter_jsonl(path)
    elif format in ("csv", "tsv"):
        rows = _iter_table(path, "\t" if format == "tsv" else None)
    else:
        raise DataError(f"unknown ingest format: {format!r}")
    sentences = _build_sentences(path, rows)
    if not sentences:
        raise DataError(f"{path}: no records")
    return Corpus(sentences=sentences)


def save_jsonl(corpus: Corpus, path: str | Path) -> None:
    replace_text(Path(path), "".join(
        json.dumps({"id": s.id, "batch": s.batch, "text": s.text, "label": s.gold_label},
                   ensure_ascii=False) + "\n"
        for s in corpus.sentences))


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
