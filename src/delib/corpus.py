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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError

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
    source_manifest: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

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


def _build_sentences(rows: Iterable[tuple[int, str, str, object]]) -> list[Sentence]:
    sentences: list[Sentence] = []
    occurrences: dict[str, int] = {}
    for row_no, batch, text, label in rows:
        if not isinstance(text, str) or not text.strip():
            raise DataError(f"row {row_no}: missing or empty text")
        if not batch or not str(batch).strip():
            raise DataError(f"row {row_no}: missing batch code")
        batch = str(batch).strip()
        gold = _coerce_label(label, row_no)
        base_id = sentence_id(batch, text)
        # Duplicate (batch, text) pairs stay distinct records: suffix an
        # occurrence counter so repeated gold annotations keep their weight.
        n = occurrences.get(base_id, 0)
        occurrences[base_id] = n + 1
        sid = base_id if n == 0 else f"{base_id}-{n}"
        sentences.append(Sentence(id=sid, batch=batch, text=text, gold_label=gold))
    return sentences


def _iter_jsonl(path: Path):
    with path.open("r", encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"row {row_no}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise DataError(f"row {row_no}: expected an object")
            if "text" not in obj or "batch" not in obj or "label" not in obj:
                raise DataError(f"row {row_no}: missing one of text/batch/label")
            yield row_no, obj["batch"], obj["text"], obj["label"]


def _resolve_columns(header: Sequence[str], aliases: Mapping[str, Sequence[str]]) -> dict[str, int]:
    lowered = [h.strip().lower() for h in header]
    resolved = {}
    for key, names in aliases.items():
        for name in names:
            if name in lowered:
                resolved[key] = lowered.index(name)
                break
        else:
            raise DataError(f"header {header!r} has no column for {key!r}")
    return resolved


def _iter_table(path: Path, delimiter: str | None, aliases: Mapping[str, Sequence[str]]):
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
    cols = _resolve_columns(header, aliases)
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            yield row_no, row[cols["batch"]], row[cols["text"]], row[cols["label"]]
        except IndexError:
            raise DataError(f"row {row_no}: too few columns") from None


def parse_dataset(
    source: str | Path,
    format: str = "jsonl",
    delimiter: str | None = None,
    column_aliases: Mapping[str, Sequence[str]] | None = None,
) -> Corpus:
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
        delim = delimiter or ("\t" if format == "tsv" else None)
        rows = _iter_table(path, delim, column_aliases or DEFAULT_COLUMN_ALIASES)
    else:
        raise DataError(f"unknown ingest format: {format!r}")
    sentences = _build_sentences(rows)
    if not sentences:
        raise DataError("no records")
    manifest = {"path": str(path), "format": format}
    return Corpus(sentences=sentences, source_manifest=manifest)


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
    kept = [s for s in corpus.sentences if s.batch in include]
    manifest = dict(corpus.source_manifest)
    manifest["filtered_to"] = sorted(include)
    return Corpus(sentences=kept, source_manifest=manifest)


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
