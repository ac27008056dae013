import csv
import hashlib
import io
import json
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.corpus import (DEFAULT_COLUMN_ALIASES, Corpus, Sentence, _normalize_for_id,
                          corpus_stats, filter_batches, parse_dataset, save_jsonl, sentence_id,
                          stats_csv, stats_table)
from delib.errors import DataError

from conftest import FULL_SHAPE, KEPT_BATCHES, TOTAL_KEPT, build_corpus


class TestSentenceId:
    def test_deterministic(self):
        assert sentence_id("K1", "Some text.") == sentence_id("K1", "Some text.")

    def test_whitespace_normalized(self):
        assert sentence_id("K1", "  Some  text. ") == sentence_id("K1", "Some text.")

    def test_batch_salt(self):
        assert sentence_id("K1", "Same text") != sentence_id("K2", "Same text")

    def test_stored_text_not_normalized(self):
        corpus = build_corpus([("  padded text ", "K1", 0)])
        assert corpus.sentences[0].text == "  padded text "


class TestSentenceValue:
    def test_immutable_hashable_with_its_fields_and_repr(self):
        s = Sentence(id="k1-0", batch="K1", text="We should.", gold_label=1)
        assert Sentence._fields == ("id", "batch", "text", "gold_label")
        assert repr(s) == "Sentence(id='k1-0', batch='K1', text='We should.', gold_label=1)"
        with pytest.raises(AttributeError):
            s.text = "changed"
        assert s == Sentence("k1-0", "K1", "We should.", 1)
        assert {s: 1}[Sentence("k1-0", "K1", "We should.", 1)] == 1
        assert s != Sentence("k1-0", "K1", "We should.", 0)

    def test_corpus_digest_pinned(self):
        # the digest names the corpus in every run id
        corpus = build_corpus([("We should consider it.", "K1", 1),
                               ("The board met.", "K2", 0)])
        assert corpus.digest() == "51f20b57c50d614f"


_REF_WS = re.compile(r"\s+")


def reference_sentence_id(batch: str, text: str) -> str:
    """The sentence-id definition: sha256 over batch, a unit separator and
    the NFC-normalised text with whitespace runs collapsed and the ends
    stripped; the first 16 hex digits."""
    normalized = _REF_WS.sub(" ", unicodedata.normalize("NFC", text).strip())
    return hashlib.sha256(f"{batch}\x1f{normalized}".encode()).hexdigest()[:16]


UNICODE_WHITESPACE = ("\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2007"
                      "\u200a\u2028\u2029\u202f\u205f\u3000 ")
ID_ALPHABET = ("abcAEZ.'\u0130\u212a\u212b\u00e9\u00c5\u0301\u0308\u0323\u0327"
               "\u1e9b\u1100\u1161\u11a8\uac00\u00df\u200b")


class TestSentenceIdContract:
    @pytest.mark.parametrize("batch,text,expected", [
        ("K1", "We should expand the pilot program.", "afbe13a97e732715"),
        ("K1", "  We should\u3000expand\x85the pilot\x1cprogram. ", "afbe13a97e732715"),
        ("K2", "My staff believe the caf\u00e9 contract should be renewed.",
         "61714a9a4c83f791"),
        ("K2", "My staff believe the cafe\u0301 contract should be renewed.",
         "61714a9a4c83f791"),
        ("R4", "\u212a\u212b \u0130stanbul", "04691ce5a6be33a3"),
    ])
    def test_literal_ids(self, batch, text, expected):
        assert sentence_id(batch, text) == expected == reference_sentence_id(batch, text)

    @given(st.text(alphabet=ID_ALPHABET + UNICODE_WHITESPACE, max_size=40),
           st.sampled_from(["K1", "R4", "b\u0301"]))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, text, batch):
        assert sentence_id(batch, text) == reference_sentence_id(batch, text)

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_any_text(self, text):
        assert sentence_id("K1", text) == reference_sentence_id("K1", text)

    def test_regex_and_str_agree_on_whitespace_for_every_code_point(self):
        differing = [c for c in map(chr, range(0x110000))
                     if (_REF_WS.match(c) is not None) != c.isspace()]
        assert differing == []

    def test_collapse_shortcut_is_exact_for_every_code_point(self):
        """Printable text without a doubled space skips the split/join; for
        every code point, in the middle of a text, at each end and doubled,
        the id text is still the NFC text's split/join."""
        differing = [text for c in map(chr, range(0x110000))
                     for text in (f"a{c}b", f"{c}ab", f"ab{c}", f"a{c}{c}b")
                     if _normalize_for_id(text)
                     != " ".join(unicodedata.normalize("NFC", text).split())]
        assert differing == []


def reference_coerce_label(value, where: str) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise DataError(f"{where}: label {value!r} is not binary")


def reference_build_sentences(path, rows) -> list[Sentence]:
    """The row checks and ids of JSONL and table ingest, as first written,
    each fault worded as "<path>: line <n>: <reason>"."""
    sentences = []
    occurrences = {}
    for line_no, batch, text, label in rows:
        where = f"{path}: line {line_no}"
        if not isinstance(text, str) or not text.strip():
            raise DataError(f"{where}: missing or empty text")
        if not batch or not str(batch).strip():
            raise DataError(f"{where}: missing batch code")
        batch = str(batch).strip()
        gold = reference_coerce_label(label, where)
        base_id = reference_sentence_id(batch, text)
        n = occurrences.get(base_id, 0)
        occurrences[base_id] = n + 1
        sid = base_id if n == 0 else f"{base_id}-{n}"
        sentences.append(Sentence(id=sid, batch=batch, text=text, gold_label=gold))
    return sentences


def reference_iter_jsonl(path):
    """JSONL rows through json.loads, as first written; a field that a line
    lacks, or a line that is not an object, gives None."""
    with path.open("r", encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {row_no} is not JSON ({exc.msg})") from exc
            fields = [obj[key] if isinstance(obj, dict) and key in obj else None
                      for key in ("batch", "text", "label")]
            yield row_no, *fields


def reference_parse(path, rows) -> Corpus:
    sentences = reference_build_sentences(path, rows)
    if not sentences:
        raise DataError(f"{path}: no records")
    return Corpus(sentences=sentences)


def reference_parse_jsonl(path) -> Corpus:
    return reference_parse(path, reference_iter_jsonl(path))


def reference_iter_table(path, delimiter):
    """Table rows through csv.reader fed the file's lines one at a time, each
    row numbered by the lines fed before it; a field a short row lacks gives None."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("\ufeff"):
        text = text[1:]
    if not text.strip():
        raise DataError(f"{path}: empty input")
    if delimiter is None:
        try:
            delimiter = csv.Sniffer().sniff(text[:4096], delimiters=",\t;").delimiter
        except csv.Error:
            delimiter = ","
    pieces = text.split("\n")
    lines = [piece + "\n" for piece in pieces[:-1]] + [piece for piece in pieces[-1:] if piece]
    fed = 0

    def feed():
        nonlocal fed
        for line in lines:
            fed += 1
            yield line

    reader = csv.reader(feed(), delimiter=delimiter)
    columns = None
    while True:
        start = fed + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise DataError(f"{path}: line {fed} is not CSV ({exc})") from exc
        if not any(cell.strip() for cell in row):
            continue
        if columns is None:
            names = [cell.strip().lower() for cell in row]
            columns = {}
            for key, aliases in DEFAULT_COLUMN_ALIASES.items():
                found = [names.index(name) for name in aliases if name in names]
                if not found:
                    raise DataError(f"{path}: line {fed}: header {row!r} has no column for {key!r}")
                columns[key] = found[0]
            continue
        yield start, *(row[columns[key]] if columns[key] < len(row) else None
                       for key in ("batch", "text", "label"))
    if columns is None:  # no row that is not blank: a header without columns
        raise DataError(f"{path}: line {fed}: header [] has no column for 'text'")


def reference_parse_table(path, fmt) -> Corpus:
    return reference_parse(path, reference_iter_table(path, "\t" if fmt == "tsv" else None))


def ingest_outcome(parse, path):
    """The sentences (with each value's type) and digest a parse gives, or
    its DataError message."""
    try:
        corpus = parse(path)
    except DataError as exc:
        return str(exc)
    return ([(s.id, s.batch, s.text, s.gold_label, type(s.batch), type(s.gold_label))
             for s in corpus.sentences], corpus.digest())


_GOOD_TEXTS = st.one_of(
    st.text(alphabet=ID_ALPHABET + UNICODE_WHITESPACE, max_size=12).filter(str.strip),
    st.sampled_from(["Same text.", " Same \u3000text.\x85", "Same\ttext.",
                     "cafe\u0301 au lait", "caf\u00e9 au lait", "\u212b\u0130", "a  b"]))
_BAD_TEXTS = st.sampled_from(["", " ", "\u3000\x85\u2028", 5, None, ["text"]])
_GOOD_BATCHES = st.sampled_from(["K1", "K2", " K1 ", "\u00a0R4\t", "b\u0301", 5, 1.5, ["K1"]])
_BAD_BATCHES = st.sampled_from(["", "  ", "\u3000", 0, 0.0, False, None, [], {}])
_GOOD_LABELS = st.sampled_from([0, 1, "1", " 0 ", "\t1\u3000", True, False])
_BAD_LABELS = st.sampled_from([2, -1, 1.0, 0.0, None, "yes", "", "01", [1]])


def _mostly(good, bad):
    """Values of good, and one time in twenty of bad."""
    return st.integers(0, 19).flatmap(lambda n: bad if n == 0 else good)


@st.composite
def jsonl_lines(draw):
    kind = draw(st.sampled_from(["row"] * 30 + ["blank"] * 3 + [
        "not an object", "missing a key", "malformed", "padded past JSON whitespace"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\u00a0", "\u3000 \x0c"]))
    if kind == "not an object":
        return json.dumps(draw(st.sampled_from([[1], 5, "text", None, True, []])))
    if kind == "malformed":
        return draw(st.sampled_from(["not json", '{"batch": "K1"', '{"text": "a"} x',
                                     "\ufeff{}", "{'a': 1}", '{"a": 1}{"b": 2}']))
    row = {"batch": draw(_mostly(_GOOD_BATCHES, _BAD_BATCHES)),
           "text": draw(_mostly(_GOOD_TEXTS, _BAD_TEXTS)),
           "label": draw(_mostly(_GOOD_LABELS, _BAD_LABELS))}
    if kind == "missing a key":
        del row[draw(st.sampled_from(sorted(row)))]
    if draw(st.booleans()):
        row["note"] = "extra"
    keys = draw(st.permutations(list(row)))
    line = json.dumps({key: row[key] for key in keys}, ensure_ascii=draw(st.booleans()))
    if kind == "padded past JSON whitespace":
        return draw(st.sampled_from(["\u3000", "\x0c", ""])) + line + draw(
            st.sampled_from(["\u3000", "\x0c", "\x85"]))
    return (draw(st.sampled_from(["", "", " ", "\t "])) + line
            + draw(st.sampled_from(["", "", " ", "\t", " \r"])))


_TABLE_TEXTS = _mostly(st.one_of(_GOOD_TEXTS, st.sampled_from(
    ["two\nlines", "x\n\ny", "end\r\nof line", "a, b; c\td", 'say "hi"'])),
    st.sampled_from(["", " ", "\u3000"]))
_TABLE_BATCHES = st.sampled_from(["K1", "K2", " K1 ", "\u00a0R4\t", "b\u0301", "K\n2"])
_TABLE_LABELS = st.sampled_from(["0", "1", " 0 ", "\t1\u3000"])
_BAD_TABLE_LABELS = st.sampled_from(["2", "-1", "1.0", "yes", "", "01", "True"])


@st.composite
def tables(draw):
    """(format, file text) of a CSV or TSV: an optional byte-order mark, blank
    lines before the header and between rows, header aliases in any case and
    order (now and then one column short), fields quoted across lines, short
    rows and bad labels."""
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    delimiter = "\t" if fmt == "tsv" else draw(st.sampled_from([",", ",", ";"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    keys = draw(st.permutations(["text", "batch", "label", "note"]))
    if draw(st.integers(0, 19)) == 0:
        keys.remove(draw(st.sampled_from(["text", "batch", "label"])))
    names = [draw(st.sampled_from(DEFAULT_COLUMN_ALIASES.get(key, ("note",)))) for key in keys]
    header = [draw(st.sampled_from([name, name.upper(), f" {name.title()} "])) for name in names]
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=newline)
    blank = st.sampled_from(["", " ", "\t", delimiter * 2])
    for line in draw(st.lists(blank, max_size=2)):
        out.write(line + newline)
    writer.writerow(header)
    values = {"text": _TABLE_TEXTS, "batch": _mostly(_TABLE_BATCHES, st.sampled_from(["", " "])),
              "label": _mostly(_TABLE_LABELS, _BAD_TABLE_LABELS), "note": st.just("n")}
    kinds = st.sampled_from(["row"] * 12 + ["blank", "blank", "short"])
    for kind in draw(st.lists(kinds, max_size=8)):
        if kind == "blank":
            out.write(draw(blank) + newline)
            continue
        row = [draw(values[key]) for key in keys]
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        writer.writerow(row)
    text = out.getvalue()
    if not draw(st.booleans()):
        text = text.removesuffix(newline)
    return fmt, ("\ufeff" if draw(st.booleans()) else "") + text


class TestIngestEquivalence:
    @given(lines=st.lists(jsonl_lines(), max_size=8), newline=st.sampled_from(["\n", "\r\n"]),
           last_newline=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_jsonl_matches_reference(self, tmp_path_factory, lines, newline, last_newline):
        """Every file gives the reference's sentences and digest, or its
        DataError message."""
        path = tmp_path_factory.getbasetemp() / "generated.jsonl"
        path.write_bytes((newline.join(lines) + (newline if last_newline else ""))
                         .encode("utf-8"))
        assert (ingest_outcome(parse_dataset, path)
                == ingest_outcome(reference_parse_jsonl, path))

    @given(table=tables())
    @settings(deadline=None)
    def test_table_matches_reference(self, tmp_path_factory, table):
        """Every CSV or TSV gives the reference's sentences and digest, or its
        DataError message, each fault naming the line its row starts on."""
        fmt, text = table
        path = tmp_path_factory.getbasetemp() / f"generated.{fmt}"
        path.write_bytes(text.encode("utf-8"))
        assert (ingest_outcome(lambda p: parse_dataset(p, format=fmt), path)
                == ingest_outcome(lambda p: reference_parse_table(p, fmt), path))

    def test_generated_grid_corpus_matches_reference(self, full_corpus_jsonl):
        assert (ingest_outcome(parse_dataset, full_corpus_jsonl)
                == ingest_outcome(reference_parse_jsonl, full_corpus_jsonl))


class TestParseDataset:
    def test_jsonl_roundtrip(self, tmp_path):
        corpus = build_corpus([("a one", "K1", 1), ("b two", "K1", 0),
                               ("c three", "K2", 1)])
        path = tmp_path / "c.jsonl"
        save_jsonl(corpus, path)
        loaded = parse_dataset(path)
        assert loaded.sentences == corpus.sentences

    def test_idempotent(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_jsonl(build_corpus([("x", "K1", 1), ("y", "K2", 0)]), path)
        assert parse_dataset(path).sentences == parse_dataset(path).sentences

    def test_three_row_fixture(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"batch": "K1", "text": f"s{i}", "label": l}
                for i, l in enumerate([1, 0, 1])]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        corpus = parse_dataset(path)
        assert len(corpus) == 3
        assert sum(s.gold_label for s in corpus.sentences) == 2

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="no records"):
            parse_dataset(path)

    @pytest.mark.parametrize("fmt,text,message", [
        ("csv", "", "empty input"),
        ("csv", "sentence,batch,label\n", "no records"),
        ("tsv", "text\tbatch\tlabel\na b\tK1\t1\nc d\tK2\n", "line 3: label None is not binary"),
    ], ids=["empty", "header only", "short row"])
    def test_table_without_whole_records_errors(self, tmp_path, fmt, text, message):
        path = tmp_path / f"c.{fmt}"
        path.write_text(text)
        with pytest.raises(DataError) as raised:
            parse_dataset(path, format=fmt)
        assert str(raised.value) == f"{path}: {message}"

    def test_missing_source(self, tmp_path):
        with pytest.raises(DataError, match="unreadable"):
            parse_dataset(tmp_path / "nope.jsonl")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_text("x")
        with pytest.raises(DataError, match="unknown ingest format"):
            parse_dataset(path, format="parquet")

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"batch":"K1","text":"ok","label":1}\nnot json\n')
        with pytest.raises(DataError) as raised:
            parse_dataset(path)
        assert str(raised.value) == f"{path}: line 2 is not JSON (Expecting value)"

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"batch":"K1","text":"ok","label":2}\n')
        with pytest.raises(DataError, match="not binary"):
            parse_dataset(path)

    def test_empty_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"batch":"K1","text":"  ","label":0}\n')
        with pytest.raises(DataError) as raised:
            parse_dataset(path)
        assert str(raised.value) == f"{path}: line 1: missing or empty text"

    def test_a_jsonl_line_that_is_not_an_object_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"batch":"K1","text":"ok","label":1}\n[1]\n', encoding="utf-8")
        with pytest.raises(DataError) as raised:
            parse_dataset(path)
        assert str(raised.value) == f"{path}: line 2: missing or empty text"

    def test_a_row_after_a_multi_line_field_is_named_by_the_line_it_starts_on(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('sentence,batch,label\n"two\nlines",K1,1\nshort\n', encoding="utf-8")
        with pytest.raises(DataError) as raised:
            parse_dataset(path, format="csv")
        assert str(raised.value) == f"{path}: line 4: missing batch code"

    def test_a_header_without_a_column_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("\ntext,batch\nhi,K1\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            parse_dataset(path, format="csv")
        assert str(raised.value) == (f"{path}: line 2: header ['text', 'batch'] has no "
                                     "column for 'label'")

    def test_csv_with_aliases(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("sentence,batch,label\nhello there,K1,1\nbye now,K2,0\n")
        corpus = parse_dataset(path, format="csv")
        assert [s.batch for s in corpus.sentences] == ["K1", "K2"]
        assert [s.gold_label for s in corpus.sentences] == [1, 0]

    def test_blank_lines_before_the_header_are_skipped(self, tmp_path):
        """Line numbers still count from the file's first line."""
        path = tmp_path / "c.csv"
        path.write_text("\nsentence,batch,label\nhello there,K1,1\n", encoding="utf-8")
        assert [s.text for s in parse_dataset(path, format="csv").sentences] == ["hello there"]
        path.write_text("\n \nsentence,batch,label\nhello there,K1,1\nbye\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            parse_dataset(path, format="csv")
        assert str(raised.value) == f"{path}: line 5: missing batch code"

    @pytest.mark.parametrize("fmt,sep", [("csv", ","), ("tsv", "\t")])
    def test_a_byte_order_mark_before_the_header_is_dropped(self, tmp_path, fmt, sep):
        """As a spreadsheet exports it; a second one is the header's."""
        path = tmp_path / f"c.{fmt}"
        table = sep.join(["sentence", "batch", "label"]) + "\n" + sep.join(["hi", "K1", "1"])
        path.write_text(f"\ufeff{table}\n", encoding="utf-8")
        assert [s.text for s in parse_dataset(path, format=fmt).sentences] == ["hi"]
        path.write_text(f"\ufeff\ufeff{table}\n", encoding="utf-8")
        with pytest.raises(DataError, match="has no column for 'text'"):
            parse_dataset(path, format=fmt)

    def test_a_jsonl_line_with_a_byte_order_mark_is_not_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\ufeff{"batch":"K1","text":"ok","label":1}\n', encoding="utf-8")
        with pytest.raises(DataError) as raised:
            parse_dataset(path)
        assert str(raised.value) == (f"{path}: line 1 is not JSON "
                                     "(Unexpected UTF-8 BOM (decode using utf-8-sig))")

    def test_a_field_over_the_csv_limit_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "c.csv"
        big = "x" * (csv.field_size_limit() + 1)
        path.write_text(f"sentence,batch,label\nhi,K1,1\n{big},K1,0\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            parse_dataset(path, format="csv")
        assert str(raised.value) == (f"{path}: line 3 is not CSV (field larger than field "
                                     f"limit ({csv.field_size_limit()}))")

    def test_tsv(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("text\tbatch\tgold_label\na b\tK1\t1\n")
        corpus = parse_dataset(path, format="tsv")
        assert corpus.sentences[0].text == "a b"

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("sentence,label\nhello,1\n")
        with pytest.raises(DataError, match="batch"):
            parse_dataset(path, format="csv")

    def test_duplicates_kept_distinct(self, tmp_path):
        path = tmp_path / "c.jsonl"
        row = '{"batch":"K1","text":"dup","label":1}\n'
        path.write_text(row * 3)
        corpus = parse_dataset(path)
        assert len(corpus) == 3
        assert len({s.id for s in corpus.sentences}) == 3


class TestFilterBatches:
    def test_identity(self, small_corpus):
        out = filter_batches(small_corpus, set(small_corpus.batches()))
        assert out.sentences == small_corpus.sentences

    def test_subset_preserves_order(self, small_corpus):
        out = filter_batches(small_corpus, {"K2"})
        assert [s.batch for s in out.sentences] == ["K2", "K2"]

    def test_empty_include_errors(self, small_corpus):
        with pytest.raises(DataError):
            filter_batches(small_corpus, set())

    def test_absent_batch_warns_not_fails(self, small_corpus, caplog):
        out = filter_batches(small_corpus, {"K1", "ZZ"})
        assert len(out) == 2

    def test_disjoint_union_decomposes(self, small_corpus):
        union = filter_batches(small_corpus, {"K1", "K3"})
        a = filter_batches(small_corpus, {"K1"})
        b = filter_batches(small_corpus, {"K3"})
        merged = sorted(a.sentences + b.sentences, key=lambda s: s.id)
        assert sorted(union.sentences, key=lambda s: s.id) == merged

    def test_full_corpus_counts(self, full_corpus):
        kept = filter_batches(full_corpus, KEPT_BATCHES)
        assert len(kept) == TOTAL_KEPT
        assert sum(s.gold_label for s in kept.sentences) == 1291


class TestCorpusStats:
    def test_full_dataset_table(self, full_corpus):
        kept = filter_batches(full_corpus, KEPT_BATCHES)
        rows = {st.batch: st for st in corpus_stats(kept)}
        for batch in KEPT_BATCHES:
            n, n_ad = FULL_SHAPE[batch]
            assert rows[batch].n_sentences == n
            assert rows[batch].n_ad == n_ad
        assert rows["ALL"].n_sentences == TOTAL_KEPT
        assert rows["ALL"].n_ad == 1291

    def test_single_ad_sentence(self):
        corpus = build_corpus([("only one", "K1", 1)])
        rows = corpus_stats(corpus)
        assert rows[0].n_sentences == 1
        assert rows[0].n_ad == 1
        assert rows[0].ad_fraction == 1.0

    def test_three_row_fixture(self):
        corpus = build_corpus([("a", "K1", 1), ("b", "K1", 0), ("c", "K1", 1)])
        rows = corpus_stats(corpus)
        assert rows[0].n_ad == 2
        assert rows[0].ad_fraction == pytest.approx(2 / 3)

    def test_empty_corpus(self):
        from delib.corpus import Corpus
        rows = corpus_stats(Corpus(sentences=[]))
        assert len(rows) == 1
        assert rows[0].batch == "ALL"
        assert rows[0].n_sentences == 0

    def test_renderers(self, small_corpus):
        rows = corpus_stats(small_corpus)
        assert "Batch" in stats_table(rows)
        assert stats_csv(rows).startswith("batch,")
