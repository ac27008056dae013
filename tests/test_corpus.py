import hashlib
import json
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.corpus import (Corpus, Sentence, _normalize_for_id, corpus_stats, filter_batches,
                          parse_dataset, save_jsonl, sentence_id, stats_csv, stats_table)
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


def reference_coerce_label(value, row_no: int) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise DataError(f"row {row_no}: label {value!r} is not binary")


def reference_build_sentences(rows) -> list[Sentence]:
    """The row checks and ids of JSONL and table ingest, as first written."""
    sentences = []
    occurrences = {}
    for row_no, batch, text, label in rows:
        if not isinstance(text, str) or not text.strip():
            raise DataError(f"row {row_no}: missing or empty text")
        if not batch or not str(batch).strip():
            raise DataError(f"row {row_no}: missing batch code")
        batch = str(batch).strip()
        gold = reference_coerce_label(label, row_no)
        base_id = reference_sentence_id(batch, text)
        n = occurrences.get(base_id, 0)
        occurrences[base_id] = n + 1
        sid = base_id if n == 0 else f"{base_id}-{n}"
        sentences.append(Sentence(id=sid, batch=batch, text=text, gold_label=gold))
    return sentences


def reference_iter_jsonl(path):
    """JSONL rows through json.loads, as first written."""
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


def reference_parse_jsonl(path) -> Corpus:
    sentences = reference_build_sentences(reference_iter_jsonl(path))
    if not sentences:
        raise DataError("no records")
    return Corpus(sentences=sentences)


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
        with pytest.raises(DataError, match="row 2"):
            parse_dataset(path)

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"batch":"K1","text":"ok","label":2}\n')
        with pytest.raises(DataError, match="not binary"):
            parse_dataset(path)

    def test_empty_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"batch":"K1","text":"  ","label":0}\n')
        with pytest.raises(DataError, match="row 1"):
            parse_dataset(path)

    def test_csv_with_aliases(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("sentence,batch,label\nhello there,K1,1\nbye now,K2,0\n")
        corpus = parse_dataset(path, format="csv")
        assert [s.batch for s in corpus.sentences] == ["K1", "K2"]
        assert [s.gold_label for s in corpus.sentences] == [1, 0]

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
