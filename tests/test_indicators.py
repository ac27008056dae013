import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.errors import ConfigError, DataError
from delib.indicators import (CATEGORY_ORDER, build_easy_sets,
                              cooccurrence_csv, cooccurrence_stats,
                              extract_indicators, load_lexicons,
                              occurrence_csv, occurrence_table, pairs_csv,
                              regular_forms, tokenize, verb_frequency, verbs_csv)

from conftest import build_corpus, make_sentence

LEXICONS = load_lexicons()

HCFA = ("Give all primary civil authority to HCFA, but establish a referral "
        "process in an MOU for both chains and individual facilities.")
OMB = "OMB suggested increasing the local match rate over time"
ZONES = "We could also reintroduce a version of education opportunity zones."
NEGOTIATIONS = ("I don't know where things stand in the negotiations over "
                "this amendment, but it would be great if we could indicate "
                "that this particular provision would be a deal breaker.")


def profile(text):
    return extract_indicators(make_sentence(text), LEXICONS)


def profiles_of(corpus):
    return {s.id: extract_indicators(s, LEXICONS) for s in corpus.sentences}


class TestTokenize:
    def test_basic_lowercasing(self):
        assert tokenize("The Quick Fox.") == ["the", "quick", "fox"]

    def test_nt_contractions(self):
        assert tokenize("don't") == ["do", "not"]
        assert tokenize("can't") == ["can", "not"]
        assert tokenize("won't") == ["will", "not"]
        assert tokenize("isn't") == ["is", "not"]

    def test_clitics_expanded(self):
        assert tokenize("we'd go") == ["we", "would", "go"]
        assert tokenize("I'm sure we're fine") == ["i", "am", "sure", "we", "are", "fine"]
        assert tokenize("they've said he'll come") == [
            "they", "have", "said", "he", "will", "come"]

    def test_possessive_dropped(self):
        assert tokenize("the president's plan") == ["the", "president", "plan"]

    def test_punctuation_and_numbers_skipped(self):
        assert tokenize("35 percent -- of $10,000!") == ["percent", "of"]


_REF_TOKEN = re.compile(r"[a-zA-Z]+(?:'[a-zA-Z]+)?")
_REF_NT_SPECIAL = {"can't": ("can", "not"), "won't": ("will", "not"),
                   "shan't": ("shall", "not"), "ain't": ("be", "not")}
_REF_CLITICS = {"'m": "am", "'re": "are", "'ve": "have", "'ll": "will", "'d": "would"}


def reference_tokenize(text):
    """The tokenizer's definition, rule by rule for every word."""
    tokens = []
    for raw in _REF_TOKEN.findall(text):
        word = raw.lower()
        if word in _REF_NT_SPECIAL:
            tokens.extend(_REF_NT_SPECIAL[word])
            continue
        if word.endswith("n't") and len(word) > 3:
            tokens.extend((word[:-3], "not"))
            continue
        for clitic, expansion in _REF_CLITICS.items():
            if word.endswith(clitic) and len(word) > len(clitic):
                tokens.extend((word[:-len(clitic)], expansion))
                break
        else:
            if word.endswith("'s") and len(word) > 2:
                word = word[:-2]
            tokens.append(word)
    return tokens


TOKEN_PIECES = ["don't", "Can't", "WON'T", "shan't", "ain't", "n't", "isn't", "'s",
                "'m", "'re", "'ve", "'ll", "'d", "'", "''", "we'd", "I'M", "it's",
                "s", "d", "we", "I", "Should", "said", "adjourned", "\u0130", "\u0131",
                "\u212a", "\u017f", "\u00e9", "e\u0301", "\u00df", " ", "\xa0", "\u3000",
                "\x1c", "\x85", "\n", ".", "-", "5"]


class TestTokenizeReference:
    @given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=20).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_contraction_pieces(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(st.text(alphabet="abdmnrstvlyDNT'\u0130\u0131\u212a\u017f\u00e9\u0301 \xa0\u3000.",
                   max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_mixed_letters(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_any_text(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestRegularForms:
    def test_plain(self):
        assert regular_forms("want") == {
            "want": "pres", "wants": "pres", "wanted": "past", "wanting": "pres"}

    def test_e_drop(self):
        forms = regular_forms("believe")
        assert forms["believed"] == "past"
        assert "believing" in forms and "believeing" not in forms

    def test_y_to_ies(self):
        forms = regular_forms("study")
        assert forms["studies"] == "pres"
        assert forms["studied"] == "past"

    def test_vowel_y_regular(self):
        forms = regular_forms("stay")
        assert forms["stays"] == "pres"
        assert forms["stayed"] == "past"

    def test_cvc_doubling(self):
        forms = regular_forms("plan")
        assert forms["planned"] == "past"
        assert forms["planning"] == "pres"

    def test_sibilant_es(self):
        assert regular_forms("discuss")["discusses"] == "pres"


class TestLexiconLoading:
    def test_bundled_loads(self):
        lex = load_lexicons()
        assert "suggest" in lex.reporting
        assert "would" in lex.modal
        assert "we" in lex.first_person
        assert lex.inflections["suggested"] == "suggest"
        assert lex.tense["suggested"] == "past"
        assert lex.digest

    def test_bundled_digest_is_pinned(self):
        # the golden easy_sets.json records this digest
        assert load_lexicons().digest == "45c4585109b0"

    def test_irregulars_beat_regular_generation(self):
        lex = load_lexicons()
        assert lex.inflections["said"] == "say"
        assert lex.tense["said"] == "past"
        assert lex.inflections["knew"] == "know"
        assert lex.inflections["is"] == "be"

    def test_override_directory(self, tmp_path):
        (tmp_path / "stative.txt").write_text("flibber\n")
        lex = load_lexicons(tmp_path)
        assert lex.stative == frozenset({"flibber"})
        assert "suggest" in lex.reporting  # falls back to bundled file
        assert lex.inflections["flibbers"] == "flibber"

    def test_missing_irregular_file(self, tmp_path, monkeypatch):
        import delib.indicators
        bundled = tmp_path / "bundled"
        shutil.copytree(delib.indicators._BUNDLED, bundled)
        (bundled / "irregular.txt").unlink()
        monkeypatch.setattr(delib.indicators, "_BUNDLED", bundled)
        with pytest.raises(ConfigError, match="missing lexicon file: irregular.txt"):
            load_lexicons()

    def test_missing_directory(self):
        with pytest.raises(ConfigError):
            load_lexicons("/nonexistent/lexicons")

    def test_comments_stripped(self, tmp_path):
        (tmp_path / "modal.txt").write_text("# header\nmust  # trailing\n\n")
        lex = load_lexicons(tmp_path)
        assert lex.modal == frozenset({"must"})


class TestExampleSentences:
    """Published example sentences with their unique indicator counts."""

    @pytest.mark.parametrize("text,expected_unique", [
        (HCFA, 0), (OMB, 1), (ZONES, 2), (NEGOTIATIONS, 5)])
    def test_unique_counts(self, text, expected_unique):
        assert profile(text).unique_count == expected_unique

    def test_omb_category(self):
        p = profile(OMB)
        assert p.categories() == {"reporting"}
        assert p.hits["reporting"] == ["suggested"]
        assert p.past_tense is True

    def test_zones_categories(self):
        p = profile(ZONES)
        assert p.categories() == {"modal", "first_person"}
        assert p.past_tense is False

    def test_negotiations_categories(self):
        p = profile(NEGOTIATIONS)
        assert p.categories() == {"modal", "first_person", "cognitive",
                                  "reporting", "stative"}


class TestPriorityOrder:
    def test_each_token_counts_once(self):
        # "would" is a modal and also the clitic expansion of 'd
        p = profile("We'd suggest we would go.")
        assert sum(len(v) for v in p.hits.values()) == p.total_count
        assert p.hits["modal"] == ["would", "would"]
        assert p.hits["first_person"] == ["we", "we"]
        assert p.hits["reporting"] == ["suggest"]

    def test_priority_is_stable(self):
        assert CATEGORY_ORDER == ("modal", "first_person", "future_temporal",
                                  "reporting", "cognitive", "stative")

    def test_repeats_increase_total_not_unique(self):
        p = profile("We believe and we believe and we believe.")
        assert p.unique_count == 2
        assert p.total_count == 6


class TestRobustness:
    @pytest.mark.parametrize("variant", [
        OMB.upper(), OMB.lower(), f"  {OMB} ", OMB + "!!!", f'"{OMB}"'])
    def test_case_and_punctuation_invariance(self, variant):
        assert extract_indicators(make_sentence(variant), LEXICONS).unique_count == 1

    @given(st.text(alphabet="abcdefghij XYZ.,;!?'\"0123456789", max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_never_crashes(self, text):
        p = extract_indicators(make_sentence(text or "x"), LEXICONS)
        assert 0 <= p.unique_count <= len(CATEGORY_ORDER)
        assert p.total_count >= p.unique_count

    def test_appending_neutral_text_is_monotone(self):
        base = profile(ZONES)
        extended = profile(ZONES + " The report covers fiscal details.")
        assert extended.categories() >= base.categories()
        assert extended.total_count >= base.total_count


class TestPastTense:
    def test_past_first_verb(self):
        assert profile("OMB suggested a change.").past_tense is True

    def test_present_first_verb(self):
        assert profile("OMB suggests a change.").past_tense is False

    def test_modal_decides_present(self):
        assert profile("We could have suggested a change.").past_tense is False

    def test_no_verb(self):
        assert profile("Quarterly budget overview.").past_tense is False

    def test_unknown_ed_word(self):
        assert profile("The committee adjourned early.").past_tense is True

    def test_irregular_past(self):
        assert profile("He said nothing.").past_tense is True


class TestEasySets:
    def _corpus(self):
        return build_corpus([("alpha", "K1", 1), ("beta", "K1", 0),
                             ("gamma", "K2", 1), ("delta", "K2", 0)])

    def test_unanimous_only(self):
        corpus = self._corpus()
        a, b, c, d = [s.id for s in corpus.sentences]
        run1 = {a: 1, b: 0, c: 1, d: 1}
        run2 = {a: 1, b: 0, c: 0, d: 1}
        sets = build_easy_sets([run1, run2], corpus)
        assert sets.easy_1 == {a}
        assert sets.easy_0 == {b}
        assert sets.n_runs == 2

    def test_schema_failure_disqualifies(self):
        corpus = self._corpus()
        a, b, c, d = [s.id for s in corpus.sentences]
        run1 = {a: 1, b: 0, c: 1, d: 0}
        run2 = {a: None, b: 0, c: 1, d: 0}
        sets = build_easy_sets([run1, run2], corpus)
        assert a not in sets.easy_1
        assert sets.easy_1 == {c}

    def test_minimum_runs(self):
        with pytest.raises(DataError, match="at least 2"):
            build_easy_sets([{}], self._corpus())


class TestAggregates:
    def _fixture(self):
        rows = [
            ("We could also reintroduce the zones.", "K1", 1),   # modal+fp
            ("OMB suggested increasing the rate", "K1", 1),      # reporting
            ("The act sets the schedule.", "K1", 0),             # none... "sets" is verbs? check via oracle below
            ("Budget overview for the quarter.", "K1", 0),       # none
        ]
        corpus = build_corpus(rows)
        profiles = {s.id: extract_indicators(s, LEXICONS) for s in corpus.sentences}
        return corpus, profiles

    def test_occurrence_table_brute_force(self):
        corpus, profiles = self._fixture()
        ids = [s.id for s in corpus.sentences]
        table = occurrence_table(ids, profiles)
        n = len(ids)
        for category in CATEGORY_ORDER:
            expected = sum(1 for i in ids if profiles[i].hits[category]) / n
            assert table[category] == pytest.approx(expected)
        assert table["n"] == n
        assert table["past_tense"] == pytest.approx(
            sum(1 for i in ids if profiles[i].past_tense) / n)

    def test_occurrence_empty_set(self):
        with pytest.raises(DataError):
            occurrence_table([], {})

    def test_cooccurrence_hand_fixture(self):
        corpus, profiles = self._fixture()
        ids = [s.id for s in corpus.sentences]
        stats = cooccurrence_stats(ids, profiles)
        uniques = sorted(profiles[i].unique_count for i in ids)
        # lower median of an even-sized list is the left-of-center element
        assert stats["median_unique"] == uniques[(len(uniques) - 1) // 2]
        assert stats["share_2plus"] == pytest.approx(
            sum(1 for i in ids if profiles[i].unique_count >= 2) / len(ids))
        assert stats["share_zero"] == pytest.approx(
            sum(1 for i in ids if profiles[i].unique_count == 0) / len(ids))
        pair_total = sum(p["count"] for p in stats["top_pairs"])
        expected_pairs = sum(
            len(profiles[i].categories()) * (len(profiles[i].categories()) - 1) // 2
            for i in ids)
        assert pair_total == expected_pairs  # all pairs fit within TOP_PAIRS here

    def test_lower_median_convention(self):
        corpus = build_corpus([("We could go.", "K1", 1),
                               ("Nothing here.", "K1", 0)])
        profiles = {s.id: extract_indicators(s, LEXICONS) for s in corpus.sentences}
        ids = [s.id for s in corpus.sentences]
        stats = cooccurrence_stats(ids, profiles)
        # counts are {2, 0}: lower median is 0, not 1.0
        assert stats["median_unique"] == 0

    def test_verb_frequency_once_per_sentence(self):
        corpus = build_corpus([
            ("We suggest and suggest and suggest.", "K1", 1),
            ("They suggested a plan.", "K1", 1),
            ("Nothing verbal here.", "K1", 0),
        ])
        ids = [s.id for s in corpus.sentences]
        freq = dict(verb_frequency(ids, profiles_of(corpus)))
        assert freq["suggest"] == pytest.approx(2 / 3)

    def test_verb_frequency_top_k_and_ties(self):
        corpus = build_corpus([("We know and believe.", "K1", 1)])
        freq = verb_frequency([corpus.sentences[0].id], profiles_of(corpus), top_k=1)
        assert len(freq) == 1

    def test_verb_frequency_unknown_id(self):
        corpus = build_corpus([("a", "K1", 1)])
        with pytest.raises(DataError):
            verb_frequency(["nope"], profiles_of(corpus))

    @pytest.mark.parametrize("table", [occurrence_table, cooccurrence_stats, verb_frequency])
    def test_an_id_without_a_profile_is_a_data_error(self, table):
        corpus, profiles = self._fixture()
        ids = [s.id for s in corpus.sentences] + ["nope"]
        with pytest.raises(DataError, match=f"{table.__name__}: no profiles for: .*nope"):
            table(ids, profiles)

    def test_profile_lemmas(self):
        """Each verb form counts as its lemma and each modal as itself."""
        p = profile("We could have suggested that they suggest it; it was seen.")
        assert p.lemmas == {"could", "have", "suggest", "be", "see"}

    def test_csv_renderers(self):
        corpus, profiles = self._fixture()
        ids = [s.id for s in corpus.sentences]
        occ = occurrence_csv({"easy-1": occurrence_table(ids, profiles)})
        assert occ.startswith("set,n,modal")
        coo = cooccurrence_csv({"easy-1": cooccurrence_stats(ids, profiles)})
        assert "median_unique" in coo.split("\n")[0]
        verbs = verbs_csv({"easy-1": verb_frequency(ids, profiles)})
        assert verbs.startswith("set,lemma,share_of_sentences")

    def test_pairs_csv_hand_counted(self):
        corpus = build_corpus([
            ("We could also reintroduce the zones.", "K1", 1),
            ("I think we should wait.", "K1", 1),
            ("Budget overview for the quarter.", "K1", 0),
        ])
        profiles = {s.id: extract_indicators(s, LEXICONS) for s in corpus.sentences}
        ids = [s.id for s in corpus.sentences]
        assert [sorted(profiles[i].categories()) for i in ids] == [
            ["first_person", "modal"], ["cognitive", "first_person", "modal"], []]
        # first_person+modal in two sentences; the other pairs in one of three
        assert pairs_csv({"easy_1": cooccurrence_stats(ids, profiles)}) == (
            "set,first,second,count,share\n"
            "easy_1,first_person,modal,2,0.6667\n"
            "easy_1,cognitive,first_person,1,0.3333\n"
            "easy_1,cognitive,modal,1,0.3333\n")
