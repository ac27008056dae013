import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.errors import SchemaError
from delib.parsing import (_LABEL_FIELD, LENIENT, SCHEMA_FIELDS, STRICT, ParsedPrediction,
                           _coerce_binary, _first_balanced_object, parse_prediction)


class TestSimpleSchema:
    def test_plain_object(self):
        pred = parse_prediction('{"deliberative": 1}', "SIMPLE")
        assert pred.label == 1
        assert pred.repairs == []

    def test_zero_label(self):
        assert parse_prediction('{"deliberative": 0}', "SIMPLE").label == 0

    def test_string_label_lenient(self):
        pred = parse_prediction('{"deliberative": "1"}', "SIMPLE", LENIENT)
        assert pred.label == 1
        assert "coerce-label" in pred.repairs

    def test_string_label_strict(self):
        with pytest.raises(SchemaError, match="uncoercible"):
            parse_prediction('{"deliberative": "1"}', "SIMPLE", STRICT)

    def test_bool_label_lenient(self):
        assert parse_prediction('{"deliberative": true}', "SIMPLE", LENIENT).label == 1

    def test_uncoercible_label(self):
        with pytest.raises(SchemaError, match="uncoercible label"):
            parse_prediction('{"deliberative": "maybe"}', "SIMPLE", LENIENT)

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="missing required"):
            parse_prediction('{"label": 1}', "SIMPLE")

    def test_extra_fields_tolerated_lenient(self):
        pred = parse_prediction('{"deliberative": 1, "note": "hi"}', "SIMPLE", LENIENT)
        assert pred.extra == {"note": "hi"}

    def test_extra_fields_rejected_strict(self):
        with pytest.raises(SchemaError, match="unexpected fields"):
            parse_prediction('{"deliberative": 1, "note": "hi"}', "SIMPLE", STRICT)

    def test_garbage(self):
        with pytest.raises(SchemaError, match="no parsable"):
            parse_prediction("I refuse to answer.", "SIMPLE", LENIENT)


class TestLenientRepairs:
    def test_fenced_cot(self):
        raw = '```json\n{"step1":"a","step2":"b","deliberative":0}\n```'
        pred = parse_prediction(raw, "COT", LENIENT)
        assert pred.label == 0
        assert "fence-strip" in pred.repairs

    def test_fence_rejected_strict(self):
        raw = '```json\n{"deliberative":0}\n```'
        with pytest.raises(SchemaError):
            parse_prediction(raw, "SIMPLE", STRICT)

    def test_object_in_prose(self):
        raw = 'Sure, here is my answer: {"deliberative": 1} hope that helps'
        pred = parse_prediction(raw, "SIMPLE", LENIENT)
        assert pred.label == 1
        assert "object-extract" in pred.repairs

    def test_nested_braces_in_prose(self):
        raw = 'result {"deliberative": 1, "extra": {"x": "y"}} done'
        assert parse_prediction(raw, "SIMPLE", LENIENT).label == 1

    def test_brace_inside_string_value(self):
        raw = '{"step1": "a } tricky", "step2": "b", "deliberative": 1}'
        pred = parse_prediction(raw, "COT")
        assert pred.step1 == "a } tricky"


class TestCotSchema:
    def test_steps_required(self):
        with pytest.raises(SchemaError, match="missing required"):
            parse_prediction('{"deliberative": 1}', "COT", LENIENT)

    def test_empty_steps_rejected(self):
        with pytest.raises(SchemaError, match="empty step"):
            parse_prediction('{"step1":"","step2":"b","deliberative":1}', "COT")

    def test_good_cot(self):
        pred = parse_prediction('{"step1":"x","step2":"y","deliberative":1}', "COT")
        assert (pred.step1, pred.step2, pred.label) == ("x", "y", 1)


class TestCriticJudgeSchemas:
    def test_critic(self):
        raw = '{"assessment": "Sound", "issues": "none", "suggestion": 1}'
        pred = parse_prediction(raw, "CRITIC")
        assert pred.label == 1
        assert pred.extra["assessment"] == "sound"

    def test_critic_bad_assessment(self):
        raw = '{"assessment": "fine", "issues": "none", "suggestion": 1}'
        with pytest.raises(SchemaError, match="invalid assessment"):
            parse_prediction(raw, "CRITIC")

    def test_judge(self):
        raw = '{"rationale": "because", "deliberative": 0}'
        pred = parse_prediction(raw, "JUDGE")
        assert pred.label == 0
        assert pred.extra["rationale"] == "because"

    def test_judge_empty_rationale(self):
        with pytest.raises(SchemaError, match="rationale"):
            parse_prediction('{"rationale": " ", "deliberative": 0}', "JUDGE")


class TestRoundTrip:
    @given(label=st.integers(0, 1))
    def test_simple_roundtrip(self, label):
        again = parse_prediction(json.dumps({"deliberative": label}), "SIMPLE", STRICT)
        assert again.label == label

    @given(label=st.integers(0, 1),
           step1=st.text(min_size=1).filter(str.strip),
           step2=st.text(min_size=1).filter(str.strip))
    def test_cot_roundtrip(self, label, step1, step2):
        raw = json.dumps({"step1": step1, "step2": step2, "deliberative": label},
                         ensure_ascii=False)
        again = parse_prediction(raw, "COT", STRICT)
        assert (again.label, again.step1, again.step2) == (label, step1, step2)

    def test_judge_roundtrip(self):
        raw = json.dumps({"rationale": "r", "deliberative": 1})
        again = parse_prediction(raw, "JUDGE", STRICT)
        assert again.extra["rationale"] == "r"

    @given(label=st.integers(0, 1), prefix=st.text(max_size=20),
           suffix=st.text(max_size=20))
    def test_lenient_extraction_survives_prose(self, label, prefix, suffix):
        body = json.dumps({"deliberative": label})
        raw = prefix.replace("{", "").replace("}", "") + body + suffix
        assert parse_prediction(raw, "SIMPLE", LENIENT).label == label


# -- equivalence with the json.loads-first implementation -----------------

_REF_FENCE = re.compile(r"^```[a-zA-Z]*\s*\n(.*?)\n?```\s*$", re.DOTALL)


def reference_parse(raw, expected_schema, repair_policy=LENIENT):
    """parse_prediction as it was before the scanner fast path: json.loads,
    then fence strip, then the first balanced object. Returns the fields of
    the ParsedPrediction."""
    if expected_schema not in SCHEMA_FIELDS:
        raise SchemaError(f"unknown schema tag: {expected_schema!r}")
    lenient = repair_policy == LENIENT
    repairs = []

    text = raw.strip()
    obj = None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        if lenient:
            fenced = _REF_FENCE.match(text)
            if fenced:
                repairs.append("fence-strip")
                text = fenced.group(1).strip()
                try:
                    obj = json.loads(text)
                except json.JSONDecodeError:
                    obj = None
            if obj is None:
                candidate = _first_balanced_object(text)
                if candidate is not None:
                    if "object-extract" not in repairs:
                        repairs.append("object-extract")
                    try:
                        obj = json.loads(candidate)
                    except json.JSONDecodeError:
                        obj = None
    if obj is None:
        raise SchemaError("no parsable JSON object in response")
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object, got {type(obj).__name__}")

    required = SCHEMA_FIELDS[expected_schema]
    missing = [f for f in required if f not in obj]
    if missing:
        raise SchemaError(f"missing required fields: {', '.join(missing)}")
    extra_fields = {k: v for k, v in obj.items() if k not in required}
    if extra_fields and not lenient:
        raise SchemaError(f"unexpected fields under STRICT: {sorted(extra_fields)}")

    label = _coerce_binary(obj[_LABEL_FIELD[expected_schema]], lenient, repairs)

    step1 = step2 = None
    extra = dict(extra_fields)
    if expected_schema == "COT":
        step1, step2 = str(obj["step1"]), str(obj["step2"])
        if not step1.strip() or not step2.strip():
            raise SchemaError("empty step1/step2 in COT response")
    elif expected_schema == "CRITIC":
        assessment = str(obj["assessment"]).strip().lower()
        if assessment not in ("sound", "flawed"):
            raise SchemaError(f"invalid assessment: {obj['assessment']!r}")
        extra["assessment"] = assessment
        extra["issues"] = str(obj["issues"])
    elif expected_schema == "JUDGE":
        rationale = str(obj["rationale"])
        if not rationale.strip():
            raise SchemaError("empty judge rationale")
        extra["rationale"] = rationale

    return dict(label=label, step1=step1, step2=step2, extra=extra, repairs=repairs)


def _outcome(parse, raw, schema, policy):
    try:
        result = parse(raw, schema, policy)
    except SchemaError as exc:
        return ("SchemaError", exc.reason)
    if isinstance(result, ParsedPrediction):
        result = dict(label=result.label, step1=result.step1, step2=result.step2,
                      extra=result.extra, repairs=result.repairs)
    # type() too: a bool label must not pass for an int one
    return ("ok", type(result["label"]), result)


_PADDING = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000\ufeff"),
                   max_size=4)
_STEP = st.one_of(st.text(max_size=12), st.sampled_from(["", "   ", "a } b", 'q "x" {y}']),
                  st.integers(0, 3), st.none())
_LABEL = st.one_of(st.sampled_from([0, 1]), st.booleans(),
                   st.sampled_from(["0", "1", " 1 ", "yes", ""]),
                   st.sampled_from([0.0, 1.0, 0.5, -0.0]), st.integers(-2, 3), st.none())
_FIELD_VALUES = {
    "deliberative": _LABEL, "suggestion": _LABEL,
    "step1": _STEP, "step2": _STEP, "issues": _STEP, "rationale": _STEP,
    "assessment": st.sampled_from(["sound", "Flawed ", "SOUND", "fine", ""]),
}


@st.composite
def _response(draw):
    schema = draw(st.sampled_from(sorted(SCHEMA_FIELDS)))
    fields = [f for f in SCHEMA_FIELDS[schema] if draw(st.integers(0, 9)) > 0]
    obj = {f: draw(_FIELD_VALUES[f]) for f in fields}
    for name in draw(st.lists(st.sampled_from(["note", "confidence", "deliberative",
                                               "step1", "é"]), max_size=2)):
        obj.setdefault(name, draw(_STEP))
    body = json.dumps(obj, ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, None, 2])))
    shape = draw(st.sampled_from(["clean", "fenced", "prose", "garbage", "two",
                                  "non-object", "raw-text"]))
    if shape == "fenced":
        body = "```" + draw(st.sampled_from(["json", "", "JSON"])) + "\n" + body + "\n```"
    elif shape == "prose":
        body = (draw(st.sampled_from(["Sure: ", "Answer {", "x } ", ""])) + body
                + draw(st.sampled_from([" hope that helps", " }", "", "."])))
    elif shape == "garbage":
        body += draw(st.sampled_from(["x", "}", "]", " trailing", ","]))
    elif shape == "two":
        body += draw(st.sampled_from(["", " ", "\n"])) + body
    elif shape == "non-object":
        body = draw(st.sampled_from(["null", "[]", "3", '"text"', "true", "[{}]",
                                    '[{"deliberative": 1}]', "NaN"]))
    elif shape == "raw-text":
        body = draw(st.text(max_size=30))
    raw = draw(_PADDING) + body + draw(_PADDING)
    return raw, schema, draw(st.sampled_from([STRICT, LENIENT]))


class TestScannerEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(case=_response())
    def test_matches_reference(self, case):
        raw, schema, policy = case
        assert _outcome(parse_prediction, raw, schema, policy) == \
            _outcome(reference_parse, raw, schema, policy)

    @pytest.mark.parametrize("raw", [
        '{"deliberative": 1}', ' \u3000{"deliberative": 0}\n', '\ufeff{"deliberative": 1}',
        'null', '[]', '3', '{"deliberative": 1} x', '{"deliberative": 1}{"deliberative": 0}',
        '{"deliberative": true}', '{"deliberative": "1"}', '{"deliberative": 1.0}',
        '{"deliberative": 1, "note": "é"}', '```json\n{"deliberative": 0}\n```',
        'Sure: {"deliberative": 1} thanks', '{"deliberative": 2}', '',
    ])
    @pytest.mark.parametrize("policy", [STRICT, LENIENT])
    def test_fixed_cases(self, raw, policy):
        assert _outcome(parse_prediction, raw, "SIMPLE", policy) == \
            _outcome(reference_parse, raw, "SIMPLE", policy)
