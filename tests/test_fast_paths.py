"""Each per-completion fast path against the plain code it stands in for.

dumps_canonical against json.dumps, PromptBundle.digest against one sha256
of the whole payload, parse_prediction against a copy of the version
before its scanner-first object extraction and type-exact shortcuts, and
read_jsonl's scanner-first lines against json.loads of each line. The
hypothesis tests take their example count from the profile: CI runs this
file again under HYPOTHESIS_PROFILE=ci (see conftest.py).
"""
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.errors import DataError, SchemaError
from delib.gateway import MAX_SYSTEM_STATES
from delib.parsing import (LENIENT, SCHEMA_FIELDS, STRICT, dumps_canonical, parse_prediction,
                           read_jsonl)
from delib.prompting import _AFTER_SYSTEM, PromptBundle

# -- dumps_canonical ------------------------------------------------------

_tricky_text = st.text(st.sampled_from('ab "\\/\n\t\x00\x1f\x7fé✓\u2028\U0001f600{}') |
                       st.characters(blacklist_categories=("Cs",)), max_size=12)
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 63, 2 ** 200)
            | st.integers(-2 ** 200, -2 ** 63) | st.floats() | _tricky_text)
_json_values = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_tricky_text, children, max_size=4)),
    max_leaves=30)


class TestDumpsCanonical:
    @settings(deadline=None)
    @given(value=_json_values)
    def test_matches_json_dumps(self, value):
        assert dumps_canonical(value) == json.dumps(value, sort_keys=True, ensure_ascii=False)

    def test_record_shape(self):
        record = {"sentence_id": "k1-0f", "variant": "COT", "final_label": 1,
                  "repairs": [], "step1": "Il «propose» ✓", "step2": "x\ny",
                  "trace": {"steps": [{"label": 0, "output": {"deliberative": 0.0}}]},
                  "n": 2 ** 70, "inf": float("inf")}
        assert dumps_canonical(record) == json.dumps(record, sort_keys=True,
                                                     ensure_ascii=False)

    def test_unencodable_value_raises_as_json_dumps_does(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps_canonical({"a": {1, 2}})


# -- PromptBundle.digest ---------------------------------------------------

def reference_digest(system, user):
    return hashlib.sha256(f"{system}\x00{user}".encode()).hexdigest()[:16]


class TestPromptDigest:
    @settings(deadline=None)
    @given(prompts=st.lists(st.tuples(_tricky_text, _tricky_text), max_size=12))
    def test_matches_reference(self, prompts):
        for system, user in prompts + prompts:  # second pass: kept states
            bundle = PromptBundle(system, user, "SIMPLE", "k1-0")
            assert bundle.digest() == reference_digest(system, user)

    def test_more_systems_than_the_table_keeps(self):
        systems = [f"system prompt {i}\n" * 20 for i in range(3 * MAX_SYSTEM_STATES)]
        for _ in range(2):
            for i, system in enumerate(systems):
                user = f"Sentence {i}: \"é\""
                assert PromptBundle(system, user, "COT", "k1-0").digest() == \
                    reference_digest(system, user)
        assert len(_AFTER_SYSTEM) <= MAX_SYSTEM_STATES


# -- parse_prediction ------------------------------------------------------

_REF_FENCE = re.compile(r"^```[a-zA-Z]*\s*\n(.*?)\n?```\s*$", re.DOTALL)
_REF_LABEL_FIELD = {"SIMPLE": "deliberative", "COT": "deliberative",
                    "CRITIC": "suggestion", "JUDGE": "deliberative"}


def _ref_first_balanced_object(text):
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return text[start:i + 1]
        start = text.find("{", start + 1)
    return None


def _ref_coerce_binary(value, lenient, repairs):
    if isinstance(value, bool):
        if lenient:
            repairs.append("coerce-label")
            return int(value)
        raise SchemaError(f"uncoercible label: {value!r}")
    if isinstance(value, int) and value in (0, 1):
        return value
    if lenient and isinstance(value, str) and value.strip() in ("0", "1"):
        repairs.append("coerce-label")
        return int(value.strip())
    if lenient and isinstance(value, float) and value in (0.0, 1.0):
        repairs.append("coerce-label")
        return int(value)
    raise SchemaError(f"uncoercible label: {value!r}")


_ref_scan = json.JSONDecoder().scan_once


def reference_parse(raw, expected_schema, repair_policy=LENIENT):
    """parse_prediction before the scanner-first object extraction and the
    type-exact label and field shortcuts, with its <think> block cut as a
    plain recursion; returns the prediction's fields."""
    if expected_schema not in SCHEMA_FIELDS:
        raise SchemaError(f"unknown schema tag: {expected_schema!r}")
    lenient = repair_policy == LENIENT
    repairs = []

    text = raw.strip()
    try:
        obj, end = _ref_scan(text, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(text):
        obj = None
        if lenient and text.startswith("<think>"):
            close = text.find("</think>")
            if close == -1:
                raise SchemaError("unterminated <think> block")
            result = reference_parse(text[close + len("</think>"):], expected_schema,
                                     repair_policy)
            result["repairs"].insert(0, "think-strip")
            return result
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
                candidate = _ref_first_balanced_object(text)
                if candidate is not None:
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
    if len(obj) > len(required):
        extra = {k: v for k, v in obj.items() if k not in required}
        if not lenient:
            raise SchemaError(f"unexpected fields under STRICT: {sorted(extra)}")
    else:
        extra = {}

    label = _ref_coerce_binary(obj[_REF_LABEL_FIELD[expected_schema]], lenient, repairs)

    step1 = step2 = None
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
    if not isinstance(result, dict):
        result = dict(label=result.label, step1=result.step1, step2=result.step2,
                      extra=result.extra, repairs=result.repairs)
    # the types too: a bool or float label must not pass for an int one
    return ("ok", type(result["label"]), repr(result))


_STEP = st.one_of(_tricky_text,
                  st.sampled_from(["", "   ", "a } b", "{", '"}"', 'q "x" {y}', "\\", "{{"]),
                  st.integers(0, 3), st.none(), st.just({"nested": "}{"}))
_LABEL = st.one_of(st.sampled_from([0, 1]), st.booleans(),
                   st.sampled_from(["0", "1", " 1 ", "yes", ""]),
                   st.sampled_from([0.0, 1.0, 0.5, -0.0]), st.integers(-2, 3),
                   st.integers(2 ** 64, 2 ** 65), st.none())
_FIELD_VALUES = {
    "deliberative": _LABEL, "suggestion": _LABEL,
    "step1": _STEP, "step2": _STEP, "issues": _STEP, "rationale": _STEP,
    "assessment": st.sampled_from(["sound", "Flawed ", "SOUND", "fine", ""]),
}
# text around an object: braces and quotes that open nothing, close nothing,
# sit inside a quoted string, or open an object that never closes
_PROSE = st.sampled_from([
    "", "Sure: ", "Answer {", "x } ", "{not json} ", "{'deliberative': 1} ",
    'He said "{" and ', '"}" then ', "{ ", "{{", "}", "Here:\n", "```\n",
    '{"unterminated": "', "[", "{}", "{\"a\": {\"b\": 1}} ",
])
_SUFFIX = st.sampled_from(["", " hope that helps", " }", ".", " {", ' "}"', "\n```",
                           " {\"deliberative\": 0}", "}}", " {'x'"])


@st.composite
def _response(draw):
    schema = draw(st.sampled_from(sorted(SCHEMA_FIELDS)))
    fields = [f for f in SCHEMA_FIELDS[schema] if draw(st.integers(0, 9)) > 0]
    obj = {f: draw(_FIELD_VALUES[f]) for f in fields}
    if draw(st.booleans()):
        obj = dict(reversed(list(obj.items())))  # key order does not matter
    for name in draw(st.lists(st.sampled_from(["note", "confidence", "deliberative",
                                               "step1", "é", "{"]), max_size=2)):
        obj.setdefault(name, draw(_STEP))
    body = json.dumps(obj, ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, None, 2])))
    shape = draw(st.sampled_from(["clean", "fenced", "prose", "fenced prose", "truncated",
                                  "garbage", "two", "non-object", "raw-text", "thinking"]))
    if shape == "fenced":
        body = "```" + draw(st.sampled_from(["json", "", "JSON"])) + "\n" + body + "\n```"
    elif shape == "prose":
        body = draw(_PROSE) + body + draw(_SUFFIX)
    elif shape == "fenced prose":
        body = "```json\n" + draw(_PROSE) + body + draw(_SUFFIX) + "\n```"
    elif shape == "truncated":
        body = draw(_PROSE) + body[:draw(st.integers(0, len(body)))]
    elif shape == "garbage":
        body += draw(st.sampled_from(["x", "}", "]", " trailing", ","]))
    elif shape == "two":
        body += draw(st.sampled_from(["", " ", "\n"])) + body
    elif shape == "non-object":
        body = draw(st.sampled_from(["null", "[]", "3", '"text"', "true", "[{}]",
                                    '[{"deliberative": 1}]', "NaN", '"{\\"deliberative\\": 1}"']))
    elif shape == "raw-text":
        body = draw(st.text(st.sampled_from('{}"\\: abdeilrtv01,'), max_size=30))
    elif shape == "thinking":
        body = (draw(st.sampled_from(["<think>", "<think>\n"])) + draw(_PROSE)
                + draw(st.sampled_from(["</think>", "</think>\n\n", "", "</think"])) + body)
    padding = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x85\xa0\u2028\u3000\ufeff"), max_size=3)
    return draw(padding) + body + draw(padding), schema, draw(st.sampled_from([STRICT, LENIENT]))


class TestParsePrediction:
    @settings(deadline=None)
    @given(case=_response())
    def test_matches_reference(self, case):
        raw, schema, policy = case
        assert _outcome(parse_prediction, raw, schema, policy) == \
            _outcome(reference_parse, raw, schema, policy)

    @pytest.mark.parametrize("raw", [
        'Sure: {"deliberative": 1} thanks',
        'Answer {{"deliberative": 1} done',  # the first brace opens no object
        'Answer { {"deliberative": 0}',  # nor does it here, and never closes
        '{"deliberative": 1, "note": "a } b"} and {"deliberative": 0}',
        'say "{" then {"deliberative": 1}',  # a quote in prose is not a string
        "{'deliberative': 1} then {\"deliberative\": 0}",
        '{"deliberative": 1, "x": {"y": "}{"}}}',
        '```json\nHere: {"deliberative": 1}\n```',
        '{"deliberative": true}', '{"deliberative": 1.0}', '{"deliberative": 2}',
        '{"deliberative": 1, "deliberative": 0}',  # a repeated key: the last wins
        '{"deliberative": 18446744073709551617}',
    ])
    @pytest.mark.parametrize("policy", [STRICT, LENIENT])
    def test_fixed_cases(self, raw, policy):
        assert _outcome(parse_prediction, raw, "SIMPLE", policy) == \
            _outcome(reference_parse, raw, "SIMPLE", policy)

    @pytest.mark.parametrize("schema", sorted(SCHEMA_FIELDS))
    def test_keys_in_any_order_and_extra_fields(self, schema):
        fields = SCHEMA_FIELDS[schema]
        values = {"deliberative": 1, "suggestion": 0, "assessment": "sound"}
        obj = {f: values.get(f, "text") for f in reversed(fields)}
        for raw in (json.dumps(obj), json.dumps({**obj, "note": "n"})):
            for policy in (STRICT, LENIENT):
                assert _outcome(parse_prediction, raw, schema, policy) == \
                    _outcome(reference_parse, raw, schema, policy)


# -- read_jsonl ------------------------------------------------------------

def reference_read_jsonl(path):
    """Each line that is not blank through json.loads, up to the first that
    is not one JSON value, and that line's DataError message or None."""
    values = []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                values.append((line_no, json.loads(line)))
            except json.JSONDecodeError as exc:
                return values, f"{path}: line {line_no} is not JSON ({exc.msg})"
    return values, None


def _read_jsonl_outcome(path):
    values = []
    try:
        for item in read_jsonl(path):
            values.append(item)
    except DataError as exc:
        return values, str(exc)
    return values, None


_blank = st.sampled_from(["", " ", "\t", "\u00a0", "\u00a0\u00a0", "\u3000 \x0c"])
_padding = st.text(st.sampled_from(" \t\u00a0"), max_size=2)


_line_values = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(_tricky_text, children, max_size=3)),
    max_leaves=6)


@st.composite
def _jsonl_line(draw):
    value = json.dumps(draw(_line_values), ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["value"] * 6 + ["blank", "padded", "trailing garbage",
                                                 "two values", "unterminated"]))
    if kind == "blank":
        return draw(_blank)
    if kind == "padded":
        return draw(_padding) + value + draw(_padding)
    if kind == "trailing garbage":
        return value + draw(st.sampled_from([" x", ",", "]", "}"]))
    if kind == "two values":
        return value + draw(st.sampled_from(["", " "])) + value
    if kind == "unterminated":
        return value[:-1] if value[-1] in "]}\"" else "{" + value
    return value


@pytest.fixture(scope="module")
def jsonl_path(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl") / "f.jsonl"


class TestReadJsonl:
    @settings(deadline=None)
    @given(lines=st.lists(_jsonl_line(), max_size=8), newline=st.sampled_from(["\n", "\r\n"]),
           final_newline=st.booleans())
    def test_matches_json_loads_per_line(self, jsonl_path, lines, newline, final_newline):
        """Over blank, padded and NBSP-only lines, trailing garbage, two
        values on a line, an unterminated value, and no final newline."""
        text = newline.join(lines) + (newline if final_newline and lines else "")
        jsonl_path.write_bytes(text.encode("utf-8"))
        got, expected = _read_jsonl_outcome(jsonl_path), reference_read_jsonl(jsonl_path)
        # json.dumps tells 1 from 1.0 and True, and NaN equals itself as text
        assert json.dumps(got) == json.dumps(expected)
