"""Parsing and validation of model responses against the variant schemas.

Schema tags:
  SIMPLE  {"deliberative": 0|1}
  COT     {"step1": "...", "step2": "...", "deliberative": 0|1}
  CRITIC  {"assessment": "sound"|"flawed", "issues": "...", "suggestion": 0|1}
  JUDGE   {"rationale": "...", "deliberative": 0|1}
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import SchemaError

STRICT = "STRICT"
LENIENT = "LENIENT"

SCHEMA_FIELDS = {
    "SIMPLE": ("deliberative",),
    "COT": ("step1", "step2", "deliberative"),
    "CRITIC": ("assessment", "issues", "suggestion"),
    "JUDGE": ("rationale", "deliberative"),
}

_LABEL_FIELD = {"SIMPLE": "deliberative", "COT": "deliberative",
                "CRITIC": "suggestion", "JUDGE": "deliberative"}

_FENCE = re.compile(r"^```[a-zA-Z]*\s*\n(.*?)\n?```\s*$", re.DOTALL)
#: Decodes one JSON value at an index without json.loads' per-call checks.
scan_json = json.JSONDecoder().scan_once
#: json.dumps(value, sort_keys=True, ensure_ascii=False) with one prebuilt encoder.
dumps_canonical = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def loads_line(line: str):
    """json.loads(line), for one line of a JSONL file. The scanner decodes
    a line that is one value and at most a "\\n" by itself; any other line
    (padded, blank, malformed) goes to json.loads, which raises
    json.JSONDecodeError where it always did."""
    try:
        value, end = scan_json(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    if end == len(line) or line[end:] == "\n":
        return value
    return json.loads(line)


@dataclass(slots=True)
class ParsedPrediction:
    label: int
    step1: str | None = None
    step2: str | None = None
    extra: dict = field(default_factory=dict)
    repairs: list[str] = field(default_factory=list)


def _first_balanced_object(text: str) -> str | None:
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


def _coerce_binary(value, lenient: bool, repairs: list[str]) -> int:
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


def parse_prediction(raw: str, expected_schema: str, repair_policy: str = LENIENT) -> ParsedPrediction:
    """Parse a model response against a schema tag.

    STRICT accepts exactly one well-formed JSON object carrying exactly the
    schema's fields. LENIENT additionally strips markdown fences, extracts
    the first balanced object from surrounding prose, coerces "0"/"1" and
    booleans, and tolerates extra fields; applied repairs are recorded.
    """
    if expected_schema not in SCHEMA_FIELDS:
        raise SchemaError(f"unknown schema tag: {expected_schema!r}")
    lenient = repair_policy == LENIENT
    repairs: list[str] = []

    text = raw.strip()
    # text is stripped, so the scanner takes it whole exactly when
    # json.loads(text) succeeds, and then decodes the same value
    try:
        obj, end = scan_json(text, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(text):
        obj = None
        if lenient:
            fenced = _FENCE.match(text)
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

    label = _coerce_binary(obj[_LABEL_FIELD[expected_schema]], lenient, repairs)

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

    return ParsedPrediction(label=label, step1=step1, step2=step2,
                            extra=extra, repairs=repairs)
