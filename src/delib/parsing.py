"""Parsing and validation of model responses against the variant schemas.

Schema tags:
  SIMPLE  {"deliberative": 0|1}
  COT     {"step1": "...", "step2": "...", "deliberative": 0|1}
  CRITIC  {"assessment": "sound"|"flawed", "issues": "...", "suggestion": 0|1}
  JUDGE   {"rationale": "...", "deliberative": 0|1}
"""
from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path

from .errors import DataError, SchemaError

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

#: Each schema's required fields, for one C-level comparison with an object's keys.
_REQUIRED = {schema: frozenset(fields) for schema, fields in SCHEMA_FIELDS.items()}

_FENCE = re.compile(r"^```[a-zA-Z]*\s*\n(.*?)\n?```\s*$", re.DOTALL)
#: Decodes one JSON value at an index without json.loads' per-call checks.
scan_json = json.JSONDecoder().scan_once

_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False)
if c_make_encoder is None:  # an interpreter built without the C accelerator
    dumps_canonical = _CANONICAL.encode
else:
    # the C encoder JSONEncoder.encode builds on every call, built once with
    # the arguments it passes, except markers=None: no caller encodes a value
    # that contains itself, so the circular-reference check is not kept
    _encode_chunks = c_make_encoder(
        None, _CANONICAL.default, encode_basestring, _CANONICAL.indent,
        _CANONICAL.key_separator, _CANONICAL.item_separator, _CANONICAL.sort_keys,
        _CANONICAL.skipkeys, _CANONICAL.allow_nan)

    def dumps_canonical(value) -> str:
        """json.dumps(value, sort_keys=True, ensure_ascii=False)."""
        return "".join(_encode_chunks(value, 0))


def replace_text(path: Path, text: str) -> None:
    """Write text to path by replacing the file: into a temp file beside
    it, then renamed over it, so that a write cut short leaves the file as
    it was and no temp file. The temp name is per process and writing
    thread, so that writers of one path never write into each other's."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # named by the target, not the temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def read_text(path: Path) -> str:
    """path.read_text() in strict UTF-8, where a byte that is not UTF-8 is a DataError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc


def read_jsonl(path: Path, hint: str = ""):
    """(line number from 1, value) of each line of a JSONL file that is not
    blank, decoded as read_text decodes; a line that is not one JSON value
    raises DataError naming the path, the line, the reason, then hint. The
    scanner decodes a line of one value and at most a "\\n"; others go to json.loads."""
    with path.open(encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                try:
                    value, end = scan_json(line, 0)
                    if end != len(line) and line[end:] != "\n":
                        raise ValueError
                except (StopIteration, ValueError):
                    try:
                        value = json.loads(line)
                    except json.JSONDecodeError as exc:
                        if not line.strip():
                            continue
                        raise DataError(
                            f"{path}: line {line_no} is not JSON ({exc.msg}){hint}") from exc
                yield line_no, value
        except UnicodeDecodeError as exc:  # its offset counts from a chunk, not the file
            raise _not_utf8(path) from exc


def read_json(path: Path):
    """The JSON value a file holds, decoded as read_text decodes; text that
    is not one JSON value raises DataError naming the path and the line."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {exc.lineno} is not JSON ({exc.msg})") from exc


def _not_utf8(path: Path) -> DataError:
    """The DataError naming a file's first byte that is not UTF-8 by line and file offset."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return DataError(f"{path}: line {line} is not UTF-8 ({exc.reason} at offset {exc.start})")
    return DataError(f"{path}: was not UTF-8 when first read")


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


def _repaired(text: str, repairs: list[str]):
    """The JSON value LENIENT recovers from a stripped response that is not
    JSON as it stands, or None: after a leading <think> block, the rest
    parsed as a response; else the fenced value, else the first balanced
    object. A JSON object that the scanner decodes at the first "{" is that
    balanced object, so the character loop runs only when that scan fails
    and the balanced object may start at a later "{"."""
    if text.startswith("<think>"):
        end = text.find("</think>")
        if end == -1:
            raise SchemaError("unterminated <think> block")
        repairs.append("think-strip")
        text = text[end + len("</think>"):].lstrip()
        try:
            obj, end = scan_json(text, 0)
        except (StopIteration, ValueError):
            end = -1
        return obj if end == len(text) else _repaired(text, repairs)
    obj = None
    fenced = _FENCE.match(text)
    if fenced:
        repairs.append("fence-strip")
        text = fenced.group(1).strip()
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = None
    if obj is None:
        start = text.find("{")
        if start == -1:
            return None
        try:
            obj = scan_json(text, start)[0]
        except (StopIteration, ValueError):
            candidate = _first_balanced_object(text)
            if candidate is None:
                return None
            try:
                obj = json.loads(candidate)
            except json.JSONDecodeError:
                obj = None
        repairs.append("object-extract")
    return obj


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
    schema's fields, so it rejects a response with a <think> block.
    LENIENT additionally cuts a leading <think>...</think> block, strips
    markdown fences, extracts the first balanced object from surrounding
    prose, coerces "0"/"1" and booleans, and tolerates extra fields;
    applied repairs are recorded.
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
        obj = _repaired(text, repairs) if lenient else None
    if obj is None:
        raise SchemaError("no parsable JSON object in response")
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object, got {type(obj).__name__}")

    required = SCHEMA_FIELDS[expected_schema]
    if obj.keys() == _REQUIRED[expected_schema]:
        extra = {}
    else:
        missing = [f for f in required if f not in obj]
        if missing:
            raise SchemaError(f"missing required fields: {', '.join(missing)}")
        extra = {k: v for k, v in obj.items() if k not in required}
        if not lenient:
            raise SchemaError(f"unexpected fields under STRICT: {sorted(extra)}")

    label = obj[_LABEL_FIELD[expected_schema]]
    if type(label) is not int or label not in (0, 1):
        label = _coerce_binary(label, lenient, repairs)

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
