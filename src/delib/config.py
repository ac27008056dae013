"""Experiment configuration: one YAML document resolving backends and the
template/lexicon/cache/run directories. Credentials stay in environment
variables named by the config, never in the file itself."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .gateway import (BackendConfig, ChatBackend, DecodingParams, Limits,
                      MockRule, ResponseCache, mock_backend)
from .parsing import read_text


@dataclass
class Settings:
    """Backends and directories; load_settings joins each directory to the config file's."""
    backends: dict = field(default_factory=dict)
    template_dir: Path | None = None
    lexicon_dir: Path | None = None
    cache_dir: Path | None = Path("cache")
    runs_dir: Path = Path("runs")
    reports_dir: Path = Path("reports")


def load_settings(path: str | Path | None) -> Settings:
    if path is None:
        return Settings()
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: config file not found")
    try:
        doc = yaml.safe_load(text := read_text(path)) or {}
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1
        raise ConfigError(f"{path}: line {line} is not YAML ({exc.problem})") from exc
    except yaml.reader.ReaderError as exc:  # a character YAML forbids, such as NUL
        line = text.count("\n", 0, exc.position) + 1
        raise ConfigError(f"{path}: line {line} is not YAML ({exc.reason})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    settings = Settings(backends=doc.get("backends", {}) or {})
    _known(doc, f"{path}: ", vars(settings))  # the root's keys are the fields of Settings
    if not isinstance(settings.backends, dict):
        raise ConfigError(f"{path}: config key backends must be a mapping of backend names")
    base = path.parent.resolve()
    for key in ("template_dir", "lexicon_dir", "cache_dir", "runs_dir", "reports_dir"):
        value = doc.get(key)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{path}: config key {key} must be a path, got {value!r}")
        value = getattr(settings, key) if value is None else Path(value)
        # base / an absolute path is that path
        setattr(settings, key, None if value is None else base / value)
    return settings


#: The keys of a backend definition that are strings, and those that set
#: Limits (under `limits:`) and DecodingParams, each with its conversion.
_STRING_KEYS = ("endpoint", "model", "auth_env", "response_format_hint")
_LIMIT_KEYS = {"max_in_flight": int, "retry_budget": int, "requests_per_minute": None}
_DECODING_KEYS = {"temperature": float, "max_output_tokens": int, "response_format_hint": None}


def _known(spec: dict, where: str, *tables) -> None:
    """A ConfigError naming the first key of spec that none of tables holds."""
    for key in (key for key in spec if all(key not in table for table in tables)):
        raise ConfigError(f"{where}{key} is not a known key")


def _values(spec: dict, converters: dict, where: str = "") -> dict:
    """The keys of spec that converters names (and only those), converted.
    A bool is not a number, and a float with a fraction is not an int
    (Limits checks requests_per_minute itself)."""
    values = {}
    for key, convert in converters.items():
        if key in spec:
            value = spec[key]
            if convert is None:
                values[key] = value
                continue
            try:
                if type(value) is bool or (convert is int and type(value) is float
                                           and not value.is_integer()):
                    raise ValueError
                values[key] = convert(value)
            except (TypeError, ValueError):
                kind = "a whole number" if convert is int else "a number"
                raise ConfigError(f"{where}{key} must be {kind}, got {value!r}") from None
    return values


def _response(value, key: str) -> str:
    """A mock response: a string, or a mapping written as its JSON."""
    if isinstance(value, dict):
        return json.dumps(value)
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string or a mapping, got {value!r}")
    return value


def build_backend(settings: Settings, name: str) -> ChatBackend:
    """Instantiate a backend named in the config.

    type: http (default) builds an OpenAI-compatible HTTP backend;
    type: mock builds a scripted backend usable fully offline. A value of
    the wrong type or range raises ConfigError naming the backend and key.
    """
    spec = settings.backends.get(name)
    if spec is None:
        raise ConfigError(f"backend {name!r} is not defined in the config")
    try:
        return _backend(name, spec, ResponseCache(settings.cache_dir))
    except ConfigError as exc:
        raise ConfigError(f"backend {name!r}: {exc}") from exc


def _backend(name: str, spec, cache: ResponseCache) -> ChatBackend:
    if not isinstance(spec, dict):
        raise ConfigError("definition must be a mapping")
    limits = spec.get("limits") or {}
    if not isinstance(limits, dict):
        raise ConfigError("limits must be a mapping")
    _known(spec, "", ("type", "limits", "rules", "default_response"), _STRING_KEYS, _DECODING_KEYS)
    _known(limits, "limits.", _LIMIT_KEYS)
    for key in _STRING_KEYS:
        if spec.get(key) is not None and not isinstance(spec[key], str):
            raise ConfigError(f"{key} must be a string, got {spec[key]!r}")
    if spec.get("response_format_hint") == "":
        raise ConfigError("response_format_hint must not be empty")
    if spec.get("type", "http") not in ("http", "mock"):
        raise ConfigError(f"type must be http or mock, got {spec['type']!r}")
    limits = Limits(**_values(limits, _LIMIT_KEYS, "limits."))
    decoding = DecodingParams(**_values(spec, _DECODING_KEYS))

    if spec.get("type", "http") == "mock":
        rules = spec.get("rules") or []
        if not isinstance(rules, list):
            raise ConfigError("rules must be a list")
        mock_rules = []
        for i, rule in enumerate(rules):
            if not isinstance(rule, dict) or not isinstance(rule.get("pattern"), str):
                raise ConfigError(f"rules[{i}] needs a string pattern")
            _known(rule, f"rules[{i}].", ("pattern", "response"))
            response = _response(rule.get("response"), f"rules[{i}].response")
            try:
                mock_rules.append(MockRule(pattern=rule["pattern"], response=response))
            except re.error as exc:
                raise ConfigError(f"rules[{i}].pattern {rule['pattern']!r} is not a "
                                  f"valid regular expression: {exc}") from exc
        default = spec.get("default_response")
        if default is not None:
            default = _response(default, "default_response")
        model = spec.get("model")
        return mock_backend(mock_rules, default, name=name, cache=cache,
                            model="mock-model" if model is None else model,
                            decoding=decoding, limits=limits)

    if not spec.get("endpoint") or not spec.get("model"):
        raise ConfigError("endpoint and model are required")
    config = BackendConfig(name=name, endpoint=spec["endpoint"], model=spec["model"],
                           auth_env=spec.get("auth_env"), decoding=decoding, limits=limits)
    return ChatBackend(config, cache=cache)
