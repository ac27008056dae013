"""Prompt template loading and placeholder substitution.

Templates are plain-text files with {{name}} placeholders. The bundled set
lives in the package's templates/ directory; a directory override replaces
files by name.
"""
from __future__ import annotations

import hashlib
import re
from pathlib import Path

from .errors import ConfigError
from .parsing import read_text

_BUNDLED = Path(__file__).parent / "templates"
_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


class TemplateSet:
    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else None
        if self.directory is not None and not self.directory.is_dir():
            raise ConfigError(f"template directory not found: {self.directory}")
        self._cache: dict[str, str] = {}
        # name -> (literal, key, literal, ..., literal), definitions inlined
        self._compiled: dict[str, tuple[str, ...]] = {}

    @property
    def version(self) -> str:
        """VERSION.txt, then "+" and a digest of the override templates that
        differ from the bundled ones of the same name, if any."""
        version = self.load("VERSION").strip()
        if self.directory is None:
            return version
        changed = "".join(
            f"{bundled.stem}\0{self.load(bundled.stem)}\0"
            for bundled in sorted(_BUNDLED.glob("*.txt"))
            if bundled.stem != "VERSION"
            and self.load(bundled.stem) != read_text(bundled))
        if not changed:
            return version
        return f"{version}+{hashlib.sha256(changed.encode()).hexdigest()[:10]}"

    def _path(self, name: str) -> Path:
        filename = f"{name}.txt"
        if self.directory is not None:
            override = self.directory / filename
            if override.is_file():
                return override
        bundled = _BUNDLED / filename
        if bundled.is_file():
            return bundled
        raise ConfigError(f"unknown template: {name}")

    def load(self, name: str) -> str:
        if name not in self._cache:
            self._cache[name] = read_text(self._path(name))
        return self._cache[name]

    def _compile(self, name: str) -> tuple[str, ...]:
        parts = _PLACEHOLDER.split(self.load(name).rstrip("\n"))
        compiled = [parts[0]]
        for key, literal in zip(parts[1::2], parts[2::2]):
            if key == "definitions":
                compiled[-1] += self.load("definitions").rstrip("\n") + literal
            else:
                compiled += [key, literal]
        for literal in compiled[::2]:
            _check_resolved(name, literal)
        self._compiled[name] = tuple(compiled)
        return self._compiled[name]

    def render(self, name: str, **values) -> str:
        """The template with each {{key}} replaced by str(values[key]),
        inserted verbatim.

        A template is split into literals and keys on its first render; one
        without keys renders to the same string object every time.
        """
        parts = self._compiled.get(name) or self._compile(name)
        if len(parts) == 1:
            return parts[0]
        chunks = list(parts)
        for i in range(1, len(chunks), 2):
            key = chunks[i]
            if key not in values:
                raise ConfigError(f"template {name!r}: missing value for {{{{{key}}}}}")
            chunks[i] = str(values[key])
        return "".join(chunks)


def _check_resolved(name: str, literal: str) -> None:
    """Reject a template literal that still holds a placeholder, such as
    one the inlined definitions brought in."""
    leftover = _PLACEHOLDER.search(literal)
    if leftover:
        raise ConfigError(f"template {name!r}: unresolved placeholder {leftover.group(0)}")


DEFAULT_TEMPLATES = TemplateSet()
