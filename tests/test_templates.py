import pytest

from delib.errors import ConfigError
from delib.templates import DEFAULT_TEMPLATES, TemplateSet


class TestTemplateSet:
    def test_bundled_version(self):
        assert DEFAULT_TEMPLATES.version == "1"

    def test_render_substitutes(self):
        out = DEFAULT_TEMPLATES.render("zero_shot.user", sentence="hello")
        assert 'Sentence: "hello"' in out

    def test_missing_value(self):
        with pytest.raises(ConfigError, match="missing value"):
            DEFAULT_TEMPLATES.render("zero_shot.user")

    def test_unknown_template(self):
        with pytest.raises(ConfigError, match="unknown template"):
            DEFAULT_TEMPLATES.load("never_heard_of_it")

    def test_definitions_injected(self):
        out = DEFAULT_TEMPLATES.render("cot.system")
        assert "{{definitions}}" not in out
        assert "predecisional" in out

    def test_override_directory(self, tmp_path):
        (tmp_path / "zero_shot.user.txt").write_text("custom {{sentence}}\n")
        templates = TemplateSet(tmp_path)
        assert templates.render("zero_shot.user", sentence="x") == "custom x"
        # untouched names still come from the bundled set
        assert "FOIA" in templates.render("zero_shot.system")

    def test_missing_override_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            TemplateSet(tmp_path / "absent")

    def test_version_reflects_override(self, tmp_path):
        (tmp_path / "VERSION.txt").write_text("experimental-2\n")
        assert TemplateSet(tmp_path).version == "experimental-2"

    def test_unresolved_placeholder_rejected(self, tmp_path):
        (tmp_path / "weird.txt").write_text("needs {{value}} here\n")
        templates = TemplateSet(tmp_path)
        with pytest.raises(ConfigError, match="missing value"):
            templates.render("weird")
        assert templates.render("weird", value="it") == "needs it here"

    def test_placeholder_in_value_inserted_verbatim(self):
        out = DEFAULT_TEMPLATES.render("zero_shot.user", sentence="a {{x}} b")
        assert 'Sentence: "a {{x}} b"' in out

    def test_placeholder_in_definitions_rejected(self, tmp_path):
        (tmp_path / "definitions.txt").write_text("see {{glossary}}\n")
        templates = TemplateSet(tmp_path)
        for _ in range(2):
            with pytest.raises(ConfigError, match="unresolved placeholder"):
                templates.render("cot.system")

    def test_rendering_matches_substitution(self, tmp_path):
        """Compiled rendering against a plain regex substitution."""
        import re
        text = "{{a}}{{definitions}} mid {{b}}{{a}}\n"
        (tmp_path / "t.txt").write_text(text)
        (tmp_path / "definitions.txt").write_text("DEFS\n\n")
        values = {"a": 1, "b": "two"}
        expected = re.sub(r"\{\{(\w+)\}\}",
                          lambda m: "DEFS" if m.group(1) == "definitions"
                          else str(values[m.group(1)]), text.rstrip("\n"))
        templates = TemplateSet(tmp_path)
        assert templates.render("t", **values) == expected == "1DEFS mid two1"
        assert templates.render("t", **values) == expected

    def test_template_without_placeholders_shared(self):
        templates = TemplateSet()
        assert templates.render("few_shot.system") is templates.render("few_shot.system")
