"""Only delib.parsing decodes a file: every other module under src/delib
reads text through parsing.read_text, and JSON through parsing.read_json or
parsing.read_jsonl, so one rule turns a byte that is not UTF-8, or text that
is not JSON, into a DataError naming the file and line.
A read is a `.read_text(...)` method call or an `open` in read mode ("r",
"r+" or no mode); binary opens and opens to write or append are allowed.
A JSON decode is a call of json.loads or json.load, or an import of either.
The modules call the shared readers by their bare names."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delib"


def text_reads(source: str) -> list[int]:
    """The line of each text read in a module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "read_text":
            lines.append(node.lineno)
            continue
        if isinstance(func, ast.Attribute) and func.attr == "open":
            mode = node.args[0] if node.args else None  # Path(...).open(mode)
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None  # open(file, mode)
        else:
            continue
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        if mode is None:
            lines.append(node.lineno)
        elif not isinstance(mode, ast.Constant) or (
                "b" not in mode.value and ("r" in mode.value or "+" in mode.value)):
            lines.append(node.lineno)
    return lines


def json_decodes(source: str) -> list[int]:
    """The line of each json.loads or json.load call, or import of either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (node.func.attr in ("loads", "load") and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in ("loads", "load") for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_parsing_reads_a_file_as_text():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    reads = {path.stem: text_reads(path.read_text(encoding="utf-8"))
             for path in modules if path.name != "parsing.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_the_reads_it_finds():
    source = '''
p.read_text(encoding="utf-8")
open(f)
open(f, "r", encoding="utf-8")
p.open()
p.open(mode="r+")
p.open("rb+")
p.open("a", encoding="utf-8")
open(f, "wb")
p.open(m)
read_text(p)
'''
    assert text_reads(source) == [2, 3, 4, 5, 6, 10]


def test_only_parsing_decodes_json():
    decodes = {path.stem: json_decodes(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "parsing.py"}
    assert {name: lines for name, lines in decodes.items() if lines} == {}


def test_the_json_decodes_it_finds():
    source = '''
json.loads(text)
json.load(fh)
from json import loads
json.dumps(value)
resp.json()
obj.loads(text)
from json import dumps
'''
    assert json_decodes(source) == [2, 3, 4]


def test_the_jsonl_readers_are_one():
    """read_jsonl replaced read_lines and loads_line, which no module keeps."""
    for path in PACKAGE.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert "read_lines" not in source and "loads_line" not in source, path.name
