"""Golden outputs of the analysis commands.

A small 8-variant grid runs through a scripted backend whose answers vary
by sentence and prompt kind, so the runs disagree and both easy sets are
non-empty. Then `eval --per-batch` (every run), `compare` and `analyze`
run through the CLI. Every file they write, their standard output and each
run's records.jsonl must equal the committed copy under golden/analysis
byte for byte.

The corpus covers contractions, possessives, repeated (batch, text) pairs,
texts equal only after whitespace collapsing or NFC normalisation, Unicode
whitespace, non-ASCII letters and CSV quoting.

Regenerate the copy only when an output format changes on purpose:
    PYTHONPATH=src python tests/test_golden_analysis.py
"""
import contextlib
import io
import json
import re
import shutil
import zlib
from pathlib import Path

from delib.cli import main
from delib.corpus import parse_dataset
from delib.gateway import MockRule, mock_backend
from delib.runner import run_grid

GOLDEN = Path(__file__).parent / "golden" / "analysis"

ROWS = [
    ("K1", "We should consider the new proposal before Friday.", 1),
    ("K1", "The meeting happened on Tuesday.", 0),
    ("K1", "I think we'd better wait until the upcoming review.", 1),
    ("K1", "The agency published the final rule in 1997.", 0),
    ("K1", "OMB suggested increasing the local match rate over time", 1),
    ("K1", "We could also reintroduce a version of education opportunity zones.", 1),
    ("K1", "The committee adjourned early.", 0),
    ("K1", "The president's plan was announced yesterday.", 0),
    ("K1", "We  should consider the new proposal before Friday. ", 1),
    ("K1", 'The memo says "final" twice, on page 3.', 0),
    ("K2", "I don't know where things stand in the negotiations over this "
           "amendment, but it would be great if we could indicate that this "
           "particular provision would be a deal breaker.", 1),
    ("K2", "The budget was approved last year.", 0),
    ("K2", "We can't recommend this option; we'll propose another soon.", 1),
    ("K2", "They've said he'll come tomorrow.", 0),
    ("K2", "The report lists four options.", 0),
    ("K2", "The report lists four options.", 0),
    ("K2", "My staff believe the café contract should be renewed.", 1),
    ("K2", "My staff believe the café contract should be renewed.", 1),
    ("K2", "My staff believe the cafe\u0301 contract should be renewed.", 1),
    ("K2", "The office processed case 12 for K2.", 0),
    ("K2", "We might want to revisit the İstanbul figures later.", 1),
    ("K3", "Give all primary civil authority to HCFA, but establish a referral "
           "process in an MOU for both chains and individual facilities.", 1),
    ("K3", "The grant was awarded in March.", 0),
    ("K3", "We propose that the\xa0secretary urge Congress to act.", 1),
    ("K3", "The Kelvin scale was discussed at length.", 0),
    ("K3", "Ours isn't the only option we're weighing.", 1),
    ("K3", "The deadline passed without comment.", 0),
    ("K3", "The \u212a-band radar was examined.", 0),
    ("K3", "I'm sure we prefer the shorter draft.", 1),
    ("K3", "The table shows　three columns.", 0),
    ("K3", "The senator said nothing about the bill.", 0),
    ("K3", "Staff recommended a, b, and c.", 1),
    ("R4", "We ought to tell them eventually.", 1),
    ("R4", "The hearing was held on Monday.", 0),
    ("R4", "We must assume the worst and plan accordingly.", 1),
    ("R4", "The ship docked\x85at noon.", 0),
    ("R4", "Shouldn't we discuss the upcoming vote?", 1),
    ("R4", "The files were stored in the archive.", 0),
    ("R4", "The log\x1cfile was archived.", 0),
    ("R4", "I'd argue we wait; the data aren't final.", 1),
    ("R4", "Revenue rose 4 percent in the quarter.", 0),
    ("R4", "The director noted the request.", 1),
    ("R4", "We will report back shortly.", 0),
]

_CUE = re.compile(r"\b(should|could|would|might|must|we|i|think|recommend|suggest"
                  r"|propose|believe|ought)\b|'d\b", re.IGNORECASE)


def _target(messages) -> str:
    user = messages[-1]["content"]
    start = user.rindex('Sentence: "') + len('Sentence: "')
    line = user[start:].split("\n", 1)[0]
    return line[:line.rindex('"')]


def _cue(messages) -> int:
    return int(_CUE.search(_target(messages)) is not None)


def _flip(text: str, modulus: int) -> int:
    return int(zlib.crc32(text.encode()) % modulus == 0)


def _rules():
    def reasoning(messages):
        label = messages[-1]["content"].rsplit("(deliberative=", 1)[1][0]
        return json.dumps({"step1": "pre", "step2": "del", "deliberative": int(label)})

    def critic(messages):
        user = messages[-1]["content"]
        label = int(user.rsplit("Predictor's label: deliberative=", 1)[1][0])
        if _flip(_target(messages), 3):
            return json.dumps({"assessment": "flawed", "issues": "weak step2",
                               "suggestion": 1 - label})
        return json.dumps({"assessment": "sound", "issues": "none", "suggestion": label})

    def judge(messages):
        return json.dumps({"rationale": "judged", "deliberative": _cue(messages)})

    def cot(messages):
        label = _cue(messages) ^ _flip(messages[-1]["content"] + "cot", 7)
        return json.dumps({"step1": "pre", "step2": "del", "deliberative": label})

    def simple(messages):
        label = _cue(messages) ^ _flip(messages[-1]["content"], 8)
        return json.dumps({"deliberative": label})

    return [
        MockRule(pattern=r"Known-correct label:", response=reasoning),
        MockRule(pattern=r'"assessment"', response=critic),
        MockRule(pattern=r'"rationale"', response=judge),
        MockRule(pattern=r'"step1"', response=cot),
        MockRule(pattern=r".", response=simple),
    ]


def produce(work: Path) -> Path:
    """Run the grid and the analysis commands under work; returns the tree
    holding every output to compare."""
    out = work / "out"
    data = work / "corpus.jsonl"
    with data.open("w", encoding="utf-8") as fh:
        for batch, text, label in ROWS:
            fh.write(json.dumps({"batch": batch, "text": text, "label": label}) + "\n")
    config = work / "config.yaml"
    config.write_text(f"runs_dir: {out / 'runs'}\nreports_dir: {out / 'reports'}\n",
                      encoding="utf-8")
    manifests = run_grid(parse_dataset(data), mock_backend(_rules()), out / "runs",
                         k=2, seed=7)
    run_dirs = [str(out / "runs" / m.run_id) for m in manifests.values()]
    commands = [["eval", "--run", d, "--per-batch"] for d in run_dirs]
    commands += [[name, "--runs", ",".join(run_dirs), "--out-dir", str(out / name)]
                 for name in ("compare", "analyze")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for command in commands:
            assert main(["--config", str(config), *command, "--corpus", str(data)]) == 0
    for d in run_dirs:
        (Path(d) / "manifest.json").unlink()  # holds wall-clock timestamps
    (out / "stdout.txt").write_text(stdout.getvalue().replace(str(work), "<work>"),
                                    encoding="utf-8")
    return out


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_analysis_outputs_match_golden(tmp_path):
    produced = _files(produce(tmp_path))
    golden = _files(GOLDEN)
    assert sorted(produced) == sorted(golden)
    differing = [name for name in golden if produced[name] != golden[name]]
    assert not differing, f"outputs differ from golden/analysis: {differing}"


def test_golden_sets_are_not_trivial():
    easy = json.loads((GOLDEN / "analyze" / "easy_sets.json").read_text(encoding="utf-8"))
    assert easy["easy_1"] and easy["easy_0"]
    assert len(easy["easy_1"]) + len(easy["easy_0"]) < len(ROWS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(produce(Path(tmp)), GOLDEN)
