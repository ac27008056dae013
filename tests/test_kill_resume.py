"""A run killed outright, then resumed, writes a clean run's records.

The run goes on in a child process against a backend that takes 2 ms per
call and keeps its responses in a disk cache. Once the first records reach
disk the child gets SIGKILL, so it can neither finish its records nor mark
its manifest. Resuming the run in this process must then leave
records.jsonl byte-identical to that of a run never killed, although some
of the resumed run's completions now come from the cache.

The kill lands wherever the child happens to be, so this test depends on
process timing; CI runs it repeatedly.
"""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from delib.gateway import BackendConfig, ChatBackend, ResponseCache, ScriptedTransport
from delib.prompting import Variant
from delib.runner import run_variant

from conftest import build_corpus, universal_mock_rules

HERE = Path(__file__).resolve().parent
CALL_S = 0.002
N_SENTENCES = 400

CHILD = """
import sys
import test_kill_resume
test_kill_resume.run(sys.argv[1], sys.argv[2], sys.argv[3])
"""


def corpus():
    rows = []
    for i in range(N_SENTENCES):
        batch = f"K{i % 4 + 1}"
        if i % 3:
            rows.append((f"The office processed case {i} in {batch}.", batch, 0))
        else:
            rows.append((f"We should revise option {i} before the review.", batch, 1))
    return build_corpus(rows)


def backend(cache_dir):
    scripted = ScriptedTransport(universal_mock_rules(critic_agrees=False))

    def transport(messages):
        time.sleep(CALL_S)
        return scripted(messages)

    return ChatBackend(BackendConfig(name="mock", model="mock-model"),
                       cache=ResponseCache(cache_dir), transport=transport,
                       sleep=lambda _t: None)


def run(variant, runs_dir, cache_dir):
    return run_variant(corpus(), Variant(variant), backend(cache_dir), runs_dir)


def kill_once_records_reach_disk(variant, runs_dir, cache_dir, stderr_path):
    """Start the run in a child process and SIGKILL it as soon as its
    records.jsonl is not empty; returns the child's exit status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    with open(stderr_path, "wb") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, variant.value, str(runs_dir), str(cache_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            deadline = time.monotonic() + 60
            while not any(p.stat().st_size for p in runs_dir.glob("*/records.jsonl")):
                if child.poll() is not None or time.monotonic() > deadline:
                    break
                time.sleep(0.001)
        finally:
            child.kill()  # SIGKILL
            child.wait(30)
    return child.returncode


@pytest.mark.parametrize("variant", [Variant.ZERO_SHOT, Variant.COT_MULTI_AGENT])
def test_killed_run_resumes_to_a_clean_runs_records(tmp_path, variant):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    stderr = tmp_path / "child.stderr"
    status = kill_once_records_reach_disk(variant, runs_dir, tmp_path / "cache", stderr)
    assert status == -signal.SIGKILL, stderr.read_text(errors="replace")
    [records] = runs_dir.glob("*/records.jsonl")
    assert 0 < records.read_bytes().count(b"\n") < N_SENTENCES

    resumed = run(variant.value, runs_dir, tmp_path / "cache")
    clean = run(variant.value, tmp_path / "clean", tmp_path / "clean-cache")
    assert resumed.status == clean.status == "finished"
    assert resumed.run_id == clean.run_id
    assert resumed.n_records == clean.n_records == N_SENTENCES
    assert records.read_bytes() == (tmp_path / "clean" / clean.run_id
                                    / "records.jsonl").read_bytes()
