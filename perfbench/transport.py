"""Benchmark-owned chat transport: a scripted model with simulated latency.

The answer to a prompt is a function of its kind (found from the system
prompt) and of its target sentence (the last `Sentence: "..."` of the user
prompt), looked up in the generator's `Behaviour` table. Latency and
transient faults are functions of the prompt digest, so results never
depend on the order or concurrency of calls. Counters are kept under a lock,
so a concurrent dispatcher is measured by the same code.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
import threading
import time
from typing import Sequence

from delib.errors import TransportError
# The gateway's retryable error, the one HttpTransport raises on 429 and 5xx.
from delib.gateway import _Transient
from delib.templates import TemplateSet

from gen import KINDS, Behaviour

_NORMAL = statistics.NormalDist()
_STEP1 = {1: "The sentence concerns a matter on which no final decision has been "
             "made; it weighs options that are still open to the decision-maker.",
          0: "The sentence reports a matter that is already settled; it records an "
             "action or fact rather than a pending choice."}
_STEP2 = {1: "It expresses the author's own view or recommendation about what the "
             "agency should do, which is internal deliberation.",
          0: "It states facts or established positions without offering a personal "
             "opinion or recommendation."}


def _uniform(*parts: str) -> float:
    """Deterministic value in (0, 1) from the given strings."""
    digest = hashlib.sha256("\x1f".join(parts).encode()).digest()
    return (int.from_bytes(digest[:8], "big") + 0.5) / 2.0 ** 64


def _label_after(user: str, marker: str) -> int:
    i = user.rindex(marker) + len(marker)
    return int(user[i])


def _target(user: str) -> str:
    i = user.rindex('Sentence: "') + len('Sentence: "')
    j = user.find('"\n', i)
    return user[i:j] if j != -1 else user[i:user.rindex('"')]


def _shaped(obj: dict, shape: str) -> str:
    text = json.dumps(obj)
    if shape == "fenced":
        return f"```json\n{text}\n```"
    if shape == "prose":
        return f"Here is my classification.\n{text}\nLet me know if you need more detail."
    if shape == "unparseable":
        return "I am unable to classify this sentence with confidence."
    return text


class LatencyModel:
    """Lognormal per-call latency keyed on the prompt digest, plus a share
    of first attempts that fail transiently."""

    def __init__(self, seed: int, median_s: float, sigma: float, cap_s: float,
                 fault_share: float):
        self.seed = str(seed)
        self.median_s = median_s
        self.sigma = sigma
        self.cap_s = cap_s
        self.fault_share = fault_share

    def latency(self, digest: str) -> float:
        z = _NORMAL.inv_cdf(_uniform(self.seed, "latency", digest))
        return min(self.cap_s, self.median_s * math.exp(self.sigma * z))

    def faults(self, digest: str) -> bool:
        return _uniform(self.seed, "fault", digest) < self.fault_share


class BenchTransport:
    """Callable transport for `delib.gateway.ChatBackend`."""

    def __init__(self, table: dict[str, Behaviour], templates: TemplateSet,
                 latency: LatencyModel | None = None):
        self.table = table
        self.kinds = {templates.render(f"{kind}.system"): kind for kind in KINDS}
        self.latency = latency
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self.calls = 0
        self.faults = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.busy_s = 0.0

    def __call__(self, messages: Sequence[dict]) -> tuple[int, dict]:
        start = time.perf_counter()
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            system, user = messages[0]["content"], messages[-1]["content"]
            digest = hashlib.sha256(f"{system}\x00{user}".encode()).hexdigest()
            with self._lock:
                attempt = self._attempts.get(digest, 0)
                self._attempts[digest] = attempt + 1
            if self.latency is not None:
                time.sleep(self.latency.latency(digest))
                if attempt == 0 and self.latency.faults(digest):
                    with self._lock:
                        self.faults += 1
                    raise _Transient("scripted transient fault")
            text = self.respond(system, user)
            return 200, {"choices": [{"message": {"role": "assistant", "content": text}}],
                         "usage": {"prompt_tokens": (len(system) + len(user)) // 4,
                                   "completion_tokens": len(text) // 4}}
        finally:
            with self._lock:
                self.in_flight -= 1
                self.busy_s += time.perf_counter() - start

    def respond(self, system: str, user: str) -> str:
        kind = self.kinds.get(system)
        if kind is None:
            raise TransportError("bench transport: unknown system prompt")
        b = self.table.get(_target(user))
        if b is None:
            raise TransportError("bench transport: unknown target sentence")
        if kind == "reasoning":
            given = _label_after(user, "(deliberative=")
            attempt = 1 if "(retry 1)" in user else 0
            label = 1 - given if attempt < b.reasoning_contradicts else given
            obj = {"step1": _STEP1[label], "step2": _STEP2[label], "deliberative": label}
        elif kind == "cot":
            obj = {"step1": _STEP1[b.cot], "step2": _STEP2[b.cot], "deliberative": b.cot}
        elif kind == "critic":
            predictor = _label_after(user, "Predictor's label: deliberative=")
            if b.critic_agrees:
                obj = {"assessment": "sound", "issues": "none", "suggestion": predictor}
            else:
                obj = {"assessment": "flawed", "suggestion": 1 - predictor,
                       "issues": "Step 2 treats a settled fact as an open recommendation."
                       if predictor else "Step 1 overlooks that the matter is still open."}
        elif kind == "judge":
            critic = _label_after(user, "Critic's suggestion: deliberative=")
            predictor = _label_after(user, "Predictor's label: deliberative=")
            label = critic if b.judge_follows_critic else predictor
            obj = {"rationale": "Weighing both reviews against the definitions, the "
                                "decisive factor is whether a decision is still pending.",
                   "deliberative": label}
        elif kind == "vote_second":
            first = _label_after(user, "First reviewer's prediction: deliberative=")
            obj = {"deliberative": first if b.second_agrees else 1 - first}
        elif kind == "vote_tiebreak":
            obj = {"deliberative": b.tiebreak}
        else:
            obj = {"deliberative": getattr(b, kind)}
        return _shaped(obj, b.shape(kind))
