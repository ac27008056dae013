#!/usr/bin/env python3
"""delib benchmark: the 8-variant grid over a seeded synthetic corpus.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_cpu --seed 1 --seconds 60 --trace 0

A run measures whole cycles until --seconds have passed. Each cycle first
sets up SETUP_REPS times (parse the generated corpus, load templates and
lexicons, build the backend), then runs one closed loop with one client:

  cold      run_grid with a fresh response cache into a fresh runs dir;
  analysis  `delib eval --per-batch` for each run, `compare` and `analyze`,
            driven in-process through the CLI;
  warm      the same grid into another fresh runs dir against the filled
            in-memory cache, which must make no transport call;
  analysis  the same analysis again.

Warm and analysis passes repeat until each has run for MIN_PHASE_S in the
cycle (once on grid_cpu, several times on the small grid_latency corpus).

Every cycle passes the correctness gate (gate.py) or the run fails.

With --trace 0 the last stdout line carries the end-to-end metrics.
Throughput and analysis time pool every pass of the run, because run-to-run
noise on a shared machine is slow drift that a mean absorbs better than a
median; the commit-gap percentiles pool every cycle's gaps; set-up time is
the median of all set-ups. With --trace 1 untraced and traced cycles
alternate, and the last line carries the per-layer split (tracing.py) and
the tracing overhead. Working files go to .perfbench_out/<workload>/; a
traced run writes its spans there once, at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
MIN_PHASE_S = 1.5   # a warm or analysis phase repeats until it has run this long


@dataclass(frozen=True)
class Workload:
    fraction: float = 1.0       # share of the kept corpus, stratified by batch and label
    latency: bool = False       # simulated long-tailed latency and transient faults
    max_in_flight: int = 4


WORKLOADS = {
    # Pipeline CPU does all the work: zero-latency backend, in-memory cache.
    "grid_cpu": Workload(),
    # Wall time is waiting on a slow, flaky backend. max_in_flight=2 is the
    # core count of the machine the baseline was measured on.
    "grid_latency": Workload(fraction=0.1, latency=True, max_in_flight=2),
}

# Simulated backend: lognormal latency with a 1 ms median (a real model
# takes 0.1-10 s per call; the long tail, not the scale, is what dispatch
# sees), and 3% of first attempts fail transiently.
LATENCY_MEDIAN_S = 0.001
LATENCY_SIGMA = 1.0
LATENCY_CAP_S = 0.040
FAULT_SHARE = 0.03
BACKOFF_BASE_S = 0.004


def _import_pipeline():
    src = ROOT / "src"
    if not (src / "delib" / "__init__.py").is_file():
        print(f"perfbench: no delib package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _transport_stats(transport) -> dict:
    return {"calls": transport.calls, "faults": transport.faults,
            "busy_s": transport.busy_s, "max_in_flight": transport.max_in_flight}


class Bench:
    def __init__(self, name: str, seed: int):
        from delib.prompting import Variant

        import gen

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = OUT / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rows = gen.generate_rows(seed)
        if self.workload.fraction < 1.0:
            rows = gen.subsample(rows, self.workload.fraction, seed)
        self.table = gen.behaviours(rows, seed)
        self.corpus_path = self.work / "corpus.jsonl"
        gen.write_jsonl(rows, self.corpus_path)
        self.config_path = self.work / "config.yaml"
        self.config_path.write_text(
            f"runs_dir: {self.work / 'runs_cold'}\nreports_dir: {self.work / 'reports'}\n",
            encoding="utf-8")
        self.variants = list(Variant)
        self.corpus = self.templates = None

    def setup(self) -> float:
        """Everything a grid needs before its first dispatch; returns seconds."""
        from delib.corpus import parse_dataset
        from delib.indicators import load_lexicons
        from delib.templates import TemplateSet

        start = time.perf_counter()
        corpus = parse_dataset(self.corpus_path)
        templates = TemplateSet()
        for path in sorted((ROOT / "src" / "delib" / "templates").glob("*.txt")):
            templates.load(path.stem)
        load_lexicons()
        self.backend(templates)
        elapsed = time.perf_counter() - start
        self.corpus, self.templates = corpus, templates
        return elapsed

    def backend(self, templates, cache=None):
        from delib.gateway import BackendConfig, ChatBackend, Limits, ResponseCache

        from transport import BenchTransport, LatencyModel

        latency = None
        if self.workload.latency:
            latency = LatencyModel(self.seed, LATENCY_MEDIAN_S, LATENCY_SIGMA,
                                   LATENCY_CAP_S, FAULT_SHARE)
        config = BackendConfig(name="bench", model="scripted",
                               limits=Limits(max_in_flight=self.workload.max_in_flight))
        # The fixed clock keeps latency_ms at 0 in records, as the mock does.
        return ChatBackend(config, cache=cache if cache is not None else ResponseCache(None),
                           transport=BenchTransport(self.table, templates, latency),
                           sleep=time.sleep, backoff_base=BACKOFF_BASE_S,
                           clock=lambda: 0.0)

    def analysis(self, run_ids: list[str], span, problems: list[str]) -> float:
        """`delib eval --per-batch` per run, then `compare` and `analyze`
        over all runs, in-process; returns seconds."""
        from delib.cli import main as cli_main

        common = ["--config", str(self.config_path)]
        corpus_arg = ["--corpus", str(self.corpus_path)]
        commands = [common + ["eval", "--run", i, "--per-batch"] + corpus_arg for i in run_ids]
        for command in ("compare", "analyze"):
            commands.append(common + [command, "--runs", ",".join(run_ids),
                                      "--out-dir", str(self.work / command)] + corpus_arg)
        sink = io.StringIO()
        start = time.perf_counter()
        with span("phase.analysis"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for argv in commands:
                with span("cli.main"):
                    code = cli_main(argv)
                if code != 0:
                    problems.append(f"delib {argv[2]} exited {code}")
        return time.perf_counter() - start

    def cycle(self, tracer=None) -> dict:
        """Cold grid, analysis, warm grid, analysis again, then the gate.

        Untraced, the short phases repeat until they have run for
        MIN_PHASE_S in the cycle, so none is measured from a single
        sub-second sample; traced, each runs once, so per-layer counts
        repeat exactly. A warm pass always starts from a fresh runs dir.
        """
        from delib import runner

        import gate

        installed = tracer.installed() if tracer else contextlib.nullcontext()
        span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
        for d in ("runs_cold", "runs_warm", "reports", "compare", "analyze"):
            shutil.rmtree(self.work / d, ignore_errors=True)
        m: dict = {"problems": [], "warm_records": 0, "warm_transports": []}
        stamps: list[float] = []

        def progress(_done, _total):
            stamps.append(time.perf_counter())

        def repeat(phase) -> list[float]:
            times = [phase()]
            while not tracer and sum(times) < MIN_PHASE_S:
                times.append(phase())
            return times

        def analysis() -> float:
            return self.analysis(run_ids, span, m["problems"])

        def warm_pass() -> float:
            shutil.rmtree(self.work / "runs_warm", ignore_errors=True)
            warm = self.backend(self.templates, cache=cold.cache)
            m["warm_transports"].append(warm.transport)
            if tracer:
                tracer.instrument_backend(warm)
            stamps.clear()
            start = time.perf_counter()
            with span("phase.warm"), span("runner.run_grid"):
                m["warm_manifests"] = runner.run_grid(
                    self.corpus, warm, self.work / "runs_warm",
                    templates=self.templates, progress=progress)
            elapsed = time.perf_counter() - start
            m["warm_records"] += len(stamps)
            return elapsed

        cold = self.backend(self.templates)
        cold_transport = cold.transport
        if tracer:
            tracer.instrument_backend(cold)
        with installed:
            start = time.perf_counter()
            with span("phase.cold"), span("runner.run_grid"):
                manifests = runner.run_grid(self.corpus, cold, self.work / "runs_cold",
                                            templates=self.templates, progress=progress)
            m["cold_s"] = time.perf_counter() - start
            m["records"] = len(stamps)
            m["gaps"] = [b - a for a, b in zip([start] + stamps, stamps)]
            run_ids = [manifests[v].run_id for v in self.variants]
            m["analysis_s"] = repeat(analysis)
            m["warm_s"] = repeat(warm_pass)
            m["analysis_s"] += repeat(analysis)

        # Correctness gate, untimed.
        null_records = 0
        for v in self.variants:
            records = gate.read_records(self.work / "runs_cold" / manifests[v].run_id)
            m["problems"] += gate.check_run(v, records, self.corpus, self.table)
            null_records += sum(r["final_label"] is None for r in records)
            warm_records = gate.read_records(
                self.work / "runs_warm" / m["warm_manifests"][v].run_id)
            if ({r["sentence_id"]: r["final_label"] for r in warm_records}
                    != {r["sentence_id"]: r["final_label"] for r in records}):
                m["problems"].append(f"{v.value}: warm labels differ from cold labels")
            m["problems"] += gate.check_metrics_csv(
                v, self.work / "reports" / manifests[v].run_id / "metrics.csv",
                self.corpus, self.table)
        warm_calls = sum(t.calls for t in m["warm_transports"])
        if warm_calls:
            m["problems"].append(f"warm phase made {warm_calls} transport calls")
        if not (self.work / "analyze" / "easy_sets.json").is_file():
            m["problems"].append("analyze wrote no easy sets")
        m["attempted"] = len(self.corpus) * len(self.variants)
        m["missing"] = m["attempted"] - m["records"]
        m["null_records"] = null_records
        m["transports"] = [_transport_stats(t) for t in [cold_transport] + m["warm_transports"]]
        del m["warm_manifests"], m["warm_transports"]
        return m


def _end_to_end(setups: list[float], cycles: list[dict]) -> dict:
    """name -> (value, unit, samples)."""
    gaps = [g for c in cycles for g in c["gaps"]]
    c0 = cycles[0]
    n = len(cycles)
    return {
        "records_per_s": (sum(c["records"] for c in cycles) / sum(c["cold_s"] for c in cycles),
                          "records/s", n),
        "warm_records_per_s": (sum(c["warm_records"] for c in cycles)
                               / sum(sum(c["warm_s"]) for c in cycles), "records/s",
                               sum(len(c["warm_s"]) for c in cycles)),
        "commit_gap_p50_ms": (1e3 * _percentile(gaps, 0.50), "ms", len(gaps)),
        "commit_gap_p99_ms": (1e3 * _percentile(gaps, 0.99), "ms", len(gaps)),
        "backend_calls": (c0["transports"][0]["calls"], "calls", 1),
        "failed_ratio": ((c0["null_records"] + c0["missing"]) / c0["attempted"], "share",
                         c0["attempted"]),
        "analysis_s": (statistics.mean(a for c in cycles for a in c["analysis_s"]), "s",
                       sum(len(c["analysis_s"]) for c in cycles)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def _per_layer(tracer, cycle: dict, parse_s: float, untraced_wall: float) -> dict:
    """name -> (value, unit) for one traced cycle."""
    count, total, own = tracer.totals()
    c = tracer.counters
    transports = cycle["transports"]
    cold_busy = transports[0]["busy_s"]
    completions = count["gateway.complete"]
    vote, pcj = count["agents.majority_vote"], count["agents.predictor_critic_judge"]
    overhead = _one_pass_wall(cycle) - untraced_wall
    return {
        "corpus.parse_s": (parse_s, "s"),
        "templates.render_calls": (count["templates.render"], "count"),
        "templates.render_s": (own["templates.render"], "s"),
        "prompting.bundles": (count["prompting.render"], "count"),
        "prompting.render_self_s": (own["prompting.render"], "s"),
        "prompting.examples_s": (total["prompting.examples"], "s"),
        "prompting.reasoning_calls": (count["prompting.reasoning"], "count"),
        "prompting.reasoning_excluded": (c["prompting.reasoning_excluded"], "count"),
        "gateway.completions": (completions, "count"),
        "gateway.cache_hit_ratio": (c["gateway.cache_hits"] / completions, "share"),
        "gateway.cache_key_s": (own["gateway.cache_key"], "s"),
        "gateway.cache_get_s": (own["gateway.cache_get"], "s"),
        "gateway.cache_put_s": (own["gateway.cache_put"], "s"),
        "gateway.transport_calls": (sum(t["calls"] for t in transports), "count"),
        "gateway.transport_busy_s": (sum(t["busy_s"] for t in transports), "s"),
        "gateway.in_flight_mean": (cold_busy / cycle["cold_s"], "calls"),
        "gateway.in_flight_max": (max(t["max_in_flight"] for t in transports), "calls"),
        "gateway.retries": (sum(t["faults"] for t in transports), "count"),
        "gateway.backoff_s": (total["gateway.backoff"], "s"),
        "gateway.self_s": (own["gateway.classify"] + own["gateway.complete"], "s"),
        "parsing.calls": (count["parsing.parse"], "count"),
        "parsing.s": (own["parsing.parse"], "s"),
        "parsing.repairs": (c["parsing.repairs"], "count"),
        "parsing.schema_failures": (c["parsing.schema_failures"], "count"),
        "agents.orchestrations": (vote + pcj, "count"),
        "agents.judge_rate": (c["agents.JUDGE_DECIDED"] / max(pcj, 1), "share"),
        "agents.tiebreak_rate": (c["agents.TIEBREAK"] / max(vote, 1), "share"),
        "agents.self_s": (own["agents.majority_vote"] + own["agents.predictor_critic_judge"],
                          "s"),
        "runner.records": (cycle["records"] + cycle["warm_records"], "count"),
        "runner.self_s": (own["runner.run_variant"] + own["runner.run_grid"], "s"),
        "evaluation.s": (own["evaluation"], "s"),
        "indicators.extract_s": (own["indicators.extract"], "s"),
        "indicators.tables_s": (own["indicators.tables"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "tracing.overhead_s": (overhead, "s"),
        "tracing.overhead_share": (overhead / untraced_wall, "share"),
    }


def _one_pass_wall(c: dict) -> float:
    """Cold phase plus the first warm and analysis pass: comparable between
    cycles that repeated their short phases a different number of times."""
    return c["cold_s"] + c["warm_s"][0] + c["analysis_s"][0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_pipeline()
    from tracing import Tracer

    bench = Bench(args.workload, args.seed)
    setup_tracer = Tracer()
    setups: list[float] = []
    cycles: list[dict] = []
    traced: list[tuple] = []
    # Whole cycles only: another starts while the longest one so far still
    # fits before the deadline, so a run lasts about --seconds.
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    while not cycles or time.perf_counter() + longest <= deadline:
        began = time.perf_counter()
        with setup_tracer.corpus_installed() if args.trace else contextlib.nullcontext():
            setups += [bench.setup() for _ in range(SETUP_REPS)]
        cycles.append(bench.cycle())
        if args.trace:
            tracer = Tracer()
            traced.append((tracer, bench.cycle(tracer)))
        longest = max(longest, time.perf_counter() - began)

    problems = [p for c in cycles + [c for _t, c in traced] for p in c["problems"]]
    for p in problems[:20]:
        print(f"MISMATCH {p}")
    print(f"{bench.name}: seed {bench.seed}, {len(bench.corpus)} sentences, "
          f"{len(cycles)} cycles{f' + {len(traced)} traced' if traced else ''}")
    if args.trace:
        untraced = statistics.median(_one_pass_wall(c) for c in cycles)
        parse_s = statistics.median(setup_tracer.durations("corpus.parse"))
        layers = [_per_layer(t, c, parse_s, untraced) for t, c in traced]
        metrics = {k: (statistics.median(layer[k][0] for layer in layers), unit, len(layers))
                   for k, (_v, unit) in layers[0].items()}
        with (bench.work / "trace.csv").open("w", encoding="utf-8") as fh:
            Tracer.write_header(fh)
            for i, (t, _c) in enumerate(traced):
                t.write(fh, cycle=i)
    else:
        metrics = _end_to_end(setups, cycles)
    for i, c in enumerate(cycles):
        print(f"  cycle {i}: cold {c['cold_s']:.3f} s, warm "
              + ", ".join(f"{t:.3f}" for t in c["warm_s"]) + " s, analysis "
              + ", ".join(f"{t:.3f}" for t in c["analysis_s"]) + " s")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<10} n={samples}")
    result = {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in cycles),
        "failed": sum(c["missing"] for c in cycles),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
