"""Acceptance gate: one test per primary criterion, each ending in a single
PASS line (pytest -v shows one PASSED/FAILED row per criterion).

The corpus-count criterion uses the synthetic stand-in corpus built to the
published per-batch volumes, since the source documents are not vendored.
The published grand total (4,502) contradicts its own batch rows (which sum
to 4,504); the strict grand-total check is kept as an expected failure
rather than papered over.
"""
import itertools
import json
import random

import pytest

from delib.agents import analyze_disagreements, run_majority_vote
from delib.corpus import corpus_stats, filter_batches, parse_dataset
from delib.evaluation import (ConfusionMatrix, evaluate_run,
                              f_beta, metrics, metrics_csv, mcc_value)
from delib.gateway import ResponseCache, mock_backend
from delib.indicators import build_easy_sets, extract_indicators, load_lexicons
from delib.prompting import Variant
from delib.runner import run_grid, run_variant

from conftest import (FULL_SHAPE, KEPT_BATCHES, TOTAL_KEPT, TOTAL_KEPT_AD, StopRun,
                      build_corpus, make_sentence, raise_after, stopped_manifest,
                      universal_mock_rules)
from test_evaluation import REPORTED_ROWS, brute_force_matrix
from test_indicators import HCFA, NEGOTIATIONS, OMB, ZONES


def ok(name):
    print(f"[PRIMARY] {name}: PASS")


@pytest.fixture(scope="module")
def kept_corpus(full_corpus):
    return filter_batches(full_corpus, KEPT_BATCHES)


class TestAcceptance:
    def test_metric_identities_table(self):
        """F1/F2 recomputed from printed P and R match printed values
        within ±0.0015 across all 19 published rows."""
        for name, p, r, f1, f2, _mcc in REPORTED_ROWS:
            assert f_beta(p, r, 1.0) == pytest.approx(f1, abs=0.0015), name
            assert f_beta(p, r, 2.0) == pytest.approx(f2, abs=0.0015), name
        assert f_beta(0.542, 0.800, 1.0) == pytest.approx(0.646, abs=0.0015)
        assert f_beta(0.542, 0.800, 2.0) == pytest.approx(0.731, abs=0.0015)
        assert f_beta(0.554, 0.808, 2.0) == pytest.approx(0.740, abs=0.0015)
        ok("metric identities: 19/19 published rows within ±0.0015")

    def test_corpus_counts(self, full_corpus_jsonl):
        """Ingest + filter to {K1,K2,K3,R4}: exact per-batch sentence and
        AD counts, and the consistent AD total of 1,291."""
        corpus = filter_batches(parse_dataset(full_corpus_jsonl), KEPT_BATCHES)
        rows = {r.batch: r for r in corpus_stats(corpus)}
        for batch in KEPT_BATCHES:
            n, n_ad = FULL_SHAPE[batch]
            assert rows[batch].n_sentences == n, batch
            assert rows[batch].n_ad == n_ad, batch
        assert rows["ALL"].n_sentences == TOTAL_KEPT
        assert rows["ALL"].n_ad == TOTAL_KEPT_AD == 1291
        ok("corpus counts: per-batch cells exact, AD total 1,291")

    @pytest.mark.xfail(
        strict=True,
        reason="published grand total (4,502) contradicts the published "
               "batch rows, which sum to 4,504; no corpus satisfies both")
    def test_corpus_counts_published_grand_total(self, full_corpus_jsonl):
        corpus = filter_batches(parse_dataset(full_corpus_jsonl), KEPT_BATCHES)
        assert len(corpus) == 4502

    def test_indicator_examples(self):
        """Unique indicator counts for the unambiguous published example
        sentences: 0, 1, 2, and 5. Exact match."""
        expected = [(HCFA, 0), (OMB, 1), (ZONES, 2), (NEGOTIATIONS, 5)]
        for text, count in expected:
            profile = extract_indicators(make_sentence(text), load_lexicons())
            assert profile.unique_count == count, text[:40]
        ok("indicator examples: unique counts 0/1/2/5 exact")

    def test_metric_properties(self):
        """1,000 random matrices: MCC bounded; perfect matrices score 1
        everywhere; P=R forces F1=F2=P; the matrix equals a brute-force
        oracle up to n=10,000."""
        rng = random.Random(42)
        for _ in range(1000):
            tp, fp, fn, tn = (rng.randint(0, 500) for _ in range(4))
            assert -1.0 <= mcc_value(tp, fp, fn, tn) <= 1.0

        for n in (1, 7, 100):
            rep = metrics(ConfusionMatrix(tp=n, fp=0, fn=0, tn=n))
            assert (rep.precision, rep.recall, rep.f1, rep.f2, rep.mcc) == (
                1.0, 1.0, 1.0, 1.0, 1.0)

        for _ in range(200):
            tp = rng.randint(1, 300)
            k = rng.randint(0, 300)
            rep = metrics(ConfusionMatrix(tp=tp, fp=k, fn=k, tn=rng.randint(0, 300)))
            assert rep.precision == rep.recall
            assert rep.f1 == pytest.approx(rep.precision)
            assert rep.f2 == pytest.approx(rep.precision)

        for n, seed in ((100, 0), (3000, 1), (10_000, 2)):
            rows = [(f"sent {i}", rng.choice(["K1", "K2"]), rng.randint(0, 1))
                    for i in range(n)]
            corpus = build_corpus(rows)
            preds = {s.id: rng.choice([0, 1, None]) for s in corpus.sentences}
            oracle = brute_force_matrix(
                [(s.gold_label, preds[s.id]) for s in corpus.sentences])
            m = evaluate_run(preds, corpus)[0].matrix
            assert (m.tp, m.fp, m.fn, m.tn, m.n_schema_failures) == (
                oracle["tp"], oracle["fp"], oracle["fn"], oracle["tn"],
                oracle["fail"])
        ok("metric properties: bounds, perfect case, P=R, oracle to n=10,000")

    def test_orchestration_correctness(self):
        """Exhaustive vote patterns: final = majority of votes cast;
        predictor-critic agreement never invokes the judge."""
        from test_agents import pcj_backend, vote_backend
        s = make_sentence("We should weigh this.", "K1", 1)
        for first, second, tiebreak in itertools.product((0, 1), repeat=3):
            backend = vote_backend(first, second, tiebreak)
            trace = run_majority_vote(s, backend)
            votes = [st.label for st in trace.steps]
            assert trace.final_label == (1 if sum(votes) * 2 > len(votes) else 0)
            assert backend.transport.calls == (2 if first == second else 3)

        for label in (0, 1):
            from delib.agents import run_predictor_critic_judge
            backend = pcj_backend(label, "sound", label)
            trace = run_predictor_critic_judge(s, backend)
            assert backend.transport.calls == 2
            assert trace.final_label == label
        ok("orchestration: majority rule exhaustive, agreement skips judge")

    def test_determinism_and_resumability(self, kept_corpus, tmp_path):
        """Full mock grid, interrupted and resumed, is byte-identical in
        records and reports to an uninterrupted grid; a warm-cache rerun
        makes zero backend calls and writes the same records."""
        dir_a, dir_b, dir_c = (tmp_path / n for n in ("resumed", "straight", "warm"))

        backend_a = mock_backend(universal_mock_rules())
        with pytest.raises(StopRun):
            run_variant(kept_corpus, Variant.ZERO_SHOT, backend_a, dir_a,
                        progress=raise_after(100))
        partial = stopped_manifest(dir_a)
        assert partial.status == "interrupted"
        manifests_a = run_grid(kept_corpus, backend_a, dir_a)

        cache = ResponseCache(None)
        backend_b = mock_backend(universal_mock_rules(), cache=cache)
        manifests_b = run_grid(kept_corpus, backend_b, dir_b)

        for variant, manifest_a in manifests_a.items():
            manifest_b = manifests_b[variant]
            assert manifest_a.run_id == manifest_b.run_id
            rec_a = (dir_a / manifest_a.run_id / "records.jsonl").read_bytes()
            rec_b = (dir_b / manifest_b.run_id / "records.jsonl").read_bytes()
            assert rec_a == rec_b, variant
            from delib.runner import load_predictions
            reports_a = evaluate_run(
                load_predictions(dir_a / manifest_a.run_id), kept_corpus)
            reports_b = evaluate_run(
                load_predictions(dir_b / manifest_b.run_id), kept_corpus)
            assert metrics_csv(reports_a) == metrics_csv(reports_b), variant

        backend_warm = mock_backend(universal_mock_rules(), cache=cache)
        manifests_c = run_grid(kept_corpus, backend_warm, dir_c)
        assert backend_warm.transport.calls == 0
        for variant, manifest_c in manifests_c.items():
            run_id = manifests_b[variant].run_id
            assert manifest_c.run_id == run_id
            rec_b = (dir_b / run_id / "records.jsonl").read_bytes()
            assert (dir_c / run_id / "records.jsonl").read_bytes() == rec_b, variant
        ok("determinism: grid resume byte-identical, warm rerun made 0 calls")

    def test_end_to_end_sanity(self, kept_corpus, tmp_path):
        """All-positive mock run: recall 1.0, precision = AD share of the
        corpus; scripted fixtures reproduce hand-counted easy sets and
        disagreement cells."""
        backend = mock_backend(default=json.dumps({"deliberative": 1}))
        manifest = run_variant(kept_corpus, Variant.ZERO_SHOT, backend, tmp_path)
        from delib.runner import load_predictions
        report = evaluate_run(
            load_predictions(tmp_path / manifest.run_id), kept_corpus)[0]
        assert report.recall == 1.0
        assert report.precision == pytest.approx(TOTAL_KEPT_AD / TOTAL_KEPT)
        assert report.precision == pytest.approx(0.2868, abs=5e-4)

        corpus = build_corpus([("alpha", "K1", 1), ("beta", "K1", 1),
                               ("gamma", "K1", 0), ("delta", "K1", 0)])
        a, b, c, d = [s.id for s in corpus.sentences]
        run1 = {a: 1, b: 1, c: 0, d: 1}
        run2 = {a: 1, b: 0, c: 0, d: 1}
        easy = build_easy_sets([run1, run2], corpus)
        assert easy.easy_1 == {a}
        assert easy.easy_0 == {c}

        from test_agents import trace_for
        traces = [trace_for(a, predictor=1, critic_label=0, final=0),
                  trace_for(c, predictor=1, critic_label=0, final=0),
                  trace_for(d, predictor=0, critic_label=1, final=0)]
        flips = analyze_disagreements(traces, corpus)
        assert flips.n_disagreements == 3
        assert flips.judge_followed_critic == 2
        assert flips.true_positives_flagged_false == 1
        assert flips.false_positives_caught == 1
        ok("end-to-end: recall 1.0, precision = AD share, hand counts match")
