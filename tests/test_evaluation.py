import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib.errors import DataError
from delib.evaluation import (ConfusionMatrix, compare_runs, comparison_csv,
                              comparison_text, evaluate_run, f_beta,
                              metrics, metrics_csv, metrics_text, mcc_value,
                              per_batch_series_csv)

from conftest import build_corpus

# Published (precision, recall, F1, F2, MCC) rows. Each row must be
# internally consistent: F1 and F2 recomputed from P and R agree with the
# printed values within rounding, so the same row serves as a frozen oracle
# for f_beta.
REPORTED_ROWS = [
    ("LR", 0.620, 0.720, 0.666, 0.697, 0.490),
    ("SVM", 0.680, 0.590, 0.632, 0.606, 0.480),
    ("BERT", 0.730, 0.710, 0.720, 0.714, 0.590),
    ("9b-zero-shot", 0.708, 0.458, 0.556, 0.493, 0.444),
    ("9b-few-shot", 0.580, 0.603, 0.591, 0.599, 0.423),
    ("9b-few-shot-error", 0.646, 0.615, 0.630, 0.621, 0.486),
    ("9b-cot", 0.542, 0.746, 0.628, 0.694, 0.455),
    ("9b-cot-few-shot-error", 0.542, 0.800, 0.646, 0.731, 0.484),
    ("9b-multi-agent", 0.769, 0.400, 0.526, 0.442, 0.446),
    ("9b-cot-multi-agent", 0.539, 0.477, 0.506, 0.488, 0.326),
    ("9b-cot-few-shot-error-multi-agent", 0.561, 0.456, 0.503, 0.474, 0.334),
    ("70b-zero-shot", 0.554, 0.808, 0.658, 0.740, 0.502),
    ("70b-few-shot", 0.581, 0.654, 0.615, 0.638, 0.449),
    ("70b-few-shot-error", 0.652, 0.637, 0.644, 0.640, 0.504),
    ("70b-cot", 0.507, 0.778, 0.614, 0.703, 0.432),
    ("70b-cot-few-shot-error", 0.558, 0.760, 0.643, 0.709, 0.480),
    ("70b-multi-agent", 0.564, 0.787, 0.657, 0.729, 0.501),
    ("70b-cot-multi-agent", 0.540, 0.738, 0.623, 0.688, 0.449),
    ("70b-cot-few-shot-error-multi-agent", 0.553, 0.734, 0.631, 0.689, 0.462),
]


class TestFBeta:
    @pytest.mark.parametrize("name,p,r,f1,f2,_mcc", REPORTED_ROWS)
    def test_reported_rows_internally_consistent(self, name, p, r, f1, f2, _mcc):
        assert f_beta(p, r, 1.0) == pytest.approx(f1, abs=0.0015)
        assert f_beta(p, r, 2.0) == pytest.approx(f2, abs=0.0015)

    def test_f1_is_harmonic_mean(self):
        assert f_beta(0.5, 0.5, 1.0) == pytest.approx(0.5)
        assert f_beta(0.6, 0.3, 1.0) == pytest.approx(2 * 0.6 * 0.3 / 0.9)

    def test_zero_denominator(self):
        assert f_beta(0.0, 0.0, 1.0) == 0.0
        assert f_beta(0.0, 0.0, 2.0) == 0.0

    @given(p=st.floats(0.001, 1), r=st.floats(0.001, 1))
    def test_f2_between_p_and_r_weighted_to_recall(self, p, r):
        f1 = f_beta(p, r, 1.0)
        f2 = f_beta(p, r, 2.0)
        assert min(p, r) - 1e-12 <= f2 <= max(p, r) + 1e-12
        # F2 sits closer to recall than F1 does
        assert abs(f2 - r) <= abs(f1 - r) + 1e-12


class TestMcc:
    def test_hand_case(self):
        # tp=3 fp=1 fn=2 tn=4: (12-2)/sqrt(4*5*5*6) = 10/sqrt(600)
        assert mcc_value(3, 1, 2, 4) == pytest.approx(10 / math.sqrt(600))

    def test_simple_fraction_case(self):
        # tp=2 fp=1 fn=1 tn=2: (4-1)/sqrt(3*3*3*3) = 3/9 = 1/3
        assert mcc_value(2, 1, 1, 2) == pytest.approx(1 / 3)

    def test_perfect_and_inverted(self):
        assert mcc_value(5, 0, 0, 5) == pytest.approx(1.0)
        assert mcc_value(0, 5, 5, 0) == pytest.approx(-1.0)

    def test_degenerate_factor_is_zero(self):
        assert mcc_value(0, 0, 3, 4) == 0.0
        assert mcc_value(3, 4, 0, 0) == 0.0

    @given(tp=st.integers(0, 200), fp=st.integers(0, 200),
           fn=st.integers(0, 200), tn=st.integers(0, 200))
    def test_bounded(self, tp, fp, fn, tn):
        assert -1.0 <= mcc_value(tp, fp, fn, tn) <= 1.0

    @given(tp=st.integers(1, 50), fp=st.integers(1, 50),
           fn=st.integers(1, 50), tn=st.integers(1, 50))
    def test_label_inversion_negates(self, tp, fp, fn, tn):
        assert mcc_value(tp, fp, fn, tn) == pytest.approx(
            -mcc_value(fn, tn, tp, fp))


def brute_force_matrix(pairs):
    """Independent tally oracle over (gold, pred) pairs."""
    m = {"tp": 0, "fp": 0, "fn": 0, "tn": 0, "fail": 0}
    for gold, pred in pairs:
        if pred is None:
            m["fail"] += 1
        elif gold == 1 and pred == 1:
            m["tp"] += 1
        elif gold == 1:
            m["fn"] += 1
        elif pred == 1:
            m["fp"] += 1
        else:
            m["tn"] += 1
    return m


class TestConfusion:
    def _corpus_and_preds(self, n, seed):
        rng = random.Random(seed)
        rows = [(f"sentence number {i}", rng.choice(["K1", "K2", "K3"]),
                 rng.randint(0, 1)) for i in range(n)]
        corpus = build_corpus(rows)
        preds = {s.id: rng.choice([0, 1, None]) for s in corpus.sentences}
        return corpus, preds

    @pytest.mark.parametrize("n,seed", [(10, 0), (300, 1), (10_000, 2)])
    def test_against_brute_force(self, n, seed):
        corpus, preds = self._corpus_and_preds(n, seed)
        oracle = brute_force_matrix(
            [(s.gold_label, preds[s.id]) for s in corpus.sentences])
        m = evaluate_run(preds, corpus)[0].matrix
        assert (m.tp, m.fp, m.fn, m.tn, m.n_schema_failures) == (
            oracle["tp"], oracle["fp"], oracle["fn"], oracle["tn"], oracle["fail"])

    def test_batch_scope(self):
        corpus, preds = self._corpus_and_preds(200, 3)
        oracle = brute_force_matrix(
            [(s.gold_label, preds[s.id]) for s in corpus.sentences
             if s.batch == "K2"])
        m = evaluate_run(preds, corpus, ["K2"])[0].matrix
        assert (m.tp, m.fp, m.fn, m.tn) == (
            oracle["tp"], oracle["fp"], oracle["fn"], oracle["tn"])

    def test_failures_as_negative(self):
        corpus = build_corpus([("a", "K1", 1), ("b", "K1", 0)])
        preds = {s.id: None for s in corpus.sentences}
        m = evaluate_run(preds, corpus, failures_as_negative=True)[0].matrix
        assert (m.fn, m.tn, m.n_schema_failures) == (1, 1, 0)
        m = evaluate_run(preds, corpus)[0].matrix
        assert (m.n_scored, m.n_schema_failures) == (0, 2)

    def test_unknown_prediction_id(self):
        corpus = build_corpus([("a", "K1", 1)])
        preds = {corpus.sentences[0].id: 1, "bogus": 0}
        with pytest.raises(DataError, match="unknown sentence ids"):
            evaluate_run(preds, corpus)

    def test_missing_prediction(self):
        corpus = build_corpus([("a", "K1", 1), ("b", "K1", 0)])
        with pytest.raises(DataError, match="no prediction"):
            evaluate_run({corpus.sentences[0].id: 1}, corpus)


class TestMetrics:
    def test_fixed_matrix(self):
        rep = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4), scope="K1")
        assert rep.precision == pytest.approx(0.75)
        assert rep.recall == pytest.approx(0.6)
        assert rep.f1 == pytest.approx(2 / 3)
        assert rep.f2 == pytest.approx(0.625)
        assert rep.mcc == pytest.approx(10 / math.sqrt(600))

    def test_empty_matrix_zero_conventions(self):
        rep = metrics(ConfusionMatrix())
        assert (rep.precision, rep.recall, rep.f1, rep.f2, rep.mcc) == (
            0.0, 0.0, 0.0, 0.0, 0.0)

    def test_to_dict(self):
        rep = metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1), scope="K9")
        d = rep.to_dict()
        assert d["scope"] == "K9"
        assert d["mcc"] == pytest.approx(1.0)
        assert d["matrix"]["tp"] == 1


class TestEvaluateRun:
    def test_all_plus_batch_scopes(self):
        corpus = build_corpus([("a", "K1", 1), ("b", "K1", 0),
                               ("c", "K2", 1), ("d", "K2", 1)])
        preds = {s.id: 1 for s in corpus.sentences}
        reports = evaluate_run(preds, corpus, scopes=("ALL", "K1", "K2"))
        assert [r.scope for r in reports] == ["ALL", "K1", "K2"]
        assert reports[0].matrix.n_scored == 4
        assert reports[1].recall == pytest.approx(1.0)
        assert reports[2].precision == pytest.approx(1.0)

    def test_unknown_scope(self):
        corpus = build_corpus([("a", "K1", 1)])
        with pytest.raises(DataError, match="zero sentences"):
            evaluate_run({corpus.sentences[0].id: 1}, corpus, scopes=("K7",))


class TestCompare:
    def _reports(self):
        a = metrics(ConfusionMatrix(tp=8, fp=2, fn=2, tn=8))
        b = metrics(ConfusionMatrix(tp=6, fp=1, fn=4, tn=9))
        c = metrics(ConfusionMatrix(tp=9, fp=6, fn=1, tn=4))
        return {"run-a": a, "run-b": b, "run-c": c}

    def test_per_group_maxima(self):
        rows = compare_runs(self._reports(),
                            groups={"run-a": "g1", "run-b": "g1", "run-c": "g2"})
        by_label = {r.label: r for r in rows}
        # within g1: a has higher recall/f1/f2/mcc, b higher precision
        assert "precision" in by_label["run-b"].best
        assert "recall" in by_label["run-a"].best
        assert "precision" not in by_label["run-a"].best
        # run-c is alone in g2: best at everything
        assert by_label["run-c"].best == {"precision", "recall", "f1", "f2", "mcc"}

    def test_single_group_default(self):
        rows = compare_runs(self._reports())
        assert {r.group for r in rows} == {"all"}

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            compare_runs({})

    def test_text_and_csv_render(self):
        rows = compare_runs(self._reports())
        text = comparison_text(rows)
        assert "run-a" in text and "*" in text
        csv_text = comparison_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("group,run,precision")
        assert len(lines) == 4

    def test_per_batch_series(self):
        corpus = build_corpus([("a", "K1", 1), ("b", "K2", 0)])
        preds = {s.id: 1 for s in corpus.sentences}
        reports = evaluate_run(preds, corpus, scopes=("K1", "K2"))
        out = per_batch_series_csv({"run-a": reports})
        lines = out.strip().split("\n")
        assert lines[0] == "run,batch,precision,recall"
        assert lines[1].startswith("run-a,K1,1.000000")


class TestRendering:
    def test_metrics_text_and_csv(self):
        reports = [metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4), scope="ALL")]
        text = metrics_text(reports)
        assert "ALL" in text and "0.750" in text
        out = metrics_csv(reports)
        lines = out.strip().split("\n")
        assert lines[0].startswith("scope,tp,fp")
        assert lines[1].startswith("ALL,3,1,2,4,0,0.750000")


class TestProperties:
    @given(tp=st.integers(0, 60), fp=st.integers(0, 60),
           fn=st.integers(0, 60), tn=st.integers(0, 60))
    @settings(max_examples=120)
    def test_metric_ranges(self, tp, fp, fn, tn):
        rep = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        for value in (rep.precision, rep.recall, rep.f1, rep.f2):
            assert 0.0 <= value <= 1.0
        assert -1.0 <= rep.mcc <= 1.0

    @given(tp=st.integers(1, 60), fp=st.integers(0, 60),
           fn=st.integers(0, 60), tn=st.integers(0, 60))
    @settings(max_examples=120)
    def test_f1_between_min_and_max(self, tp, fp, fn, tn):
        rep = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        assert min(rep.precision, rep.recall) - 1e-12 <= rep.f1
        assert rep.f1 <= max(rep.precision, rep.recall) + 1e-12


def reference_confusion(predictions, corpus, batches=None, failures_as_negative=False):
    """The matrix of a scope as evaluate_run built it before the one-pass
    tally: a full corpus walk per call."""
    known = {s.id for s in corpus.sentences}
    unknown = set(predictions) - known
    if unknown:
        raise DataError(f"predictions for unknown sentence ids: {sorted(unknown)[:5]}")
    scope = set(batches) if batches is not None else None
    m = ConfusionMatrix()
    for s in corpus.sentences:
        if scope is not None and s.batch not in scope:
            continue
        if s.id not in predictions:
            raise DataError(f"no prediction for sentence {s.id}")
        pred = predictions[s.id]
        if pred is None:
            if failures_as_negative:
                pred = 0
            else:
                m.n_schema_failures += 1
                continue
        if s.gold_label == 1:
            if pred == 1:
                m.tp += 1
            else:
                m.fn += 1
        else:
            if pred == 1:
                m.fp += 1
            else:
                m.tn += 1
    return m


def reference_evaluate_run(predictions, corpus, scopes=("ALL",), failures_as_negative=False):
    """evaluate_run as it was: one reference_confusion per scope."""
    reports = []
    present = set(corpus.batches())
    for scope in scopes:
        batches = None if scope == "ALL" else [scope]
        if scope != "ALL" and scope not in present:
            raise DataError(f"scope {scope!r} has zero sentences")
        matrix = reference_confusion(predictions, corpus, batches, failures_as_negative)
        if matrix.n_scored == 0 and matrix.n_schema_failures == 0:
            raise DataError(f"scope {scope!r} has zero sentences")
        reports.append(metrics(matrix, scope=scope))
    return reports


def _reports_or_error(evaluate, *args):
    try:
        return [r.to_dict() for r in evaluate(*args)]
    except DataError as exc:
        return ("DataError", str(exc))


@st.composite
def _evaluation_case(draw):
    n = draw(st.integers(0, 24))
    rows = [(f"sentence number {i}", draw(st.sampled_from(["K1", "K2", "K3", "R4"])),
             draw(st.integers(0, 1))) for i in range(n)]
    corpus = build_corpus(rows)
    gap_odds = draw(st.sampled_from([0, 0, 30, 5]))  # 1 in gap_odds predictions missing
    predictions = {}
    for s in corpus.sentences:
        if gap_odds and draw(st.integers(1, gap_odds)) == 1:
            continue
        predictions[s.id] = draw(st.sampled_from([0, 1, None]))
    if draw(st.integers(0, 9)) == 0:
        predictions["not-a-sentence"] = 1
    scopes = draw(st.lists(st.sampled_from(["ALL", "K1", "K2", "K3", "R4", "K9"]),
                           max_size=5))
    return corpus, predictions, scopes, draw(st.booleans())


class TestOnePassEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(case=_evaluation_case())
    def test_matches_reference_and_per_scope_confusion(self, case):
        corpus, predictions, scopes, as_negative = case
        args = (predictions, corpus, scopes, as_negative)
        outcome = _reports_or_error(evaluate_run, *args)
        assert outcome == _reports_or_error(reference_evaluate_run, *args)
        if isinstance(outcome, tuple):  # a DataError, checked above
            return
        for report in evaluate_run(*args):
            batches = None if report.scope == "ALL" else [report.scope]
            assert report.matrix == reference_confusion(predictions, corpus, batches, as_negative)

    def test_error_texts(self):
        corpus = build_corpus([("a", "K1", 1), ("b", "K2", 0), ("c", "K2", 1)])
        a, b, c = (s.id for s in corpus.sentences)
        with pytest.raises(DataError, match=r"^scope 'K9' has zero sentences$"):
            evaluate_run({"bogus": 1}, corpus, ("K9", "ALL"))
        with pytest.raises(DataError, match=r"^predictions for unknown sentence ids: \['bogus'\]$"):
            evaluate_run({"bogus": 1}, corpus, ("ALL", "K9"))
        # the first gap of the scope asked for, not of the corpus
        with pytest.raises(DataError, match=f"^no prediction for sentence {c}$"):
            evaluate_run({b: 1}, corpus, ("K2", "ALL"))
        with pytest.raises(DataError, match=f"^no prediction for sentence {a}$"):
            evaluate_run({b: 1}, corpus, ("ALL", "K2"))
        assert [r.scope for r in evaluate_run({a: 1}, corpus, ("K1",))] == ["K1"]
        with pytest.raises(DataError, match=r"^scope 'ALL' has zero sentences$"):
            evaluate_run({}, build_corpus([]), ("ALL",))
        assert evaluate_run({"bogus": 1}, corpus, ()) == []
