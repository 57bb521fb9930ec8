import math

import numpy as np
import pytest

from dsae.evaluate import (EvalCounts, align_spans, cohen_kappa, exact_bio_f1,
                           macro_f1, metrics, paired_t_test, replicate,
                           run_stats)
from dsae.numeric.rng import Rng

from util import make_doc, span


# ------------------------------------------------------------- metric formula

def test_metrics_all_tiers_equal():
    m = metrics(EvalCounts(cor=1, par=1, mis=1, spu=1, inc_pred=1, inc_gold=1))
    assert m.precision == m.recall == m.f1 == 0.375


def test_metrics_perfect_and_empty():
    perfect = metrics(EvalCounts(cor=5))
    assert perfect.precision == perfect.recall == perfect.f1 == 1.0
    empty = metrics(EvalCounts())
    assert empty.precision == empty.recall == empty.f1 == 0.0


def test_metrics_partial_half_credit():
    m = metrics(EvalCounts(par=2))
    assert m.precision == 0.5 and m.recall == 0.5 and m.f1 == 0.5


# ---------------------------------------------------------------- align_spans

def test_align_spans_table_scenario():
    # gold: flaxseed(SUPP) | vitamin c(SUPP) | folate(SUPP) | headache(SYMP)
    # pred:                  vitamin(SUPP)     folate(SUPP)   headache(SUPP) + headache(SYMP) elsewhere
    doc = make_doc("d", ["flaxseed", "vitamin", "c", "folate", "headache", "headache"])
    gold = [
        span(doc, "G1", "Supplement", 0, 1),
        span(doc, "G2", "Supplement", 1, 3),
        span(doc, "G3", "Supplement", 3, 4),
        span(doc, "G4", "Symptom", 4, 5),
    ]
    pred = [
        span(doc, "P1", "Supplement", 1, 2),  # PAR with G2
        span(doc, "P2", "Supplement", 3, 4),  # COR with G3
        span(doc, "P3", "Supplement", 4, 5),  # INC against G4
        span(doc, "P4", "Symptom", 5, 6),     # SPU
    ]
    counts = align_spans(gold, pred)["micro"]
    assert (counts.cor, counts.par, counts.mis, counts.spu) == (1, 1, 1, 1)
    assert counts.inc_pred == 1 and counts.inc_gold == 1
    m = metrics(counts)
    assert m.precision == m.recall == m.f1 == 0.375


def test_align_spans_per_type_breakdown():
    doc = make_doc("d", ["a", "b", "c", "d"])
    gold = [span(doc, "G1", "Symptom", 0, 2)]
    pred = [span(doc, "P1", "Supplement", 0, 2)]
    counts = align_spans(gold, pred)
    assert counts["Symptom"].inc_gold == 1 and counts["Symptom"].inc_pred == 0
    assert counts["Supplement"].inc_pred == 1 and counts["Supplement"].inc_gold == 0


def test_align_spans_prefers_exact_over_partial():
    doc = make_doc("d", ["a", "b", "c", "d"])
    gold = [span(doc, "G1", "Symptom", 0, 2), span(doc, "G2", "Symptom", 3, 4)]
    pred = [span(doc, "P1", "Symptom", 0, 2), span(doc, "P2", "Symptom", 1, 4)]
    counts = align_spans(gold, pred)["micro"]
    # P1 takes the exact match; P2 partially overlaps G2
    assert (counts.cor, counts.par, counts.mis, counts.spu) == (1, 1, 0, 0)


def test_align_spans_rejects_overlapping_gold():
    doc = make_doc("d", ["a", "b", "c"])
    gold = [span(doc, "G1", "Symptom", 0, 2), span(doc, "G2", "Symptom", 1, 3)]
    with pytest.raises(ValueError, match="overlapping"):
        align_spans(gold, [])


def oracle_align(gold, pred):
    """Independent restatement of the priority contract: walk the four tiers
    in order, and inside each tier repeatedly pick the single best remaining
    pair (max overlap, then leftmost gold, then leftmost prediction)."""

    def ov(g, p):
        return max(0, min(g.token_end, p.token_end) - max(g.token_start, p.token_start))

    def exact(g, p):
        return (g.token_start, g.token_end) == (p.token_start, p.token_end)

    tiers = [
        lambda g, p: exact(g, p) and g.etype == p.etype,
        lambda g, p: exact(g, p) and g.etype != p.etype,
        lambda g, p: not exact(g, p) and g.etype == p.etype,
        lambda g, p: not exact(g, p) and g.etype != p.etype,
    ]
    free_g = set(range(len(gold)))
    free_p = set(range(len(pred)))
    tallies = [0, 0, 0, 0]
    for t, cond in enumerate(tiers):
        while True:
            candidates = [
                (-ov(gold[gi], pred[pi]), gold[gi].token_start,
                 pred[pi].token_start, gi, pi)
                for gi in free_g for pi in free_p
                if ov(gold[gi], pred[pi]) > 0 and cond(gold[gi], pred[pi])
            ]
            if not candidates:
                break
            _, _, _, gi, pi = min(candidates)
            free_g.discard(gi)
            free_p.discard(pi)
            tallies[t] += 1
    return tuple(tallies)  # (cor, inc_exact, par, inc)


def test_align_spans_matches_exhaustive_oracle_small():
    rng = Rng(0, stream=8)
    types = ["Supplement", "Symptom", "BodyOrgan"]
    for trial in range(60):
        doc = make_doc(f"d{trial}", [f"w{i}" for i in range(10)])

        def random_spans(prefix, max_spans):
            spans = []
            starts = sorted({rng.randint(9) for _ in range(max_spans)})
            for i, s in enumerate(starts):
                e = min(10, s + 1 + rng.randint(2))
                spans.append(span(doc, f"{prefix}{i}", types[rng.randint(3)], s, e))
            # drop same-type overlaps to satisfy the gold invariant
            keep = []
            for sp in spans:
                if all(not (sp.etype == k.etype and sp.token_start < k.token_end
                            and k.token_start < sp.token_end) for k in keep):
                    keep.append(sp)
            return keep

        gold = random_spans("G", 3)
        pred = random_spans("P", 3)
        counts = align_spans(gold, pred)["micro"]
        cor, inc_exact, par, inc = oracle_align(gold, pred)
        # the greedy tiers are exhaustive per tier, so tier totals must agree
        assert counts.cor == cor
        assert counts.par == par
        assert counts.inc_gold == inc_exact + inc
        assert counts.mis == len(gold) - cor - par - inc_exact - inc
        assert counts.spu == len(pred) - cor - par - inc_exact - inc


# ------------------------------------------------------------ dev-set scorers

def test_span_f1_values():
    gold = [["B-SUPP", "I-SUPP", "O"], ["B-SYMP", "O", "O"]]
    assert exact_bio_f1(gold, gold) == 1.0
    pred = [["B-SUPP", "I-SUPP", "O"], ["O", "O", "O"]]
    # 1 matched of 1 predicted, 1 of 2 gold -> F1 = 2*1*0.5/1.5
    assert exact_bio_f1(gold, pred) == pytest.approx(2 * 1.0 * 0.5 / 1.5)
    assert exact_bio_f1([["O"]], [["O"]]) == 0.0


def test_macro_f1_values():
    gold = [0, 0, 1, 2]
    scores = [[0.9, 0.1, 0.0], [0.2, 0.7, 0.1], [0.1, 0.8, 0.1], [0.3, 0.6, 0.1]]
    # label 0: P 1, R 1/2; label 1: P 1/3, R 1; label 2 never predicted: 0
    f1_0 = 2 * 1.0 * 0.5 / 1.5
    f1_1 = 2 * (1 / 3) * 1.0 / (4 / 3)
    assert macro_f1(gold, scores) == pytest.approx((f1_0 + f1_1 + 0.0) / 3)
    assert macro_f1(gold, [np.eye(3)[k] for k in gold]) == 1.0


def test_macro_f1_ties_go_to_first_label():
    tied = [[0.5, 0.5], [0.3, 0.7]]
    assert macro_f1([0, 1], tied) == 1.0
    # the tie predicts label 0: label 0 scores 0, label 1 has P 1, R 1/2
    assert macro_f1([1, 1], tied) == pytest.approx((0.0 + 2 * 0.5 / 1.5) / 2)


# ----------------------------------------------------------------- statistics

def test_cohen_kappa_confusion_oracle():
    # confusion [[20, 5], [10, 15]] -> kappa = 0.4
    a = ["x"] * 25 + ["y"] * 25
    b = ["x"] * 20 + ["y"] * 5 + ["x"] * 10 + ["y"] * 15
    assert cohen_kappa(a, b) == pytest.approx(0.4, abs=1e-12)


def test_cohen_kappa_identical_and_errors():
    assert cohen_kappa([1, 2, 3], [1, 2, 3]) == 1.0
    with pytest.raises(ValueError):
        cohen_kappa([], [])
    with pytest.raises(ValueError):
        cohen_kappa([1], [1, 2])
    assert cohen_kappa(["a", "a"], ["a", "a"]) == 1.0  # degenerate, po = 1


def test_paired_t_test_oracle():
    result = paired_t_test([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    assert result.t == pytest.approx(3.872983346207417, abs=1e-9)
    assert result.p == pytest.approx(0.030466291662170977, abs=1e-3)
    assert not result.significant


def test_paired_t_test_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = Rng(3, stream=9)
    for _ in range(10):
        a = rng.normal((8,))
        b = rng.normal((8,))
        d = a - b
        n = d.size
        mean = float(np.mean(d))
        sd = float(np.std(d, ddof=1))
        t = mean / (sd / math.sqrt(n))
        df = n - 1
        x = df / (df + t * t)
        expected = float(mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x,
                                        regularized=True))
        result = paired_t_test(a, b)
        assert result.t == pytest.approx(t, rel=1e-12)
        assert result.p == pytest.approx(expected, rel=1e-9)


def test_paired_t_test_degenerate():
    same = paired_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert same.t == 0.0 and same.p == 1.0 and not same.significant
    shifted = paired_t_test([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
    assert math.isinf(shifted.t) and shifted.degenerate and shifted.significant


def test_run_stats():
    stats = run_stats([1.0, 2.0, 3.0])
    assert stats.mean == 2.0
    assert stats.std == pytest.approx(1.0)
    with pytest.raises(ValueError):
        run_stats([1.0])


def test_replicate_deterministic_and_error_reporting():
    def experiment(seed):
        rng = Rng(seed, stream=10)
        return {"f1": rng.uniform()}

    stats_a, runs_a = replicate(experiment, n=20, base_seed=5)
    stats_b, runs_b = replicate(experiment, n=20, base_seed=5)
    assert runs_a == runs_b
    assert stats_a["f1"].values == stats_b["f1"].values
    assert stats_a["f1"].n == 20

    def failing(seed):
        if seed == 7:
            raise RuntimeError("boom")
        return {"f1": 0.5}

    with pytest.raises(RuntimeError, match="seed 7"):
        replicate(failing, n=5, base_seed=5)
