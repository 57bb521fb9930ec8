"""Scoring: partial-match entity evaluation (COR/INC/PAR/MIS/SPU),
exact-span and macro per-label F1, P/R/F1 from TP/FP/FN counts, Cohen's
kappa, paired t-tests, and multi-run statistics. Relations are scored by
``dsae.pipeline.score_relations``. Only ``paired_t_test`` needs scipy (the
incomplete beta function), and it imports it when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotation import ENTITY_TYPES, _check_same_type_overlaps, bio_spans


@dataclass
class EvalCounts:
    cor: int = 0
    par: int = 0
    mis: int = 0
    spu: int = 0
    inc_pred: int = 0  # this type predicted, gold span has another type
    inc_gold: int = 0  # this type in gold, prediction has another type

    def add(self, other: "EvalCounts") -> None:
        self.cor += other.cor
        self.par += other.par
        self.mis += other.mis
        self.spu += other.spu
        self.inc_pred += other.inc_pred
        self.inc_gold += other.inc_gold


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class RunStats:
    mean: float
    std: float
    n: int
    values: tuple[float, ...]


def _overlap(g, p) -> int:
    return max(0, min(g.token_end, p.token_end) - max(g.token_start, p.token_start))


def _exact(g, p) -> bool:
    return g.token_start == p.token_start and g.token_end == p.token_end


def align_spans(gold, predicted) -> dict[str, EvalCounts]:
    """Match predictions to gold spans tier by tier.

    Tiers: exact+same-type (COR), exact+other-type (INC), overlap+same-type
    (PAR), overlap+other-type (INC). Unmatched gold spans are MIS,
    unmatched predictions SPU. Matching within a tier is greedy by
    descending overlap, ties by leftmost gold span. Returns the counts of
    each entity type and, last, their sum under "micro".
    """
    gold = list(gold)
    predicted = list(predicted)
    _check_same_type_overlaps(gold)

    counts = {name: EvalCounts() for name in ENTITY_TYPES}
    free_gold = set(range(len(gold)))
    free_pred = set(range(len(predicted)))

    def tier(condition, record):
        pairs = []
        for gi in free_gold:
            for pi in free_pred:
                g, p = gold[gi], predicted[pi]
                if _overlap(g, p) > 0 and condition(g, p):
                    pairs.append((-_overlap(g, p), g.token_start, p.token_start, gi, pi))
        for _, _, _, gi, pi in sorted(pairs):
            if gi in free_gold and pi in free_pred:
                free_gold.discard(gi)
                free_pred.discard(pi)
                record(gold[gi], predicted[pi])

    def as_cor(g, p):
        counts[g.etype].cor += 1

    def as_inc(g, p):
        counts[g.etype].inc_gold += 1
        counts[p.etype].inc_pred += 1

    def as_par(g, p):
        counts[g.etype].par += 1

    tier(lambda g, p: _exact(g, p) and g.etype == p.etype, as_cor)
    tier(lambda g, p: _exact(g, p) and g.etype != p.etype, as_inc)
    tier(lambda g, p: g.etype == p.etype, as_par)
    tier(lambda g, p: g.etype != p.etype, as_inc)

    for gi in free_gold:
        counts[gold[gi].etype].mis += 1
    for pi in free_pred:
        counts[predicted[pi].etype].spu += 1
    micro = EvalCounts()
    for per_type in counts.values():
        micro.add(per_type)
    counts["micro"] = micro
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(counts: EvalCounts) -> Metrics:
    """Partial-match metrics: PAR is credited half."""
    hit = counts.cor + 0.5 * counts.par
    p = _ratio(hit, counts.cor + counts.inc_pred + counts.par + counts.spu)
    r = _ratio(hit, counts.cor + counts.inc_gold + counts.par + counts.mis)
    f1 = _ratio(2.0 * p * r, p + r)
    return Metrics(p, r, f1)


def counts_metrics(tp, fp, fn) -> Metrics:
    """P/R/F1 from true-positive, false-positive and false-negative counts."""
    p = _ratio(tp, tp + fp)
    r = _ratio(tp, tp + fn)
    return Metrics(p, r, _ratio(2 * p * r, p + r))


def exact_bio_f1(gold_label_seqs, pred_label_seqs) -> float:
    """Micro exact-span F1 computed from BIO sequences alone."""
    tp = fp = fn = 0
    for gold, pred in zip(gold_label_seqs, pred_label_seqs):
        g = set(bio_spans(gold))
        p = set(bio_spans(pred))
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return counts_metrics(tp, fp, fn).f1


def macro_f1(gold, scores) -> float:
    """Mean per-label F1 of argmax predictions: row i of ``scores``
    predicts its first highest-scoring label for gold label index
    ``gold[i]``. A label never predicted or never gold scores 0."""
    scores = np.asarray(scores)
    gold = np.asarray(gold)
    pred = np.argmax(scores, axis=1)
    f1s = [counts_metrics(np.sum((pred == k) & (gold == k)),
                          np.sum((pred == k) & (gold != k)),
                          np.sum((pred != k) & (gold == k))).f1
           for k in range(scores.shape[1])]
    return float(np.mean(f1s))


def cohen_kappa(a, b) -> float:
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if not a:
        raise ValueError("empty input")
    n = len(a)
    labels = sorted(set(a) | set(b), key=str)
    po = sum(1 for x, y in zip(a, b) if x == y) / n
    pe = sum((a.count(lab) / n) * (b.count(lab) / n) for lab in labels)
    if pe >= 1.0:
        if po == 1.0:
            return 1.0
        raise ValueError("degenerate marginals: chance agreement is 1 but observed is not")
    return (po - pe) / (1.0 - pe)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant: bool  # at the 0.001 level
    degenerate: bool = False


def paired_t_test(a, b, alpha: float = 0.001) -> TTestResult:
    from scipy.special import betainc  # loaded only when a t-test runs

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("samples must be 1-D and of equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, False)
        return TTestResult(math.copysign(math.inf, mean), 0.0, True, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    # two-sided p via the regularized incomplete beta function
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t, p, p < alpha)


def run_stats(values) -> RunStats:
    vals = tuple(float(v) for v in values)
    if len(vals) < 2:
        raise ValueError("need at least two runs for statistics")
    return RunStats(
        mean=float(np.mean(vals)),
        std=float(np.std(vals, ddof=1)),
        n=len(vals),
        values=vals,
    )


def replicate(experiment, n: int = 20, base_seed: int = 0):
    """Run ``experiment(seed)`` for seeds base..base+n-1.

    The experiment returns a mapping metric-name -> value (a Metrics is
    accepted and unpacked). Returns (per-metric RunStats, per-run values).
    """
    per_run: list[dict[str, float]] = []
    for seed in range(base_seed, base_seed + n):
        try:
            result = experiment(seed)
        except Exception as exc:
            raise RuntimeError(f"replicate run with seed {seed} failed: {exc}") from exc
        if isinstance(result, Metrics):
            result = {"precision": result.precision, "recall": result.recall, "f1": result.f1}
        per_run.append({k: float(v) for k, v in result.items()})
    names = per_run[0].keys()
    stats = {name: run_stats([run[name] for run in per_run]) for name in names}
    return stats, per_run
