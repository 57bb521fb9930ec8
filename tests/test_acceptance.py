"""Acceptance gate: eleven end-to-end criteria, each printing one PASS/FAIL
line (written to the real stdout so the verdicts survive pytest capture).
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from dsae.annotation import (RELATION_LABELS, generate_relation_instances,
                             split_dataset, to_bio)
from dsae.cli import main as cli_main
from dsae.evaluate import (EvalCounts, align_spans, cohen_kappa, metrics,
                           paired_t_test, replicate)
from dsae.ner.crf import CrfConfig, crf_train, viterbi
from dsae.ner.lstm_crf import LstmCrfConfig, LstmCrfModel, lstm_crf_train
from dsae.ner.features import featurize
from dsae.ner.predict import decode_labels, doc_matrix
from dsae.ner.svm import svm_train
from dsae.numeric import kernels
from dsae.numeric.optim import AdamState, LbfgsConfig, adam_step, lbfgs_minimize
from dsae.numeric.rng import Rng
from dsae.pipeline import OracleNer, error_propagation_check, evaluate_pipeline
from dsae.relation import CnnReConfig, CnnReModel, cnn_forward, encode_instance
from dsae.relation import cnn_train
from dsae.signals import KnowledgeBase, SignalRecord, aggregate, compare_kb
from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons
from dsae.annotation import from_bio

from util import (brute_force_paths, crf_objective, drop_entities, flat_objective,
                  grad_check, make_doc, span)
from test_signals import DS_LEXICON, KB_CASES, output_for


VERDICTS: list[str] = []


def report(num: int, description: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}: {verdict} - {description}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {description}"


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def resources():
    emb = synthetic_embeddings()
    ds_lex, event_lex = synthetic_lexicons()
    return emb, [ds_lex, event_lex]


@pytest.fixture(scope="module")
def corpus(resources):
    docs = generate_corpus(1000, seed=0)
    train, dev, test = split_dataset(docs, seed=0)
    return docs, train, dev, test


@pytest.fixture(scope="module")
def ner_models(corpus, resources):
    _, train, dev, test = corpus
    emb, lexicons = resources
    started = time.perf_counter()

    feats = [(featurize(d.doc, emb, lexicons), to_bio(d.doc, d.entities))
             for d in train]
    crf = crf_train(feats, CrfConfig(c1=0.05, c2=0.05, max_iter=200))
    svm = svm_train(feats, epochs=5, lr=0.1, l2=1e-4, seed=0)
    pack = lambda ds: [(doc_matrix(d.doc, emb), to_bio(d.doc, d.entities))
                       for d in ds]
    lstm = lstm_crf_train(pack(train), LstmCrfConfig(epochs=40, batch_size=32,
                                                     lr=1e-3, weight_decay=1e-4,
                                                     seed=0), dev=pack(dev))

    def micro_f1(model):
        counts = EvalCounts()
        for d in test:
            labels = decode_labels(model, d.doc, emb, lexicons)
            counts.add(align_spans(list(d.entities), from_bio(d.doc, labels))["micro"])
        return metrics(counts).f1

    f1s = {"crf": micro_f1(crf), "svm": micro_f1(svm), "lstm_crf": micro_f1(lstm)}
    elapsed = time.perf_counter() - started
    return {"crf": crf, "svm": svm, "lstm_crf": lstm, "f1": f1s,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def re_model(resources):
    # a larger corpus than the NER one: the relation classifier needs more
    # gold pairs (~1500 instances) to hit the per-class floors
    emb, _ = resources
    docs = generate_corpus(2500, seed=1)
    train, dev, test = split_dataset(docs, seed=0)
    started = time.perf_counter()
    encode = lambda ds: [encode_instance(ri, d.doc, emb, 64)
                         for d in ds for ri in generate_relation_instances(d)]
    enc_train, enc_dev, enc_test = encode(train), encode(dev), encode(test)
    model = cnn_train(enc_train, CnnReConfig(max_len=64, epochs=40, batch_size=32,
                                             lr=1e-4, weight_decay=1e-5, seed=0),
                      dev=enc_dev)
    n_labels = len(RELATION_LABELS)
    tp, fp, fn = np.zeros(n_labels), np.zeros(n_labels), np.zeros(n_labels)
    for enc in enc_test:
        probs, _ = cnn_forward(model, enc)
        pred = int(np.argmax(probs))
        if pred == enc.label:
            tp[pred] += 1
        else:
            fp[pred] += 1
            fn[enc.label] += 1
    per_class = {}
    for k, label in enumerate(RELATION_LABELS):
        p = tp[k] / (tp[k] + fp[k]) if tp[k] + fp[k] else 0.0
        r = tp[k] / (tp[k] + fn[k]) if tp[k] + fn[k] else 0.0
        per_class[label] = 2 * p * r / (p + r) if p + r else 0.0
    n_instances = len(enc_train) + len(enc_dev) + len(enc_test)
    gold = [enc.label for encs in (enc_train, enc_dev, enc_test) for enc in encs]
    n_ind = gold.count(RELATION_LABELS.index("Indication"))
    n_ae = gold.count(RELATION_LABELS.index("AdverseEvent"))
    elapsed = time.perf_counter() - started
    return {"model": model, "per_class": per_class, "n_instances": n_instances,
            "ratio": n_ind / n_ae, "elapsed": elapsed}


# ---------------------------------------------------------------- criteria

def test_criterion_01_partial_match_scoring():
    m = metrics(EvalCounts(cor=1, par=1, mis=1, spu=1, inc_pred=1, inc_gold=1))
    ok = m.precision == 0.375 and m.recall == 0.375 and m.f1 == 0.375

    doc = make_doc("d", ["flaxseed", "vitamin", "c", "folate", "headache", "headache"])
    gold = [span(doc, "G1", "Supplement", 0, 1), span(doc, "G2", "Supplement", 1, 3),
            span(doc, "G3", "Supplement", 3, 4), span(doc, "G4", "Symptom", 4, 5)]
    pred = [span(doc, "P1", "Supplement", 1, 2), span(doc, "P2", "Supplement", 3, 4),
            span(doc, "P3", "Supplement", 4, 5), span(doc, "P4", "Symptom", 5, 6)]
    counts = align_spans(gold, pred)["micro"]
    ok = ok and (counts.cor, counts.par, counts.mis, counts.spu,
                 counts.inc_pred + counts.inc_gold) == (1, 1, 1, 1, 2)
    m2 = metrics(counts)
    ok = ok and m2.precision == m2.recall == m2.f1 == 0.375
    report(1, "partial-match scoring reproduces the 0.375 worked example", ok)


def test_criterion_02_viterbi_brute_force():
    started = time.perf_counter()
    rng = Rng(0, stream=50)
    ok = True
    for _ in range(200):
        L, K = rng.randint(6) + 1, rng.randint(3) + 2
        unary = rng.normal((L, K), scale=2.0)
        trans = rng.normal((K, K), scale=2.0)
        (path,), (score,) = viterbi(unary[None], trans, [L])
        paths = brute_force_paths(unary, trans)
        # strict > keeps the first maximizer: the lowest-index tie-break
        best_path, best_score = paths[0]
        for p, s in paths[1:]:
            if s > best_score:
                best_path, best_score = p, s
        ok = ok and list(path) == best_path
        # scores agree up to float summation order
        ok = ok and abs(score - best_score) < 1e-9
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(2, f"Viterbi decodes the exact brute-force path on 200 instances "
              f"({elapsed:.2f}s < 5s)", ok)


def test_criterion_03_log_partition():
    started = time.perf_counter()
    rng = Rng(1, stream=50)
    worst = 0.0
    for _ in range(100):
        L, K = rng.randint(6) + 1, rng.randint(3) + 2
        unary = np.ascontiguousarray(rng.normal((L, K), scale=2.0))
        trans = np.ascontiguousarray(rng.normal((K, K), scale=2.0))
        paths = brute_force_paths(unary, trans)
        zeros = np.zeros((1, L), dtype=np.int64)
        nll, _, _ = kernels.crf_layer(unary[None], trans, zeros, zeros == 0)
        logz = nll + paths[0][1]  # paths[0] is the all-zero path the NLL is of
        scores = [s for _, s in paths]
        m = max(scores)
        expected = m + math.log(sum(math.exp(s - m) for s in scores))
        worst = max(worst, abs(logz - expected))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 5.0
    report(3, f"log-partition within 1e-8 of brute force on 100 instances "
              f"(worst {worst:.2e}, {elapsed:.2f}s < 5s)", ok)


def test_criterion_04_gradient_checks():
    # small probe models: the full-coordinate central-difference sweep must
    # fit the time budget, and gradient correctness is size-independent
    started = time.perf_counter()
    from dsae.annotation import BIO_LABELS, RelationInstance
    from dsae.embeddings import EmbeddingTable

    words = ["vitamin", "c", "nausea", "took", "today", "my", "liver", "helps"]
    emb = EmbeddingTable(4, {w: i for i, w in enumerate(words)},
                         Rng(0, stream=51).normal((len(words), 4)))
    rng = Rng(0, stream=52)
    worst = {"crf": 0.0, "lstm_crf": 0.0, "cnn": 0.0}

    def random_doc(i, n):
        return make_doc(f"g{i}", [words[rng.randint(len(words))] for _ in range(n)])

    feats = []
    for i in range(10):
        doc = random_doc(i, rng.randint(3) + 4)
        gold = [BIO_LABELS[rng.randint(len(BIO_LABELS))] for _ in doc.tokens]
        feats.append((featurize(doc, emb), gold))
    crf = crf_train(feats, CrfConfig(max_iter=2))
    for features, gold in feats:
        # the objective crf_train minimises, on this one document
        x0 = rng.normal((crf.W.size + crf.T.size,), scale=0.1)
        assert x0.dtype == np.float64
        worst["crf"] = max(worst["crf"], grad_check(crf_objective(crf, features, gold), x0))

    lstm = LstmCrfModel.init(emb.dim + 1, 4, BIO_LABELS, seed=0)
    for i in range(10):
        L = rng.randint(3) + 4
        X = rng.normal((L, emb.dim + 1))
        y = np.asarray([rng.randint(len(BIO_LABELS)) for _ in range(L)])
        x0 = rng.normal((lstm.params.data.size,), scale=0.1)
        worst["lstm_crf"] = max(worst["lstm_crf"],
                                grad_check(flat_objective(lstm, [X], [y]), x0))

    cnn = None
    for i in range(10):
        doc = make_doc(f"c{i}", ["vitamin", words[rng.randint(len(words))],
                                 words[rng.randint(len(words))], "nausea"])
        inst = RelationInstance(doc.doc_id, span(doc, "T1", "Supplement", 0, 1),
                                span(doc, "T2", "Symptom", 3, 4),
                                RELATION_LABELS[rng.randint(3)])
        enc = encode_instance(inst, doc, emb, 8)
        if cnn is None:
            cnn = CnnReModel.init(enc.table.shape[1], CnnReConfig(max_len=8))
        x0 = rng.normal((cnn.params.data.size,), scale=0.1)
        # dropout is off in the gradcheck objective; the small step keeps
        # the sweep clear of ReLU/argmax kinks, and the forward-only value
        # keeps the ~25k-evaluation sweep inside the time budget
        objective = flat_objective(cnn, [enc], [1.0])
        worst["cnn"] = max(worst["cnn"], grad_check(objective, x0, eps=1e-6,
                                                    value_fn=objective.value))

    elapsed = time.perf_counter() - started
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 60.0
    report(4, "analytic gradients match finite differences "
              f"(crf {worst['crf']:.1e}, lstm {worst['lstm_crf']:.1e}, "
              f"cnn {worst['cnn']:.1e}; {elapsed:.1f}s < 60s)", ok)


def test_criterion_05_optimizers():
    def rosenbrock(x):
        a, b = x
        value = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                         200 * (b - a * a)])
        return value, grad

    result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]),
                            LbfgsConfig(max_iter=200, tol=1e-10))
    ok = (result.iterations <= 200
          and float(np.max(np.abs(result.x - 1.0))) < 1e-4)

    # scalar soft-threshold: argmin 0.5*(x-0.5)^2 + 1.0*|x| is exactly 0
    shrink = lbfgs_minimize(lambda x: (0.5 * (x[0] - 0.5) ** 2,
                                       np.array([x[0] - 0.5])),
                            np.array([2.0]), LbfgsConfig(c1=1.0))
    ok = ok and shrink.x[0] == 0.0

    state = AdamState(lr=0.01)
    x = np.ones(5)
    scale = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    for _ in range(500):
        x = adam_step(x, scale * x, state)
    ok = ok and float(np.linalg.norm(x)) < 1e-2
    report(5, "L-BFGS solves Rosenbrock, OWL-QN soft-thresholds to exact zero, "
              "Adam drives the quadratic below 1e-2", ok)


def test_criterion_06_ner_on_synthetic(ner_models):
    f1 = ner_models["f1"]
    elapsed = ner_models["elapsed"]
    ok = (f1["crf"] >= 0.95 and f1["lstm_crf"] >= 0.90
          and f1["svm"] < f1["crf"] and elapsed < 180.0)
    report(6, f"synthetic NER: crf {f1['crf']:.4f} >= 0.95, "
              f"lstm {f1['lstm_crf']:.4f} >= 0.90, svm {f1['svm']:.4f} < crf "
              f"({elapsed:.0f}s < 180s)", ok)


def test_criterion_07_relation_classifier(re_model):
    per_class = re_model["per_class"]
    ok = (1200 <= re_model["n_instances"] <= 1900
          and 2.5 <= re_model["ratio"] <= 4.0
          and all(per_class[label] >= 0.90 for label in RELATION_LABELS)
          and re_model["elapsed"] < 120.0)
    report(7, f"relation CNN: {re_model['n_instances']} instances, "
              f"Ind:AE {re_model['ratio']:.2f}:1, per-class F1 "
              + ", ".join(f"{label} {per_class[label]:.4f}" for label in RELATION_LABELS)
              + f" all >= 0.90 ({re_model['elapsed']:.0f}s < 120s)", ok)


def test_criterion_08_error_propagation(corpus, resources, ner_models, re_model):
    started = time.perf_counter()
    _, _, _, test = corpus
    emb, lexicons = resources
    prop = error_propagation_check(test, ner_models["crf"], re_model["model"],
                                   emb, lexicons, epsilon=0.01)
    ok = all(prop.holds.get(label, False) for label in ("Indication", "AdverseEvent"))

    dropped = drop_entities(test, 0.5, seed=0)
    per_label_drop, _, _ = evaluate_pipeline(test, OracleNer(dropped),
                                             re_model["model"], emb, lexicons)
    drops = {}
    for label in ("Indication", "AdverseEvent"):
        drops[label] = prop.standalone[label].recall - per_label_drop[label].recall
        ok = ok and drops[label] >= 0.3
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(8, "end-to-end F1 bounded by gold-entity F1 + 0.01; 50% entity "
              f"dropout cuts recall by {drops['Indication']:.2f}/"
              f"{drops['AdverseEvent']:.2f} >= 0.3 ({elapsed:.0f}s < 60s)", ok)


def test_criterion_09_statistics():
    a = ["x"] * 25 + ["y"] * 25
    b = ["x"] * 20 + ["y"] * 5 + ["x"] * 10 + ["y"] * 15
    ok = abs(cohen_kappa(a, b) - 0.4) <= 1e-12

    result = paired_t_test([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    ok = ok and abs(result.t - 3.872983346207417) < 1e-3
    ok = ok and abs(result.p - 0.030466291662170977) < 1e-3

    def experiment(seed):
        return {"f1": Rng(seed, stream=53).uniform()}

    _, runs_a = replicate(experiment, n=20, base_seed=9)
    _, runs_b = replicate(experiment, n=20, base_seed=9)
    ok = ok and runs_a == runs_b and len(runs_a) == 20
    report(9, "kappa 0.4 exact, paired t-test matches the oracle within 1e-3, "
              "replicate(n=20) is reproducible", ok)


def test_criterion_10_aggregation_and_kb(tmp_path):
    plan = ([("vitamin c", "nausea", "AdverseEvent")] * 8
            + [("vit c", "kidney stones", "AdverseEvent")] * 5
            + [("niacin", "flush", "AdverseEvent")] * 4
            + [("melatonin", "dreams", "AdverseEvent")] * 6
            + [("fish oil", "sleep", "Indication")] * 4
            + [("biotin", "acne", "Indication")] * 3)
    docs, outputs = {}, []
    for i, (supp, event, relation) in enumerate(plan):
        doc, out = output_for(f"d{i:02d}", supp.split(), event.split(), relation)
        docs[doc.doc_id] = doc
        outputs.append(out)
    records = aggregate(outputs, docs, DS_LEXICON)
    freq = {(r.supplement_canonical, r.event_term): r.frequency for r in records}
    ok = freq == {("Vitamin C", "nausea"): 8, ("Vitamin C", "kidney stones"): 5,
                  ("Niacin", "flush"): 4, ("Melatonin", "dreams"): 6,
                  ("Fish Oil", "sleep"): 4, ("Biotin", "acne"): 3}

    kb_path = tmp_path / "kb.csv"
    rows = ["supplement,event,relation"]
    rows += [f"{s},{e},AdverseEvent" for s, e, known in KB_CASES if known]
    kb_path.write_text("\n".join(rows) + "\n")
    kb = KnowledgeBase.load(kb_path)
    probes = [SignalRecord(s, False, e, "AdverseEvent", 1, ())
              for s, e, _ in KB_CASES]
    flagged = compare_kb(probes, kb)
    ok = ok and [r.in_kb for r in flagged] == [known for _, _, known in KB_CASES]
    report(10, "signal aggregation reproduces exact frequencies and all 15 "
               "knowledge-base membership flags", ok)


def test_criterion_11_reproducibility(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synthetic_docs": 60, "seed": 0,
        "crf": {"c1": 0.05, "c2": 0.05, "max_iter": 30},
        "cnn": {"epochs": 2, "batch_size": 8, "lr": 1e-3, "weight_decay": 1e-5},
        "max_len": 24,
    }))
    artifacts = ("ner_crf.json", "re_cnn.json", "ner_crf_metrics.tsv",
                 "re_cnn_metrics.tsv")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        for command in ("train-ner", "eval-ner", "train-re", "eval-re"):
            assert cli_main([command, "--config", str(config), "--out", str(out)]) == 0
        outs.append(out)
    ok = all((outs[0] / a).read_bytes() == (outs[1] / a).read_bytes()
             for a in artifacts)
    report(11, "two runs with the same config and seed produce byte-identical "
               "model bundles and metric files", ok)
