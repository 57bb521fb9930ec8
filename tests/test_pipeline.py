import dataclasses
from collections import Counter

import pytest

from dsae.annotation import AnnotatedDoc, RelationInstance
from dsae.embeddings import EmbeddingTable
from dsae.numeric.rng import Rng
from dsae.pipeline import (ErrorBreakdown, OracleNer, PipelineOutput,
                           error_propagation_check, evaluate_pipeline,
                           run_pipeline, score_relations)
from dsae.relation import CnnReConfig, cnn_train, encode_instance

from util import make_doc, span


def fp_total(breakdown, label):
    return breakdown.fp_spurious_relation[label] + breakdown.fp_wrong_entities[label]


def fn_total(breakdown, label):
    return (breakdown.fn_mislabeled[label] + breakdown.fn_missed_label[label]
            + breakdown.fn_missed_entity[label])


@pytest.fixture(scope="module")
def emb():
    words = [f"w{i}" for i in range(20)] + ["vitamin", "nausea", "sleep"]
    vocab = {w: i for i, w in enumerate(words)}
    return EmbeddingTable(6, vocab, Rng(0, stream=17).normal((len(words), 6)))


def gold_doc(i, tail_word, label):
    doc = make_doc(f"d{i}", ["vitamin", f"w{i % 20}", tail_word])
    supp = span(doc, "T1", "Supplement", 0, 1)
    symp = span(doc, "T2", "Symptom", 2, 3)
    rel = RelationInstance(doc.doc_id, supp, symp, label)
    return AnnotatedDoc(doc, (supp, symp), (rel,))


@pytest.fixture(scope="module")
def corpus(emb):
    docs = [gold_doc(i, "nausea" if i % 2 == 0 else "sleep",
                     "AdverseEvent" if i % 2 == 0 else "Indication")
            for i in range(20)]
    train = [encode_instance(d.relations[0], d.doc, emb, max_len=16)
             for d in docs]
    cfg = CnnReConfig(max_len=16, epochs=12, batch_size=8, lr=1e-3,
                      dropout=0.0, seed=0)
    model = cnn_train(train, cfg)
    return docs, model


def test_pipeline_output_referential_integrity():
    doc = make_doc("d", ["vitamin", "nausea"])
    supp = span(doc, "T1", "Supplement", 0, 1)
    symp = span(doc, "T2", "Symptom", 1, 2)
    rel = RelationInstance("d", supp, symp, "AdverseEvent")
    PipelineOutput("d", [supp, symp], [rel])  # fine
    with pytest.raises(ValueError, match="not a predicted entity"):
        PipelineOutput("d", [supp], [rel])


def test_oracle_ner_replays_gold(corpus):
    docs, _ = corpus
    oracle = OracleNer(docs)
    assert oracle.predict(docs[0].doc) == list(docs[0].entities)
    assert oracle.predict(make_doc("unknown", ["x"])) == []


def test_oracle_ner_replays_kept_entities(corpus):
    docs, _ = corpus
    supplement_only = AnnotatedDoc(docs[1].doc, docs[1].entities[:1], ())
    oracle = OracleNer([docs[0], supplement_only])
    assert oracle.predict(docs[0].doc) == list(docs[0].entities)
    assert oracle.predict(docs[1].doc) == [docs[1].entities[0]]
    assert oracle.predict(docs[5].doc) == []


def test_run_pipeline_with_oracle(corpus, emb):
    docs, model = corpus
    oracle = OracleNer(docs)
    out = run_pipeline(docs[0].doc, oracle, model, emb)
    assert out.doc_id == docs[0].doc.doc_id
    assert out.entities == list(docs[0].entities)
    assert [r.label for r in out.relations] == ["AdverseEvent"]


def test_evaluate_pipeline_perfect_with_oracle(corpus, emb):
    docs, model = corpus
    per_label, breakdown, outputs = evaluate_pipeline(docs, OracleNer(docs),
                                                      model, emb)
    assert len(outputs) == len(docs)
    for label in ("Indication", "AdverseEvent"):
        assert per_label[label].f1 == 1.0
        assert fp_total(breakdown, label) == fn_total(breakdown, label) == 0


def test_breakdown_buckets_partition_errors(corpus, emb):
    docs, model = corpus
    # drop entities from half the docs: those relations become fn_missed_entity
    oracle = OracleNer(docs[:10])
    per_label, breakdown, outputs = evaluate_pipeline(docs, oracle, model, emb)
    gold_by_label = {"Indication": 10, "AdverseEvent": 10}
    predicted = {lab: 0 for lab in gold_by_label}
    for out in outputs:
        for r in out.relations:
            predicted[r.label] += 1
    for label, n_gold in gold_by_label.items():
        tp = round(per_label[label].recall * n_gold)
        # every gold relation is either recalled or lands in one FN bucket
        assert tp + fn_total(breakdown, label) == n_gold
        # every prediction is either a TP or lands in one FP bucket
        assert tp + fp_total(breakdown, label) == predicted[label]
        assert breakdown.fn_missed_entity[label] > 0


def test_score_relations_exact_match_and_labels():
    doc = make_doc("d", ["a", "b", "c", "d"])
    supp = span(doc, "T1", "Supplement", 0, 1)
    symp = span(doc, "T2", "Symptom", 2, 3)
    organ = span(doc, "T3", "BodyOrgan", 3, 4)
    gold = AnnotatedDoc(doc, (supp, symp, organ),
                        (RelationInstance("d", supp, symp, "Indication"),
                         RelationInstance("d", supp, organ, "AdverseEvent")))
    pred = PipelineOutput("d", [supp, symp, organ],
                          [RelationInstance("d", supp, symp, "AdverseEvent"),  # wrong label
                           RelationInstance("d", supp, organ, "AdverseEvent")])  # correct
    out, _ = score_relations([gold], [pred])
    assert out["Indication"].recall == 0.0
    assert out["AdverseEvent"].precision == 0.5
    assert out["AdverseEvent"].recall == 1.0


def test_score_relations_span_mismatch_is_fp():
    doc = make_doc("d", ["a", "b", "c", "d"])
    supp, symp = span(doc, "T1", "Supplement", 0, 1), span(doc, "T2", "Symptom", 2, 3)
    wide = span(doc, "T1", "Supplement", 0, 2)
    gold = AnnotatedDoc(doc, (supp, symp), (RelationInstance("d", supp, symp, "Indication"),))
    pred = PipelineOutput("d", [wide, symp], [RelationInstance("d", wide, symp, "Indication")])
    out, _ = score_relations([gold], [pred])
    assert out["Indication"].precision == 0.0 and out["Indication"].recall == 0.0


def test_score_relations_puts_each_error_in_its_bucket():
    doc = make_doc("d", ["melatonin", "zinc", "nausea", "sleep", "rash", "dizzy", "iron",
                         "fatigue"])
    s1, s2 = span(doc, "S1", "Supplement", 0, 1), span(doc, "S2", "Supplement", 1, 2)
    e1, e2 = span(doc, "E1", "Symptom", 2, 3), span(doc, "E2", "Symptom", 3, 4)
    e3 = span(doc, "E3", "Symptom", 4, 5)
    s3, e5 = span(doc, "S3", "Supplement", 6, 7), span(doc, "E5", "Symptom", 7, 8)
    p = span(doc, "P", "Symptom", 5, 6)  # predicted only
    rel = lambda head, tail, label: RelationInstance("d", head, tail, label)
    gold = AnnotatedDoc(doc, (s1, s2, e1, e2, e3, s3, e5),
                        (rel(s1, e1, "AdverseEvent"),  # TP
                         rel(s2, e2, "Indication"),  # TP
                         rel(s1, e2, "Indication"),  # fn_mislabeled
                         rel(s2, e3, "AdverseEvent"),  # fn_missed_label
                         rel(s3, e5, "Indication")))  # fn_missed_entity: s3 not predicted
    pred = PipelineOutput("d", [s1, s2, e1, e2, e3, e5, p],
                          [rel(s1, e1, "AdverseEvent"),
                           rel(s2, e2, "Indication"),
                           rel(s1, e2, "AdverseEvent"),  # fp_spurious_relation
                           rel(s1, p, "Indication")])  # fp_wrong_entities
    per_label, breakdown = score_relations([gold], [pred])
    assert {f.name: getattr(breakdown, f.name) for f in dataclasses.fields(ErrorBreakdown)} == {
        "fp_spurious_relation": Counter({"AdverseEvent": 1}),
        "fp_wrong_entities": Counter({"Indication": 1}),
        "fn_mislabeled": Counter({"Indication": 1}),
        "fn_missed_label": Counter({"AdverseEvent": 1}),
        "fn_missed_entity": Counter({"Indication": 1}),
    }
    # AdverseEvent: TP 1, FP 1, FN 1; Indication: TP 1, FP 1, FN 2
    assert per_label["AdverseEvent"].precision == per_label["AdverseEvent"].recall == 0.5
    assert per_label["AdverseEvent"].f1 == pytest.approx(0.5)
    assert per_label["Indication"].precision == 0.5
    assert per_label["Indication"].recall == pytest.approx(1 / 3)
    assert per_label["Indication"].f1 == pytest.approx(0.4)
    # reading an absent label gives 0 and writes no row
    assert breakdown.fp_wrong_entities["AdverseEvent"] == 0
    assert dict(breakdown.fp_wrong_entities) == {"Indication": 1}


def test_error_propagation_check(corpus, emb):
    docs, model = corpus
    oracle = OracleNer(docs)
    report = error_propagation_check(docs, oracle, model, emb, epsilon=0.01)
    assert set(report.holds) == {"Indication", "AdverseEvent"}
    assert all(report.holds.values())
    assert report.epsilon == 0.01
    for label in report.holds:
        assert report.end_to_end[label].f1 <= report.standalone[label].f1 + 0.01
