"""End-to-end assembly: predicted entities feed the relation classifier.
``score_relations`` sorts every predicted and gold relation once, into a
true positive or one FP or FN bucket of the error taxonomy, and reads the
per-label relation P/R/F1 off those counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .annotation import (RELATION_LABELS, AnnotatedDoc, EntitySpan, RelationInstance,
                         from_bio)
from .corpus import Lexicon
from .embeddings import EmbeddingTable
from .evaluate import Metrics, counts_metrics
from .ner.predict import decode_many
from .normalize import NormalizedDoc
from .relation import CnnReModel, classify_pairs


def _span_key(e: EntitySpan) -> tuple:
    return (e.etype, e.token_start, e.token_end)


@dataclass
class PipelineOutput:
    doc_id: str
    entities: list[EntitySpan]
    relations: list[RelationInstance]  # Indication / AdverseEvent only

    def __post_init__(self):
        spans = {_span_key(e) for e in self.entities}
        for r in self.relations:
            for end in (r.head, r.tail):
                if _span_key(end) not in spans:
                    raise ValueError("relation endpoint is not a predicted entity")


@dataclass
class ErrorBreakdown:
    """Per relation label, every FP and FN assigned to exactly one bucket.

    A prediction that is not a TP is ``fp_spurious_relation`` when both of
    its endpoints are gold entities, ``fp_wrong_entities`` otherwise. A gold
    relation that is not a TP is ``fn_missed_entity`` when an endpoint was
    not predicted, ``fn_mislabeled`` when its pair was predicted with another
    label, ``fn_missed_label`` when its pair got no relation. Each bucket is
    a ``Counter`` by label, so reading an absent label gives 0.
    """

    fp_spurious_relation: Counter = field(default_factory=Counter)
    fp_wrong_entities: Counter = field(default_factory=Counter)
    fn_mislabeled: Counter = field(default_factory=Counter)
    fn_missed_label: Counter = field(default_factory=Counter)
    fn_missed_entity: Counter = field(default_factory=Counter)


def run_many(docs: list[NormalizedDoc], ner_model, re_model: CnnReModel,
             embeddings: EmbeddingTable,
             lexicons: list[Lexicon] | None = None) -> list[PipelineOutput]:
    """Entities of every document from one ``decode_many`` call, then their relations."""
    if isinstance(ner_model, OracleNer):
        entities = [ner_model.predict(doc) for doc in docs]
    else:
        entities = [from_bio(doc, labels) for doc, labels in
                    zip(docs, decode_many(ner_model, docs, embeddings, lexicons))]
    return [PipelineOutput(doc.doc_id, ents, classify_pairs(doc, ents, re_model, embeddings))
            for doc, ents in zip(docs, entities)]


def run_pipeline(doc: NormalizedDoc, ner_model, re_model: CnnReModel, embeddings: EmbeddingTable,
                 lexicons: list[Lexicon] | None = None) -> PipelineOutput:
    """``run_many`` of one document."""
    return run_many([doc], ner_model, re_model, embeddings, lexicons)[0]


class OracleNer:
    """Replays gold entities; used for error-propagation baselines."""

    def __init__(self, gold_docs: list[AnnotatedDoc]):
        self._by_id = {d.doc.doc_id: list(d.entities) for d in gold_docs}

    def predict(self, doc: NormalizedDoc) -> list[EntitySpan]:
        return list(self._by_id.get(doc.doc_id, []))


def _relation_key(rel: RelationInstance) -> tuple:
    return (rel.doc_id, _span_key(rel.head), _span_key(rel.tail))


def score_relations(gold_docs: list[AnnotatedDoc], outputs: list[PipelineOutput]
                    ) -> tuple[dict[str, Metrics], ErrorBreakdown]:
    """Per-label P/R/F1 and the error breakdown of ``outputs`` against
    ``gold_docs``, from one pass over the relation keys (doc id, head span,
    tail span). A prediction is a TP iff gold holds its key with its label;
    every other prediction is one FP and every other gold relation one FN,
    each in exactly one bucket of the breakdown."""
    gold_by_key = {_relation_key(r): r.label for d in gold_docs for r in d.relations}
    pred_by_key = {_relation_key(r): r.label for out in outputs for r in out.relations}
    gold_spans = {(d.doc.doc_id, _span_key(e)) for d in gold_docs for e in d.entities}
    pred_spans = {(out.doc_id, _span_key(e)) for out in outputs for e in out.entities}

    def endpoints_match(key, spans) -> bool:
        doc_id, head, tail = key
        return (doc_id, head) in spans and (doc_id, tail) in spans

    tp: Counter = Counter()
    breakdown = ErrorBreakdown()
    for key, label in pred_by_key.items():
        if gold_by_key.get(key) == label:
            tp[label] += 1
        elif endpoints_match(key, gold_spans):
            breakdown.fp_spurious_relation[label] += 1
        else:
            breakdown.fp_wrong_entities[label] += 1
    for key, label in gold_by_key.items():
        if pred_by_key.get(key) == label:
            continue
        if not endpoints_match(key, pred_spans):
            # root cause: a constituent entity was never extracted
            breakdown.fn_missed_entity[label] += 1
        elif key in pred_by_key:
            breakdown.fn_mislabeled[label] += 1
        else:
            breakdown.fn_missed_label[label] += 1
    fp = breakdown.fp_spurious_relation + breakdown.fp_wrong_entities
    fn = breakdown.fn_mislabeled + breakdown.fn_missed_label + breakdown.fn_missed_entity
    per_label = {label: counts_metrics(tp[label], fp[label], fn[label])
                 for label in RELATION_LABELS if label != "NoRelation"}
    return per_label, breakdown


def evaluate_pipeline(gold_docs: list[AnnotatedDoc], ner_model, re_model: CnnReModel,
                      embeddings: EmbeddingTable,
                      lexicons: list[Lexicon] | None = None
                      ) -> tuple[dict[str, Metrics], ErrorBreakdown, list[PipelineOutput]]:
    """``run_many`` over the gold documents, scored by ``score_relations``."""
    outputs = run_many([d.doc for d in gold_docs], ner_model, re_model, embeddings, lexicons)
    return (*score_relations(gold_docs, outputs), outputs)


@dataclass
class PropagationReport:
    end_to_end: dict[str, Metrics]
    standalone: dict[str, Metrics]
    holds: dict[str, bool]
    epsilon: float


def error_propagation_check(gold_docs: list[AnnotatedDoc], ner_model,
                            re_model: CnnReModel, embeddings: EmbeddingTable,
                            lexicons: list[Lexicon] | None = None,
                            epsilon: float = 0.01) -> PropagationReport:
    """End-to-end relation F1 should not beat relation extraction run on
    gold entities by more than epsilon."""
    end_to_end, _, _ = evaluate_pipeline(gold_docs, ner_model, re_model,
                                         embeddings, lexicons)
    oracle = OracleNer(gold_docs)
    standalone, _, _ = evaluate_pipeline(gold_docs, oracle, re_model,
                                         embeddings, lexicons)
    holds = {}
    for label, m in end_to_end.items():
        holds[label] = m.f1 <= standalone[label].f1 + epsilon
    return PropagationReport(end_to_end=end_to_end, standalone=standalone,
                             holds=holds, epsilon=epsilon)
