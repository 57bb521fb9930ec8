"""End-to-end assembly: predicted entities feed the relation classifier,
with relation-level evaluation and an error taxonomy for FPs and FNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .annotation import AnnotatedDoc, EntitySpan, RelationInstance, from_bio
from .corpus import Lexicon
from .embeddings import EmbeddingTable
from .evaluate import Metrics, relation_metrics, _relation_key
from .ner.predict import decode_many
from .normalize import NormalizedDoc
from .relation import CnnReModel, classify_pairs


@dataclass
class PipelineOutput:
    doc_id: str
    entities: list[EntitySpan]
    relations: list[RelationInstance]  # Indication / AdverseEvent only

    def __post_init__(self):
        spans = {(e.etype, e.token_start, e.token_end) for e in self.entities}
        for r in self.relations:
            for end in (r.head, r.tail):
                if (end.etype, end.token_start, end.token_end) not in spans:
                    raise ValueError("relation endpoint is not a predicted entity")


@dataclass
class ErrorBreakdown:
    """Per relation label, every FP and FN assigned to exactly one bucket."""

    fp_spurious_relation: dict[str, int] = field(default_factory=dict)
    fp_wrong_entities: dict[str, int] = field(default_factory=dict)
    fn_mislabeled: dict[str, int] = field(default_factory=dict)
    fn_missed_label: dict[str, int] = field(default_factory=dict)
    fn_missed_entity: dict[str, int] = field(default_factory=dict)


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


def _bump(bucket: dict[str, int], label: str) -> None:
    bucket[label] = bucket.get(label, 0) + 1


def evaluate_pipeline(gold_docs: list[AnnotatedDoc], ner_model, re_model: CnnReModel,
                      embeddings: EmbeddingTable,
                      lexicons: list[Lexicon] | None = None
                      ) -> tuple[dict[str, Metrics], ErrorBreakdown, list[PipelineOutput]]:
    outputs = run_many([d.doc for d in gold_docs], ner_model, re_model, embeddings, lexicons)
    gold_relations = [r for d in gold_docs for r in d.relations]
    predicted = [r for out in outputs for r in out.relations]
    per_label = relation_metrics(gold_relations, predicted)

    gold_by_key = {_relation_key(r): r.label for r in gold_relations}
    pred_by_key = {_relation_key(r): r.label for r in predicted}
    gold_spans = {d.doc.doc_id: {(e.etype, e.token_start, e.token_end) for e in d.entities}
                  for d in gold_docs}
    pred_spans = {out.doc_id: {(e.etype, e.token_start, e.token_end) for e in out.entities}
                  for out in outputs}

    def endpoints_match(key, spans_by_doc) -> bool:
        doc_id = key[0]
        head = (key[1], key[2], key[3])
        tail = (key[4], key[5], key[6])
        spans = spans_by_doc.get(doc_id, set())
        return head in spans and tail in spans

    breakdown = ErrorBreakdown()
    for key, label in pred_by_key.items():
        if gold_by_key.get(key) == label:
            continue  # true positive
        if endpoints_match(key, gold_spans):
            _bump(breakdown.fp_spurious_relation, label)
        else:
            _bump(breakdown.fp_wrong_entities, label)
    for key, label in gold_by_key.items():
        if pred_by_key.get(key) == label:
            continue
        if not endpoints_match(key, pred_spans):
            # root cause: a constituent entity was never extracted
            _bump(breakdown.fn_missed_entity, label)
        elif key in pred_by_key:
            _bump(breakdown.fn_mislabeled, label)
        else:
            _bump(breakdown.fn_missed_label, label)
    return per_label, breakdown, outputs


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
