"""Standoff annotation parsing, BIO conversion, relation instance
generation, and dataset splitting.

Annotations are defined over the normalized text (annotation happens
after preprocessing), so entity character offsets must align with token
boundaries of the NormalizedDoc.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from .normalize import NormalizedDoc
from .numeric.rng import Rng

logger = logging.getLogger(__name__)

ENTITY_TYPES = ("Supplement", "Symptom", "BodyOrgan")
EVENT_TYPES = ("Symptom", "BodyOrgan")
RELATION_LABELS = ("NoRelation", "Indication", "AdverseEvent")

_TYPE_TO_BIO = {"Supplement": "SUPP", "Symptom": "SYMP", "BodyOrgan": "ORG"}
_BIO_TO_TYPE = {v: k for k, v in _TYPE_TO_BIO.items()}

BIO_LABELS = ("O", "B-SUPP", "I-SUPP", "B-SYMP", "I-SYMP", "B-ORG", "I-ORG")


def label_ids(gold, labels: tuple[str, ...] = BIO_LABELS) -> list[int]:
    """Index in the alphabet labels of each gold label. A label outside it
    raises ValueError naming the label and the alphabet."""
    index = {label: i for i, label in enumerate(labels)}
    try:
        return [index[label] for label in gold]
    except KeyError as exc:
        raise ValueError(f"gold label {exc.args[0]!r} is not in the label alphabet "
                         f"{tuple(labels)}") from None


# cross-type overlap priority: supplements are the pivot of every signal
_TYPE_PRIORITY = {"Supplement": 0, "Symptom": 1, "BodyOrgan": 2}


@dataclass(frozen=True)
class EntitySpan:
    id: str
    etype: str
    char_start: int
    char_end: int
    token_start: int
    token_end: int
    deficiency: bool = False

    def __post_init__(self):
        if self.etype not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {self.etype!r}")
        if self.token_start >= self.token_end:
            raise ValueError("empty token range")
        if self.deficiency and self.etype != "Supplement":
            raise ValueError("deficiency flag is only valid for Supplement spans")

    def surface(self, doc: NormalizedDoc) -> str:
        return doc.normalized_text[self.char_start:self.char_end]


@dataclass(frozen=True)
class RelationInstance:
    doc_id: str
    head: EntitySpan
    tail: EntitySpan
    label: str

    def __post_init__(self):
        if self.head.etype != "Supplement":
            raise ValueError("relation head must be a Supplement")
        if self.tail.etype not in EVENT_TYPES:
            raise ValueError("relation tail must be a Symptom or BodyOrgan")
        if self.head == self.tail:
            raise ValueError("head and tail must differ")
        if self.label not in RELATION_LABELS:
            raise ValueError(f"unknown relation label {self.label!r}")


@dataclass(frozen=True)
class AnnotatedDoc:
    doc: NormalizedDoc
    entities: tuple[EntitySpan, ...]
    relations: tuple[RelationInstance, ...]  # gold only, labels != NoRelation

    def __post_init__(self):
        ids = [e.id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate entity ids")
        seen = set()
        for e in self.entities:
            key = (e.char_start, e.char_end, e.etype)
            if key in seen:
                raise ValueError(f"duplicate entity span {key}")
            seen.add(key)
        _check_same_type_overlaps(self.entities)


class StandoffError(ValueError):
    def __init__(self, doc_id: str, lineno: int, message: str):
        super().__init__(f"document {doc_id!r}, line {lineno}: {message}")
        self.lineno = lineno


def _check_same_type_overlaps(entities) -> None:
    by_type: dict[str, list[EntitySpan]] = {}
    for e in entities:
        by_type.setdefault(e.etype, []).append(e)
    for etype, spans in by_type.items():
        spans = sorted(spans, key=lambda e: e.token_start)
        for a, b in zip(spans, spans[1:]):
            if b.token_start < a.token_end:
                raise ValueError(f"overlapping {etype} spans {a.id} and {b.id}")


def _token_range(doc: NormalizedDoc, char_start: int, char_end: int, lineno: int):
    starts = {t.start: i for i, t in enumerate(doc.tokens)}
    ends = {t.end: i + 1 for i, t in enumerate(doc.tokens)}
    if char_start not in starts or char_end not in ends:
        raise StandoffError(doc.doc_id, lineno,
                            f"span [{char_start},{char_end}) is not token-aligned")
    return starts[char_start], ends[char_end]


def parse_standoff(ann_text: str, doc: NormalizedDoc) -> AnnotatedDoc:
    """Parse T (entity), R (relation) and A (attribute) standoff lines."""
    entities: dict[str, EntitySpan] = {}
    relations: list[tuple[int, str, str, str]] = []
    deficient: list[tuple[int, str]] = []
    for lineno, raw in enumerate(ann_text.splitlines(), 1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        tag = fields[0]
        parts = fields[1].split(" ") if len(fields) > 1 else []
        if tag.startswith("T"):
            if len(fields) < 3 or len(parts) != 3 or not all(p.isdecimal() for p in parts[1:]):
                raise StandoffError(doc.doc_id, lineno, "entity line needs "
                                    f"'Ti<TAB>Type start end<TAB>surface', got {line!r}")
            etype, start, end = parts[0], int(parts[1]), int(parts[2])
            surface = fields[2]
            if etype not in ENTITY_TYPES:
                raise StandoffError(doc.doc_id, lineno, f"unknown entity type {etype!r}")
            actual = doc.normalized_text[start:end]
            if actual != surface:
                raise StandoffError(doc.doc_id, lineno, f"surface mismatch: annotation "
                                    f"{surface!r} vs text {actual!r}")
            tok_start, tok_end = _token_range(doc, start, end, lineno)
            if tag in entities:
                raise StandoffError(doc.doc_id, lineno, f"duplicate entity id {tag}")
            entities[tag] = EntitySpan(tag, etype, start, end, tok_start, tok_end)
        elif tag.startswith("R"):
            if len(parts) != 3 or not all(":" in p for p in parts[1:]):
                raise StandoffError(doc.doc_id, lineno,
                                    "relation line needs 'Type Arg1:Ti Arg2:Tj'")
            rtype = parts[0]
            if rtype not in ("Indication", "AdverseEvent"):
                raise StandoffError(doc.doc_id, lineno, f"unknown relation type {rtype!r}")
            arg1 = parts[1].split(":", 1)[1]
            arg2 = parts[2].split(":", 1)[1]
            relations.append((lineno, rtype, arg1, arg2))
        elif tag.startswith("A"):
            if len(parts) != 2 or parts[0] != "Deficiency":
                raise StandoffError(doc.doc_id, lineno, "attribute line needs 'Deficiency Ti'")
            deficient.append((lineno, parts[1]))
        else:
            raise StandoffError(doc.doc_id, lineno, f"unknown line tag {tag!r}")

    for lineno, target in deficient:
        if target not in entities:
            raise StandoffError(doc.doc_id, lineno, f"dangling entity reference {target}")
        entities[target] = replace(entities[target], deficiency=True)

    resolved = []
    for lineno, rtype, arg1, arg2 in relations:
        if arg1 not in entities or arg2 not in entities:
            raise StandoffError(doc.doc_id, lineno, f"dangling entity reference in relation")
        try:
            resolved.append(RelationInstance(doc.doc_id, entities[arg1], entities[arg2], rtype))
        except ValueError as exc:
            raise StandoffError(doc.doc_id, lineno, str(exc)) from exc
    try:
        return AnnotatedDoc(doc, tuple(entities.values()), tuple(resolved))
    except ValueError as exc:
        raise StandoffError(doc.doc_id, 0, str(exc)) from exc


def to_bio(doc: NormalizedDoc, entities) -> list[str]:
    """One BIO label per token; cross-type overlaps resolved by priority
    Supplement > Symptom > BodyOrgan (a warning is logged)."""
    _check_same_type_overlaps(entities)
    n = len(doc.tokens)
    labels = ["O"] * n
    owner = [None] * n
    for e in sorted(entities, key=lambda e: (_TYPE_PRIORITY[e.etype], e.token_start)):
        span = range(e.token_start, e.token_end)
        if any(owner[t] is not None for t in span):
            logger.warning("doc %s: %s span %s overlaps a higher-priority entity, dropped",
                           doc.doc_id, e.etype, e.id)
            continue
        suffix = _TYPE_TO_BIO[e.etype]
        for t in span:
            owner[t] = e
            labels[t] = ("B-" if t == e.token_start else "I-") + suffix
    return labels


def bio_spans(labels) -> list[tuple[int, int, str]]:
    """Decode a BIO label sequence into (start, end, suffix) token spans,
    end exclusive. B-X or a change of suffix opens a span, O closes one, and
    a bare I-X opens one as if it were B-X."""
    spans: list[tuple[int, int, str]] = []
    start, cur = None, None
    for i, label in enumerate(labels):
        marker, suffix = ("O", None) if label == "O" else label.split("-", 1)
        if marker == "B" or suffix != cur:
            if start is not None:
                spans.append((start, i, cur))
            start, cur = (None, None) if suffix is None else (i, suffix)
    if start is not None:
        spans.append((start, len(labels), cur))
    return spans


def from_bio(doc: NormalizedDoc, labels) -> list[EntitySpan]:
    """Entity spans of one document's BIO labels; a bare I-X is repaired to B-X."""
    if len(labels) != len(doc.tokens):
        raise ValueError("label/token length mismatch")
    return [EntitySpan(id=f"T{k}", etype=_BIO_TO_TYPE[suffix],
                       char_start=doc.tokens[start].start, char_end=doc.tokens[end - 1].end,
                       token_start=start, token_end=end)
            for k, (start, end, suffix) in enumerate(bio_spans(labels), 1)]


def candidate_pairs(entities) -> list[tuple[EntitySpan, EntitySpan]]:
    """The (Supplement, event) pairs a relation may hold between: each
    supplement in the order of entities, with each event in that order."""
    return [(head, tail) for head in entities if head.etype == "Supplement"
            for tail in entities if tail.etype in EVENT_TYPES]


def generate_relation_instances(annotated: AnnotatedDoc) -> list[RelationInstance]:
    """The instance of every candidate pair; gold label when present,
    NoRelation otherwise."""
    gold = {(r.head.id, r.tail.id): r.label for r in annotated.relations}
    return [RelationInstance(annotated.doc.doc_id, head, tail,
                             gold.get((head.id, tail.id), "NoRelation"))
            for head, tail in candidate_pairs(annotated.entities)]


def split_dataset(docs, seed: int):
    """Seeded shuffle then a 70/10/20 contiguous cut."""
    docs = list(docs)
    n = len(docs)
    if n < 3:
        raise ValueError("need at least 3 documents to split")
    shuffled = Rng(seed, stream=7).shuffle(docs)
    n_train = int(0.7 * n)
    n_dev = int(0.1 * n)
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_dev],
            shuffled[n_train + n_dev:])

