"""Template-based synthetic corpus generators.

The private annotated tweet corpus cannot be shipped, so training and
end-to-end checks run on generated documents: supplement, symptom, and
body-organ mentions planted in filler text, with cue phrases determining
the relation label (Indication, AdverseEvent, or none).
"""

from __future__ import annotations

import numpy as np

from .annotation import AnnotatedDoc, EntitySpan, RelationInstance
from .corpus import Lexicon
from .embeddings import EmbeddingTable
from .normalize import NormalizedDoc, Token
from .numeric.rng import Rng

SUPPLEMENTS = [
    "vitamin c", "vitamin d", "vitamin b12", "fish oil", "grape seed extract",
    "folic acid", "green tea extract", "biotin", "melatonin", "niacin",
    "iron", "zinc", "magnesium", "ginkgo biloba", "st johns wort",
]
SYMPTOMS = [
    "headache", "nausea", "sore throat", "stomach cramps", "dizziness",
    "insomnia", "rash", "fatigue", "diarrhea", "anxiety", "joint pain",
    "acne", "burping", "weird dreams",
]
ORGANS = ["liver", "kidney", "stomach", "skin", "heart", "lungs"]

FILLER = [
    "i", "took", "some", "today", "and", "then", "my", "felt", "really",
    "after", "the", "morning", "because", "it", "was", "bad", "again",
    "still", "a", "bit", "taking", "daily", "lol", "so", "much",
]

INDICATION_CUES = [("helps", "with"), ("treats",), ("cured", "my"), ("for", "my")]
AE_CUES = [("gave", "me"), ("caused",), ("made", "me", "get"), ("triggered",)]


def _make_doc(doc_id: str, words: list[str]) -> NormalizedDoc:
    tokens = []
    cursor = 0
    for w in words:
        if tokens:
            cursor += 1
        tokens.append(Token(w, cursor, cursor + len(w)))
        cursor += len(w)
    return NormalizedDoc(
        doc_id=doc_id,
        original_text=" ".join(words),
        normalized_text=" ".join(words),
        tokens=tuple(tokens),
    )


def _fill(rng: Rng, n: int) -> list[str]:
    return [FILLER[rng.randint(len(FILLER))] for _ in range(n)]


def _entity(words: list[str], entity_words: list[str], etype: str,
            eid: str) -> tuple[list[str], tuple[int, int, str, str]]:
    start = len(words)
    words = words + entity_words
    return words, (start, len(words), etype, eid)


_SYLLABLES = ["ka", "mo", "ri", "zu", "ten", "lor", "vex", "ni", "sha", "bel",
              "dra", "fu", "gos", "hil", "quo", "pla"]


def _rare_word(rng: Rng) -> str:
    return "".join(_SYLLABLES[rng.randint(len(_SYLLABLES))]
                   for _ in range(rng.randint(2) + 2))


def _pick_supplement(rng: Rng) -> list[str]:
    # one-off surfaces force generalization from context, not word identity
    if rng.uniform() < 0.12:
        return [_rare_word(rng) for _ in range(rng.randint(2) + 1)]
    return SUPPLEMENTS[rng.randint(len(SUPPLEMENTS))].split()


def _pick_event(rng: Rng, pool: list[str]) -> list[str]:
    if rng.uniform() < 0.10:
        return [_rare_word(rng) for _ in range(rng.randint(2) + 1)]
    return pool[rng.randint(len(pool))].split()


def generate_corpus(n_docs: int, seed: int) -> list[AnnotatedDoc]:
    """Documents with planted entities; cue phrases produce gold relations
    at roughly 3.3 Indication per AdverseEvent, mirroring the observed
    corpus imbalance."""
    rng = Rng(seed, stream=53)
    docs = []
    for i in range(n_docs):
        doc_id = f"synth-{i:05d}"
        u = rng.uniform()
        supp = _pick_supplement(rng)
        if u < 0.62:
            if rng.uniform() < 0.8:
                event_pool, etype = SYMPTOMS, "Symptom"
            else:
                event_pool, etype = ORGANS, "BodyOrgan"
            event = _pick_event(rng, event_pool)
            if u < 0.38:
                cue, label = INDICATION_CUES[rng.randint(len(INDICATION_CUES))], "Indication"
            elif u < 0.495:
                cue, label = AE_CUES[rng.randint(len(AE_CUES))], "AdverseEvent"
            else:
                cue, label = ("and", "later"), None  # co-occurrence, no relation
            words = _fill(rng, rng.randint(3) + 1)
            words, head = _entity(words, supp, "Supplement", "T1")
            words = words + list(cue)
            words, tail = _entity(words, event, etype, "T2")
            words = words + _fill(rng, rng.randint(3))
            spans = [head, tail]
        else:
            # entity-only documents (one or two mentions, no events paired)
            words = _fill(rng, rng.randint(3) + 1)
            if rng.uniform() < 0.5:
                words, span = _entity(words, supp, "Supplement", "T1")
            else:
                pool, etype = (SYMPTOMS, "Symptom") if rng.uniform() < 0.7 else (ORGANS, "BodyOrgan")
                words, span = _entity(words, _pick_event(rng, pool), etype, "T1")
            words = words + _fill(rng, rng.randint(4) + 1)
            spans = [span]
            label = None

        doc = _make_doc(doc_id, words)
        entities = []
        for start, end, etype, eid in spans:
            entities.append(EntitySpan(
                id=eid, etype=etype,
                char_start=doc.tokens[start].start,
                char_end=doc.tokens[end - 1].end,
                token_start=start, token_end=end,
            ))
        relations = []
        if label is not None:
            relations.append(RelationInstance(doc_id, entities[0], entities[1], label))
        docs.append(AnnotatedDoc(doc, tuple(entities), tuple(relations)))
    return docs


def vocabulary() -> list[str]:
    words = set(FILLER)
    for term in SUPPLEMENTS + SYMPTOMS + ORGANS:
        words.update(term.split())
    for cue in INDICATION_CUES + AE_CUES:
        words.update(cue)
    words.update(["later"])
    return sorted(words)


def synthetic_embeddings(dim: int = 50, seed: int = 0) -> EmbeddingTable:
    """Random unit-norm vector per vocabulary word."""
    words = vocabulary()
    rng = Rng(seed, stream=59)
    matrix = rng.normal((len(words), dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    return EmbeddingTable(dim, {w: i for i, w in enumerate(words)}, matrix)


def synthetic_lexicons() -> tuple[Lexicon, Lexicon]:
    ds = Lexicon({term: (term, "Supplement") for term in SUPPLEMENTS})
    events = {term: (term, "Symptom") for term in SYMPTOMS}
    events.update({term: (term, "BodyOrgan") for term in ORGANS})
    return ds, Lexicon(events)
