"""Correctness checks the benchmark computes on its own.

Nothing here imports ``dsae``: every score and expected set is derived from
the planted annotations and the benchmark's own rendering, so a change to
the program cannot change the yardstick it is measured with.
"""

from __future__ import annotations

import re

# BIO suffix -> entity type, as the generator names the planted spans.
BIO_TYPES = {"SUPP": "Supplement", "SYMP": "Symptom", "ORG": "BodyOrgan"}


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def bio_spans(labels) -> set[tuple[int, int, str]]:
    """Exact (start, end, type) spans of a BIO sequence. An I- tag that does
    not continue a span of its own type opens a new one (conlleval)."""
    spans = set()
    start = kind = None
    for i, label in enumerate(list(labels) + ["O"]):
        marker, _, suffix = label.partition("-")
        if start is not None and (marker != "I" or suffix != kind):
            spans.add((start, i, BIO_TYPES[kind]))
            start = kind = None
        if marker in ("B", "I") and start is None:
            start, kind = i, suffix
    return spans


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def span_f1(gold: list[set], predicted: list[set]) -> float:
    """Micro exact-span F1 over documents given as span sets."""
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted document counts differ")
    tp = fp = fn = 0
    for g, p in zip(gold, predicted):
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return f1_from_counts(tp, fp, fn)


def per_label_f1(gold: list[str], predicted: list[str], labels) -> dict[str, float]:
    """One-vs-rest F1 of each label over aligned single-label predictions."""
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted instance counts differ")
    out = {}
    for label in labels:
        tp = sum(1 for g, p in zip(gold, predicted) if g == p == label)
        fp = sum(1 for g, p in zip(gold, predicted) if p == label != g)
        fn = sum(1 for g, p in zip(gold, predicted) if g == label != p)
        out[label] = f1_from_counts(tp, fp, fn)
    return out


def lexicon_regex(terms) -> re.Pattern:
    """Whole-term matcher: a term must not touch a letter or digit on
    either side. Longer terms are tried first."""
    alternatives = "|".join(re.escape(t) for t in sorted(terms, key=len, reverse=True))
    return re.compile(rf"(?<![^\W_])(?:{alternatives})(?![^\W_])")


def is_candidate(text: str, lang: str, supplement_re: re.Pattern,
                 event_re: re.Pattern) -> bool:
    """English text naming at least one supplement and one event term."""
    low = text.lower()
    return lang == "en" and bool(supplement_re.search(low)) and bool(event_re.search(low))


def tuple_f1(gold: set, predicted: set) -> float:
    return f1_from_counts(len(gold & predicted), len(predicted - gold), len(gold - predicted))


def distinct_support(keyed_docs) -> dict:
    """Number of distinct documents per key, from (key, doc_id) pairs."""
    support: dict = {}
    for key, doc_id in keyed_docs:
        support.setdefault(key, set()).add(doc_id)
    return {key: len(ids) for key, ids in support.items()}
