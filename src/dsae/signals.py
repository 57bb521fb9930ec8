"""Corpus-level signal aggregation: canonicalized (supplement, event)
pairs with per-document frequencies, knowledge-base comparison, and
report emission.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

from .annotation import RELATION_LABELS
from .corpus import Lexicon
from .normalize import NormalizedDoc
from .pipeline import PipelineOutput
from .serialization import atomic_write_text


@dataclass(frozen=True)
class SignalRecord:
    supplement_canonical: str
    deficiency: bool
    event_term: str
    relation: str
    frequency: int
    example_doc_ids: tuple[str, ...]
    in_kb: bool | None = None
    canonical_unmatched: bool = False
    examples: str = ""  # a report's examples cell, as ``parse_report`` read it


class KnowledgeBase:
    """Case-folded (supplement, event) pairs. A KB file also names each
    pair's relation category, which the comparison does not read."""

    def __init__(self, pairs: set[tuple[str, str]]):
        self._pairs = {(s.lower(), e.lower()) for s, e in pairs}

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return (pair[0].lower(), pair[1].lower()) in self._pairs

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        pairs: set[tuple[str, str]] = set()
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"supplement", "event", "relation"}
            if not required <= set(reader.fieldnames or []):
                raise ValueError(f"{path}: KB file needs header columns {sorted(required)}")
            for row in reader:
                if None in row or None in row.values():
                    raise ValueError(f"{path}:{reader.line_num}: KB row needs "
                                     f"{len(reader.fieldnames)} fields, got {row!r}")
                pairs.add((row["supplement"].strip(), row["event"].strip()))
        return cls(pairs)


def aggregate(outputs: list[PipelineOutput], docs: dict[str, NormalizedDoc],
              ds_lexicon: Lexicon, max_examples: int = 3) -> list[SignalRecord]:
    """One record per distinct (canonical supplement, deficiency, event,
    relation); frequency counts distinct supporting documents."""
    support: dict[tuple, set[str]] = {}
    unmatched: dict[tuple, bool] = {}
    for out in outputs:
        doc = docs[out.doc_id]
        for rel in out.relations:
            surface = rel.head.surface(doc).lower()
            if surface in ds_lexicon:
                canonical = ds_lexicon.canonical(surface)
                miss = False
            else:
                canonical = surface
                miss = True
            key = (canonical, rel.head.deficiency, rel.tail.surface(doc).lower(), rel.label)
            support.setdefault(key, set()).add(out.doc_id)
            unmatched[key] = unmatched.get(key, False) or miss
    records = []
    for key, doc_ids in support.items():
        canonical, deficiency, event, relation = key
        records.append(SignalRecord(
            supplement_canonical=canonical,
            deficiency=deficiency,
            event_term=event,
            relation=relation,
            frequency=len(doc_ids),
            example_doc_ids=tuple(sorted(doc_ids)[:max_examples]),
            canonical_unmatched=unmatched[key],
        ))
    return records


def top_k(records: list[SignalRecord], k: int = 200) -> list[SignalRecord]:
    """Descending frequency; ties by (supplement, event) lexicographic order."""
    return sorted(records, key=lambda r: (-r.frequency, r.supplement_canonical,
                                          r.event_term))[:k]


def compare_kb(records: list[SignalRecord], kb: KnowledgeBase) -> list[SignalRecord]:
    """Membership on the (canonical, event) pair; the deficiency flag is
    carried alongside, not folded into the lookup."""
    return [replace(r, in_kb=(r.supplement_canonical, r.event_term) in kb)
            for r in records]


def sample_examples(record: SignalRecord, corpus_index: dict[str, str]) -> list[str]:
    """Texts of the record's example documents, in its order."""
    for doc_id in record.example_doc_ids:
        if doc_id not in corpus_index:
            raise KeyError(f"signal example references unknown doc {doc_id!r}")
    return [corpus_index[doc_id] for doc_id in record.example_doc_ids]


_COLUMNS = ("supplement", "deficiency", "event", "relation", "frequency", "in_kb", "examples")
# example tweets may hold tabs and line breaks; in a report cell they become spaces
_ONE_LINE = str.maketrans("\t\r\n", "   ")


def emit_report(records: list[SignalRecord], path, format: str = "tsv",
                corpus_index: dict[str, str] | None = None) -> None:
    """Write ``records`` as a TSV or Markdown table. The examples cell holds
    the texts of a record's example documents, looked up in
    ``corpus_index``, or without one the cell its report was read from."""
    if format not in ("tsv", "markdown"):
        raise ValueError(f"unknown report format {format!r}")
    rows = []
    for r in records:
        examples = r.examples
        if corpus_index is not None:
            examples = " | ".join(sample_examples(r, corpus_index)).translate(_ONE_LINE)
        rows.append((r.supplement_canonical, str(r.deficiency).lower(), r.event_term,
                     r.relation, str(r.frequency),
                     "" if r.in_kb is None else str(r.in_kb).lower(), examples))
    if format == "tsv":
        lines = ["\t".join(_COLUMNS)]
        lines += ["\t".join(cell.replace("\t", " ") for cell in row) for row in rows]
    else:
        lines = ["| " + " | ".join(_COLUMNS) + " |", "|" + "---|" * len(_COLUMNS)]
        lines += ["| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |"
                  for row in rows]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


_BOOLEANS = {"true": True, "false": False}
# (test, what it requires) of each checked report field
_REPORT_FIELDS = {
    "deficiency": (lambda v: v in _BOOLEANS, "true or false"),
    "relation": (lambda v: v in RELATION_LABELS[1:], "Indication or AdverseEvent"),
    "frequency": (lambda v: v.isdecimal() and int(v) > 0, "a positive integer"),
    "in_kb": (lambda v: v == "" or v in _BOOLEANS, "true, false or empty"),
}


def parse_report(path) -> list[SignalRecord]:
    """Read back a TSV report (round-trip check and downstream reuse), with
    each examples cell kept verbatim. A bad row raises ValueError naming
    the file, the line and the field."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != _COLUMNS:
            raise ValueError(f"{path}: unexpected report header")
        for lineno, line in enumerate(fh, 2):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != len(_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(_COLUMNS)} tab-separated "
                                 f"fields, got {len(fields)}")
            row = dict(zip(_COLUMNS, fields))
            for name, (valid, what) in _REPORT_FIELDS.items():
                if not valid(row[name]):
                    raise ValueError(f"{path}:{lineno}: {name} must be {what}, "
                                     f"got {row[name]!r}")
            records.append(SignalRecord(
                supplement_canonical=row["supplement"],
                deficiency=_BOOLEANS[row["deficiency"]],
                event_term=row["event"],
                relation=row["relation"],
                frequency=int(row["frequency"]),
                example_doc_ids=(),
                in_kb=_BOOLEANS.get(row["in_kb"]),
                examples=row["examples"],
            ))
    return records
