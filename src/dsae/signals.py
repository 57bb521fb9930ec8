"""Corpus-level signal aggregation: canonicalized (supplement, event)
pairs with per-document frequencies and example texts, knowledge-base
comparison, and report emission. A ``SignalRecord`` is one report row,
so ``parse_report`` of an emitted TSV gives back the records written.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

from .annotation import RELATION_LABELS
from .corpus import Lexicon
from .normalize import NormalizedDoc
from .pipeline import PipelineOutput
from .serialization import atomic_write_text

# example tweets may hold tabs and line breaks; in a report cell they become spaces
_ONE_LINE = str.maketrans("\t\r\n", "   ")


@dataclass(frozen=True)
class SignalRecord:
    """One row of a signal report, field for field: ``examples`` holds the
    original texts of up to three supporting documents, joined by `` | ``
    on one line, and ``in_kb`` is None until ``compare_kb`` fills it."""
    supplement_canonical: str
    deficiency: bool
    event_term: str
    relation: str
    frequency: int
    examples: str = ""
    in_kb: bool | None = None


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
    relation); frequency counts distinct supporting documents, and the
    examples are the original texts of the first ``max_examples`` of them
    by doc id. A supplement outside ``ds_lexicon`` keeps its surface as
    its canonical name."""
    support: dict[tuple, set[str]] = {}
    for out in outputs:
        doc = docs[out.doc_id]
        for rel in out.relations:
            surface = rel.head.surface(doc).lower()
            canonical = ds_lexicon.canonical(surface) if surface in ds_lexicon else surface
            key = (canonical, rel.head.deficiency, rel.tail.surface(doc).lower(), rel.label)
            support.setdefault(key, set()).add(out.doc_id)
    records = []
    for (canonical, deficiency, event, relation), doc_ids in support.items():
        examples = " | ".join(docs[i].original_text for i in sorted(doc_ids)[:max_examples])
        records.append(SignalRecord(canonical, deficiency, event, relation, len(doc_ids),
                                    examples.translate(_ONE_LINE)))
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


_COLUMNS = ("supplement", "deficiency", "event", "relation", "frequency", "in_kb", "examples")


def emit_report(records: list[SignalRecord], path, format: str = "tsv") -> None:
    """Write ``records`` as a TSV or Markdown table, one row per record and
    one cell per field, a TSV cell's tabs made spaces and a Markdown cell's
    pipes escaped."""
    if format not in ("tsv", "markdown"):
        raise ValueError(f"unknown report format {format!r}")
    rows = [(r.supplement_canonical, str(r.deficiency).lower(), r.event_term, r.relation,
             str(r.frequency), "" if r.in_kb is None else str(r.in_kb).lower(), r.examples)
            for r in records]
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
                examples=row["examples"],
                in_kb=_BOOLEANS.get(row["in_kb"]),
            ))
    return records
