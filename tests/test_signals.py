import dataclasses
import re

import pytest

from dsae.annotation import RelationInstance
from dsae.corpus import Lexicon
from dsae.pipeline import PipelineOutput
from dsae.signals import (_COLUMNS, KnowledgeBase, SignalRecord, aggregate, compare_kb,
                          emit_report, parse_report, top_k)

from util import make_doc, span


DS_LEXICON = Lexicon({
    "vitamin c": ("Vitamin C", "supplement"),
    "vit c": ("Vitamin C", "supplement"),
    "niacin": ("Niacin", "supplement"),
    "melatonin": ("Melatonin", "supplement"),
    "fish oil": ("Fish Oil", "supplement"),
    "biotin": ("Biotin", "supplement"),
})


def output_for(doc_id, supp_words, event_words, relation, filler="today"):
    words = list(supp_words) + ["gave", "me", filler] + list(event_words)
    doc = make_doc(doc_id, words)
    supp = span(doc, "T1", "Supplement", 0, len(supp_words))
    evt_start = len(supp_words) + 3
    evt = span(doc, "T2", "Symptom", evt_start, evt_start + len(event_words))
    rel = RelationInstance(doc_id, supp, evt, relation)
    return doc, PipelineOutput(doc_id, [supp, evt], [rel])


@pytest.fixture(scope="module")
def thirty_tweets():
    # 30 documents; one (d0) asserts the same pair through two mentions, so
    # distinct-document frequency for vitamin c / nausea stays at 8
    plan = (
        [("vitamin c", "nausea", "AdverseEvent")] * 8
        + [("vit c", "kidney stones", "AdverseEvent")] * 5
        + [("niacin", "flush", "AdverseEvent")] * 4
        + [("melatonin", "dreams", "AdverseEvent")] * 6
        + [("fish oil", "sleep", "Indication")] * 4
        + [("biotin", "acne", "Indication")] * 3,
    )[0]
    docs = {}
    outputs = []
    for i, (supp, event, relation) in enumerate(plan):
        doc, out = output_for(f"d{i:02d}", supp.split(), event.split(), relation)
        docs[doc.doc_id] = doc
        outputs.append(out)
    # second mention of the same pair inside d00
    doc0 = docs["d00"]
    extra = RelationInstance("d00", outputs[0].entities[0],
                             outputs[0].entities[1], "AdverseEvent")
    outputs[0] = PipelineOutput("d00", outputs[0].entities,
                                outputs[0].relations + [extra])
    return docs, outputs


def test_aggregate_exact_frequencies(thirty_tweets):
    docs, outputs = thirty_tweets
    records = aggregate(outputs, docs, DS_LEXICON)
    freq = {(r.supplement_canonical, r.event_term, r.relation): r.frequency
            for r in records}
    assert freq == {
        ("Vitamin C", "nausea", "AdverseEvent"): 8,
        ("Vitamin C", "kidney stones", "AdverseEvent"): 5,
        ("Niacin", "flush", "AdverseEvent"): 4,
        ("Melatonin", "dreams", "AdverseEvent"): 6,
        ("Fish Oil", "sleep", "Indication"): 4,
        ("Biotin", "acne", "Indication"): 3,
    }
    assert all(r.in_kb is None for r in records)


def test_aggregate_examples_are_the_first_documents_texts(thirty_tweets):
    docs, outputs = thirty_tweets
    records = aggregate(outputs, docs, DS_LEXICON, max_examples=2)
    nausea = next(r for r in records if r.event_term == "nausea")
    assert nausea.examples == " | ".join(docs[i].original_text for i in ("d00", "d01"))


def test_aggregate_unmatched_supplement_keeps_surface():
    doc, out = output_for("dx", ["ginkgo"], ["dizzy"], "AdverseEvent")
    records = aggregate([out], {"dx": doc}, DS_LEXICON)
    assert len(records) == 1
    assert records[0].supplement_canonical == "ginkgo"


def test_aggregate_deficiency_is_a_distinct_key():
    doc, out = output_for("dy", ["vitamin", "c"], ["tired"], "Indication")
    supp_def = span(doc, "T3", "Supplement", 0, 2, deficiency=True)
    rel = RelationInstance("dy", supp_def, out.entities[1], "Indication")
    merged = PipelineOutput("dy", out.entities + [supp_def],
                            out.relations + [rel])
    records = aggregate([merged], {"dy": doc}, DS_LEXICON)
    assert sorted(r.deficiency for r in records) == [False, True]
    assert {r.supplement_canonical for r in records} == {"Vitamin C"}


def test_top_k_ordering(thirty_tweets):
    docs, outputs = thirty_tweets
    records = aggregate(outputs, docs, DS_LEXICON)
    ranked = top_k(records, k=3)
    assert [(r.supplement_canonical, r.event_term) for r in ranked] == [
        ("Vitamin C", "nausea"), ("Melatonin", "dreams"),
        ("Vitamin C", "kidney stones")]


def test_top_k_tie_is_lexicographic():
    a = SignalRecord("b-supp", False, "a-event", "Indication", 2)
    b = SignalRecord("a-supp", False, "z-event", "Indication", 2)
    c = SignalRecord("a-supp", False, "a-event", "Indication", 2)
    assert top_k([a, b, c]) == [c, b, a]


# ---------------------------------------------------------- knowledge base

# (supplement, event, known-to-the-KB) reference triples
KB_CASES = [
    ("Vitamin C", "sick", True),
    ("Vitamin C", "kidney stones", True),
    ("Vitamin C", "nausea", True),
    ("Vitamin C", "diarrhea", True),
    ("Niacin", "flush", True),
    ("Vitamin D", "falls", True),
    ("Fish oil", "burping", True),
    ("Vitamin B", "lung cancer", False),
    ("Fish oil", "prostate cancer", False),
    ("Melatonin", "dreams", False),
    ("Melatonin", "tired", False),
    ("Folic acid", "autism", False),
    ("Vitamin E", "prostate cancer", False),
    ("Vitamin A", "liver", False),
    ("Biotin", "acne", False),
]


@pytest.fixture(scope="module")
def kb(tmp_path_factory):
    path = tmp_path_factory.mktemp("kb") / "kb.csv"
    lines = ["supplement,event,relation"]
    for supp, event, known in KB_CASES:
        if known:
            lines.append(f"{supp},{event},AdverseEvent")
    path.write_text("\n".join(lines) + "\n")
    return KnowledgeBase.load(path)


def test_kb_membership_is_case_folded(kb):
    assert ("vitamin c", "NAUSEA") in kb
    assert ("vitamin c", "autism") not in kb


def test_kb_load_rejects_bad_header(tmp_path):
    path = tmp_path / "kb.csv"
    path.write_text("supp,evt\na,b\n")
    with pytest.raises(ValueError, match="header"):
        KnowledgeBase.load(path)


@pytest.mark.parametrize("row", ["fish oil,nausea", "fish oil,nausea,AdverseEvent,extra"])
def test_kb_load_names_file_and_line_of_a_short_or_long_row(tmp_path, row):
    path = tmp_path / "kb.csv"
    path.write_text(f"supplement,event,relation\nbiotin,acne,AdverseEvent\n{row}\n")
    with pytest.raises(ValueError, match="kb.csv:3: KB row needs 3 fields"):
        KnowledgeBase.load(path)


def test_compare_kb_reproduces_all_reference_pairs(kb):
    records = [SignalRecord(supp, False, event, "AdverseEvent", 1)
               for supp, event, _ in KB_CASES]
    flagged = compare_kb(records, kb)
    got = [(r.supplement_canonical, r.event_term, r.in_kb) for r in flagged]
    assert got == KB_CASES


# ----------------------------------------------------------------- reports

def with_texts(docs, text_of):
    """``docs`` with each original text replaced by ``text_of(doc_id)``."""
    return {doc_id: dataclasses.replace(doc, original_text=text_of(doc_id))
            for doc_id, doc in docs.items()}


def test_emit_and_parse_report_roundtrip(tmp_path, thirty_tweets, kb):
    """Tabs, line breaks, pipes and non-ASCII in the original texts: the
    emitted TSV reads back as the records, before and after ``compare_kb``."""
    docs, outputs = thirty_tweets
    docs = with_texts(docs, lambda i: f"{i}\tvit c | café\r\nnaïve \u2764\ufe0f\n")
    records = top_k(aggregate(outputs, docs, DS_LEXICON))
    for rows in (records, compare_kb(records, kb)):
        path = tmp_path / "report.tsv"
        emit_report(rows, path)
        assert parse_report(path) == rows
    assert records[0].examples.startswith("d00 vit c | café  naïve \u2764\ufe0f  | d01 ")


def test_emit_markdown(tmp_path, thirty_tweets):
    docs, outputs = thirty_tweets
    records = top_k(aggregate(outputs, docs, DS_LEXICON))
    path = tmp_path / "report.md"
    emit_report(records, path, format="markdown")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("| supplement |")
    assert lines[1].startswith("|---")
    assert len(lines) == 2 + len(records)
    with pytest.raises(ValueError, match="format"):
        emit_report(records, tmp_path / "x", format="html")


def test_report_includes_examples(tmp_path, thirty_tweets):
    docs, outputs = thirty_tweets
    records = top_k(aggregate(outputs, docs, DS_LEXICON), k=1)
    path = tmp_path / "report.tsv"
    emit_report(records, path)
    body = path.read_text().splitlines()[1]
    assert body.endswith("\tvitamin c gave me today nausea | vitamin c gave me today nausea"
                         " | vitamin c gave me today nausea")


def test_report_cells_stay_on_one_line(tmp_path, thirty_tweets):
    docs, outputs = thirty_tweets
    docs = with_texts(docs, lambda i: "vitamin c\tgave me\nnausea\r\n")
    records = top_k(aggregate(outputs, docs, DS_LEXICON), k=2)
    for format in ("tsv", "markdown"):
        path = tmp_path / f"report.{format}"
        emit_report(records, path, format=format)
        lines = path.read_text().splitlines()
        assert len(lines) == (1 if format == "tsv" else 2) + len(records)
        assert "vitamin c gave me nausea" in lines[-1]
    assert [r.frequency for r in parse_report(tmp_path / "report.tsv")] == \
        [r.frequency for r in records]


def test_parse_report_bad_header(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("a\tb\n")
    with pytest.raises(ValueError, match="header"):
        parse_report(path)


GOOD_ROW = ("vitamin c", "false", "nausea", "AdverseEvent", "3", "true", "")


@pytest.mark.parametrize("field, value, names", [
    ("frequency", "three", "frequency must be a positive integer, got 'three'"),
    ("frequency", "-2", "frequency must be a positive integer, got '-2'"),
    ("frequency", "0", "frequency must be a positive integer, got '0'"),
    ("deficiency", "yes", "deficiency must be true or false, got 'yes'"),
    ("in_kb", "maybe", "in_kb must be true, false or empty, got 'maybe'"),
    ("relation", "Whatever", "relation must be Indication or AdverseEvent, got 'Whatever'"),
    ("relation", "NoRelation", "relation must be Indication or AdverseEvent"),
])
def test_parse_report_bad_field_names_line_and_field(tmp_path, field, value, names):
    row = dict(zip(_COLUMNS, GOOD_ROW), **{field: value})
    path = tmp_path / "r.tsv"
    path.write_text("\t".join(_COLUMNS) + "\n" + "\t".join(GOOD_ROW) + "\n"
                    + "\t".join(row.values()) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: {names}")):
        parse_report(path)


@pytest.mark.parametrize("cells", [GOOD_ROW[:5], GOOD_ROW + ("extra",), ("",)])
def test_parse_report_row_of_wrong_width_names_line(tmp_path, cells):
    path = tmp_path / "r.tsv"
    path.write_text("\t".join(_COLUMNS) + "\n" + "\t".join(cells) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}:2: expected 7 tab-separated fields, got {len(cells)}") + "$"):
        parse_report(path)


def test_parse_report_reads_every_field(tmp_path):
    path = tmp_path / "r.tsv"
    rows = [GOOD_ROW, ("zinc", "true", "skin", "Indication", "12", "", "a | b")]
    path.write_text("\t".join(_COLUMNS) + "\n"
                    + "".join("\t".join(row) + "\n" for row in rows))
    assert parse_report(path) == [
        SignalRecord("vitamin c", False, "nausea", "AdverseEvent", 3, "", True),
        SignalRecord("zinc", True, "skin", "Indication", 12, "a | b")]
