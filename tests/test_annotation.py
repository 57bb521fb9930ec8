import pytest

from dsae.annotation import (AnnotatedDoc, BIO_LABELS, EntitySpan, RelationInstance,
                             StandoffError, from_bio, generate_relation_instances,
                             parse_standoff, split_dataset, to_bio)
from dsae.numeric.rng import Rng

from util import make_doc, span


@pytest.fixture
def doc():
    # "vitamin c gave me a sore throat today"
    return make_doc("d1", ["vitamin", "c", "gave", "me", "a", "sore", "throat", "today"])


# ------------------------------------------------------------------- entities

def test_entity_span_validation(doc):
    with pytest.raises(ValueError, match="entity type"):
        span(doc, "T1", "Drug", 0, 2)
    with pytest.raises(ValueError, match="token range"):
        EntitySpan("T1", "Supplement", 0, 9, 2, 2)
    with pytest.raises(ValueError, match="deficiency"):
        span(doc, "T1", "Symptom", 5, 7, deficiency=True)
    assert span(doc, "T1", "Supplement", 0, 2).surface(doc) == "vitamin c"


def test_relation_instance_validation(doc):
    supp = span(doc, "T1", "Supplement", 0, 2)
    symp = span(doc, "T2", "Symptom", 5, 7)
    with pytest.raises(ValueError, match="head"):
        RelationInstance("d1", symp, symp, "Indication")
    with pytest.raises(ValueError, match="tail"):
        RelationInstance("d1", supp, supp, "Indication")
    with pytest.raises(ValueError, match="label"):
        RelationInstance("d1", supp, symp, "Causes")


def test_annotated_doc_rejects_duplicates_and_overlaps(doc):
    supp = span(doc, "T1", "Supplement", 0, 2)
    with pytest.raises(ValueError, match="duplicate entity ids"):
        AnnotatedDoc(doc, (supp, span(doc, "T1", "Symptom", 5, 7)), ())
    with pytest.raises(ValueError, match="overlapping"):
        AnnotatedDoc(doc, (supp, span(doc, "T2", "Supplement", 1, 3)), ())


# ------------------------------------------------------------------- standoff

def test_parse_standoff_full(doc):
    ann = (
        "T1\tSupplement 0 9\tvitamin c\n"
        "T2\tSymptom 20 31\tsore throat\n"
        "R1\tAdverseEvent Arg1:T1 Arg2:T2\n"
        "A1\tDeficiency T1\n"
        "# a comment line\n"
    )
    parsed = parse_standoff(ann, doc)
    assert len(parsed.entities) == 2
    t1 = next(e for e in parsed.entities if e.id == "T1")
    assert t1.deficiency is True
    assert t1.token_start == 0 and t1.token_end == 2
    assert parsed.relations[0].label == "AdverseEvent"
    assert parsed.relations[0].head.id == "T1"


def test_parse_standoff_surface_mismatch(doc):
    with pytest.raises(StandoffError, match="surface mismatch") as err:
        parse_standoff("T1\tSupplement 0 9\tvitamin d\n", doc)
    assert err.value.lineno == 1


@pytest.mark.parametrize("ann, lineno, message", [
    ("T1\tSupplement 5\tvitamin c\n", 1, "entity line needs"),  # no end offset
    ("T1\tSupplement 0 x\tvitamin c\n", 1, "entity line needs"),  # non-integer offset
    ("T1\tSupplement 0 9\tvitamin c\nT2\tSymptom 20 31\tsore throat\n"
     "R1\tIndication T1 T2\n", 3, "relation line needs"),  # no Arg1:/Arg2: prefix
])
def test_parse_standoff_malformed_line_names_document_and_line(doc, ann, lineno, message):
    with pytest.raises(StandoffError, match=f"document 'd1', line {lineno}: {message}"):
        parse_standoff(ann, doc)


def test_parse_standoff_misaligned_span(doc):
    with pytest.raises(StandoffError, match="token-aligned"):
        parse_standoff("T1\tSupplement 0 4\tvita\n", doc)


def test_parse_standoff_dangling_reference(doc):
    with pytest.raises(StandoffError, match="dangling"):
        parse_standoff("T1\tSupplement 0 9\tvitamin c\n"
                       "R1\tIndication Arg1:T1 Arg2:T9\n", doc)
    with pytest.raises(StandoffError, match="dangling"):
        parse_standoff("A1\tDeficiency T5\n", doc)


def test_parse_standoff_unknown_tags(doc):
    with pytest.raises(StandoffError, match="unknown line tag"):
        parse_standoff("X1\twhatever\n", doc)
    with pytest.raises(StandoffError, match="unknown entity type"):
        parse_standoff("T1\tDrug 0 9\tvitamin c\n", doc)
    with pytest.raises(StandoffError, match="unknown relation type"):
        parse_standoff("T1\tSupplement 0 9\tvitamin c\n"
                       "T2\tSymptom 20 31\tsore throat\n"
                       "R1\tCauses Arg1:T1 Arg2:T2\n", doc)


# ------------------------------------------------------------------------ BIO

def test_to_bio_basic(doc):
    entities = [span(doc, "T1", "Supplement", 0, 2), span(doc, "T2", "Symptom", 5, 7)]
    assert to_bio(doc, entities) == [
        "B-SUPP", "I-SUPP", "O", "O", "O", "B-SYMP", "I-SYMP", "O"]


def test_to_bio_cross_type_overlap_priority(doc, caplog):
    # Symptom overlapping a Supplement is dropped with a warning
    entities = [span(doc, "T1", "Supplement", 0, 2), span(doc, "T2", "Symptom", 1, 3)]
    with caplog.at_level("WARNING"):
        labels = to_bio(doc, entities)
    assert labels[:3] == ["B-SUPP", "I-SUPP", "O"]
    assert any("overlaps" in r.message for r in caplog.records)


def test_from_bio_repairs_dangling_inside(doc):
    labels = ["O", "I-SUPP", "I-SUPP", "O", "O", "I-SYMP", "O", "O"]
    spans = from_bio(doc, labels)
    assert [(s.etype, s.token_start, s.token_end) for s in spans] == [
        ("Supplement", 1, 3), ("Symptom", 5, 6)]


def test_from_bio_adjacent_spans(doc):
    labels = ["B-SUPP", "B-SUPP", "I-SUPP", "B-SYMP", "I-SYMP", "O", "O", "O"]
    spans = from_bio(doc, labels)
    assert [(s.etype, s.token_start, s.token_end) for s in spans] == [
        ("Supplement", 0, 1), ("Supplement", 1, 3), ("Symptom", 3, 5)]


def test_from_bio_length_mismatch(doc):
    with pytest.raises(ValueError):
        from_bio(doc, ["O"])


def test_bio_roundtrip_random_layouts():
    rng = Rng(0, stream=6)
    types = ["Supplement", "Symptom", "BodyOrgan"]
    for trial in range(100):
        n = rng.randint(12) + 2
        doc = make_doc(f"d{trial}", [f"w{i}" for i in range(n)])
        entities = []
        i = 0
        tid = 1
        while i < n:
            if rng.uniform() < 0.4:
                length = min(n - i, rng.randint(3) + 1)
                etype = types[rng.randint(3)]
                entities.append(span(doc, f"T{tid}", etype, i, i + length))
                tid += 1
                i += length + 1  # gap prevents same-type adjacency merging
            else:
                i += 1
        labels = to_bio(doc, entities)
        assert all(lab in BIO_LABELS for lab in labels)
        recovered = from_bio(doc, labels)
        assert ([(s.etype, s.token_start, s.token_end) for s in recovered]
                == [(e.etype, e.token_start, e.token_end) for e in entities])


# -------------------------------------------------------- relations and split

def test_generate_relation_instances(doc):
    supp = span(doc, "T1", "Supplement", 0, 2)
    symp = span(doc, "T2", "Symptom", 5, 7)
    organ = span(doc, "T3", "BodyOrgan", 7, 8)
    gold = RelationInstance("d1", supp, symp, "AdverseEvent")
    annotated = AnnotatedDoc(doc, (supp, symp, organ), (gold,))
    instances = generate_relation_instances(annotated)
    labels = {(r.head.id, r.tail.id): r.label for r in instances}
    assert labels == {("T1", "T2"): "AdverseEvent", ("T1", "T3"): "NoRelation"}


def test_split_dataset_sizes_and_disjointness():
    docs = list(range(100))
    train, dev, test = split_dataset(docs, seed=1)
    assert (len(train), len(dev), len(test)) == (70, 10, 20)
    assert sorted(train + dev + test) == docs
    # deterministic in the seed
    again = split_dataset(docs, seed=1)
    assert (train, dev, test) == again
    assert split_dataset(docs, seed=2) != again


def test_split_dataset_floor_sizes():
    train, dev, test = split_dataset(list(range(7)), seed=0)
    assert (len(train), len(dev), len(test)) == (4, 0, 3)


def test_split_dataset_too_small():
    with pytest.raises(ValueError):
        split_dataset([1, 2], seed=0)
