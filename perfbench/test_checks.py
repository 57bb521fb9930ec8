"""Tests of the benchmark's own checkers and tracer, on hand-made inputs.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import time
from pathlib import Path

import pytest

from checks import (bio_spans, distinct_support, is_candidate, lexicon_regex, per_label_f1,
                    span_f1, tuple_f1)
from tracing import PER_LAYER, Tracer


def test_bio_spans_exact_boundaries_and_types():
    labels = ["O", "B-SUPP", "I-SUPP", "B-SYMP", "O", "B-ORG", "I-ORG", "I-ORG"]
    assert bio_spans(labels) == {(1, 3, "Supplement"), (3, 4, "Symptom"), (5, 8, "BodyOrgan")}


def test_bio_spans_stray_inside_opens_a_span():
    # I- after O, and I- of another type, each start a new span
    assert bio_spans(["O", "I-SYMP", "I-SUPP", "I-SUPP"]) == {
        (1, 2, "Symptom"), (2, 4, "Supplement")}
    assert bio_spans(["B-SUPP", "B-SUPP"]) == {(0, 1, "Supplement"), (1, 2, "Supplement")}
    assert bio_spans([]) == set()


def test_span_f1_micro_over_documents():
    gold = [{(0, 2, "Supplement"), (3, 4, "Symptom")}, {(1, 2, "BodyOrgan")}]
    pred = [{(0, 2, "Supplement"), (3, 5, "Symptom")}, {(1, 2, "BodyOrgan"), (4, 5, "Symptom")}]
    # tp 2, fp 2, fn 1
    assert span_f1(gold, pred) == pytest.approx(4 / 7)
    assert span_f1(gold, gold) == 1.0
    assert span_f1(gold, [set(), set()]) == 0.0
    with pytest.raises(ValueError):
        span_f1(gold, [set()])


def test_per_label_f1_one_vs_rest():
    gold = ["NoRelation", "Indication", "Indication", "AdverseEvent"]
    pred = ["NoRelation", "Indication", "AdverseEvent", "AdverseEvent"]
    f1 = per_label_f1(gold, pred, ("NoRelation", "Indication", "AdverseEvent"))
    assert f1 == pytest.approx({"NoRelation": 1.0, "Indication": 2 / 3, "AdverseEvent": 2 / 3})


def test_lexicon_regex_needs_word_boundaries():
    supplements = lexicon_regex(["vitamin d", "vitamin", "iron"])
    events = lexicon_regex(["rash"])
    assert is_candidate("Vitamin D gave me a RASH", "en", supplements, events)
    assert is_candidate("#iron then rash\U0001F629", "en", supplements, events)
    assert is_candidate("@jen_k iron_rash", "en", supplements, events)  # "_" is no letter
    assert not is_candidate("ironing gave me a rash", "en", supplements, events)
    assert not is_candidate("vitamin d and a rashes", "en", supplements, events)
    assert not is_candidate("#VitaminD rash", "en", supplements, events)
    assert not is_candidate("vitamin d rash", "es", supplements, events)
    # longest term first: the whole "vitamin d" is found, not "vitamin"
    assert supplements.search("took vitamin d today").group() == "vitamin d"


def test_tuple_f1_and_distinct_support():
    gold = {("t1", "zinc", "rash", "AdverseEvent"), ("t2", "iron", "fatigue", "Indication")}
    pred = {("t1", "zinc", "rash", "AdverseEvent"), ("t2", "iron", "fatigue", "AdverseEvent")}
    assert tuple_f1(gold, pred) == pytest.approx(0.5)
    assert tuple_f1(gold, set()) == 0.0
    support = distinct_support([(("zinc", "rash"), "t1"), (("zinc", "rash"), "t1"),
                                (("zinc", "rash"), "t2"), (("iron", "rash"), "t3")])
    assert support == {("zinc", "rash"): 2, ("iron", "rash"): 1}


def test_tracer_self_time_and_generators():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        inner()
        time.sleep(0.01)

    def lines():
        yield from ("a", "b", "c")

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.time["outer"] >= tracer.time["inner"] >= 0.02
    assert tracer.self_time["outer"] == pytest.approx(tracer.time["outer"] - tracer.time["inner"])
    assert list(tracer.wrap("load", lines)()) == ["a", "b", "c"]
    assert tracer.items["load"] == 3


def test_benchmark_json_lists_every_metric_the_run_prints():
    from run import END_TO_END, TRACE_METRICS
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layers = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    layers.update(TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == ["train-linear", "train-neural", "mine"]


def test_every_workload_reports_every_end_to_end_metric():
    import run
    run.import_program()
    import workloads
    rounds = [workloads.Round(times={"round": 2.0}, scores={"crf": 0.97, "svm": 0.80,
                                                            "lstm_crf": 0.95, "re": 0.99,
                                                            "signal": 0.98}),
              workloads.Round(times={"round": 1.0}, scores={"crf": 0.97, "svm": 0.80,
                                                            "lstm_crf": 0.95, "re": 0.99,
                                                            "signal": 0.98})]
    quality = {"train-linear": 0.97, "train-neural": 0.95, "mine": 0.98}
    for name, cls in workloads.WORKLOADS.items():
        values = cls.metrics(cls.__new__(cls), rounds)
        # run.py adds the two metrics every workload measures the same way
        assert set(values) | {"setup_s", "peak_rss_mb"} == set(run.END_TO_END), name
        assert values["round_s"] == 1.5
        assert values["quality_f1"] == quality[name]
