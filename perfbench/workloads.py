"""The three workloads. Each calls only public functions of ``dsae``
modules and checks the program's outputs with ``checks``.

A workload is built from the run's seed and a scratch directory.
``generate`` makes its inputs; ``prepare`` does the set-up work that runs
the program (training and saving the models ``mine`` reads); ``round``
runs one whole round of timed operations and returns what ``check`` needs.
``metrics`` gives every workload the same end-to-end metrics (``round_s``,
``quality_f1``), and ``details`` the per-model figures behind them, which
are printed for reading but are not in the result.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dsae.annotation import RELATION_LABELS, generate_relation_instances, split_dataset, to_bio
from dsae.corpus import LoadReport, filter_candidate, load_lexicon, load_tweets, merge_lexicons
from dsae.ner.crf import CrfConfig, crf_train
from dsae.ner.features import featurize
from dsae.ner.lstm_crf import LstmCrfConfig, lstm_crf_train
from dsae.ner.predict import decode_labels, doc_matrix
from dsae.ner.svm import svm_train
from dsae.normalize import UnigramTable, normalize
from dsae.pipeline import run_pipeline
from dsae.relation import CnnReConfig, cnn_forward, cnn_train, encode_instance
from dsae.serialization import load_model, save_model
from dsae.signals import KnowledgeBase, aggregate, compare_kb, emit_report
from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

import stream
from checks import (bio_spans, distinct_support, is_candidate, lexicon_regex,
                    per_label_f1, require, span_f1, tuple_f1)

# Acceptance floors of the models, and of the mined signals.
CRF_F1_FLOOR = 0.95
LSTM_CRF_F1_FLOOR = 0.90
RELATION_F1_FLOOR = 0.90
SIGNAL_F1_FLOOR = 0.90

# The training workloads use the acceptance suite's corpus sizes (1000 NER,
# 2500 relation documents) with far fewer optimizer steps than it does, so
# that a round takes seconds, not minutes; the acceptance floors still hold.
NER_DOCS = 1000
CRF_CONFIG = dict(c1=0.05, c2=0.05, max_iter=15)
SVM_CONFIG = dict(epochs=5, lr=0.1, l2=1e-4)
LSTM_CRF_CONFIG = dict(epochs=4, batch_size=4, lr=5e-3, weight_decay=1e-4)
RE_DOCS = 2500
CNN_CONFIG = dict(epochs=2, batch_size=32, lr=1e-3, weight_decay=1e-5)
# mine trains its models in every set-up, so they are smaller
MINE_NER_DOCS = 200
MINE_CRF_CONFIG = dict(CRF_CONFIG, max_iter=40)
MINE_RE_DOCS = 800
MINE_CNN_CONFIG = dict(CNN_CONFIG, epochs=4)
STREAM_DOCS = 3000


def _seeds(seed: int) -> tuple[int, int, int]:
    """Distinct generator seeds for the NER corpus, the relation corpus and
    the tweet stream, so runs with neighbouring seeds share no corpus."""
    return 3 * seed, 3 * seed + 1, 3 * seed + 2


def gold_spans(annotated) -> set[tuple[int, int, str]]:
    return {(e.token_start, e.token_end, e.etype) for e in annotated.entities}


def planted_label(annotated, head: tuple[int, int], tail: tuple[int, int]) -> str:
    for rel in annotated.relations:
        if ((rel.head.token_start, rel.head.token_end) == head
                and (rel.tail.token_start, rel.tail.token_end) == tail):
            return rel.label
    return "NoRelation"


def encode_all(docs, emb) -> list:
    return [encode_instance(instance, d.doc, emb)
            for d in docs for instance in generate_relation_instances(d)]


@dataclass
class Round:
    """Wall times of the timed calls, and the outputs to check."""

    times: dict[str, float] = field(default_factory=dict)
    scores: dict[str, float] = field(default_factory=dict)
    bundles: dict[str, bytes] = field(default_factory=dict)


class Workload:
    ops_per_round = 1
    warmup_rounds = 0  # rounds run and checked before timing starts
    quality: tuple[str, ...] = ()  # the scores ``quality_f1`` is the lowest of

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._first: Round | None = None

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Set-up work that runs the program; nothing by default."""

    def round(self) -> Round:
        raise NotImplementedError

    def metrics(self, rounds: list[Round]) -> dict[str, float]:
        """``round_s``, the median wall time of a timed round, and
        ``quality_f1``, the lowest F1 of the models the round scores."""
        return {"round_s": _median(rounds, "round"),
                "quality_f1": min(rounds[-1].scores[k] for k in self.quality)}

    def details(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """Per-model times and scores: name -> (value, unit)."""
        raise NotImplementedError

    def check(self, r: Round) -> None:
        """Same seed, same models: every round must reproduce the first
        round's scores and bundle bytes."""
        if self._first is None:
            self._first = r
            return
        require(r.scores == self._first.scores,
                f"scores differ between rounds: {r.scores} vs {self._first.scores}")
        for name, blob in r.bundles.items():
            require(blob == self._first.bundles[name],
                    f"{name} bundle differs between two trainings with one seed")

    def _bundle(self, model, name: str) -> bytes:
        path = self.workdir / f"{name}.json"
        save_model(model, path)
        return path.read_bytes()

    def _ner_f1(self, model, docs, emb, lexicons=None) -> float:
        predicted = [bio_spans(decode_labels(model, d.doc, emb, lexicons)) for d in docs]
        return span_f1([gold_spans(d) for d in docs], predicted)


def _median(rounds: list[Round], key: str) -> float:
    return float(np.median([r.times[key] for r in rounds]))


class TrainLinear(Workload):
    """Featurize, train the CRF and the SVM baseline, decode the test split."""

    ops_per_round = 2
    quality = ("crf",)  # the SVM is the paper's baseline, reported only

    def generate(self) -> None:
        ner_seed, _, _ = _seeds(self.seed)
        self.emb = synthetic_embeddings(seed=self.seed)
        self.lexicons = list(synthetic_lexicons())
        docs = generate_corpus(NER_DOCS, seed=ner_seed)
        self.train, _, self.test = split_dataset(docs, seed=ner_seed)

    def round(self) -> Round:
        r = Round()
        began = time.perf_counter()
        feats = [(featurize(d.doc, self.emb, self.lexicons), to_bio(d.doc, d.entities))
                 for d in self.train]
        started = time.perf_counter()
        crf = crf_train(feats, CrfConfig(**CRF_CONFIG))
        r.times["crf"] = time.perf_counter() - started
        r.scores["crf"] = self._ner_f1(crf, self.test, self.emb, self.lexicons)
        r.bundles["crf"] = self._bundle(crf, "crf")
        svm = svm_train(feats, seed=self.seed, **SVM_CONFIG)
        r.scores["svm"] = self._ner_f1(svm, self.test, self.emb, self.lexicons)
        r.bundles["svm"] = self._bundle(svm, "svm")
        r.times["round"] = time.perf_counter() - began
        return r

    def check(self, r: Round) -> None:
        require(r.scores["crf"] >= CRF_F1_FLOOR,
                f"CRF exact-span F1 {r.scores['crf']:.4f} below {CRF_F1_FLOOR}")
        super().check(r)

    def details(self, rounds):
        return {"train_ner_crf_s": (_median(rounds, "crf"), "s"),
                "ner_crf_f1": (rounds[-1].scores["crf"], "1"),
                "ner_svm_f1": (rounds[-1].scores["svm"], "1")}


class TrainNeural(Workload):
    """Train the BiLSTM-CRF and the relation CNN with dev-epoch selection,
    score both on their test splits."""

    ops_per_round = 2
    quality = ("lstm_crf", "re")

    def generate(self) -> None:
        ner_seed, re_seed, _ = _seeds(self.seed)
        self.emb = synthetic_embeddings(seed=self.seed)
        self.ner_train, self.ner_dev, self.ner_test = split_dataset(
            generate_corpus(NER_DOCS, seed=ner_seed), seed=ner_seed)
        self.re_train, self.re_dev, self.re_test = split_dataset(
            generate_corpus(RE_DOCS, seed=re_seed), seed=re_seed)
        self.re_gold = [planted_label(d, (i.head.token_start, i.head.token_end),
                                      (i.tail.token_start, i.tail.token_end))
                        for d in self.re_test for i in generate_relation_instances(d)]

    def round(self) -> Round:
        r = Round()
        began = time.perf_counter()
        pack = lambda docs: [(doc_matrix(d.doc, self.emb), to_bio(d.doc, d.entities))
                             for d in docs]
        train, dev = pack(self.ner_train), pack(self.ner_dev)
        started = time.perf_counter()
        lstm = lstm_crf_train(train, LstmCrfConfig(seed=self.seed, **LSTM_CRF_CONFIG), dev=dev)
        r.times["lstm_crf"] = time.perf_counter() - started
        r.scores["lstm_crf"] = self._ner_f1(lstm, self.ner_test, self.emb)
        r.bundles["lstm_crf"] = self._bundle(lstm, "lstm_crf")

        enc_train, enc_dev = encode_all(self.re_train, self.emb), encode_all(self.re_dev, self.emb)
        enc_test = encode_all(self.re_test, self.emb)
        started = time.perf_counter()
        cnn = cnn_train(enc_train, CnnReConfig(seed=self.seed, **CNN_CONFIG), dev=enc_dev)
        r.times["cnn"] = time.perf_counter() - started
        predicted = [cnn.labels[int(np.argmax(cnn_forward(cnn, enc)[0]))] for enc in enc_test]
        per_label = per_label_f1(self.re_gold, predicted, RELATION_LABELS)
        r.scores.update({f"re:{label}": f1 for label, f1 in per_label.items()})
        r.scores["re"] = float(np.mean(list(per_label.values())))
        r.bundles["cnn"] = self._bundle(cnn, "cnn")
        r.times["round"] = time.perf_counter() - began
        return r

    def check(self, r: Round) -> None:
        require(r.scores["lstm_crf"] >= LSTM_CRF_F1_FLOOR,
                f"BiLSTM-CRF exact-span F1 {r.scores['lstm_crf']:.4f} below {LSTM_CRF_F1_FLOOR}")
        for label in RELATION_LABELS:
            require(r.scores[f"re:{label}"] >= RELATION_F1_FLOOR,
                    f"relation F1 of {label} {r.scores[f're:{label}']:.4f} "
                    f"below {RELATION_F1_FLOOR}")
        super().check(r)

    def details(self, rounds):
        return {"train_ner_lstm_crf_s": (_median(rounds, "lstm_crf"), "s"),
                "train_re_s": (_median(rounds, "cnn"), "s"),
                "ner_lstm_crf_f1": (rounds[-1].scores["lstm_crf"], "1"),
                "re_f1": (rounds[-1].scores["re"], "1")}


@dataclass
class MineRound(Round):
    loaded: int = 0
    skipped: int = 0
    docs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    records: list = field(default_factory=list)
    report_rows: int = 0


class Mine(Workload):
    """The analyst's read path over a JSON Lines tweet stream, with models
    trained and saved in set-up and loaded back in every round."""

    quality = ("signal",)
    # the first pass is slower (first loads, cold caches); a round is short
    warmup_rounds = 1

    def generate(self) -> None:
        ner_seed, re_seed, stream_seed = _seeds(self.seed)
        # load_tweets warns once per malformed line; the count is checked instead
        logging.getLogger("dsae.corpus").setLevel(logging.ERROR)
        self.emb = synthetic_embeddings(seed=self.seed)
        self.lexicons = list(synthetic_lexicons())
        ds_lex, event_lex = self.lexicons
        self.ner_train, _, _ = split_dataset(
            generate_corpus(MINE_NER_DOCS, seed=ner_seed), seed=ner_seed)
        self.re_train, self.re_dev, _ = split_dataset(
            generate_corpus(MINE_RE_DOCS, seed=re_seed), seed=re_seed)

        supplements = sorted(ds_lex.entries)
        events = {cat: sorted(t for t, (_, c) in event_lex.entries.items() if c == cat)
                  for cat in ("Symptom", "BodyOrgan")}
        all_events = events["Symptom"] + events["BodyOrgan"]
        self.stream = stream.build_stream(generate_corpus(STREAM_DOCS, seed=stream_seed),
                                          stream_seed)
        self.paths = paths = {name: self.workdir / name for name in
                              ("tweets.jsonl", "ds.tsv", "symptoms.tsv", "organs.tsv",
                               "unigrams.tsv", "kb.csv", "crf.json", "cnn.json", "signals.tsv")}
        stream.write_stream(self.stream, stream_seed, supplements, all_events,
                            paths["tweets.jsonl"])
        stream.write_lexicon(supplements, paths["ds.tsv"])
        stream.write_lexicon(events["Symptom"], paths["symptoms.tsv"])
        stream.write_lexicon(events["BodyOrgan"], paths["organs.tsv"])
        stream.write_unigrams(self.stream, paths["unigrams.tsv"])

        supp_re, event_re = lexicon_regex(supplements), lexicon_regex(all_events)
        self.kept = [t for t in self.stream.english
                     if is_candidate(t.text, "en", supp_re, event_re)]
        self.planted = {(t.id, p.supplement, p.event, p.label)
                        for t in self.kept for p in t.relations}
        kb_rows = stream.choose_kb({(s, e, label) for _, s, e, label in self.planted},
                                   supplements, all_events, stream_seed)
        stream.write_kb(kb_rows, paths["kb.csv"])
        self.kb_pairs = {(s, e) for s, e, _ in kb_rows}

    def prepare(self) -> None:
        feats = [(featurize(d.doc, self.emb, self.lexicons), to_bio(d.doc, d.entities))
                 for d in self.ner_train]
        save_model(crf_train(feats, CrfConfig(**MINE_CRF_CONFIG)), self.paths["crf.json"])
        cnn = cnn_train(encode_all(self.re_train, self.emb),
                        CnnReConfig(seed=self.seed, **MINE_CNN_CONFIG),
                        dev=encode_all(self.re_dev, self.emb))
        save_model(cnn, self.paths["cnn.json"])

    @property
    def ops_per_round(self) -> int:
        return self.stream.n_lines

    def round(self) -> MineRound:
        p = self.paths
        r = MineRound()
        started = time.perf_counter()
        crf, cnn = load_model(p["crf.json"]), load_model(p["cnn.json"])
        ds_lex = load_lexicon(p["ds.tsv"], "Supplement")
        event_lex = merge_lexicons(load_lexicon(p["symptoms.tsv"], "Symptom"),
                                   load_lexicon(p["organs.tsv"], "BodyOrgan"))
        unigrams = UnigramTable.load(p["unigrams.tsv"])
        kb = KnowledgeBase.load(p["kb.csv"])
        report = LoadReport()
        for tweet in load_tweets(p["tweets.jsonl"], report):
            keep, _, _ = filter_candidate(tweet, ds_lex, event_lex)
            if keep:
                doc = normalize(tweet.id, tweet.text, unigrams)
                r.docs[doc.doc_id] = doc
                r.outputs.append(run_pipeline(doc, crf, cnn, self.emb, [ds_lex, event_lex]))
        r.records = compare_kb(aggregate(r.outputs, r.docs, ds_lex), kb)
        emit_report(r.records, p["signals.tsv"])
        r.times["round"] = time.perf_counter() - started
        r.loaded, r.skipped = report.loaded, report.skipped
        with open(p["signals.tsv"], encoding="utf-8") as fh:
            r.report_rows = sum(1 for _ in fh) - 1
        r.scores["signal"] = tuple_f1(self.planted, self._predicted(r))
        return r

    def _predicted(self, r: MineRound) -> set[tuple[str, str, str, str]]:
        out = set()
        for o in r.outputs:
            words = r.docs[o.doc_id].surfaces()
            for rel in o.relations:
                out.add((o.doc_id, " ".join(words[rel.head.token_start:rel.head.token_end]),
                         " ".join(words[rel.tail.token_start:rel.tail.token_end]), rel.label))
        return out

    def check(self, r: MineRound) -> None:
        s = self.stream
        require((r.loaded, r.skipped) == (len(s.english) + s.n_non_english, s.n_malformed),
                f"load_tweets loaded/skipped {r.loaded}/{r.skipped}, wrote "
                f"{len(s.english) + s.n_non_english}/{s.n_malformed}")
        require(sorted(r.docs) == sorted(t.id for t in self.kept),
                f"filter kept {len(r.docs)} tweets, the lexicon regex keeps {len(self.kept)}")
        for t in self.kept:
            got = r.docs[t.id].surfaces()
            require(got == t.words, f"normalize({t.text!r}) gave {got}, source words {t.words}")
        require(r.scores["signal"] >= SIGNAL_F1_FLOOR,
                f"signal F1 {r.scores['signal']:.4f} below {SIGNAL_F1_FLOOR}")
        support = distinct_support(((s_, e, label), doc_id)
                                   for doc_id, s_, e, label in self._predicted(r))
        got = {(rec.supplement_canonical, rec.event_term, rec.relation): rec.frequency
               for rec in r.records}
        require(len(got) == len(r.records) and got == support,
                "aggregate frequencies differ from distinct tweets per key")
        for rec in r.records:
            expected = (rec.supplement_canonical, rec.event_term) in self.kb_pairs
            require(rec.in_kb == expected,
                    f"compare_kb flags ({rec.supplement_canonical}, {rec.event_term}) "
                    f"as {rec.in_kb}, the KB file says {expected}")
        require(r.report_rows == len(r.records),
                f"report has {r.report_rows} rows for {len(r.records)} signals")
        super().check(r)

    def details(self, rounds):
        return {"mine_tweets_per_s": (self.stream.n_lines / _median(rounds, "round"), "tweets/s"),
                "signal_f1": (rounds[-1].scores["signal"], "1")}


WORKLOADS = {"train-linear": TrainLinear, "train-neural": TrainNeural, "mine": Mine}

