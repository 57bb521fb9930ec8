"""Command-line surface tying the modules into reproducible experiments.

One JSON config document per run; command-line flags override config keys.
Every command writes its artifacts under the output directory together
with a manifest (config snapshot, seeds, content hashes of inputs and
artifacts, and the versions and core count the run used). Exit status: 0
success, 1 runtime failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import logging
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from .annotation import (AnnotatedDoc, from_bio, generate_relation_instances,
                         parse_standoff, split_dataset, to_bio)
from .corpus import LoadReport, filter_candidate, load_lexicon, load_tweets
from .embeddings import load_static
from .evaluate import EvalCounts, align_spans, metrics, replicate
from .ner import (CrfConfig, CrfModel, LstmCrfConfig, crf_train, lstm_crf_train, svm_train)
from .ner.features import featurize
from .ner.predict import decode_many, doc_matrix
from .normalize import UnigramTable, normalize
from .pipeline import ErrorBreakdown, OracleNer, evaluate_pipeline, run_many
from .relation import CnnReConfig, cnn_train, encode_instance
from .serialization import atomic_write_text, load_model, save_model
from .signals import KnowledgeBase, aggregate, compare_kb, emit_report, parse_report, top_k
from .synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

# by name: run as ``python -m dsae.cli``, __name__ is "__main__"
logger = logging.getLogger("dsae.cli")

# the commands that read annotated documents through _resolve_docs
_CORPUS_COMMANDS = ("train-ner", "eval-ner", "train-re", "eval-re", "pipeline",
                    "replicate", "aggregate")

# the input files a config may name: the top-level keys besides those of DEFAULTS
_PATH_KEYS = ("corpus", "ds_lexicon", "event_lexicon", "embeddings",
              "annotations", "kb", "unigrams", "signals")

DEFAULTS = {
    "output_dir": "out",
    "model": "crf",
    "seed": 0,
    "n_runs": 5,
    "synthetic_docs": 1000,
    "max_len": 64,
    "crf": {"c1": 0.05, "c2": 0.05, "max_iter": 200},
    "svm": {"epochs": 5, "lr": 0.1, "l2": 1e-4},
    "lstm_crf": {"epochs": 40, "batch_size": 32, "lr": 1e-3, "weight_decay": 1e-4},
    "cnn": {"epochs": 40, "batch_size": 32, "lr": 1e-4, "weight_decay": 1e-5},
}

# the model sections of DEFAULTS; a config's holds only the default's keys
_MODEL_SECTIONS = tuple(key for key, value in DEFAULTS.items() if isinstance(value, dict))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


_POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "a positive integer")
_NON_NEGATIVE = (lambda v: _is_number(v) and v >= 0, "a finite number >= 0")
# (test, what it requires) of each model setting
_SETTING_RULES = {
    "max_iter": _POSITIVE_INT, "epochs": _POSITIVE_INT, "batch_size": _POSITIVE_INT,
    "lr": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    "c1": _NON_NEGATIVE, "c2": _NON_NEGATIVE, "l2": _NON_NEGATIVE,
    "weight_decay": _NON_NEGATIVE,
}


class ConfigError(Exception):
    """Invalid configuration; carries field-level messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(args: argparse.Namespace) -> dict:
    config = json.loads(json.dumps(DEFAULTS))  # deep copy
    if args.config:
        if not os.path.isfile(args.config):
            raise ConfigError([f"config: file not found: {args.config}"])
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: invalid JSON ({exc})"]) from exc
        if not isinstance(loaded, dict):
            raise ConfigError(["config: top-level value must be an object"])
        for key, value in loaded.items():
            if isinstance(value, dict) and isinstance(config.get(key), dict):
                config[key].update(value)
            else:
                config[key] = value
    # every flag given on the command line, under its dest
    for key, value in vars(args).items():
        if key not in ("command", "config", "log_level") and value is not None:
            config[key] = value
    return config


def _validate(config: dict, command: str) -> None:
    errors = []
    for key in _PATH_KEYS:
        path = config.get(key)
        if path is not None and not isinstance(path, str):
            # os.path.isfile and open take an integer, or true, as a file descriptor
            errors.append(f"{key}: must be a path, got {path!r}")
        elif path is not None and not os.path.isfile(path):
            errors.append(f"{key}: file not found: {path}")
    for key in sorted(set(config) - set(DEFAULTS) - set(_PATH_KEYS)):
        errors.append(f"{key}: unknown setting")
    if not isinstance(config.get("output_dir"), str) or not config["output_dir"]:
        errors.append("output_dir: must be a non-empty string")
    if not _is_int(config.get("seed")) or config["seed"] < 0:
        errors.append("seed: must be an integer >= 0")
    if not _is_int(config.get("n_runs")) or config["n_runs"] < 1:
        errors.append("n_runs: must be a positive integer")
    if config.get("model") not in ("crf", "svm", "lstm_crf"):
        errors.append(f"model: unknown model {config.get('model')!r}")
    if not _is_int(config.get("synthetic_docs")) or config["synthetic_docs"] < 3:
        errors.append("synthetic_docs: must be an integer >= 3")
    if not _is_int(config.get("max_len")) or config["max_len"] <= 4:
        # room for the four entity markers and at least one token
        errors.append("max_len: must be an integer > 4")
    for section in _MODEL_SECTIONS:
        settings = config.get(section)
        if not isinstance(settings, dict):
            errors.append(f"{section}: must be an object of settings")
            continue
        for key, value in settings.items():
            if key not in DEFAULTS[section]:
                errors.append(f"{section}.{key}: unknown setting")
                continue
            valid, what = _SETTING_RULES[key]
            if not valid(value):
                errors.append(f"{section}.{key}: must be {what}, got {value!r}")
    if command == "ingest":
        for key in ("corpus", "ds_lexicon", "event_lexicon"):
            if config.get(key) is None:
                errors.append(f"{key}: required for ingest")
    if command == "replicate" and _is_int(config.get("n_runs")) and config["n_runs"] == 1:
        # a mean and a standard deviation need two runs; refuse before training one
        errors.append("n_runs: replicate needs at least 2 runs")
    if command == "compare-kb" and config.get("kb") is None:
        errors.append("kb: required for compare-kb")
    if command in _CORPUS_COMMANDS:
        # _resolve_docs reads a real corpus only with its annotations
        if config.get("corpus") and not config.get("annotations"):
            errors.append(f"annotations: required with corpus for {command}")
        if config.get("annotations") and not config.get("corpus"):
            errors.append(f"corpus: required with annotations for {command}")
    if errors:
        raise ConfigError(errors)


def _environment() -> dict:
    """The versions and the core count a run used. scipy's version is read
    from its installed metadata, which does not import it."""
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"dsae": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version, "cpu_count": os.cpu_count()}


def _write_manifest(config: dict, command: str, artifacts: list[str]) -> str:
    inputs = {key: {"path": config[key], "sha256": _sha256(config[key])}
              for key in _PATH_KEYS if config.get(key)}
    manifest = {
        "command": command,
        "config": config,
        "environment": _environment(),
        "seed": config["seed"],
        "inputs": inputs,
        "artifacts": {os.path.basename(p): _sha256(p) for p in artifacts},
    }
    path = os.path.join(config["output_dir"], "manifest.json")
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _resolve_resources(config: dict):
    """Embeddings and lexicons from config paths, synthetic fallbacks otherwise."""
    if config.get("embeddings"):
        emb = load_static(config["embeddings"])
    else:
        emb = synthetic_embeddings()
    if config.get("ds_lexicon") and config.get("event_lexicon"):
        ds_lex = load_lexicon(config["ds_lexicon"], "Supplement")
        event_lex = load_lexicon(config["event_lexicon"], "Symptom")
    else:
        ds_lex, event_lex = synthetic_lexicons()
    return emb, ds_lex, event_lex


def _resolve_docs(config: dict) -> list[AnnotatedDoc]:
    """Annotated documents: a real corpus plus standoff files when both are
    configured, otherwise the seeded synthetic corpus."""
    corpus, annotations = config.get("corpus"), config.get("annotations")
    if corpus and annotations:
        unigrams = (UnigramTable.load(config["unigrams"]) if config.get("unigrams")
                    else UnigramTable({"the": 1}))
        with open(annotations, encoding="utf-8") as fh:
            try:
                ann_by_doc = json.load(fh)  # doc_id -> standoff text
            except json.JSONDecodeError as exc:
                raise ValueError(f"{annotations}: invalid JSON ({exc})") from exc
        if not (isinstance(ann_by_doc, dict)
                and all(isinstance(text, str) for text in ann_by_doc.values())):
            raise ValueError(f"{annotations}: need a JSON object of doc id -> standoff text")
        docs: dict[str, AnnotatedDoc] = {}  # by id, in corpus order
        for tweet in load_tweets(corpus):
            if tweet.id not in ann_by_doc:
                continue
            if tweet.id in docs:
                # a second copy could land in another split
                raise ValueError(f"{corpus}: tweet id {tweet.id!r} appears more than once")
            doc = normalize(tweet.id, tweet.text, unigrams)
            docs[tweet.id] = parse_standoff(ann_by_doc[tweet.id], doc)
        if not docs:
            raise RuntimeError("no annotated documents found")
        return list(docs.values())
    return generate_corpus(config["synthetic_docs"], seed=config["seed"])


def _train_ner_model(train, dev, config: dict, emb, lexicons, seed: int):
    name = config["model"]
    if name == "lstm_crf":
        pack = lambda ds: [(doc_matrix(d.doc, emb), to_bio(d.doc, d.entities)) for d in ds]
        return lstm_crf_train(pack(train), LstmCrfConfig(**config["lstm_crf"], seed=seed),
                              dev=pack(dev))
    feats = [(featurize(d.doc, emb, lexicons), to_bio(d.doc, d.entities)) for d in train]
    if name == "crf":
        return crf_train(feats, CrfConfig(**config["crf"]))
    return svm_train(feats, **config["svm"], seed=seed)


def _ner_metrics(model, docs, emb, lexicons) -> dict:
    per_type: dict[str, EvalCounts] = {}
    for d, labels in zip(docs, decode_many(model, [d.doc for d in docs], emb, lexicons)):
        for etype, counts in align_spans(list(d.entities), from_bio(d.doc, labels)).items():
            per_type.setdefault(etype, EvalCounts()).add(counts)
    return {etype: metrics(counts) for etype, counts in per_type.items()}


def _encode_all(docs, emb, max_len: int):
    return [encode_instance(ri, d.doc, emb, max_len)
            for d in docs for ri in generate_relation_instances(d)]


def _metrics_tsv(path, rows: list[tuple]) -> None:
    lines = ["\t".join(("name", "precision", "recall", "f1"))]
    for name, m in rows:
        lines.append("\t".join((name, repr(m.precision), repr(m.recall), repr(m.f1))))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _out(config: dict, name: str) -> str:
    return os.path.join(config["output_dir"], name)


def _load_ner(config: dict):
    """The configured NER bundle; a CRF that did not converge is used, with
    a warning naming why L-BFGS stopped."""
    path = _out(config, f"ner_{config['model']}.json")
    model = load_model(path)
    if isinstance(model, CrfModel) and not model.converged:
        logger.warning("%s: this CRF stopped training without converging: %s", path,
                       model.training["stop"])
    return model


def cmd_ingest(config: dict) -> list[str]:
    ds_lex = load_lexicon(config["ds_lexicon"], "Supplement")
    event_lex = load_lexicon(config["event_lexicon"], "Symptom")
    report = LoadReport()
    kept, seen = [], 0
    for tweet in load_tweets(config["corpus"], report):
        seen += 1
        ok, ds_hits, event_hits = filter_candidate(tweet, ds_lex, event_lex)
        if ok:
            kept.append({"id": tweet.id, "text": tweet.text, "lang": tweet.lang,
                         "ds_terms": sorted({h.canonical for h in ds_hits}),
                         "event_terms": sorted({h.canonical for h in event_hits})})
    out = _out(config, "ingested.jsonl")
    atomic_write_text(out, "".join(json.dumps(row, sort_keys=True) + "\n" for row in kept))
    summary = _out(config, "ingest_summary.json")
    atomic_write_text(summary, json.dumps({
        "loaded": report.loaded, "skipped": report.skipped,
        "seen": seen, "kept": len(kept)}, sort_keys=True, indent=2) + "\n")
    print(f"ingest: kept {len(kept)} of {report.loaded} loaded "
          f"({report.skipped} malformed lines skipped)")
    return [out, summary]


def cmd_train_ner(config: dict) -> list[str]:
    emb, ds_lex, event_lex = _resolve_resources(config)
    lexicons = [ds_lex, event_lex]
    train, dev, _ = split_dataset(_resolve_docs(config), seed=config["seed"])
    model = _train_ner_model(train, dev, config, emb, lexicons, config["seed"])
    out = _out(config, f"ner_{config['model']}.json")
    save_model(model, out)
    dev_metrics = _ner_metrics(model, dev, emb, lexicons)
    print(f"train-ner: {config['model']} dev micro F1 {dev_metrics['micro'].f1:.4f}")
    return [out]


def cmd_eval_ner(config: dict) -> list[str]:
    emb, ds_lex, event_lex = _resolve_resources(config)
    lexicons = [ds_lex, event_lex]
    _, _, test = split_dataset(_resolve_docs(config), seed=config["seed"])
    model = _load_ner(config)
    per_type = _ner_metrics(model, test, emb, lexicons)
    out = _out(config, f"ner_{config['model']}_metrics.tsv")
    _metrics_tsv(out, sorted(per_type.items()))
    print(f"eval-ner: {config['model']} test micro F1 {per_type['micro'].f1:.4f}")
    return [out]


def cmd_train_re(config: dict) -> list[str]:
    emb, _, _ = _resolve_resources(config)
    train, dev, _ = split_dataset(_resolve_docs(config), seed=config["seed"])
    model = cnn_train(
        _encode_all(train, emb, config["max_len"]),
        CnnReConfig(max_len=config["max_len"], **config["cnn"], seed=config["seed"]),
        dev=_encode_all(dev, emb, config["max_len"]))
    out = _out(config, "re_cnn.json")
    save_model(model, out)
    print("train-re: saved CNN relation model")
    return [out]


def cmd_eval_re(config: dict) -> list[str]:
    emb, _, _ = _resolve_resources(config)
    _, _, test = split_dataset(_resolve_docs(config), seed=config["seed"])
    model = load_model(_out(config, "re_cnn.json"))
    per_label, _, _ = evaluate_pipeline(test, OracleNer(test), model, emb)
    out = _out(config, "re_cnn_metrics.tsv")
    _metrics_tsv(out, sorted(per_label.items()))
    for label, m in sorted(per_label.items()):
        print(f"eval-re: {label} F1 {m.f1:.4f}")
    return [out]


def cmd_pipeline(config: dict) -> list[str]:
    emb, ds_lex, event_lex = _resolve_resources(config)
    lexicons = [ds_lex, event_lex]
    _, _, test = split_dataset(_resolve_docs(config), seed=config["seed"])
    ner = _load_ner(config)
    re_model = load_model(_out(config, "re_cnn.json"))
    per_label, breakdown, outputs = evaluate_pipeline(test, ner, re_model, emb, lexicons)

    out_jsonl = _out(config, "pipeline.jsonl")
    lines = []
    for o in outputs:
        lines.append(json.dumps({
            "doc_id": o.doc_id,
            "entities": [{"id": e.id, "type": e.etype, "start": e.token_start,
                          "end": e.token_end} for e in o.entities],
            "relations": [{"head": r.head.id, "tail": r.tail.id, "label": r.label}
                          for r in o.relations],
        }, sort_keys=True) + "\n")
    atomic_write_text(out_jsonl, "".join(lines))

    out_metrics = _out(config, "pipeline_metrics.tsv")
    _metrics_tsv(out_metrics, sorted(per_label.items()))
    out_errors = _out(config, "pipeline_errors.tsv")
    rows = ["\t".join(("label", "category", "count"))]
    for category in dataclasses.fields(ErrorBreakdown):
        for label, count in sorted(getattr(breakdown, category.name).items()):
            rows.append(f"{label}\t{category.name}\t{count}")
    atomic_write_text(out_errors, "\n".join(rows) + "\n")
    for label, m in sorted(per_label.items()):
        print(f"pipeline: {label} F1 {m.f1:.4f}")
    return [out_jsonl, out_metrics, out_errors]


def cmd_replicate(config: dict) -> list[str]:
    emb, ds_lex, event_lex = _resolve_resources(config)
    lexicons = [ds_lex, event_lex]
    docs = _resolve_docs(config)

    def experiment(seed: int):
        train, dev, test = split_dataset(docs, seed=seed)
        model = _train_ner_model(train, dev, config, emb, lexicons, seed)
        return _ner_metrics(model, test, emb, lexicons)["micro"]

    stats, per_run = replicate(experiment, n=config["n_runs"], base_seed=config["seed"])
    out = _out(config, f"replicate_{config['model']}.tsv")
    lines = ["\t".join(("metric", "mean", "std", "n", "values"))]
    for name in sorted(stats):
        s = stats[name]
        values = ",".join(repr(v) for v in s.values)
        lines.append(f"{name}\t{s.mean!r}\t{s.std!r}\t{s.n}\t{values}")
    atomic_write_text(out, "\n".join(lines) + "\n")
    f1 = stats["f1"]
    print(f"replicate: {config['model']} micro F1 {f1.mean:.4f} +/- {f1.std:.4f} "
          f"over {f1.n} runs")
    return [out]


def cmd_aggregate(config: dict) -> list[str]:
    emb, ds_lex, event_lex = _resolve_resources(config)
    lexicons = [ds_lex, event_lex]
    docs = _resolve_docs(config)
    ner = _load_ner(config)
    re_model = load_model(_out(config, "re_cnn.json"))
    outputs = run_many([d.doc for d in docs], ner, re_model, emb, lexicons)
    records = top_k(aggregate(outputs, {d.doc.doc_id: d.doc for d in docs}, ds_lex))
    out = _out(config, "signals.tsv")
    emit_report(records, out, format="tsv")
    print(f"aggregate: {len(records)} signals from {len(docs)} documents")
    return [out]


def cmd_compare_kb(config: dict) -> list[str]:
    signals_path = config.get("signals") or _out(config, "signals.tsv")
    records = parse_report(signals_path)
    kb = KnowledgeBase.load(config["kb"])
    records = compare_kb(records, kb)
    out = _out(config, "signals_kb.tsv")
    emit_report(records, out, format="tsv")
    novel = sum(1 for r in records if r.in_kb is False)
    print(f"compare-kb: {novel} of {len(records)} signals are novel")
    return [out]


def cmd_report(config: dict) -> list[str]:
    signals_path = config.get("signals") or _out(config, "signals_kb.tsv")
    if not os.path.isfile(signals_path):
        signals_path = _out(config, "signals.tsv")
    records = parse_report(signals_path)
    out = _out(config, "report.md")
    emit_report(records, out, format="markdown")
    print(f"report: wrote {len(records)} rows to {out}")
    return [out]


_HANDLERS = {
    "ingest": cmd_ingest,
    "train-ner": cmd_train_ner,
    "eval-ner": cmd_eval_ner,
    "train-re": cmd_train_re,
    "eval-re": cmd_eval_re,
    "pipeline": cmd_pipeline,
    "replicate": cmd_replicate,
    "aggregate": cmd_aggregate,
    "compare-kb": cmd_compare_kb,
    "report": cmd_report,
}
COMMANDS = tuple(_HANDLERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsae",
        description="Supplement adverse-event and indication signal detection.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", dest="output_dir", help="output directory (overrides config)")
        p.add_argument("--seed", type=int)
        p.add_argument("--runs", dest="n_runs", type=int, help="number of replicate runs")
        p.add_argument("--model", choices=("crf", "svm", "lstm_crf"))
        p.add_argument("--corpus", help="tweet JSONL file")
        p.add_argument("--annotations", help="JSON map doc_id -> standoff text")
        p.add_argument("--ds-lexicon", dest="ds_lexicon")
        p.add_argument("--event-lexicon", dest="event_lexicon")
        p.add_argument("--embeddings", help="word vectors in text format")
        p.add_argument("--kb", help="knowledge-base CSV")
        p.add_argument("--signals", help="signals TSV (compare-kb/report input)")
        p.add_argument("--synthetic-docs", dest="synthetic_docs", type=int)
        level = p.add_mutually_exclusive_group()
        level.add_argument("--verbose", dest="log_level", action="store_const",
                           const=logging.INFO, help="log progress messages too")
        level.add_argument("--quiet", dest="log_level", action="store_const",
                           const=logging.ERROR, help="log errors only, not warnings")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings of every module to stderr, named by their logger; this does
    # nothing when the root logger already has a handler
    logging.basicConfig(stream=sys.stderr, level=args.log_level or logging.WARNING,
                        format="%(name)s: %(message)s")
    try:
        config = _load_config(args)
        _validate(config, args.command)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    os.makedirs(config["output_dir"], exist_ok=True)
    try:
        artifacts = _HANDLERS[args.command](config)
        _write_manifest(config, args.command, artifacts)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
