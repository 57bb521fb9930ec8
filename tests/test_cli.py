import json
import os

import pytest

from dsae.cli import main


SMALL_CONFIG = {
    "synthetic_docs": 40,
    "crf": {"c1": 0.05, "c2": 0.05, "max_iter": 30},
    "cnn": {"epochs": 2, "batch_size": 8, "lr": 1e-3, "weight_decay": 1e-5},
    "max_len": 24,
}


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL_CONFIG, **overrides}))
    return str(path)


def run(*argv):
    return main(list(argv))


# --------------------------------------------------------------- validation

def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run("train-ner", "--config", str(tmp_path / "nope.json")) == 2
    assert "file not found" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run("train-ner", "--config", str(path)) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_bad_field_values_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, synthetic_docs=1, n_runs=0)
    assert run("train-ner", "--config", config) == 2
    err = capsys.readouterr().err
    assert "synthetic_docs" in err and "n_runs" in err


def test_missing_kb_exits_2(tmp_path, capsys):
    assert run("compare-kb", "--out", str(tmp_path / "out")) == 2
    assert "kb: required" in capsys.readouterr().err


def test_ingest_requires_inputs(tmp_path, capsys):
    assert run("ingest", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "corpus: required" in err and "ds_lexicon: required" in err


def test_corpus_without_annotations_exits_2(tmp_path, capsys):
    corpus = tmp_path / "tweets.jsonl"
    corpus.write_text(json.dumps({"id": "1", "text": "vitamin c", "lang": "en"}) + "\n")
    out = tmp_path / "out"
    for command in ("aggregate", "train-ner"):
        assert run(command, "--corpus", str(corpus), "--out", str(out)) == 2
        assert "annotations: required" in capsys.readouterr().err
    assert not (out / "signals.tsv").exists()


@pytest.mark.parametrize("text, names", [
    ("{not json", "ann.json: invalid JSON"),
    (json.dumps(["T1\tSupplement 0 9\tvitamin c"]), "ann.json: need a JSON object"),
    (json.dumps({"1": 7}), "ann.json: need a JSON object"),
    (json.dumps({"1": "T1\tSupplement 0 x\tvitamin c\n"}),
     "document '1', line 1: entity line needs"),
])
def test_bad_annotations_exit_1_naming_the_input(tmp_path, capsys, text, names):
    corpus = tmp_path / "tweets.jsonl"
    corpus.write_text(json.dumps({"id": "1", "text": "vitamin c", "lang": "en"}) + "\n")
    path = tmp_path / "ann.json"
    path.write_text(text)
    assert run("train-ner", "--corpus", str(corpus), "--annotations", str(path),
               "--out", str(tmp_path / "out")) == 1
    assert names in capsys.readouterr().err


# ------------------------------------------------------------------ ingest

def test_ingest_fixture(tmp_path, capsys):
    corpus = tmp_path / "tweets.jsonl"
    corpus.write_text(
        json.dumps({"id": "1", "text": "vitamin c gave me a headache", "lang": "en"}) + "\n"
        + "not json\n"
        + json.dumps({"id": "2", "text": "nice weather", "lang": "en"}) + "\n"
        + json.dumps({"id": "3", "text": "la vitamina c", "lang": "es"}) + "\n")
    ds = tmp_path / "ds.tsv"
    ds.write_text("vitamin c\tVitamin C\n")
    events = tmp_path / "events.tsv"
    events.write_text("headache\n")
    out = tmp_path / "out"
    code = run("ingest", "--corpus", str(corpus), "--ds-lexicon", str(ds),
               "--event-lexicon", str(events), "--out", str(out))
    assert code == 0
    kept = [json.loads(line) for line in (out / "ingested.jsonl").read_text().splitlines()]
    assert [row["id"] for row in kept] == ["1"]
    assert kept[0]["ds_terms"] == ["vitamin c"]
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary == {"loaded": 3, "skipped": 1, "seen": 3, "kept": 1}
    manifest = json.loads((out / "manifest.json").read_text())
    assert "ingested.jsonl" in manifest["artifacts"]
    assert manifest["inputs"]["corpus"]["path"] == str(corpus)


@pytest.mark.parametrize("record", ["vitamin c\tVitamin C\textra", "(vitamin c)"])
def test_ingest_with_bad_lexicon_record_exits_1_naming_it(tmp_path, capsys, record):
    corpus = tmp_path / "tweets.jsonl"
    corpus.write_text(json.dumps({"id": "1", "text": "vitamin c gave me a headache",
                                  "lang": "en"}) + "\n")
    ds = tmp_path / "ds.tsv"
    ds.write_text(f"iron\n{record}\n")
    events = tmp_path / "events.tsv"
    events.write_text("headache\n")
    out = tmp_path / "out"
    code = run("ingest", "--corpus", str(corpus), "--ds-lexicon", str(ds),
               "--event-lexicon", str(events), "--out", str(out))
    assert code == 1
    assert f"{ds}:2: " in capsys.readouterr().err
    assert not (out / "ingested.jsonl").exists()


# ------------------------------------------------- train/eval on synthetic

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("train-ner", "--config", config, "--out", str(out)) == 0
    assert run("train-re", "--config", config, "--out", str(out)) == 0
    return tmp_path, config, out


def test_train_writes_bundles_and_manifest(trained):
    _, _, out = trained
    assert (out / "ner_crf.json").is_file()
    assert (out / "re_cnn.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train-re"
    assert set(manifest["artifacts"]) == {"re_cnn.json"}


def test_eval_and_pipeline_artifacts(trained, capsys):
    _, config, out = trained
    assert run("eval-ner", "--config", config, "--out", str(out)) == 0
    assert "test micro F1" in capsys.readouterr().out
    assert run("eval-re", "--config", config, "--out", str(out)) == 0
    assert run("pipeline", "--config", config, "--out", str(out)) == 0
    metrics = (out / "ner_crf_metrics.tsv").read_text().splitlines()
    assert metrics[0] == "name\tprecision\trecall\tf1"
    assert (out / "pipeline.jsonl").is_file()
    assert (out / "pipeline_errors.tsv").read_text().startswith("label\tcategory\tcount")


def test_signal_commands_roundtrip(trained, tmp_path):
    _, config, out = trained
    assert run("aggregate", "--config", config, "--out", str(out)) == 0
    signals = (out / "signals.tsv").read_text().splitlines()
    assert signals[0].startswith("supplement\t")
    kb = tmp_path / "kb.csv"
    kb.write_text("supplement,event,relation\n")
    assert run("compare-kb", "--config", config, "--out", str(out),
               "--kb", str(kb)) == 0
    flagged = (out / "signals_kb.tsv").read_text().splitlines()
    assert len(flagged) == len(signals)
    assert all(line.split("\t")[5] == "false" for line in flagged[1:])
    assert run("report", "--config", config, "--out", str(out)) == 0
    assert (out / "report.md").read_text().startswith("| supplement |")


def test_eval_on_corrupted_bundle_exits_1(trained, tmp_path, capsys):
    _, config, out = trained
    bundle = json.loads((out / "ner_crf.json").read_text())
    bundle["weights"]["T"] = 0.0
    bad = tmp_path / "out"
    bad.mkdir()
    (bad / "ner_crf.json").write_text(json.dumps(bundle))
    assert run("eval-ner", "--config", config, "--out", str(bad)) == 1
    assert "weights T" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [
    lambda r: r.pop("dense_dim"), lambda r: r.update(dense_dim="x"),
    lambda r: r.update(index=list(r["index"])),
])
def test_eval_on_bundle_with_bad_registry_exits_1(trained, tmp_path, capsys, corrupt):
    _, config, out = trained
    bundle = json.loads((out / "ner_crf.json").read_text())
    corrupt(bundle["feature_registry"])
    bad = tmp_path / "out"
    bad.mkdir()
    (bad / "ner_crf.json").write_text(json.dumps(bundle))
    assert run("eval-ner", "--config", config, "--out", str(bad)) == 1
    assert "bundle: feature_registry " in capsys.readouterr().err


@pytest.mark.parametrize("command, model, field", [
    ("eval-ner", "lstm_crf", "hidden"), ("eval-re", "cnn_re", "max_len"),
])
def test_eval_on_bundle_with_bad_size_exits_1(tmp_path, capsys, command, model, field):
    from dsae.annotation import BIO_LABELS
    from dsae.ner.lstm_crf import LstmCrfModel
    from dsae.relation import CnnReConfig, CnnReModel
    from dsae.serialization import model_to_bundle

    if model == "lstm_crf":
        bundle = model_to_bundle(LstmCrfModel.init(4, 2, BIO_LABELS, seed=0))
        name = "ner_lstm_crf.json"
    else:
        bundle = model_to_bundle(CnnReModel.init(4, CnnReConfig(max_len=8)))
        name = "re_cnn.json"
    bundle["hyperparameters"][field] = "8"
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text(json.dumps(bundle))
    config = write_config(tmp_path, model="lstm_crf")
    assert run(command, "--config", config, "--out", str(out)) == 1
    assert f"hyperparameter {field}" in capsys.readouterr().err


def test_training_is_deterministic(trained):
    tmp_path, config, out = trained
    again = tmp_path / "again"
    assert run("train-ner", "--config", config, "--out", str(again)) == 0
    assert ((out / "ner_crf.json").read_bytes()
            == (again / "ner_crf.json").read_bytes())


def test_missing_model_file_is_runtime_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    os.makedirs(out, exist_ok=True)
    assert run("eval-ner", "--config", config, "--out", str(out)) == 1
    assert "error:" in capsys.readouterr().err
