import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsae
from dsae import cli
from dsae.cli import main
from dsae.ner import CrfConfig, LstmCrfConfig, svm_train
from dsae.relation import CnnReConfig
from dsae.synthetic import generate_corpus


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


@pytest.mark.parametrize("overrides, names", [
    ({"crf": {"max_iters": 3}}, "crf.max_iters: unknown setting"),
    ({"crf": {"c1": "big"}}, "crf.c1: must be a finite number >= 0, got 'big'"),
    ({"crf": 5}, "crf: must be an object of settings"),
    ({"modle": "svm"}, "modle: unknown setting"),
    ({"seed": True}, "seed: must be an integer >= 0"),
    ({"seed": -1}, "seed: must be an integer >= 0"),
    ({"n_runs": True}, "n_runs: must be a positive integer"),
    ({"max_len": 4}, "max_len: must be an integer > 4"),
    ({"max_len": 24.0}, "max_len: must be an integer > 4"),
    ({"output_dir": 3}, "output_dir: must be a non-empty string"),
    ({"kb": True}, "kb: must be a path, got True"),
    ({"signals": 1}, "signals: must be a path, got 1"),
    ({"svm": {"epochs": 0}}, "svm.epochs: must be a positive integer, got 0"),
    ({"svm": {"l2": -1e-4}}, "svm.l2: must be a finite number >= 0"),
    ({"lstm_crf": {"batch_size": True}}, "lstm_crf.batch_size: must be a positive integer"),
    ({"lstm_crf": {"lr": 0}}, "lstm_crf.lr: must be a finite number > 0, got 0"),
    ({"cnn": {"weight_decay": float("nan")}}, "cnn.weight_decay: must be a finite number"),
    ({"cnn": {"lr": float("inf")}}, "cnn.lr: must be a finite number > 0, got inf"),
    ({"cnn": [1]}, "cnn: must be an object of settings"),
    ({"signals": "typo.tsv"}, "signals: file not found: typo.tsv"),
])
def test_bad_setting_exits_2_naming_it(tmp_path, capsys, overrides, names):
    out = tmp_path / "out"
    config = write_config(tmp_path, **{"output_dir": str(out), **overrides})
    assert run("train-ner", "--config", config) == 2
    assert f"config error: {names}" in capsys.readouterr().err
    assert not out.exists()


def test_every_model_setting_is_a_trainer_argument():
    """The commands pass each model section as keyword arguments, and a
    section holds only the keys of its defaults."""
    CrfConfig(**cli.DEFAULTS["crf"])
    LstmCrfConfig(**cli.DEFAULTS["lstm_crf"])
    CnnReConfig(**cli.DEFAULTS["cnn"])
    assert set(cli.DEFAULTS["svm"]) < set(inspect.signature(svm_train).parameters)


def test_every_flag_lands_in_the_config_key_of_its_dest():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    flags = [a for a in commands.choices["train-ner"]._actions
             if a.option_strings and a.dest not in ("help", "config", "log_level")]
    assert {"output_dir", "n_runs", "seed", "model", "kb"} <= {a.dest for a in flags}
    for action in flags:
        value = action.choices[-1] if action.choices else "7" if action.type is int else "x.tsv"
        config = cli._load_config(parser.parse_args(["train-ner", action.option_strings[0],
                                                     value]))
        assert config[action.dest] == (action.type or str)(value), action.dest


def test_missing_kb_exits_2(tmp_path, capsys):
    assert run("compare-kb", "--out", str(tmp_path / "out")) == 2
    assert "kb: required" in capsys.readouterr().err


def test_ingest_requires_inputs(tmp_path, capsys):
    assert run("ingest", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "corpus: required" in err and "ds_lexicon: required" in err


def test_replicate_of_one_run_exits_2_before_training(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("replicate", "--runs", "1", "--out", str(out)) == 2
    assert "config error: n_runs: replicate needs at least 2 runs" in capsys.readouterr().err
    assert not out.exists()


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


def test_repeated_annotated_tweet_id_exits_1_naming_it(tmp_path, capsys):
    corpus = tmp_path / "tweets.jsonl"
    corpus.write_text("".join(json.dumps({"id": i, "text": "vitamin c", "lang": "en"}) + "\n"
                              for i in ("a", "b", "a")))
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps({i: "T1\tSupplement 0 9\tvitamin c\n" for i in ("a", "b")}))
    assert run("train-ner", "--corpus", str(corpus), "--annotations", str(ann),
               "--out", str(tmp_path / "out")) == 1
    assert f"error: {corpus}: tweet id 'a' appears more than once" in capsys.readouterr().err


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


def test_report_records_its_signals_file(trained, tmp_path):
    _, config, out = trained
    assert run("aggregate", "--config", config, "--out", str(out)) == 0
    signals, report = out / "signals.tsv", tmp_path / "report"
    assert run("report", "--out", str(report), "--signals", str(signals)) == 0
    manifest = json.loads((report / "manifest.json").read_text())
    assert manifest["inputs"]["signals"] == {
        "path": str(signals), "sha256": hashlib.sha256(signals.read_bytes()).hexdigest()}


def test_train_ner_lstm_crf_builds_no_features(tmp_path, monkeypatch):
    """The BiLSTM-CRF reads embedding rows only; the CRF's and SVM's
    features are not built for it."""
    def refuse(*args, **kwargs):
        raise AssertionError("featurize called for the BiLSTM-CRF")
    monkeypatch.setattr(cli, "featurize", refuse)
    config = write_config(tmp_path, lstm_crf={"epochs": 1})
    assert run("train-ner", "--config", config, "--model", "lstm_crf",
               "--out", str(tmp_path / "out")) == 0


def test_aggregate_writes_example_tweets(trained):
    """Each signal's examples cell holds the original texts of up to three
    of its supporting documents."""
    _, config, out = trained
    assert run("aggregate", "--config", config, "--out", str(out)) == 0
    rows = [line.split("\t") for line in (out / "signals.tsv").read_text().splitlines()[1:]]
    texts = {d.doc.original_text for d in generate_corpus(SMALL_CONFIG["synthetic_docs"], seed=0)}
    assert rows
    for row in rows:
        examples = row[6].split(" | ")
        assert row[6] and 1 <= len(examples) <= min(3, int(row[4]))
        assert set(examples) <= texts


def test_compare_kb_and_report_keep_the_examples(trained, tmp_path):
    """``compare-kb`` and ``report`` carry each row's examples cell of
    ``signals.tsv`` through unchanged."""
    _, config, out = trained
    assert run("aggregate", "--config", config, "--out", str(out)) == 0
    rows = [line.split("\t") for line in (out / "signals.tsv").read_text().splitlines()[1:]]
    assert rows and all(row[6] for row in rows)
    kb = tmp_path / "kb.csv"
    kb.write_text(f"supplement,event,relation\n{rows[0][0]},{rows[0][2]},{rows[0][3]}\n")
    assert run("compare-kb", "--config", config, "--out", str(out), "--kb", str(kb)) == 0
    flagged = [line.split("\t") for line in (out / "signals_kb.tsv").read_text().splitlines()[1:]]
    assert [row[6] for row in flagged] == [row[6] for row in rows]
    known = (rows[0][0].lower(), rows[0][2].lower())
    assert [row[5] for row in flagged] == [str((row[0].lower(), row[2].lower()) == known).lower()
                                           for row in rows]
    assert run("report", "--config", config, "--out", str(out)) == 0
    table = (out / "report.md").read_text().splitlines()[2:]
    assert len(table) == len(rows)
    for line, row in zip(table, rows):
        assert line.endswith(" | " + row[6].replace("|", "\\|") + " |")


def test_artifacts_get_the_mode_the_umask_leaves(tmp_path):
    """Bundles, metric files, signals and reports are all created 0o666
    less the umask."""
    config, out = write_config(tmp_path), tmp_path / "out"
    kb = tmp_path / "kb.csv"
    kb.write_text("supplement,event,relation\n")
    old = os.umask(0o022)
    try:
        for command in ("train-ner", "train-re", "eval-ner", "pipeline", "aggregate",
                        "compare-kb", "report"):
            assert run(command, "--config", config, "--out", str(out), "--kb", str(kb)) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert set(modes) == {"ner_crf.json", "re_cnn.json", "manifest.json", "ner_crf_metrics.tsv",
                          "pipeline.jsonl", "pipeline_metrics.tsv", "pipeline_errors.tsv",
                          "signals.tsv", "signals_kb.tsv", "report.md"}
    assert set(modes.values()) == {0o644}


def test_eval_on_corrupted_bundle_exits_1(trained, tmp_path, capsys):
    _, config, out = trained
    bundle = json.loads((out / "ner_crf.json").read_text())
    # the transition array loses its last value
    bundle["weights"]["T"]["data"] = bundle["weights"]["T"]["data"][:-12]
    bad = tmp_path / "out"
    bad.mkdir()
    (bad / "ner_crf.json").write_text(json.dumps(bundle))
    assert run("eval-ner", "--config", config, "--out", str(bad)) == 1
    assert "crf bundle: weights T data holds 384 bytes, expected 392" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["eval-ner", "eval-re"])
def test_eval_with_embeddings_of_another_width_exits_1_naming_them(trained, tmp_path, capsys,
                                                                   command):
    """Models trained on the synthetic 50-d table, then read with 10-d vectors."""
    _, config, out = trained
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} " + " ".join(["0.1"] * 10) + "\n"
                               for w in ("vitamin", "nausea", "the")))
    assert run(command, "--config", config, "--out", str(out),
               "--embeddings", str(vectors)) == 1
    assert ("error: embeddings: the table's rows are 11 wide (10-d vectors plus the OOV flag), "
            "but the model reads rows 51 wide") in capsys.readouterr().err


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


def train_unconverged_crf_as_program(tmp_path, *flags):
    """Run ``dsae train-ner`` as a program, with an L-BFGS step budget the
    CRF cannot converge in; returns the finished process."""
    config = write_config(tmp_path, crf={"c1": 0.05, "c2": 0.05, "max_iter": 1})
    src = str(Path(dsae.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run(
        [sys.executable, "-m", "dsae.cli", "train-ner", "--config", config,
         "--out", str(tmp_path / "out"), *flags],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


CRF_WARNING = "dsae.ner.crf: crf_train: L-BFGS stopped without converging: "


def test_crf_that_cannot_converge_warns_with_its_stop_reason(tmp_path):
    """Run as a program, the CLI prints the CRF's warning on stderr, named
    by its logger and giving why L-BFGS stopped."""
    done = train_unconverged_crf_as_program(tmp_path)
    assert CRF_WARNING + "max_iter (steps 1, " in done.stderr


@pytest.mark.parametrize("flag, shown", [("--verbose", True), ("--quiet", False)])
def test_log_level_flags_show_or_hide_the_crf_warning(tmp_path, flag, shown):
    """--verbose logs from INFO up and keeps the warning; --quiet logs
    errors only and drops it."""
    done = train_unconverged_crf_as_program(tmp_path, flag)
    assert (CRF_WARNING in done.stderr) == shown


def test_unconverged_crf_bundle_warns_when_loaded(tmp_path, caplog):
    """A command that loads a CRF bundle whose training record says L-BFGS
    did not converge warns, naming the bundle and the stop reason."""
    config = write_config(tmp_path, crf={"c1": 0.05, "c2": 0.05, "max_iter": 1})
    out = tmp_path / "out"
    assert run("train-ner", "--config", config, "--out", str(out)) == 0
    caplog.clear()
    assert run("eval-ner", "--config", config, "--out", str(out)) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "dsae.cli"] == [
        f"{out / 'ner_crf.json'}: this CRF stopped training without converging: max_iter"]


def test_verbose_and_quiet_exclude_each_other(capsys):
    with pytest.raises(SystemExit):
        run("train-ner", "--verbose", "--quiet")
    assert "not allowed with" in capsys.readouterr().err
