import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dsae.annotation import to_bio
from dsae.embeddings import EmbeddingTable
from dsae.ner.crf import CrfConfig, crf_train
from dsae.ner.features import featurize
from dsae.ner.lstm_crf import LstmCrfConfig, lstm_crf_train
from dsae.ner.svm import svm_train
from dsae.numeric.rng import Rng
from dsae.relation import CnnReConfig, cnn_train, encode_instance
from dsae.annotation import RelationInstance
from dsae.serialization import (BUNDLE_VERSION, atomic_write_text, dumps_bundle,
                                load_model, model_from_bundle, model_to_bundle,
                                save_model)

from util import make_doc, span


@pytest.fixture(scope="module")
def emb():
    words = ["vitamin", "c", "nausea", "took"]
    return EmbeddingTable(4, {w: i for i, w in enumerate(words)},
                          Rng(0, stream=18).normal((4, 4)))


@pytest.fixture(scope="module")
def ner_data(emb):
    docs = []
    for i in range(6):
        doc = make_doc(f"d{i}", ["took", "vitamin", "c", "nausea"])
        entities = [span(doc, "T1", "Supplement", 1, 3),
                    span(doc, "T2", "Symptom", 3, 4)]
        docs.append((doc, featurize(doc, emb), to_bio(doc, entities)))
    return docs


def roundtrip(model):
    bundle = model_to_bundle(model)
    text = dumps_bundle(bundle)
    restored = model_from_bundle(json.loads(text))
    assert dumps_bundle(model_to_bundle(restored)) == text
    return restored


def test_crf_roundtrip(ner_data):
    model = crf_train([(f, y) for _, f, y in ner_data], CrfConfig(max_iter=10))
    restored = roundtrip(model)
    assert np.array_equal(restored.W, model.W)
    assert np.array_equal(restored.T, model.T)
    _, features, _ = ner_data[0]
    assert restored.decode(features) == model.decode(features)


def test_crf_converged_roundtrip(ner_data, caplog):
    docs = [(f, y) for _, f, y in ner_data]
    with caplog.at_level("WARNING", logger="dsae.ner.crf"):
        stopped = crf_train(docs, CrfConfig(max_iter=1))
    assert not stopped.converged
    assert "without converging" in caplog.text
    converged = crf_train(docs, CrfConfig(max_iter=500, tol=1e-2))
    assert converged.converged
    for model in (stopped, converged):
        assert roundtrip(model).converged == model.converged
    bundle = model_to_bundle(stopped)
    del bundle["converged"]
    with pytest.raises(ValueError, match="converged"):
        model_from_bundle(bundle)


def test_svm_roundtrip(ner_data):
    model = svm_train([(f, y) for _, f, y in ner_data], epochs=2)
    restored = roundtrip(model)
    assert np.array_equal(restored.W, model.W)
    assert np.array_equal(restored.b, model.b)


def test_lstm_crf_roundtrip(ner_data):
    train = [(np.stack([feat.dense for feat in f]), y) for _, f, y in ner_data]
    model = lstm_crf_train(train, LstmCrfConfig(hidden=4, epochs=2, seed=0))
    restored = roundtrip(model)
    assert np.array_equal(restored.params.data, model.params.data)
    assert restored.hidden == model.hidden and restored.labels == model.labels


def test_cnn_roundtrip(emb):
    doc = make_doc("d", ["vitamin", "c", "took", "nausea"])
    inst = RelationInstance("d", span(doc, "T1", "Supplement", 0, 2),
                            span(doc, "T2", "Symptom", 3, 4), "Indication")
    enc = encode_instance(inst, doc, emb, max_len=12)
    model = cnn_train([enc], CnnReConfig(max_len=12, epochs=1, dropout=0.0))
    restored = roundtrip(model)
    assert np.array_equal(restored.params.data, model.params.data)
    assert restored.max_len == model.max_len
    assert restored.input_dim == model.input_dim


@pytest.fixture(scope="module")
def bundles(ner_data, emb):
    """One bundle per model type, from tiny models."""
    docs = [(f, y) for _, f, y in ner_data]
    dense = [(np.stack([feat.dense for feat in f]), y) for _, f, y in ner_data]
    doc = make_doc("d", ["vitamin", "c", "took", "nausea"])
    inst = RelationInstance("d", span(doc, "T1", "Supplement", 0, 2),
                            span(doc, "T2", "Symptom", 3, 4), "Indication")
    models = [crf_train(docs, CrfConfig(max_iter=2)), svm_train(docs, epochs=1),
              lstm_crf_train(dense, LstmCrfConfig(hidden=2, epochs=1)),
              cnn_train([encode_instance(inst, doc, emb, max_len=12)],
                        CnnReConfig(max_len=12, epochs=1))]
    return {b["model_type"]: b for b in map(model_to_bundle, models)}


@pytest.mark.parametrize("model_type, name, corrupt, message", [
    ("crf", "W", lambda w: [row[:-1] for row in w], "weights W"),
    ("crf", "T", lambda w: w[:-1], "weights T"),
    ("svm", "W", lambda w: w[:-1], "weights W"),
    ("svm", "b", lambda w: 0.5, "weights b"),
    ("lstm_crf", "Wp", lambda w: 0.5, "'Wp'"),
    ("cnn_re", "conv_b", lambda w: w[:-1], "'conv_b'"),
])
def test_misshaped_weight_is_refused_naming_it(bundles, model_type, name, corrupt,
                                               message):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    bundle["weights"][name] = corrupt(bundle["weights"][name])
    with pytest.raises(ValueError, match=message):
        model_from_bundle(bundle)


MISSING = object()


@pytest.mark.parametrize("model_type, key", [
    ("lstm_crf", "input_dim"), ("lstm_crf", "hidden"),
    ("cnn_re", "input_dim"), ("cnn_re", "max_len"),
])
@pytest.mark.parametrize("value", [MISSING, 3.5, 8.0, "8", True, 0, None])
def test_bad_size_hyperparameter_is_refused_naming_it(bundles, model_type, key, value):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    if value is MISSING:
        del bundle["hyperparameters"][key]
    else:
        bundle["hyperparameters"][key] = value
    with pytest.raises(ValueError, match=f"{model_type} bundle: hyperparameter {key}"):
        model_from_bundle(bundle)


@pytest.mark.parametrize("value", [MISSING, "0.2", 1.0, -0.1, None])
def test_bad_cnn_dropout_is_refused_naming_it(bundles, value):
    bundle = json.loads(dumps_bundle(bundles["cnn_re"]))
    if value is MISSING:
        del bundle["hyperparameters"]["dropout"]
    else:
        bundle["hyperparameters"]["dropout"] = value
    with pytest.raises(ValueError, match="hyperparameter dropout"):
        model_from_bundle(bundle)


def _ragged(w):
    return [w[0][:-1]] + w[1:]


def _strings(w):
    return [[str(v) for v in row] for row in w]


def _holes(w):
    return [[None] * len(w[0])] + w[1:]


@pytest.mark.parametrize("model_type, name", [
    ("lstm_crf", "Wx"), ("lstm_crf", "Wh"), ("lstm_crf", "Wp"), ("lstm_crf", "T"),
    ("cnn_re", "markers"), ("cnn_re", "pos_head"), ("cnn_re", "conv_W"), ("cnn_re", "out_W"),
])
@pytest.mark.parametrize("corrupt", [None, _ragged, _strings, _holes])
def test_bad_weight_list_is_refused_naming_it(bundles, model_type, name, corrupt):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    if corrupt is None:
        del bundle["weights"][name]
    else:
        bundle["weights"][name] = corrupt(bundle["weights"][name])
    with pytest.raises(ValueError, match=f"{model_type} bundle: weights {name} "):
        model_from_bundle(bundle)


def test_bundle_with_per_direction_lstm_weights_is_refused(bundles):
    bundle = json.loads(dumps_bundle(bundles["lstm_crf"]))
    weights = bundle["weights"]
    for name in ("Wx", "Wh", "b"):
        weights[f"{name}_fwd"], weights[f"{name}_bwd"] = weights.pop(name)
    with pytest.raises(ValueError, match="lstm_crf bundle: weights Wx is missing"):
        model_from_bundle(bundle)


def _set_column(value):
    """Corruption that gives the registry's first indicator ``value`` as
    its column."""
    def corrupt(registry):
        registry["index"][next(iter(registry["index"]))] = value
    return corrupt


def _repeat_column(registry):
    first, second = list(registry["index"])[:2]
    registry["index"][first] = registry["index"][second]


@pytest.mark.parametrize("model_type", ["crf", "svm"])
@pytest.mark.parametrize("corrupt, field", [
    pytest.param(lambda r: r.pop("dense_dim"), "dense_dim", id="dense_dim-missing"),
    pytest.param(lambda r: r.update(dense_dim="x"), "dense_dim", id="dense_dim-text"),
    pytest.param(lambda r: r.update(dense_dim=-1), "dense_dim", id="dense_dim-negative"),
    pytest.param(lambda r: r.update(index=list(r["index"])), "index", id="index-list"),
    pytest.param(_set_column("0"), "index", id="column-text"),
    pytest.param(_set_column(0.5), "index", id="column-float"),
    pytest.param(_set_column([0]), "index", id="column-list"),
    pytest.param(_set_column(-1), "index", id="column-negative"),
    pytest.param(_repeat_column, "index", id="column-repeated"),
    pytest.param(lambda r: r.update(index={k: v + 1 for k, v in r["index"].items()}),
                 "index", id="columns-from-1"),
])
def test_bad_feature_registry_is_refused_naming_the_field(bundles, model_type,
                                                          corrupt, field):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    corrupt(bundle["feature_registry"])
    with pytest.raises(ValueError, match=f"bundle: feature_registry {field} "):
        model_from_bundle(bundle)


@pytest.mark.parametrize("model_type", ["crf", "svm"])
def test_feature_registry_that_is_not_a_dict_is_refused(bundles, model_type):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    bundle["feature_registry"] = [bundle["feature_registry"]]
    with pytest.raises(ValueError, match="bundle: feature_registry must be a dict"):
        model_from_bundle(bundle)


@pytest.mark.parametrize("key, value", [
    ("model_type", None), ("label_alphabet", "BIO"), ("hyperparameters", []),
    ("weights", MISSING),
])
def test_bad_top_level_field_is_refused_naming_it(bundles, key, value):
    bundle = json.loads(dumps_bundle(bundles["lstm_crf"]))
    if value is MISSING:
        del bundle[key]
    else:
        bundle[key] = value
    with pytest.raises(ValueError, match=f"bundle: {key} "):
        model_from_bundle(bundle)


@pytest.mark.parametrize("model_type", ["crf", "svm", "lstm_crf", "cnn_re"])
@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda labels: list(range(len(labels))), id="ints"),
    pytest.param(lambda labels: [labels[0]] * len(labels), id="duplicates"),
    pytest.param(lambda labels: [], id="empty"),
])
def test_bad_label_alphabet_is_refused_naming_it(bundles, model_type, corrupt):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    bundle["label_alphabet"] = corrupt(bundle["label_alphabet"])
    with pytest.raises(ValueError, match="bundle: label_alphabet "):
        model_from_bundle(bundle)


@pytest.mark.parametrize("model_type, name", [
    ("crf", "W"), ("crf", "T"), ("svm", "W"), ("svm", "b"), ("lstm_crf", "Wx"),
    ("cnn_re", "out_b"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_is_refused_naming_it(bundles, model_type, name, value):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    weight = bundle["weights"][name]
    row = weight[-1] if isinstance(weight[-1], list) else weight
    row[-1] = value
    with pytest.raises(ValueError, match=f"{model_type} bundle: weights {name} "):
        model_from_bundle(bundle)


def test_bundle_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="bundle must be a JSON object"):
        load_model(path)


# JSON texts, parsed afresh on each draw so that no mutation is shared
_JSON_VALUES = ["null", "true", "0", "2", "-1.5", '"x"', "[]", "[1, 2]", "{}", '{"a": 1}',
                "1.0", '"1"']


def _mutate(data, root):
    """Walk from the root (a one-item list holding the bundle) to a random
    node and delete it, swap its JSON type, make it ragged or put a
    non-finite number in it."""
    holder, key = root, 0
    while isinstance(holder[key], (dict, list)) and holder[key] and data.draw(st.booleans()):
        node = holder[key]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        holder, key = node, data.draw(st.sampled_from(keys))
    value = holder[key]
    how = data.draw(st.sampled_from(["delete", "swap", "ragged", "non-finite"]))
    if how == "delete" and holder is not root:
        del holder[key]
    elif how == "swap":
        holder[key] = json.loads(data.draw(st.sampled_from(_JSON_VALUES)))
    elif how == "ragged" and isinstance(value, list) and value:
        first = value[0]
        value[0] = first[:-1] if isinstance(first, list) else [first]
    else:
        number = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if isinstance(value, list):
            value.insert(data.draw(st.integers(0, len(value))), number)
        elif isinstance(value, dict):
            value[data.draw(st.sampled_from(sorted(value) or ["k"]))] = number
        else:
            holder[key] = number


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model_type=st.sampled_from(["crf", "svm", "lstm_crf", "cnn_re"]),
       mutations=st.integers(1, 3), data=st.data())
def test_mutated_bundle_loads_or_raises_value_error(bundles, tmp_path, model_type,
                                                    mutations, data):
    """A damaged bundle loads or raises ValueError; never KeyError,
    TypeError, IndexError or AttributeError."""
    root = [json.loads(dumps_bundle(bundles[model_type]))]
    for _ in range(mutations):
        _mutate(data, root)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(root[0]))
    try:
        load_model(path)
    except ValueError:
        return
    # true, 1.0 and "1" are not the version 1
    assert type(root[0]["version"]) is int


def test_cnn_bundle_with_a_switch_off_is_refused(bundles):
    bundle = bundles["cnn_re"]
    assert "use_positions" not in bundle["hyperparameters"]
    model_from_bundle(bundle)
    for key in ("use_positions", "use_markers"):
        old = json.loads(dumps_bundle(bundle))
        old["hyperparameters"][key] = True
        model_from_bundle(old)
        old["hyperparameters"][key] = False
        with pytest.raises(ValueError, match=key):
            model_from_bundle(old)


def test_bundle_is_canonical_json(ner_data):
    model = svm_train([(f, y) for _, f, y in ner_data], epochs=1)
    text = dumps_bundle(model_to_bundle(model))
    assert text.endswith("\n") and "\n" not in text[:-1]
    parsed = json.loads(text)
    assert parsed["version"] == BUNDLE_VERSION
    # canonical form: re-serializing the parsed dict gives the same bytes
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n" == text


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_version_of_another_json_type_is_refused(bundles, version):
    bundle = json.loads(dumps_bundle(bundles["svm"]))
    model_from_bundle(bundle)
    bundle["version"] = version
    with pytest.raises(ValueError, match=f"unsupported version {version!r}"):
        model_from_bundle(json.loads(json.dumps(bundle)))


def test_bundle_version_and_type_errors(ner_data):
    model = svm_train([(f, y) for _, f, y in ner_data], epochs=1)
    bundle = model_to_bundle(model)
    bad_version = dict(bundle, version=BUNDLE_VERSION + 1)
    with pytest.raises(ValueError, match="version"):
        model_from_bundle(bad_version)
    bad_type = dict(bundle, model_type="transformer")
    with pytest.raises(ValueError, match="model_type"):
        model_from_bundle(bad_type)


def test_save_and_load_model(tmp_path, ner_data):
    model = svm_train([(f, y) for _, f, y in ner_data], epochs=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    assert np.array_equal(restored.W, model.W)
    # two saves of the same model are byte-identical
    other = tmp_path / "model2.json"
    save_model(model, other)
    assert path.read_bytes() == other.read_bytes()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(path, "bye\n")
    assert path.read_text() == "bye\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
