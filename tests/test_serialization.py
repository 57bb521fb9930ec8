import base64
import copy
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
                                encode_array, load_model, model_from_bundle,
                                model_to_bundle, save_model)

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
    assert stopped.training["stop"] == "max_iter" and stopped.training["steps"] == 1
    for model in (stopped, converged):
        restored = roundtrip(model)
        assert restored.converged == model.converged
        assert restored.training == model.training
    bundle = model_to_bundle(stopped)
    assert "converged" not in bundle  # derived from the stop reason
    del bundle["training"]
    with pytest.raises(ValueError, match="crf bundle: training "):
        model_from_bundle(bundle)


def test_svm_roundtrip(ner_data):
    model = svm_train([(f, y) for _, f, y in ner_data], epochs=2)
    restored = roundtrip(model)
    assert np.array_equal(restored.W, model.W)
    assert np.array_equal(restored.b, model.b)


def test_lstm_crf_roundtrip(ner_data):
    train = [(f, y) for _, f, y in ner_data]
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


MODEL_TYPES = ["crf", "svm", "lstm_crf", "cnn_re"]


def train_tiny(model_type, ner_data, emb):
    """A tiny model of the given type, trained with its default seed."""
    docs = [(f, y) for _, f, y in ner_data]
    if model_type == "crf":
        return crf_train(docs, CrfConfig(max_iter=2))
    if model_type == "svm":
        return svm_train(docs, epochs=1)
    if model_type == "lstm_crf":
        return lstm_crf_train(docs, LstmCrfConfig(hidden=2, epochs=2), dev=docs[:2])
    doc = make_doc("d", ["vitamin", "c", "took", "nausea"])
    inst = RelationInstance("d", span(doc, "T1", "Supplement", 0, 2),
                            span(doc, "T2", "Symptom", 3, 4), "Indication")
    return cnn_train([encode_instance(inst, doc, emb, max_len=12)],
                     CnnReConfig(max_len=12, epochs=2))


@pytest.fixture(scope="module")
def models(ner_data, emb):
    """One tiny model per model type."""
    return {t: train_tiny(t, ner_data, emb) for t in MODEL_TYPES}


@pytest.fixture(scope="module")
def bundles(models):
    """One bundle per model type, from tiny models."""
    return {t: model_to_bundle(model) for t, model in models.items()}


def weight_arrays(model) -> dict:
    """Each weight array of a model by its bundle name."""
    if hasattr(model, "params"):
        return {name: model.params[name] for name in model.params.shapes}
    return {"W": model.W, "T": model.T} if hasattr(model, "T") else {"W": model.W, "b": model.b}


def decoded(entry) -> np.ndarray:
    """The array of a weights entry, read with the .npy layout rule."""
    return np.frombuffer(base64.b64decode(entry["data"]),
                         dtype=entry["dtype"]).reshape(entry["shape"]).copy()


def edited(edit):
    """Corruption that replaces an entry by the encoding of what edit makes
    of its array, so that the entry stays well formed."""
    return lambda entry: encode_array(edit(decoded(entry)))


def with_data(edit):
    """Corruption that replaces an entry's base64 text by edit's."""
    return lambda entry: dict(entry, data=edit(entry["data"]))


def with_bytes(edit):
    """Corruption that replaces an entry's bytes by edit's, in base64."""
    return with_data(lambda text: base64.b64encode(
        edit(base64.b64decode(text))).decode("ascii"))


@pytest.mark.parametrize("model_type, name, corrupt, message", [
    ("crf", "W", lambda w: w[:, :-1], "weights W"),
    ("crf", "T", lambda w: w[:-1], "weights T"),
    ("svm", "W", lambda w: w[:-1], "weights W"),
    ("svm", "b", lambda w: np.array(0.5), "weights b"),
    pytest.param("lstm_crf", "Wp", lambda w: np.array(0.5), "weights Wp", id="lstm_crf-Wp-scalar"),
    pytest.param("cnn_re", "conv_b", lambda w: w[:-1], "weights conv_b", id="cnn_re-conv_b-short"),
])
def test_misshaped_weight_is_refused_naming_it(bundles, model_type, name, corrupt,
                                               message):
    """A well-formed array whose shape is not the one the registry or the
    hyperparameters imply."""
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    bundle["weights"][name] = edited(corrupt)(bundle["weights"][name])
    with pytest.raises(ValueError, match=f"{model_type} bundle: {message} has shape "):
        model_from_bundle(bundle)


@pytest.mark.parametrize("model_type, name", [
    ("crf", "W"), ("svm", "W"), ("lstm_crf", "Wx"), ("cnn_re", "conv_W"),
])
def test_reshaped_weight_is_refused_though_its_size_fits(bundles, model_type, name):
    """The same bytes under another shape of the same size, so that only
    the registry or the hyperparameters can tell."""
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    entry = bundle["weights"][name]
    entry["shape"] = entry["shape"][::-1]
    with pytest.raises(ValueError, match=f"{model_type} bundle: weights {name} has shape "):
        model_from_bundle(bundle)


@pytest.mark.parametrize("model_type, name", [
    ("crf", "T"), ("svm", "b"), ("lstm_crf", "Wh"), ("cnn_re", "out_W"),
])
@pytest.mark.parametrize("corrupt, field", [
    pytest.param(with_data(lambda t: t[:-2] + "!!"), "data must be a base64 string",
                 id="bad-character"),
    pytest.param(with_data(lambda t: t + "A"), "data must be a base64 string",
                 id="bad-padding"),
    pytest.param(with_data(lambda t: "\u00e9" + t[1:]), "data must be a base64 string",
                 id="not-ascii"),
    pytest.param(with_data(lambda t: None), "data must be a base64 string", id="data-null"),
    pytest.param(with_bytes(lambda b: b + bytes(8)), "data holds", id="8-bytes-more"),
    pytest.param(with_bytes(lambda b: b[:-8]), "data holds", id="8-bytes-fewer"),
    pytest.param(lambda e: dict(e, dtype="<f4"), "dtype must be '<f8'", id="dtype-f4"),
    pytest.param(lambda e: dict(e, dtype=">f8"), "dtype must be '<f8'", id="dtype-big-endian"),
    pytest.param(lambda e: dict(e, dtype="float64"), "dtype must be '<f8'", id="dtype-name"),
    pytest.param(lambda e: dict(e, dtype=None), "dtype must be '<f8'", id="dtype-null"),
    pytest.param(lambda e: dict(e, shape=-1), "shape must be a list", id="shape-number"),
    pytest.param(lambda e: dict(e, shape=[-1] + e["shape"][1:]), "shape must be a list",
                 id="shape-negative"),
    pytest.param(lambda e: dict(e, shape=[float(n) for n in e["shape"]]),
                 "shape must be a list", id="shape-floats"),
    pytest.param(lambda e: decoded(e).tolist(), "must be an object with the keys",
                 id="version-1-list"),
    pytest.param(lambda e: dict(e, order="C"), "must be an object with the keys",
                 id="extra-key"),
    pytest.param(lambda e: {k: e[k] for k in ("data", "shape")},
                 "must be an object with the keys", id="no-dtype"),
])
def test_bad_array_entry_is_refused_naming_the_field(bundles, model_type, name, corrupt,
                                                     field):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    bundle["weights"][name] = corrupt(bundle["weights"][name])
    with pytest.raises(ValueError, match=f"{model_type} bundle: weights {name} {field}"):
        model_from_bundle(json.loads(json.dumps(bundle)))


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


def _ragged(entry):
    """A last value cut short: a byte count that is not 8 per value."""
    return with_bytes(lambda b: b[:-3])(entry)


def _strings(entry):
    return dict(entry, shape=[str(n) for n in entry["shape"]])


def _holes(entry):
    return dict(entry, shape=[None] + entry["shape"][1:])


@pytest.mark.parametrize("model_type, name", [
    ("lstm_crf", "Wx"), ("lstm_crf", "Wh"), ("lstm_crf", "Wp"), ("lstm_crf", "T"),
    ("cnn_re", "markers"), ("cnn_re", "pos_head"), ("cnn_re", "conv_W"), ("cnn_re", "out_W"),
])
@pytest.mark.parametrize("corrupt", [None, _ragged, _strings, _holes])
def test_bad_weight_list_is_refused_naming_it(bundles, model_type, name, corrupt):
    """A missing array, a ragged byte count, and a shape with text or a
    hole in it."""
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
        fwd, bwd = decoded(weights.pop(name))
        weights[f"{name}_fwd"], weights[f"{name}_bwd"] = encode_array(fwd), encode_array(bwd)
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
    pytest.param(lambda labels: labels[:-1] + ["Other"], id="renamed"),
    pytest.param(lambda labels: labels[:-2] + labels[:-3:-1], id="permuted"),
])
def test_bad_label_alphabet_is_refused_naming_it(bundles, model_type, corrupt):
    """Only the model type's own alphabet, in its order, loads: the models
    decode and score against it."""
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
    """NaN or infinite bytes in an otherwise well-formed array."""
    def corrupt(w):
        w.flat[-1] = value
        return w

    bundle = json.loads(dumps_bundle(bundles[model_type]))
    bundle["weights"][name] = edited(corrupt)(bundle["weights"][name])
    with pytest.raises(ValueError,
                       match=f"{model_type} bundle: weights {name} must hold finite numbers"):
        model_from_bundle(bundle)


def test_bundle_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="bundle must be a JSON object"):
        load_model(path)


# JSON texts, parsed afresh on each draw so that no mutation is shared
_JSON_VALUES = ["null", "true", "0", "2", "-1.5", '"x"', "[]", "[1, 2]", "{}", '{"a": 1}',
                "1.0", '"1"']


def _float64s(text):
    """The float64 values a base64 text holds, or None."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        return None
    return np.frombuffer(raw, dtype="<f8").copy() if raw and len(raw) % 8 == 0 else None


def _mutate(data, root):
    """Walk from the root (a one-item list holding the bundle) to a random
    node and delete it, swap its JSON type, make it ragged (a list's first
    item, or a text cut short) or put a non-finite number in it (into the
    values of an array's base64 data)."""
    holder, key = root, 0
    while isinstance(holder[key], (dict, list)) and holder[key] and data.draw(st.booleans()):
        node = holder[key]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        holder, key = node, data.draw(st.sampled_from(keys))
    value = holder[key]
    how = data.draw(st.sampled_from(["delete", "swap", "ragged", "non-finite"]))
    values = _float64s(value) if isinstance(value, str) else None
    if how == "delete" and holder is not root:
        del holder[key]
    elif how == "swap":
        holder[key] = json.loads(data.draw(st.sampled_from(_JSON_VALUES)))
    elif how == "ragged" and isinstance(value, list) and value:
        first = value[0]
        value[0] = first[:-1] if isinstance(first, list) else [first]
    elif how == "ragged" and isinstance(value, str) and value:
        holder[key] = value[:data.draw(st.integers(0, len(value) - 1))]
    elif how == "non-finite" and values is not None:
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        holder[key] = base64.b64encode(values).decode("ascii")
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
    # true, 2.0 and "1" are not the version 2
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


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2.0, "2"])
def test_version_of_another_json_type_is_refused(bundles, version):
    bundle = json.loads(dumps_bundle(bundles["svm"]))
    model_from_bundle(bundle)
    bundle["version"] = version
    with pytest.raises(ValueError, match=f"unsupported version {version!r}"):
        model_from_bundle(json.loads(json.dumps(bundle)))


@pytest.mark.parametrize("model_type", MODEL_TYPES)
def test_version_1_bundle_is_refused_naming_the_version(bundles, model_type):
    """A bundle of format 1, weights as lists of JSON numbers, is not read."""
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    bundle["version"] = 1
    bundle["weights"] = {name: decoded(entry).tolist()
                         for name, entry in bundle["weights"].items()}
    if model_type == "crf":
        bundle["converged"] = bundle.pop("training")["stop"] == "converged"
    with pytest.raises(ValueError, match="bundle: unsupported version 1, expected the "
                                         "integer 2"):
        model_from_bundle(bundle)


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


EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            2.2250738585072014e-308, -5e-324, 0.1]


@pytest.mark.parametrize("model_type", MODEL_TYPES)
def test_extreme_weights_round_trip_bit_for_bit(models, tmp_path, model_type):
    """Negative zero, the smallest subnormal and the largest finite float64
    come back with the same bits, through a saved file."""
    model = copy.deepcopy(models[model_type])
    for w in weight_arrays(model).values():
        flat = w.reshape(-1)
        n = min(len(EXTREMES), flat.size)
        flat[:n] = EXTREMES[:n]
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    for name, w in weight_arrays(model).items():
        back = weight_arrays(restored)[name]
        assert back.dtype == np.float64 and back.shape == w.shape
        assert back.tobytes() == w.tobytes(), name
        assert back.flat[0] == 0.0 and np.signbit(back.flat[0])


@pytest.mark.parametrize("model_type", MODEL_TYPES)
def test_same_seed_trainings_save_identical_files(ner_data, emb, tmp_path, model_type):
    paths = [tmp_path / f"{run}.json" for run in range(2)]
    for path in paths:
        save_model(train_tiny(model_type, ner_data, emb), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert json.loads(paths[0].read_text())["version"] == 2


@pytest.mark.parametrize("model_type", MODEL_TYPES)
def test_every_weight_is_an_encoded_float64_array(models, bundles, model_type):
    """Each entry of weights holds the little-endian float64 bytes of one
    model array in C order, so no model type writes lists of numbers."""
    arrays = weight_arrays(models[model_type])
    weights = json.loads(dumps_bundle(bundles[model_type]))["weights"]
    assert sorted(weights) == sorted(arrays)
    for name, entry in weights.items():
        assert sorted(entry) == ["data", "dtype", "shape"] and entry["dtype"] == "<f8"
        assert entry["shape"] == list(arrays[name].shape)
        expected = np.asarray(arrays[name], dtype="<f8").tobytes(order="C")
        assert base64.b64decode(entry["data"], validate=True) == expected


@pytest.mark.parametrize("model_type", MODEL_TYPES)
def test_training_record_round_trips(models, model_type):
    model = models[model_type]
    bundle = json.loads(dumps_bundle(model_to_bundle(model)))
    if model_type == "svm":
        assert "training" not in bundle
        return
    record = bundle["training"]
    assert record == model.training
    assert roundtrip(model).training == record
    if model_type == "crf":
        assert sorted(record) == ["evaluations", "objective", "steps", "stop"]
        assert record["steps"] == 2 and record["evaluations"] >= 3
        return
    epochs = model.hyperparameters["epochs"]
    assert len(record["loss"]) == len(record["grad_norm"]) == epochs
    if model_type == "lstm_crf":  # trained with a dev split
        assert len(record["dev_score"]) == epochs
        assert record["dev_score"][record["chosen_epoch"]] == max(record["dev_score"])
    else:
        assert record["dev_score"] is None and record["chosen_epoch"] == epochs - 1


@pytest.mark.parametrize("model_type, corrupt, field", [
    ("crf", lambda r: r.pop("stop"), "must be an object"),
    ("crf", lambda r: r.update(stop="diverged"), "stop must be one of"),
    ("crf", lambda r: r.update(steps=-1), "steps must be a non-negative integer"),
    ("crf", lambda r: r.update(steps=2.0), "steps must be a non-negative integer"),
    ("crf", lambda r: r.update(evaluations=True), "evaluations must be a non-negative"),
    ("crf", lambda r: r.update(objective=math.nan), "objective must be a finite number"),
    ("crf", lambda r: r.update(objective="1.5"), "objective must be a finite number"),
    ("lstm_crf", lambda r: r.update(extra=1), "must be an object"),
    ("lstm_crf", lambda r: r.update(loss=1.0), "loss must be a list"),
    ("lstm_crf", lambda r: r["loss"].append(1.0), "grad_norm must be a list"),
    ("lstm_crf", lambda r: r["grad_norm"].pop(), "grad_norm must be a list"),
    ("lstm_crf", lambda r: r["dev_score"].__setitem__(0, math.nan), "dev_score must be a"),
    ("lstm_crf", lambda r: r.update(chosen_epoch=2), "chosen_epoch must be null"),
    ("cnn_re", lambda r: r.update(chosen_epoch=-1), "chosen_epoch must be null"),
    ("cnn_re", lambda r: r.update(chosen_epoch=True), "chosen_epoch must be null"),
    ("cnn_re", lambda r: r.update(dev_score=[]), "dev_score must be a list"),
    ("cnn_re", lambda r: r["loss"].__setitem__(0, 1), "loss must be a list"),
])
def test_bad_training_record_is_refused_naming_the_field(bundles, model_type, corrupt,
                                                         field):
    bundle = json.loads(dumps_bundle(bundles[model_type]))
    corrupt(bundle["training"])
    with pytest.raises(ValueError, match=f"{model_type} bundle: training {field}"):
        model_from_bundle(json.loads(json.dumps(bundle)))
