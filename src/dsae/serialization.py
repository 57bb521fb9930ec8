"""JSON model bundles, format 2.

Every trained model saves to a single JSON document with the keys
{model_type, version, label_alphabet, feature_registry, hyperparameters,
weights}, written canonically (sorted keys, no spaces), so identical
models serialize to byte-identical files. Each entry of ``weights`` is one
array in the layout of the ``.npy`` format (NumPy NEP 1):
``{"dtype": "<f8", "shape": [...], "data": ...}``, ``data`` being the
base64 of the array's little-endian float64 bytes in C order, which
round-trip every value bit for bit. A CRF, BiLSTM-CRF or CNN bundle also
has ``training``, the record of the run that fitted it: L-BFGS's stop
reason, steps, objective evaluations and final objective for the CRF; the
per-epoch loss, gradient norm and dev score and the chosen epoch of
``adam_train`` for the other two.
"""

from __future__ import annotations

import base64
import json
import math
import os
import secrets

import numpy as np

from .annotation import BIO_LABELS, RELATION_LABELS
from .ner.crf import CrfModel
from .ner.features import FeatureRegistry
from .ner.lstm_crf import LstmCrfModel, _param_shapes
from .ner.svm import SvmModel
from .numeric.optim import STOP_REASONS
from .numeric.params import ParamVector
from .relation import CnnReModel, _cnn_shapes

BUNDLE_VERSION = 2
DTYPE = "<f8"
_ARRAY_KEYS = {"data", "dtype", "shape"}
_LBFGS_KEYS = {"stop", "steps", "evaluations", "objective"}
_ADAM_KEYS = {"loss", "grad_norm", "dev_score", "chosen_epoch"}
# the label alphabet each model type decodes to and scores against
_LABEL_ALPHABETS = {"crf": BIO_LABELS, "svm": BIO_LABELS, "lstm_crf": BIO_LABELS,
                    "cnn_re": RELATION_LABELS}


def _encode_registry(registry: FeatureRegistry | None):
    if registry is None:
        return None
    return {"dense_dim": registry.dense_dim, "index": dict(registry.index)}


def _decode_registry(blob) -> FeatureRegistry | None:
    if blob is None:
        return None
    if not isinstance(blob, dict):
        raise ValueError(f"bundle: feature_registry must be a dict, got {blob!r}")
    dense_dim = blob.get("dense_dim")
    if type(dense_dim) is not int or dense_dim < 0:
        raise ValueError("bundle: feature_registry dense_dim must be a non-negative "
                         f"integer, got {dense_dim!r}")
    index = blob.get("index")
    if not isinstance(index, dict):
        raise ValueError("bundle: feature_registry index must be a dict of columns, "
                         f"got {type(index).__name__}")
    columns = index.values()
    if not all(type(c) is int for c in columns) or set(columns) != set(range(len(index))):
        raise ValueError("bundle: feature_registry index columns must be the "
                         f"integers 0..{len(index) - 1}, each once")
    return FeatureRegistry(dense_dim, dict(index))


def encode_array(value: np.ndarray) -> dict:
    """The bundle entry of a float64 array."""
    data = np.ascontiguousarray(value, dtype=DTYPE)
    return {"dtype": DTYPE, "shape": list(value.shape),
            "data": base64.b64encode(data).decode("ascii")}


def _decode_array(model_type: str, weights: dict, name: str, shape: tuple) -> np.ndarray:
    """The array of entry ``name`` of weights, which must hold finite
    float64 values in the given shape."""
    where = f"{model_type} bundle: weights {name}"
    if name not in weights:
        raise ValueError(f"{where} is missing")
    entry = weights[name]
    if not isinstance(entry, dict) or entry.keys() != _ARRAY_KEYS:
        raise ValueError(f"{where} must be an object with the keys data, dtype and shape")
    if entry["dtype"] != DTYPE:
        raise ValueError(f"{where} dtype must be {DTYPE!r}, got {entry['dtype']!r}")
    stored = entry["shape"]
    if not (isinstance(stored, list) and all(type(n) is int and n >= 0 for n in stored)):
        raise ValueError(f"{where} shape must be a list of non-negative integers, "
                         f"got {stored!r}")
    if tuple(stored) != shape:
        raise ValueError(f"{where} has shape {tuple(stored)}, expected {shape}")
    data, raw = entry["data"], None
    if isinstance(data, str):
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError:  # binascii.Error, or a character outside ASCII
            pass
    if raw is None:
        raise ValueError(f"{where} data must be a base64 string")
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{where} data holds {len(raw)} bytes, expected "
                         f"{8 * math.prod(shape)} (8 per value)")
    value = np.frombuffer(raw, dtype=DTYPE).reshape(shape).astype(np.float64)
    if not np.isfinite(value).all():
        raise ValueError(f"{where} must hold finite numbers")
    return value


def _params(model_type: str, weights: dict, shapes: dict) -> ParamVector:
    """A parameter vector of the given shapes, filled from weights."""
    arrays = {name: _decode_array(model_type, weights, name, shape)
              for name, shape in shapes.items()}
    params = ParamVector(shapes)
    for name, value in arrays.items():
        params[name] = value
    return params


def _finite(value) -> bool:
    # every number of a record is written as a float
    return type(value) is float and math.isfinite(value)


def _training(model_type: str, bundle: dict) -> dict:
    """The bundle's training record, checked against the keys and types
    its optimizer writes."""
    record = bundle.get("training")
    keys = _LBFGS_KEYS if model_type == "crf" else _ADAM_KEYS
    where = f"{model_type} bundle: training"
    if not isinstance(record, dict) or record.keys() != keys:
        raise ValueError(f"{where} must be an object with the keys {', '.join(sorted(keys))}")
    if model_type == "crf":
        if record["stop"] not in STOP_REASONS:
            raise ValueError(f"{where} stop must be one of {', '.join(STOP_REASONS)}, "
                             f"got {record['stop']!r}")
        for key in ("steps", "evaluations"):
            if type(record[key]) is not int or record[key] < 0:
                raise ValueError(f"{where} {key} must be a non-negative integer, "
                                 f"got {record[key]!r}")
        if not _finite(record["objective"]):
            raise ValueError(f"{where} objective must be a finite number, "
                             f"got {record['objective']!r}")
        return dict(record)
    epochs = record["loss"]
    for key in ("loss", "grad_norm", "dev_score"):
        value = record[key]
        if key == "dev_score" and value is None:
            continue
        if not (isinstance(value, list) and len(value) == len(epochs)
                and all(map(_finite, value))):
            raise ValueError(f"{where} {key} must be a list of finite numbers, one per epoch")
    chosen = record["chosen_epoch"]
    if chosen is not None and not (type(chosen) is int and 0 <= chosen < len(epochs)):
        raise ValueError(f"{where} chosen_epoch must be null or an epoch from 0 to "
                         f"{len(epochs) - 1}, got {chosen!r}")
    return dict(record)


def _size(model_type: str, hyper: dict, key: str) -> int:
    """Pop the positive integer hyperparameter ``key``."""
    if key not in hyper:
        raise ValueError(f"{model_type} bundle: hyperparameter {key} is missing")
    value = hyper.pop(key)
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{model_type} bundle: hyperparameter {key} must be a "
                         f"positive integer, got {value!r}")
    return value


def _field(bundle: dict, key: str, kind: type):
    value = bundle.get(key)
    if not isinstance(value, kind):
        raise ValueError(f"bundle: {key} must be a {kind.__name__}, got {value!r}")
    return value


def model_to_bundle(model) -> dict:
    """Build the JSON-serializable bundle dict for any supported model."""
    if isinstance(model, CrfModel):
        model_type = "crf"
        registry = model.registry
        weights = {"W": model.W, "T": model.T}
    elif isinstance(model, SvmModel):
        model_type = "svm"
        registry = model.registry
        weights = {"W": model.W, "b": model.b}
    elif isinstance(model, (LstmCrfModel, CnnReModel)):
        model_type = "lstm_crf" if isinstance(model, LstmCrfModel) else "cnn_re"
        registry = None
        weights = {name: model.params[name] for name in model.params.shapes}
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    hyper = dict(model.hyperparameters)
    if isinstance(model, LstmCrfModel):
        hyper["input_dim"] = model.input_dim
        hyper["hidden"] = model.hidden
    if isinstance(model, CnnReModel):
        hyper["input_dim"] = model.input_dim
        hyper["max_len"] = model.max_len
        hyper["dropout"] = model.dropout
    bundle = {
        "model_type": model_type,
        "version": BUNDLE_VERSION,
        "label_alphabet": list(model.labels),
        "feature_registry": _encode_registry(registry),
        "hyperparameters": hyper,
        "weights": {name: encode_array(value) for name, value in weights.items()},
    }
    if not isinstance(model, SvmModel):
        bundle["training"] = model.training
    return bundle


def model_from_bundle(bundle: dict):
    """Reconstruct a model object from a bundle dict."""
    if not isinstance(bundle, dict):
        raise ValueError(f"bundle must be a JSON object, got {type(bundle).__name__}")
    version = bundle.get("version")
    # by type as well: true and 2.0 compare equal to integers
    if type(version) is not int or version != BUNDLE_VERSION:
        raise ValueError(f"bundle: unsupported version {version!r}, "
                         f"expected the integer {BUNDLE_VERSION}")
    model_type = _field(bundle, "model_type", str)
    if model_type not in _LABEL_ALPHABETS:
        raise ValueError(f"unknown model_type {model_type!r}")
    labels = tuple(_field(bundle, "label_alphabet", list))
    if labels != _LABEL_ALPHABETS[model_type]:
        raise ValueError(f"{model_type} bundle: label_alphabet must be "
                         f"{list(_LABEL_ALPHABETS[model_type])!r}, got {list(labels)!r}")
    hyper = dict(_field(bundle, "hyperparameters", dict))
    weights = _field(bundle, "weights", dict)
    K = len(labels)
    if model_type in ("crf", "svm"):
        registry = _decode_registry(bundle.get("feature_registry"))
        if registry is None:
            raise ValueError(f"{model_type} bundle: feature_registry is missing")
        D = registry.total_dim
    if model_type == "crf":
        return CrfModel(
            labels=labels,
            registry=registry,
            W=_decode_array("crf", weights, "W", (K, D)),
            T=_decode_array("crf", weights, "T", (K, K)),
            hyperparameters=hyper,
            training=_training("crf", bundle),
        )
    if model_type == "svm":
        return SvmModel(
            labels=labels,
            registry=registry,
            W=_decode_array("svm", weights, "W", (K, D)),
            b=_decode_array("svm", weights, "b", (K,)),
            hyperparameters=hyper,
        )
    if model_type == "lstm_crf":
        input_dim = _size(model_type, hyper, "input_dim")
        hidden = _size(model_type, hyper, "hidden")
        params = _params(model_type, weights, _param_shapes(input_dim, hidden, K))
        return LstmCrfModel(labels=labels, input_dim=input_dim, hidden=hidden,
                            params=params, hyperparameters=hyper,
                            training=_training(model_type, bundle))
    # the one model type left, cnn_re
    input_dim = _size(model_type, hyper, "input_dim")
    max_len = _size(model_type, hyper, "max_len")
    dropout = hyper.pop("dropout", None)
    if (isinstance(dropout, bool) or not isinstance(dropout, (int, float))
            or not 0.0 <= dropout < 1.0):
        raise ValueError(f"cnn_re bundle: hyperparameter dropout must be a number "
                         f"in [0, 1), got {dropout!r}")
    for key in ("use_positions", "use_markers"):
        # older bundles record these always-on switches
        if hyper.pop(key, True) is not True:
            raise ValueError(f"cnn_re bundle: hyperparameter {key} must be true; "
                             "models without it are not supported")
    params = _params(model_type, weights, _cnn_shapes(input_dim, max_len))
    return CnnReModel(input_dim=input_dim, max_len=max_len, params=params,
                      dropout=float(dropout), labels=labels, hyperparameters=hyper,
                      training=_training(model_type, bundle))


def dumps_bundle(bundle: dict) -> str:
    return json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write to a new temp file in the target directory, then rename. The
    file's mode is 0o666 less the umask, as ``open`` would give it."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model, path) -> None:
    atomic_write_text(path, dumps_bundle(model_to_bundle(model)))


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_bundle(json.load(fh))
