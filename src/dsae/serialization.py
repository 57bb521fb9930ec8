"""JSON model bundles.

Every trained model saves to a single JSON document with the keys
{model_type, version, label_alphabet, feature_registry, hyperparameters,
weights}; a CRF bundle also has ``converged``, whether L-BFGS converged.
Floats are written with Python's shortest-repr decimal encoding, so float64
values round-trip exactly and identical models serialize to byte-identical
files.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .ner.crf import CrfModel
from .ner.features import FeatureRegistry
from .ner.lstm_crf import LstmCrfModel, _param_shapes
from .ner.svm import SvmModel
from .numeric.params import ParamVector
from .relation import CnnReModel, _cnn_shapes

BUNDLE_VERSION = 1


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
    registry = FeatureRegistry(dense_dim)
    registry.index = dict(index)
    registry.freeze()
    return registry


def _array(model_type: str, weights: dict, name: str) -> np.ndarray:
    if name not in weights:
        raise ValueError(f"{model_type} bundle: weights {name} is missing")
    try:
        value = np.asarray(weights[name])
    except ValueError:  # ragged nesting
        value = None
    if value is None or value.dtype.kind not in "iuf" or not np.isfinite(value).all():
        raise ValueError(f"{model_type} bundle: weights {name} must be a rectangular "
                         "array of finite numbers")
    return np.asarray(value, dtype=np.float64)


def _checked(model_type: str, weights: dict, name: str, shape: tuple) -> np.ndarray:
    value = _array(model_type, weights, name)
    if value.shape != shape:
        raise ValueError(f"{model_type} bundle: weights {name} has shape "
                         f"{value.shape}, expected {shape}")
    return value


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
        weights = {"W": model.W.tolist(), "T": model.T.tolist()}
    elif isinstance(model, SvmModel):
        model_type = "svm"
        registry = model.registry
        weights = {"W": model.W.tolist(), "b": model.b.tolist()}
    elif isinstance(model, (LstmCrfModel, CnnReModel)):
        model_type = "lstm_crf" if isinstance(model, LstmCrfModel) else "cnn_re"
        registry = None
        weights = {name: model.params[name].tolist() for name in model.params.shapes}
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
        "weights": weights,
    }
    if isinstance(model, CrfModel):
        bundle["converged"] = bool(model.converged)
    return bundle


def model_from_bundle(bundle: dict):
    """Reconstruct a model object from a bundle dict."""
    if not isinstance(bundle, dict):
        raise ValueError(f"bundle must be a JSON object, got {type(bundle).__name__}")
    version = bundle.get("version")
    # by type as well: true and 1.0 compare equal to 1
    if type(version) is not int or version != BUNDLE_VERSION:
        raise ValueError(f"bundle: unsupported version {version!r}, "
                         f"expected the integer {BUNDLE_VERSION}")
    model_type = _field(bundle, "model_type", str)
    labels = tuple(_field(bundle, "label_alphabet", list))
    if not (labels and all(isinstance(lab, str) for lab in labels)
            and len(set(labels)) == len(labels)):
        raise ValueError("bundle: label_alphabet must be distinct strings, at least one, "
                         f"got {list(labels)!r}")
    hyper = dict(_field(bundle, "hyperparameters", dict))
    weights = _field(bundle, "weights", dict)
    K = len(labels)
    if model_type in ("crf", "svm"):
        registry = _decode_registry(bundle.get("feature_registry"))
        if registry is None:
            raise ValueError(f"{model_type} bundle: feature_registry is missing")
        D = registry.total_dim
    if model_type == "crf":
        converged = bundle.get("converged")
        if not isinstance(converged, bool):
            raise ValueError("crf bundle: converged must be true or false")
        return CrfModel(
            labels=labels,
            registry=registry,
            W=_checked("crf", weights, "W", (K, D)),
            T=_checked("crf", weights, "T", (K, K)),
            converged=converged,
            hyperparameters=hyper,
        )
    if model_type == "svm":
        return SvmModel(
            labels=labels,
            registry=registry,
            W=_checked("svm", weights, "W", (K, D)),
            b=_checked("svm", weights, "b", (K,)),
            hyperparameters=hyper,
        )
    if model_type == "lstm_crf":
        input_dim = _size(model_type, hyper, "input_dim")
        hidden = _size(model_type, hyper, "hidden")
        params = ParamVector(_param_shapes(input_dim, hidden, len(labels)))
        for name in params.shapes:
            params[name] = _array(model_type, weights, name)
        return LstmCrfModel(labels=labels, input_dim=input_dim, hidden=hidden,
                            params=params, hyperparameters=hyper)
    if model_type == "cnn_re":
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
        params = ParamVector(_cnn_shapes(input_dim, max_len))
        for name in params.shapes:
            params[name] = _array(model_type, weights, name)
        return CnnReModel(input_dim=input_dim, max_len=max_len, params=params,
                          dropout=float(dropout), labels=labels, hyperparameters=hyper)
    raise ValueError(f"unknown model_type {model_type!r}")


def dumps_bundle(bundle: dict) -> str:
    return json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
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
