import numpy as np
import pytest

from dsae.annotation import BIO_LABELS, to_bio
from dsae.embeddings import EmbeddingTable
from dsae.ner.features import FeatureRegistry, featurize, index_features
from dsae.ner.svm import SvmModel, _token_rows, svm_predict, svm_train
from dsae.numeric.rng import Rng

from util import make_doc, span


@pytest.fixture(scope="module")
def toy_dataset():
    emb = EmbeddingTable(4, {"vitamin": 0, "c": 1, "nausea": 2, "took": 3},
                         Rng(0, stream=15).normal((4, 4)))
    docs = []
    for i in range(8):
        doc = make_doc(f"d{i}", ["took", "vitamin", "c", "nausea"])
        entities = [span(doc, "T1", "Supplement", 1, 3),
                    span(doc, "T2", "Symptom", 3, 4)]
        docs.append((featurize(doc, emb), to_bio(doc, entities)))
    return docs


def test_svm_learns_toy_set(toy_dataset):
    model = svm_train(toy_dataset, epochs=10)
    features, gold = toy_dataset[0]
    assert model.decode(features) == gold


def test_svm_deterministic(toy_dataset):
    a = svm_train(toy_dataset, epochs=3, seed=4)
    b = svm_train(toy_dataset, epochs=3, seed=4)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def reference_svm(train_docs, epochs, lr, l2, seed):
    """The update as first written: the whole weight matrix shrinks each step."""
    registry = FeatureRegistry(train_docs[0][0][0].dense.shape[0])
    instances = [(idx, val, BIO_LABELS.index(lab)) for features, gold in train_docs
                 for (idx, val), lab in zip(_token_rows(index_features(features, registry)),
                                            gold)]
    K = len(BIO_LABELS)
    W = np.zeros((K, registry.total_dim))
    b = np.zeros(K)
    rng = Rng(seed, stream=11)
    for _ in range(epochs):
        for pos in rng.permutation(len(instances)):
            idx, val, y = instances[pos]
            m = W[:, idx] @ val + b
            W *= 1.0 - lr * l2
            for k in range(K):
                sign = 1.0 if k == y else -1.0
                if sign * m[k] < 1.0:
                    W[k, idx] += lr * sign * val
                    b[k] += lr * sign
    return W, b


@pytest.mark.parametrize("lr, l2", [(0.1, 1e-4), (0.1, 9.0), (0.5, 2.0)])
def test_svm_matches_per_step_shrink(toy_dataset, lr, l2):
    # l2=9 shrinks the scale below 1e-9 within a few steps; lr*l2=1 zeroes it
    model = svm_train(toy_dataset, epochs=3, lr=lr, l2=l2, seed=2)
    W, b = reference_svm(toy_dataset, epochs=3, lr=lr, l2=l2, seed=2)
    assert np.allclose(model.W, W, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(W).max()))
    assert np.allclose(model.b, b, rtol=1e-12, atol=1e-12)


def test_svm_tie_breaks_to_lowest_index(toy_dataset):
    model = svm_train(toy_dataset, epochs=1)
    zeroed = SvmModel(labels=model.labels, registry=model.registry,
                      W=np.zeros_like(model.W), b=np.zeros_like(model.b))
    features, _ = toy_dataset[0]
    assert svm_predict(zeroed, features) == [model.labels[0]] * len(features)


def test_svm_rejects_empty():
    with pytest.raises(ValueError):
        svm_train([])


def test_svm_rejects_label_count_mismatch(toy_dataset):
    features, gold = toy_dataset[0]
    with pytest.raises(ValueError, match="one gold label per token"):
        svm_train([(features, gold[:-1])])


def test_svm_predict_empty(toy_dataset):
    model = svm_train(toy_dataset, epochs=1)
    assert svm_predict(model, []) == []
