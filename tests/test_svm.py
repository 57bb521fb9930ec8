import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae.annotation import BIO_LABELS, to_bio
from dsae.embeddings import EmbeddingTable
from dsae.ner.features import DocFeatures, featurize, index_features
from dsae.ner.svm import BLOCK, SvmModel, svm_predict, svm_train
from dsae.numeric.rng import Rng

from util import doc_features, first_seen_registry, make_doc, span, unseen_docs


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


def token_rows(train_docs):
    """(column indices, values, label index) of every training token: its
    non-zero dense values, then its indicators, past the dense block."""
    registry = first_seen_registry([features for features, _ in train_docs])
    dim = registry.dense_dim
    rows = []
    for features, gold in train_docs:
        dense, indicators = index_features(features, registry)
        for row, lo, hi, lab in zip(dense, indicators.indptr[:-1], indicators.indptr[1:], gold):
            cols = np.nonzero(row)[0]
            rows.append((np.concatenate([cols, dim + indicators.indices[lo:hi]]),
                         np.concatenate([row[cols], indicators.data[lo:hi]]),
                         BIO_LABELS.index(lab)))
    return registry, rows


def reference_svm(train_docs, epochs, lr, l2, seed):
    """The update as first written: the whole weight matrix shrinks each step."""
    registry, instances = token_rows(train_docs)
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


def per_token_svm(train_docs, epochs, lr, l2, seed):
    """One SGD step per token on scaled weights, the scale shrinking each
    step and folded into V when it falls below 1e-9."""
    registry, instances = token_rows(train_docs)
    K = len(BIO_LABELS)
    V = np.zeros((K, registry.total_dim))
    scale = 1.0
    b = np.zeros(K)
    rng = Rng(seed, stream=11)
    for _ in range(epochs):
        for pos in rng.permutation(len(instances)):
            idx, val, y = instances[pos]
            m = scale * (V[:, idx] @ val) + b
            scale *= 1.0 - lr * l2
            if scale < 1e-9:
                V *= scale
                scale = 1.0
            for k in range(K):
                sign = 1.0 if k == y else -1.0
                if sign * m[k] < 1.0:
                    V[k, idx] += (lr * sign / scale) * val
                    b[k] += lr * sign
    return scale * V, b


_NAMES = [f"f{i}" for i in range(12)]


@st.composite
def _corpus(draw):
    """Documents of random dense rows (some all zero) and indicator names,
    from fewer tokens than one block to a few blocks that are not a
    multiple of it."""
    dim = draw(st.integers(1, 3))
    value = st.sampled_from([0.0, 0.0, 1.0, -0.5, 0.25, 1.5, -2.0])
    zero_rows = draw(st.booleans())
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2 * BLOCK // 4))
    blocks, names, golds = [], [], []
    for L in lengths:
        blocks.append(np.array([[0.0] * dim if zero_rows and draw(st.booleans())
                                else draw(st.lists(value, min_size=dim, max_size=dim))
                                for _ in range(L)]))
        names.append([tuple(draw(st.lists(st.sampled_from(_NAMES), max_size=4, unique=True)))
                      for _ in range(L)])
        golds.append(draw(st.lists(st.sampled_from(BIO_LABELS), min_size=L, max_size=L)))
    return list(zip(doc_features(blocks, names), golds))


@settings(max_examples=150, deadline=None)
@given(docs=_corpus(), epochs=st.integers(1, 3),
       lr_l2=st.sampled_from([(0.5, 0.0), (1.0, 0.0), (0.5, 2.0), (0.5, 1.0), (0.25, 3.0)]),
       seed=st.integers(0, 50))
def test_block_training_equals_per_token_sgd(docs, epochs, lr_l2, seed):
    """Block SGD takes the steps of per-token SGD but sums each margin in
    another order, so a margin within rounding of a hinge could go either
    way. The dense values, learning rates and shrink factors (1, 0, 1/2,
    1/4) are dyadic here, so the margins come out without such rounding.
    The factors 1/2 and 1/4 fold the scale every 30 and 15 steps."""
    lr, l2 = lr_l2
    model = svm_train(docs, epochs=epochs, lr=lr, l2=l2, seed=seed)
    W, b = per_token_svm(docs, epochs, lr, l2, seed)
    assert np.array_equal(model.W, W) and np.array_equal(model.b, b)


def test_svm_skips_empty_documents(toy_dataset):
    empty = (DocFeatures(np.zeros(0, dtype=np.intp), toy_dataset[0][0].table, []), [])
    docs = [empty] + toy_dataset[:4] + [empty] + toy_dataset[4:]
    model = svm_train(docs, epochs=2, seed=3)
    plain = svm_train(toy_dataset, epochs=2, seed=3)
    assert model.registry.dense_dim == plain.registry.dense_dim
    assert np.array_equal(model.W, plain.W) and np.array_equal(model.b, plain.b)


def test_svm_rejects_unknown_gold_label(toy_dataset):
    features, gold = toy_dataset[0]
    with pytest.raises(ValueError, match=r"'B-DRUG' is not in the label alphabet \('O', "):
        svm_train([(features, gold[:-1] + ["B-DRUG"])])


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
    empty = DocFeatures(np.zeros(0, dtype=np.intp), toy_dataset[0][0].table, [])
    assert svm_predict(model, empty) == []


def test_svm_predict_equals_sparse_reference(toy_dataset):
    model = svm_train(toy_dataset, epochs=1)
    for doc in unseen_docs(toy_dataset[0][0]):
        dense, indicators = index_features(doc, model.registry)
        dim = model.registry.dense_dim
        margins = dense @ model.W[:, :dim].T + indicators @ model.W[:, dim:].T + model.b
        assert svm_predict(model, doc) == [model.labels[k] for k in np.argmax(margins, axis=1)]
