import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae.annotation import BIO_LABELS, to_bio
from dsae.embeddings import EmbeddingTable
from dsae.ner.crf import (CrfConfig, CrfModel, crf_neg_log_likelihood, crf_train,
                          viterbi)
from dsae.ner.features import TokenFeatures, featurize, index_features
from dsae.numeric import kernels
from dsae.numeric.optim import grad_check
from dsae.numeric.rng import Rng

from util import brute_force_paths, make_doc, span


def random_instance(rng, max_len=6, max_labels=4):
    L = rng.randint(max_len) + 1
    K = rng.randint(max_labels - 1) + 2
    return rng.normal((L, K), scale=2.0), rng.normal((K, K), scale=2.0)


# ------------------------------------------------------------------- decoding

def test_viterbi_matches_brute_force():
    rng = Rng(0, stream=12)
    for _ in range(200):
        unary, trans = random_instance(rng)
        path, score = viterbi(unary, trans)
        paths = brute_force_paths(unary, trans)
        best = max(p for _, p in paths)
        assert score == pytest.approx(best, abs=1e-9)
        # recomputation check: returned path scores exactly what was reported
        recomputed = sum(unary[t, k] for t, k in enumerate(path))
        recomputed += sum(trans[a, b] for a, b in zip(path, path[1:]))
        assert score == pytest.approx(recomputed, abs=1e-9)


def test_viterbi_tie_breaks_to_lowest_index():
    unary = np.zeros((3, 3))
    trans = np.zeros((3, 3))
    path, score = viterbi(unary, trans)
    assert path == [0, 0, 0] and score == 0.0


def test_viterbi_empty():
    assert viterbi(np.zeros((0, 4)), np.zeros((4, 4))) == ([], 0.0)


def test_viterbi_invariant_constant_shift():
    rng = Rng(1, stream=12)
    for _ in range(20):
        unary, trans = random_instance(rng)
        path, _ = viterbi(unary, trans)
        shifted = unary.copy()
        shifted[0] += 7.5  # constant added to one position's scores
        path2, _ = viterbi(shifted, trans)
        assert path == path2


# ----------------------------------------------------------- forward-backward

def layer_one(unary, trans, y):
    """crf_layer on a batch holding one unpadded sequence."""
    y = np.asarray(y, dtype=np.int64)[None]
    return kernels.crf_layer(unary[None], trans, y, np.ones(y.shape, dtype=bool))


def test_logz_matches_brute_force():
    rng = Rng(2, stream=12)
    for _ in range(100):
        unary, trans = random_instance(rng)
        paths = brute_force_paths(unary, trans)
        path, path_score = paths[rng.randint(len(paths))]
        nll, _, _ = layer_one(unary, trans, path)
        scores = [s for _, s in paths]
        m = max(scores)
        expected = m + math.log(sum(math.exp(s - m) for s in scores))
        assert nll + path_score == pytest.approx(expected, abs=1e-8)


def test_marginals_sum_to_one():
    """dscores + onehot(y) are the position marginals: they sum to one and
    match brute-force enumeration."""
    rng = Rng(3, stream=12)
    for _ in range(20):
        unary, trans = random_instance(rng, max_len=6)
        L, K = unary.shape
        y = [rng.randint(K) for _ in range(L)]
        _, dscores, _ = layer_one(unary, trans, y)
        marg = dscores[0] + np.eye(K)[y]
        assert np.allclose(marg.sum(axis=1), 1.0, atol=1e-10)
        paths = brute_force_paths(unary, trans)
        weights = np.exp(np.array([s for _, s in paths]) - max(s for _, s in paths))
        expected = np.zeros((L, K))
        for (path, _), w in zip(paths, weights):
            expected[np.arange(L), path] += w
        assert np.allclose(marg, expected / weights.sum(), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 5), lengths=st.lists(st.integers(1, 7), min_size=1, max_size=6),
       extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batched_layer_equals_sum_of_sequences(K, lengths, extra, seed, data):
    """Any order of the sequences in the batch and any padding width, filled
    with garbage, give the per-sequence results; padding gets no gradient."""
    rng = Rng(seed, stream=14)
    trans = rng.normal((K, K), scale=2.0)
    seqs = [(rng.normal((L, K), scale=2.0), [rng.randint(K) for _ in range(L)])
            for L in lengths]
    order = data.draw(st.permutations(range(len(seqs))))
    N, width = len(seqs), max(lengths) + extra
    scores = rng.normal((N, width, K), scale=50.0)  # garbage in the padding
    y = np.full((N, width), 99, dtype=np.int64)
    mask = np.zeros((N, width), dtype=bool)
    for row, i in enumerate(order):
        unary, labels = seqs[i]
        scores[row, :len(labels)] = unary
        y[row, :len(labels)] = labels
        mask[row, :len(labels)] = True

    nll, dscores, dT = kernels.crf_layer(scores, trans, y, mask)

    want_nll, want_dT = 0.0, np.zeros((K, K))
    for row, i in enumerate(order):
        unary, labels = seqs[i]
        one_nll, one_dscores, one_dT = layer_one(unary, trans, labels)
        want_nll += one_nll
        want_dT += one_dT
        assert np.allclose(dscores[row, :len(labels)], one_dscores[0], atol=1e-10)
    assert nll == pytest.approx(want_nll, rel=1e-12, abs=1e-10)
    assert np.allclose(dT, want_dT, atol=1e-10)
    assert np.all(dscores[~mask] == 0.0)


def padded_batch(rng, K, lengths, order, extra):
    """Random (unary, labels) sequences of the given lengths, and the
    (scores, y, mask) batch holding them in the given row order, padded with
    garbage to the longest length plus extra."""
    seqs = [(rng.normal((L, K), scale=2.0), [rng.randint(K) for _ in range(L)])
            for L in lengths]
    N, width = len(seqs), max(lengths) + extra
    scores = rng.normal((N, width, K), scale=50.0)
    y = np.full((N, width), 99, dtype=np.int64)
    mask = np.zeros((N, width), dtype=bool)
    for row, i in enumerate(order):
        unary, labels = seqs[i]
        scores[row, :len(labels)] = unary
        y[row, :len(labels)] = labels
        mask[row, :len(labels)] = True
    return seqs, scores, y, mask


@pytest.mark.parametrize("spread, wide", [(300.0, False), (499.0, False), (1200.0, True)])
def test_wide_transitions_match_brute_force(spread, wide):
    """Transitions spread (max minus min) as normal ones of scale 100 and 400
    typically are, and just inside the product recursion's range of 500: on
    both sides of that range the layer gives the brute-force log Z, position
    marginals and expected transition counts."""
    rng = Rng(5, stream=12)
    for _ in range(30):
        L, K = rng.randint(4) + 2, rng.randint(2) + 3
        unary, trans = rng.normal((L, K), scale=2.0), rng.normal((K, K))
        trans *= spread / np.ptp(trans)
        assert (np.ptp(trans) > kernels._PRODUCT_PTP) == wide
        paths = brute_force_paths(unary, trans)
        scores = np.array([s for _, s in paths])
        weights = np.exp(scores - scores.max())
        logz = scores.max() + math.log(weights.sum())
        marg, counts = np.zeros((L, K)), np.zeros((K, K))
        for (path, _), w in zip(paths, weights / weights.sum()):
            marg[np.arange(L), path] += w
            np.add.at(counts, (path[:-1], path[1:]), w)
        y, y_score = paths[rng.randint(len(paths))]
        nll, dscores, dT = layer_one(unary, trans, y)
        gold = np.zeros((K, K))
        np.add.at(gold, (y[:-1], y[1:]), 1.0)
        assert nll + y_score == pytest.approx(logz, rel=1e-12)
        assert np.allclose(dscores[0] + np.eye(K)[y], marg, atol=1e-9)
        assert np.allclose(dT + gold, counts, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 5), lengths=st.lists(st.integers(1, 7), min_size=1, max_size=6),
       extra=st.integers(0, 3), scale=st.sampled_from([0.1, 2.0, 50.0, 300.0]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batched_layer_at_any_transition_scale(K, lengths, extra, scale, seed, data):
    """Shuffled padded batches give the per-sequence results at transition
    scales from near-uniform to past the product recursion's range."""
    rng = Rng(seed, stream=15)
    trans = rng.normal((K, K), scale=scale)
    order = data.draw(st.permutations(range(len(lengths))))
    seqs, scores, y, mask = padded_batch(rng, K, lengths, order, extra)

    nll, dscores, dT = kernels.crf_layer(scores, trans, y, mask)

    ones = [layer_one(seqs[i][0], trans, seqs[i][1]) for i in order]
    for row, (_, one_dscores, _) in enumerate(ones):
        assert np.allclose(dscores[row, mask[row]], one_dscores[0], atol=1e-9)
    assert nll == pytest.approx(sum(one[0] for one in ones), rel=1e-12, abs=1e-9)
    assert np.allclose(dT, sum(one[2] for one in ones), atol=1e-9)
    assert np.all(dscores[~mask] == 0.0)


def test_shifted_scores_in_mixed_lengths_stay_finite(monkeypatch):
    """Scores near -1000 put log Z near -10^4 while the padding holds zeros:
    the product recursion raises no overflow there and equals the
    log-sum-exp recursion."""
    rng = Rng(6, stream=12)
    K, lengths = 4, [9, 1, 5, 9, 3, 7]
    trans = rng.normal((K, K), scale=2.0)
    _, scores, y, mask = padded_batch(rng, K, lengths, rng.permutation(len(lengths)), 2)
    scores[mask] -= 1000.0
    scores[~mask] = 0.0
    assert np.ptp(trans) <= kernels._PRODUCT_PTP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nll, dscores, dT = kernels.crf_layer(scores, trans, y, mask)
        monkeypatch.setattr(kernels, "_PRODUCT_PTP", -1.0)  # log-sum-exp route
        want_nll, want_dscores, want_dT = kernels.crf_layer(scores, trans, y, mask)
    assert np.isfinite(nll) and np.all(np.isfinite(dscores)) and np.all(np.isfinite(dT))
    assert nll == pytest.approx(want_nll, rel=1e-12)
    assert np.allclose(dscores, want_dscores, atol=1e-9)
    assert np.allclose(dT, want_dT, atol=1e-9)


# ------------------------------------------------------------------- training

@pytest.fixture(scope="module")
def toy_dataset():
    emb = EmbeddingTable(4, {"vitamin": 0, "c": 1, "nausea": 2, "took": 3},
                         Rng(0, stream=13).normal((4, 4)))
    docs = []
    for i in range(8):
        doc = make_doc(f"d{i}", ["took", "vitamin", "c", "nausea"])
        entities = [span(doc, "T1", "Supplement", 1, 3),
                    span(doc, "T2", "Symptom", 3, 4)]
        docs.append((featurize(doc, emb), to_bio(doc, entities)))
    return docs


def test_crf_nll_gradient_check(toy_dataset):
    features, gold = toy_dataset[0]
    model = crf_train(toy_dataset, CrfConfig(max_iter=3))
    rng = Rng(5, stream=12)
    x0 = rng.normal((model.W.size + model.T.size,), scale=0.2)

    def objective(x):
        probe = CrfModel(labels=model.labels, registry=model.registry,
                         W=x[:model.W.size].reshape(model.W.shape),
                         T=x[model.W.size:].reshape(model.T.shape))
        return crf_neg_log_likelihood(probe, features, gold)

    assert grad_check(objective, x0) < 1e-7


def test_crf_nll_value_is_logz_minus_gold(toy_dataset):
    features, gold = toy_dataset[0]
    model = crf_train(toy_dataset, CrfConfig(max_iter=3))
    value, _ = crf_neg_log_likelihood(model, features, gold)
    assert value >= 0.0  # NLL of any single path can't beat the partition


def test_crf_nll_rejects_mismatch(toy_dataset):
    features, gold = toy_dataset[0]
    model = crf_train(toy_dataset, CrfConfig(max_iter=3))
    with pytest.raises(ValueError):
        crf_neg_log_likelihood(model, features, gold[:-1])
    with pytest.raises(ValueError):
        crf_neg_log_likelihood(model, [], [])


def test_crf_train_memorizes_toy_set(toy_dataset):
    model = crf_train(toy_dataset, CrfConfig(c1=0.0, c2=0.01, max_iter=100))
    features, gold = toy_dataset[0]
    assert model.decode(features) == gold


def test_crf_train_l1_produces_zeros(toy_dataset):
    dense = crf_train(toy_dataset, CrfConfig(c1=0.0, c2=0.01, max_iter=100))
    sparse = crf_train(toy_dataset, CrfConfig(c1=1.0, c2=0.01, max_iter=100))
    assert int(np.sum(sparse.W == 0.0)) > int(np.sum(dense.W == 0.0))


def test_crf_train_rejects_empty():
    with pytest.raises(ValueError):
        crf_train([], CrfConfig())


def test_crf_decode_deterministic(toy_dataset):
    a = crf_train(toy_dataset, CrfConfig(max_iter=20))
    b = crf_train(toy_dataset, CrfConfig(max_iter=20))
    assert np.array_equal(a.W, b.W) and np.array_equal(a.T, b.T)


def unseen_docs(features):
    """The toy document reordered and cut, and with a token whose
    indicators were all unseen in training."""
    blank = TokenFeatures(np.zeros_like(features[0].dense), ("w[0]=gave", "pre3=gav"))
    return [features, features[::-1], features[1:3], [blank] + features[2:], [blank]]


def test_crf_decode_equals_sparse_reference(toy_dataset):
    model = crf_train(toy_dataset, CrfConfig(max_iter=5))
    for features in unseen_docs(toy_dataset[0][0]):
        path, _ = viterbi(index_features(features, model.registry) @ model.W.T, model.T)
        assert model.decode(features) == [model.labels[k] for k in path]


def test_crf_labels_are_bio():
    assert BIO_LABELS[0] == "O" and len(BIO_LABELS) == 7
