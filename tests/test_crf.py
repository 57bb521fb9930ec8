import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae.annotation import BIO_LABELS, to_bio
from dsae.embeddings import EmbeddingTable
from dsae.ner import crf as crf_module
from dsae.ner.crf import CrfConfig, CrfModel, crf_train, viterbi
from dsae.ner.features import (DocFeatures, FeatureRegistry, featurize, index_features,
                               token_scores)
from dsae.numeric import kernels
from dsae.numeric.optim import CONVERGED, LbfgsResult
from dsae.numeric.rng import Rng
from dsae.serialization import save_model
from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

from util import (brute_force_paths, crf_neg_log_likelihood, crf_objective, grad_check,
                  make_doc, span, unseen_docs)


def random_instance(rng, max_len=6, max_labels=4):
    L = rng.randint(max_len) + 1
    K = rng.randint(max_labels - 1) + 2
    return rng.normal((L, K), scale=2.0), rng.normal((K, K), scale=2.0)


# ------------------------------------------------------------------- decoding

def viterbi_one(unary, trans):
    """viterbi on a batch holding one unpadded sequence."""
    (path,), (score,) = viterbi(unary[None], trans, [len(unary)])
    return path, score


def test_viterbi_matches_brute_force():
    rng = Rng(0, stream=12)
    for _ in range(200):
        unary, trans = random_instance(rng)
        path, score = viterbi_one(unary, trans)
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
    path, score = viterbi_one(unary, trans)
    assert path == [0, 0, 0] and score == 0.0


def test_viterbi_empty():
    model = CrfModel(labels=BIO_LABELS, registry=FeatureRegistry(2, {}),
                     W=np.zeros((len(BIO_LABELS), 2)), T=np.zeros((len(BIO_LABELS),) * 2))
    assert model.decode(DocFeatures(np.zeros(0, dtype=np.intp), np.zeros((1, 2)), [])) == []


def test_viterbi_invariant_constant_shift():
    rng = Rng(1, stream=12)
    for _ in range(20):
        unary, trans = random_instance(rng)
        path, _ = viterbi_one(unary, trans)
        shifted = unary.copy()
        shifted[0] += 7.5  # constant added to one position's scores
        path2, _ = viterbi_one(shifted, trans)
        assert path == path2


@st.composite
def _padded_batch(draw):
    """A padded (N, L, K) batch with mixed lengths (1 among them), large
    garbage in the padding, and either integer scores, which tie often, or
    spread-out ones."""
    K = draw(st.integers(2, 7))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=9))
    lengths[draw(st.integers(0, len(lengths) - 1))] = 1
    L = max(lengths) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        scores = rng.integers(0, 3, size=(len(lengths), L, K)).astype(float)
        trans = rng.integers(0, 3, size=(K, K)).astype(float)
    else:
        scores = rng.normal(scale=2.0, size=(len(lengths), L, K))
        trans = rng.normal(scale=2.0, size=(K, K))
    for row, n in zip(scores, lengths):
        row[n:] = rng.normal(scale=1e6, size=(L - n, K))
    return scores, trans, lengths


@settings(max_examples=60, deadline=None)
@given(batch=_padded_batch())
def test_batched_viterbi_equals_each_row_alone_and_brute_force(batch):
    scores, trans, lengths = batch
    paths, best = viterbi(scores, trans, lengths)
    assert len(paths) == len(best) == len(lengths)
    for row, n, path, score in zip(scores, lengths, paths, best):
        assert viterbi_one(row[:n], trans) == (path, score)
        if n <= 6:
            # of the best paths, the one with the lowest last label, then the
            # lowest label before it, and so on back to the first
            paths_n = brute_force_paths(row[:n], trans)
            best_score = max(s for _, s in paths_n)
            assert path == min((p for p, s in paths_n if s == best_score), key=lambda p: p[::-1])
            assert score == pytest.approx(best_score, abs=1e-9)


def test_viterbi_rejects_lengths_outside_the_batch():
    for lengths in ([0, 2], [1, 4], [1], [1, 2, 3]):
        with pytest.raises(ValueError, match="a length from 1 to 3 for each of the 2 >= 1"):
            viterbi(np.zeros((2, 3, 2)), np.zeros((2, 2)), lengths)
    with pytest.raises(ValueError, match="each of the 0 >= 1 sequences"):
        viterbi(np.zeros((0, 3, 2)), np.zeros((2, 2)), [])


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


@settings(max_examples=40, deadline=None)
@given(K=st.integers(2, 5), lengths=st.lists(st.integers(1, 7), min_size=0, max_size=5),
       extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_one_batch_evaluates_as_fresh_layers(K, lengths, extra, seed, data):
    """A batch built once and evaluated at several (scores, T) pairs, on
    both sides of the product recursion's range and back, gives what a
    fresh crf_layer call gives at each, bit for bit."""
    rng = Rng(seed, stream=16)
    lengths = lengths + [1]  # always a sequence of length one
    order = data.draw(st.permutations(range(len(lengths))))
    _, _, y, mask = padded_batch(rng, K, lengths, order, extra)
    batch = kernels.CrfBatch(y, mask, K)
    for spread in (3.0, 1500.0, 40.0):
        scores = rng.normal(mask.shape + (K,), scale=2.0)
        trans = rng.normal((K, K))
        trans *= spread / np.ptp(trans)
        assert (np.ptp(trans) > kernels._PRODUCT_PTP) == (spread > 500.0)
        nll, dreal, dT = batch.evaluate(scores[mask], trans)
        want_nll, want_dscores, want_dT = kernels.crf_layer(scores, trans, y, mask)
        assert nll == want_nll
        assert np.array_equal(dreal, want_dscores[mask])
        assert np.array_equal(dT, want_dT)


def bits(x):
    return np.asarray(x).view(np.int64)


_ENTRY = st.one_of(st.sampled_from([-np.inf, 0.0, -0.0, 1.5, -3.0]),
                   st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 6), K=st.integers(1, 8), data=st.data())
def test_column_chains_equal_numpy_reductions(rows, K, data):
    """The column max and log-sum-exp equal numpy's reductions over the last
    axis bit for bit, with ties and -inf entries, for few rows and for as
    many as take the chains of column operations, in 2-d and 3-d."""
    a = np.array(data.draw(st.lists(_ENTRY, min_size=rows * K, max_size=rows * K)))
    a = a.reshape(rows, K)
    many = np.tile(a, (kernels._CHAIN_ROWS // rows + 1, 1))
    for x in (a, many, many.reshape(-1, 1, K), many.reshape(1, -1, K)):
        out = np.empty(x.shape[:-1])
        assert np.array_equal(bits(kernels._max_columns(x, out)), bits(x.max(axis=-1)))
        assert np.array_equal(bits(kernels._logsumexp_columns(x)),
                              bits(np.logaddexp.reduce(x, axis=-1)))


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
    """The training objective's gradient, on one document."""
    features, gold = toy_dataset[0]
    model = crf_train(toy_dataset, CrfConfig(max_iter=3))
    rng = Rng(5, stream=12)
    x0 = rng.normal((model.W.size + model.T.size,), scale=0.2)
    assert grad_check(crf_objective(model, features, gold), x0) < 1e-7


def test_crf_nll_value_is_logz_minus_gold(toy_dataset):
    features, gold = toy_dataset[0]
    model = crf_train(toy_dataset, CrfConfig(max_iter=3))
    value, _ = crf_objective(model, features, gold)(np.concatenate([model.W.ravel(),
                                                                    model.T.ravel()]))
    paths = brute_force_paths(token_scores(features, model.registry, model.W), model.T)
    scores = np.array([score for _, score in paths])
    logz = scores.max() + math.log(np.exp(scores - scores.max()).sum())
    gold_path = [model.labels.index(label) for label in gold]
    gold_score = next(score for path, score in paths if path == gold_path)
    assert value == pytest.approx(logz - gold_score, rel=0, abs=1e-9)
    assert value >= 0.0  # NLL of any single path can't beat the partition


def test_crf_nll_rejects_mismatch(toy_dataset):
    features, gold = toy_dataset[0]
    with pytest.raises(ValueError, match="one gold label per token"):
        crf_train(toy_dataset[1:] + [(features, gold[:-1])], CrfConfig(max_iter=2))
    with pytest.raises(ValueError, match="empty training set"):
        crf_train([(DocFeatures(np.zeros(0, dtype=np.intp), features.table, []), [])],
                  CrfConfig(max_iter=2))


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


def test_crf_decode_deterministic(toy_dataset, tmp_path):
    a = crf_train(toy_dataset, CrfConfig(max_iter=20))
    b = crf_train(toy_dataset, CrfConfig(max_iter=20))
    assert np.array_equal(a.W, b.W) and np.array_equal(a.T, b.T)
    save_model(a, tmp_path / "a.json")
    save_model(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.fixture(scope="module")
def mixed_dataset():
    """Featurized synthetic documents of mixed lengths, with lexicon hits."""
    emb = synthetic_embeddings(dim=6, seed=2)
    lexicons = list(synthetic_lexicons())
    return [(featurize(d.doc, emb, lexicons), to_bio(d.doc, d.entities))
            for d in generate_corpus(30, seed=4)]


def test_training_objective_is_the_sum_over_documents(mixed_dataset, monkeypatch):
    """The objective crf_train hands L-BFGS equals, at a random point, the
    summed per-document crf_neg_log_likelihood, value and gradient."""
    captured = []

    def first_point(objective, x0, config):
        captured.append(objective)
        return LbfgsResult(x=x0, value=0.0, iterations=0, evaluations=0, stop=CONVERGED)

    monkeypatch.setattr(crf_module, "lbfgs_minimize", first_point)
    model = crf_train(mixed_dataset, CrfConfig())
    assert len({len(f) for f, _ in mixed_dataset}) > 3
    x = Rng(8, stream=12).normal((model.W.size + model.T.size,), scale=0.3)
    value, grad = captured[0](x)
    probe = CrfModel(labels=model.labels, registry=model.registry,
                     W=x[:model.W.size].reshape(model.W.shape),
                     T=x[model.W.size:].reshape(model.T.shape))
    want_value, want_grad = 0.0, np.zeros_like(x)
    for features, gold in mixed_dataset:
        one_value, one_grad = crf_neg_log_likelihood(probe, features, gold)
        want_value += one_value
        want_grad += one_grad
    assert value == pytest.approx(want_value, rel=0, abs=1e-9)
    assert np.max(np.abs(grad - want_grad)) <= 1e-9


def test_crf_decode_equals_sparse_reference(toy_dataset):
    model = crf_train(toy_dataset, CrfConfig(max_iter=5))
    for features in unseen_docs(toy_dataset[0][0]):
        dense, indicators = index_features(features, model.registry)
        dim = model.registry.dense_dim
        scores = dense @ model.W[:, :dim].T + indicators @ model.W[:, dim:].T
        (path,), _ = viterbi(scores[None], model.T, [len(features)])
        assert model.decode(features) == [model.labels[k] for k in path]


def test_crf_labels_are_bio():
    assert BIO_LABELS[0] == "O" and len(BIO_LABELS) == 7


def test_crf_rejects_unknown_gold_label(toy_dataset):
    features, gold = toy_dataset[0]
    bad = gold[:-1] + ["B-DRUG"]
    with pytest.raises(ValueError, match=r"'B-DRUG' is not in the label alphabet \('O', "):
        crf_train(toy_dataset[1:] + [(features, bad)], CrfConfig(max_iter=2))
    model = crf_train(toy_dataset, CrfConfig(max_iter=2))
    with pytest.raises(ValueError, match="'B-DRUG' is not in the label alphabet"):
        crf_objective(model, features, bad)
