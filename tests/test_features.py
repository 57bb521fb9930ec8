import numpy as np
from hypothesis import given, settings, strategies as st

from dsae.embeddings import EmbeddingTable
from dsae.ner.features import (FeatureRegistry, TokenFeatures, featurize, index_features,
                               token_scores)
from dsae.numeric.rng import Rng

from util import make_doc


def loop_rows(features, registry):
    """Reference: a token's non-zero dense values, then 1.0 per resolved
    indicator in name order."""
    rows = []
    for feat in features:
        cols = [int(k) for k in np.nonzero(feat.dense)[0]]
        vals = [float(feat.dense[k]) for k in cols]
        for name in feat.names:
            col = registry.resolve(name)
            if col is not None:
                cols.append(col)
                vals.append(1.0)
        rows.append((cols, vals))
    return rows


def csr_rows(X):
    return [(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist())
            for lo, hi in zip(X.indptr[:-1], X.indptr[1:])]


def test_index_features_matches_per_token_loop():
    matrix = Rng(0, stream=16).normal((3, 4))
    matrix[1, 2] = 0.0  # an exact zero inside a word vector is left out
    emb = EmbeddingTable(4, {"vitamin": 0, "c": 1, "nausea": 2}, matrix)
    train = featurize(make_doc("a", ["took", "vitamin", "c", "nausea", "!"]), emb)
    unseen = featurize(make_doc("b", ["c", "gave", "me", "nausea"]), emb)
    fast, slow = FeatureRegistry(5), FeatureRegistry(5)

    X = index_features(train, fast)
    assert csr_rows(X) == loop_rows(train, slow)
    assert fast.index == slow.index and X.shape == (5, fast.total_dim)
    fast.freeze()
    slow.freeze()
    assert csr_rows(index_features(unseen, fast)) == loop_rows(unseen, slow)
    assert fast.index == slow.index
    assert index_features([], fast).shape == (0, fast.total_dim)


_SEEN = [f"w[0]=t{i}" for i in range(8)]
_UNSEEN = ["w[0]=gave", "pre3=xyz", "lex=Other"]


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(0, 4), K=st.integers(1, 5), frozen=st.booleans(),
       seen=st.lists(st.sampled_from(_SEEN), max_size=8, unique=True),
       tokens=st.lists(st.tuples(st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.25]), min_size=4,
                                          max_size=4),
                                 st.lists(st.sampled_from(_SEEN + _UNSEEN), max_size=6)),
                       max_size=6),
       seed=st.integers(0, 2**16))
def test_token_scores_equal_sparse_product(dim, K, frozen, seen, tokens, seed):
    """token_scores is index_features(...) @ W.T; indicators the registry does
    not hold add nothing and are not added to it, frozen or not."""
    registry = FeatureRegistry(dim)
    for name in seen:
        registry.resolve(name)
    if frozen:
        registry.freeze()
    reference = FeatureRegistry(dim)
    reference.index = dict(registry.index)
    reference.freeze()
    features = [TokenFeatures(np.array(dense[:dim]), tuple(names)) for dense, names in tokens]
    features.append(TokenFeatures(np.zeros(dim), tuple(_UNSEEN)))  # nothing resolves
    W = Rng(seed, stream=16).normal((K, registry.total_dim))

    got = token_scores(features, registry, W)
    assert registry.index == reference.index
    expected = index_features(features, reference) @ W.T
    assert got.shape == (len(features), K)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(got[-1], np.zeros(K))
