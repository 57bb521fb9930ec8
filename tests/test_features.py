import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae.embeddings import EmbeddingTable
from dsae.ner.features import (DocFeatures, FeatureRegistry, featurize, index_features,
                               index_training_set, token_scores)
from dsae.numeric.rng import Rng

from util import doc_features, first_seen_registry, make_doc


def loop_rows(features, registry):
    """Reference: a token's non-zero dense values, then 1.0 per indicator
    the registry resolves, in name order."""
    rows = []
    for dense, names in zip(features.table[features.rows], features.names):
        cols = [int(k) for k in np.nonzero(dense)[0]]
        vals = [float(dense[k]) for k in cols]
        for name in names:
            if name in registry.index:
                cols.append(registry.dense_dim + registry.index[name])
                vals.append(1.0)
        rows.append((cols, vals))
    return rows


def merged_rows(blocks, dense_dim):
    """The rows of index_features' two blocks as one token matrix would
    hold them: the non-zero dense values, then the indicators shifted past
    the dense block."""
    dense, indicators = blocks
    assert dense.shape == (indicators.shape[0], dense_dim)
    rows = []
    for row, lo, hi in zip(dense, indicators.indptr[:-1], indicators.indptr[1:]):
        cols = np.nonzero(row)[0].tolist()
        rows.append((cols + (dense_dim + indicators.indices[lo:hi]).tolist(),
                     row[cols].tolist() + indicators.data[lo:hi].tolist()))
    return rows


def test_index_features_matches_per_token_loop():
    matrix = Rng(0, stream=16).normal((3, 4))
    matrix[1, 2] = 0.0  # an exact zero inside a word vector is left out
    emb = EmbeddingTable(4, {"vitamin": 0, "c": 1, "nausea": 2}, matrix)
    train = featurize(make_doc("a", ["took", "vitamin", "c", "nausea", "!"]), emb)
    more = featurize(make_doc("b", ["vitamin", "d", "!"]), emb)
    unseen = featurize(make_doc("c", ["c", "gave", "me", "nausea"]), emb)

    dense, indicators, lengths, _, registry = index_training_set(
        [(train, ["O"] * 5), (more, ["O"] * 3)])
    # one column per distinct name, in the order the names first appear
    assert list(registry.index.items()) == list(first_seen_registry([train, more]).index.items())
    assert registry.dense_dim == 5 and lengths.tolist() == [5, 3]
    both = DocFeatures(np.concatenate([train.rows, more.rows]), emb.row_matrix,
                       train.names + more.names)
    assert merged_rows((dense, indicators), 5) == loop_rows(both, registry)
    assert indicators.shape == (8, len(registry.index))
    index = dict(registry.index)
    assert merged_rows(index_features(unseen, registry), 5) == loop_rows(unseen, registry)
    assert registry.index == index
    dense, indicators = index_features(DocFeatures(np.zeros(0, dtype=np.intp), emb.row_matrix,
                                                   []), registry)
    assert dense.shape == (0, 5) and indicators.shape == (0, len(registry.index))


def test_training_set_of_two_tables_is_refused():
    """Every document of a training set reads one table, empty ones too;
    the error names the first that does not."""
    first = EmbeddingTable(2, {"vitamin": 0}, np.ones((1, 2)))
    second = EmbeddingTable(2, {"vitamin": 0}, np.ones((1, 2)))
    doc = make_doc("a", ["vitamin", "c"])
    docs = [(featurize(doc, first), ["O", "O"]), (featurize(make_doc("e", []), first), []),
            (featurize(doc, second), ["O", "O"])]
    with pytest.raises(ValueError, match=r"instance 2 of the batch references a \(2, 3\) "
                                         r"embedding table other than instance 0's \(2, 3\) one"):
        index_training_set(docs)
    with pytest.raises(ValueError, match="instance 1 of the batch references a"):
        index_training_set([docs[2], docs[1]])
    assert index_training_set(docs[:2])[0].shape == (2, 3)


_SEEN = [f"w[0]=t{i}" for i in range(8)]
_UNSEEN = ["w[0]=gave", "pre3=xyz", "lex=Other"]


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(0, 4), K=st.integers(1, 5),
       seen=st.lists(st.sampled_from(_SEEN), max_size=8, unique=True),
       tokens=st.lists(st.tuples(st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.25]), min_size=4,
                                          max_size=4),
                                 st.lists(st.sampled_from(_SEEN + _UNSEEN), max_size=6)),
                       max_size=6),
       seed=st.integers(0, 2**16))
def test_token_scores_equal_sparse_product(dim, K, seen, tokens, seed):
    """token_scores is the product of index_features' two blocks with W;
    indicators the registry does not hold add nothing and are not added to
    it."""
    registry = FeatureRegistry(dim, {name: c for c, name in enumerate(seen)})
    index = dict(registry.index)
    tokens = tokens + [([0.0] * 4, _UNSEEN)]  # nothing resolves
    rows = np.array([dense[:dim] for dense, _ in tokens]).reshape(len(tokens), dim)
    features, = doc_features([rows], [[tuple(names) for _, names in tokens]])
    W = Rng(seed, stream=16).normal((K, registry.total_dim))

    got = token_scores(features, registry, W)
    assert registry.index == index
    # the same values, bit for bit, as a per-name loop adding each column
    loop = features.table[features.rows] @ W[:, :dim].T
    for i, names in enumerate(features.names):
        for name in names:
            if name in registry.index:
                loop[i] += W[:, dim + registry.index[name]]
    assert np.array_equal(got, loop)
    dense, indicators = index_features(features, registry)
    expected = dense @ W[:, :dim].T + indicators @ W[:, dim:].T
    assert got.shape == (len(features), K)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(got[-1], np.zeros(K))


def test_featurize_dense_rows_and_windows_on_a_synthetic_corpus():
    from dsae.ner.features import BOUNDARY
    from dsae.ner.predict import doc_matrix
    from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

    emb = synthetic_embeddings(dim=6, seed=3)
    for annotated in generate_corpus(40, seed=9):
        doc = annotated.doc
        features = featurize(doc, emb, list(synthetic_lexicons()))
        surfaces = doc.surfaces()
        tags = [t.pos or "X" for t in doc.tokens]

        def window(seq, j):
            return seq[j] if 0 <= j < len(seq) else BOUNDARY

        assert len(features) == len(features.names) == len(surfaces)
        dense_rows = features.table[features.rows]
        for i, (dense, names, surface) in enumerate(zip(dense_rows, features.names, surfaces)):
            idx = emb.vocab.get(surface.lower())
            vec = np.zeros(emb.dim) if idx is None else emb.row_matrix[idx, :-1]
            assert np.array_equal(dense, np.append(vec, 1.0 if idx is None else 0.0))
            assert names[:8] == (
                tuple(f"w[{off}]={window(surfaces, i + off)}" for off in (-2, -1, 0, 1, 2))
                + tuple(f"pos[{off}]={window(tags, i + off)}" for off in (-1, 0, 1)))
        # row ids into the table itself, as the BiLSTM-CRF's input is
        assert features.table is emb.row_matrix and features.rows.dtype.kind == "i"
        assert dense_rows.shape == (len(surfaces), 7)
        assert np.array_equal(features.rows, doc_matrix(doc, emb).rows)
        assert doc_matrix(doc, emb).table is emb.row_matrix


def names_built_afresh(doc, lexicons):
    """Reference: each token's indicator names as fresh strings, in order."""
    from dsae.corpus import match_terms
    from dsae.ner.features import BOUNDARY

    surfaces = doc.surfaces()
    words = [BOUNDARY] * 2 + surfaces + [BOUNDARY] * 2
    poss = [BOUNDARY] + [t.pos or "X" for t in doc.tokens] + [BOUNDARY]
    hit_category = [None] * len(surfaces)
    for lex in lexicons:
        for hit in match_terms(doc.normalized_text, lex):
            for k, tok in enumerate(doc.tokens):
                if tok.start >= hit.char_start and tok.end <= hit.char_end:
                    hit_category[k] = hit.category
    out = []
    for i, surface in enumerate(surfaces):
        names = [f"w[-2]={words[i]}", f"w[-1]={words[i + 1]}", f"w[0]={surface}",
                 f"w[1]={words[i + 3]}", f"w[2]={words[i + 4]}",
                 f"pos[-1]={poss[i]}", f"pos[0]={poss[i + 1]}", f"pos[1]={poss[i + 2]}"]
        if len(surface) >= 3:
            names += [f"pre3={surface[:3]}", f"suf3={surface[-3:]}"]
        if len(surface) >= 4:
            names += [f"pre4={surface[:4]}", f"suf4={surface[-4:]}"]
        if any(ch.isdigit() for ch in surface):
            names.append("has_digit")
        if not any(ch.isalnum() for ch in surface):
            names.append("is_punct")
        if hit_category[i] is not None:
            names.append(f"lex={hit_category[i]}")
        out.append(tuple(names))
    return out


def test_featurize_names_equal_names_built_afresh_and_are_shared():
    """featurize gives every token the names, in the order, that building
    each afresh gives, and two tokens of one word share the strings."""
    from dataclasses import replace

    from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

    emb = synthetic_embeddings(dim=6, seed=3)
    lexicons = list(synthetic_lexicons())
    odd = make_doc("odd", ["b12", "!", "vitamin", "c", "4mg", "gave", "me", "nausea", "..."])
    tags = ["N", "P", "N", "N", "$", "V", "O", None, ""]
    odd = replace(odd, tokens=tuple(replace(t, pos=tag) for t, tag in zip(odd.tokens, tags)))
    docs = [annotated.doc for annotated in generate_corpus(40, seed=9)] + [odd]
    for doc in docs:
        assert featurize(doc, emb, lexicons).names == names_built_afresh(doc, lexicons)
    first, again = featurize(odd, emb), featurize(odd, emb)
    assert all(a is b for x, y in zip(first.names, again.names) for a, b in zip(x, y))
