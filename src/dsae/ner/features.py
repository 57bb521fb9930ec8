"""Token featurization for the sequence labelers.

Dense part: the word vector plus an OOV flag. Sparse part: indicator
features (window word identities within +-2, POS of the token and its
neighbors, 3/4-char affixes, digit/punctuation flags, lexicon-hit
category). ``featurize`` gives each document one ``DocFeatures``: its
tokens' row ids into the embedding table's shared row matrix and each
token's indicator names. The name strings of a word or a POS tag are built
once, in bounded caches, and shared by every token that has them.

The indicator index is built once, from the training names in the order
they first appear, and never changes; unseen indicators at inference map
to nothing. ``index_training_set`` builds it and resolves the training
set with ``index_features`` into the two blocks the trainers multiply by:
the dense rows, gathered once, and a 0/1 indicator matrix, with the
checked gold labels. That matrix is a ``scipy.sparse`` CSR array, which
``index_features`` imports when it runs, so ``scipy.sparse`` loads with the
first CRF or SVM training call. Decoding scores tokens with
``token_scores``, a dense product plus a gather of the indicator weights,
and builds no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from ..annotation import BIO_LABELS, label_ids
from ..corpus import Lexicon, match_terms
from ..embeddings import EmbeddingTable, TokenRows, shared_table
from ..normalize import NormalizedDoc

if TYPE_CHECKING:
    import scipy.sparse as sp

BOUNDARY = "<s>"
# distinct words whose indicator names are kept for reuse; a word beyond
# them gets the same names, built afresh
_NAMED_WORDS = 4096


@dataclass
class DocFeatures(TokenRows):
    """The features of one document's tokens: row ids and indicator names."""
    names: list[tuple[str, ...]]  # each token's indicator names


@dataclass(frozen=True)
class FeatureRegistry:
    """Indicator name -> column index, offset past the dense block."""
    dense_dim: int
    index: dict[str, int]

    @property
    def total_dim(self) -> int:
        return self.dense_dim + len(self.index)


@lru_cache(maxsize=_NAMED_WORDS)
def _window_names(word: str) -> tuple[str, ...]:
    """The names of word at window offsets -2 to 2."""
    return tuple(f"w[{k}]={word}" for k in range(-2, 3))


@lru_cache(maxsize=64)
def _pos_names(tag: str) -> tuple[str, ...]:
    """The names of POS tag at offsets -1 to 1."""
    return tuple(f"pos[{k}]={tag}" for k in range(-1, 2))


@lru_cache(maxsize=_NAMED_WORDS)
def _shape_names(surface: str) -> tuple[str, ...]:
    """The affix, digit and punctuation names of a token."""
    names = []
    if len(surface) >= 3:
        names.append(f"pre3={surface[:3]}")
        names.append(f"suf3={surface[-3:]}")
    if len(surface) >= 4:
        names.append(f"pre4={surface[:4]}")
        names.append(f"suf4={surface[-4:]}")
    if any(ch.isdigit() for ch in surface):
        names.append("has_digit")
    if not any(ch.isalnum() for ch in surface):
        names.append("is_punct")
    return tuple(names)


def featurize(doc: NormalizedDoc, embeddings: EmbeddingTable,
              lexicons: list[Lexicon] | None = None) -> DocFeatures:
    surfaces = doc.surfaces()
    # window names read the neighbours from lists padded with the boundary;
    # the name strings of a word or tag are built once and shared
    words = list(map(_window_names, [BOUNDARY] * 2 + surfaces + [BOUNDARY] * 2))
    poss = list(map(_pos_names, [BOUNDARY] + [t.pos or "X" for t in doc.tokens] + [BOUNDARY]))

    hit_category = [None] * len(surfaces)
    for lex in lexicons or []:
        for hit in match_terms(doc.normalized_text, lex):
            for k, tok in enumerate(doc.tokens):
                if tok.start >= hit.char_start and tok.end <= hit.char_end:
                    hit_category[k] = hit.category

    names = []
    for i, surface in enumerate(surfaces):
        token = (words[i][0], words[i + 1][1], words[i + 2][2], words[i + 3][3],
                 words[i + 4][4], poss[i][0], poss[i + 1][1], poss[i + 2][2])
        token += _shape_names(surface)
        if hit_category[i] is not None:
            token += (f"lex={hit_category[i]}",)
        names.append(token)
    return DocFeatures(embeddings.ids(surfaces), embeddings.row_matrix, names)


def _resolved(names: list[tuple[str, ...]], registry: FeatureRegistry
              ) -> tuple[np.ndarray, np.ndarray]:
    """The token and the registry column of every indicator name the
    registry resolves, by token and then in name order."""
    n_names = np.fromiter(map(len, names), dtype=np.int64, count=len(names))
    cols = np.fromiter(map(registry.index.get, chain.from_iterable(names), repeat(-1)),
                       dtype=np.int32, count=int(n_names.sum()))
    found = cols >= 0
    return np.repeat(np.arange(len(names), dtype=np.int32), n_names)[found], cols[found]


def index_features(features: DocFeatures, registry: FeatureRegistry
                   ) -> tuple[np.ndarray, sp.csr_array]:
    """The token matrix of features as two blocks: the (n, dense_dim) dense
    rows, gathered from the table, and a 0/1 CSR matrix whose column c is
    indicator c of the registry, a row holding the indicators the registry
    resolves in name order."""
    import scipy.sparse as sp  # loaded by the first linear training call only

    n = len(features)
    rows, cols = _resolved(features.names, registry)
    # token i's row starts after the indicators of the tokens before it
    indicators = sp.csr_array((np.ones(rows.size), cols,
                               np.searchsorted(rows, np.arange(n + 1, dtype=np.int32))),
                              shape=(n, len(registry.index)))
    return features.table[features.rows], indicators


def index_training_set(train_docs):
    """The (features, gold labels) documents of a linear tagger's training
    set as the ``index_features`` blocks of their tokens under the registry
    of their names, each indexed in the order it first appears: returns the
    blocks, the tokens per document, the index in ``BIO_LABELS`` of each
    gold label, and the registry. Documents without tokens are dropped;
    every other one needs one gold label per token, and all one table."""
    docs = [(features, gold) for features, gold in train_docs if features]
    if not docs:
        raise ValueError("empty training set")
    table = shared_table([features for features, _ in train_docs])
    if any(len(features) != len(gold) for features, gold in docs):
        raise ValueError("every document needs one gold label per token")
    y = np.array(label_ids((lab for _, gold in docs for lab in gold), BIO_LABELS))
    names = [token for features, _ in docs for token in features.names]
    first_seen = dict.fromkeys(chain.from_iterable(names))
    registry = FeatureRegistry(table.shape[1], dict(zip(first_seen, range(len(first_seen)))))
    rows = np.concatenate([features.rows for features, _ in docs])
    dense, indicators = index_features(DocFeatures(rows, table, names), registry)
    lengths = np.array([len(features) for features, _ in docs])
    return dense, indicators, lengths, y, registry


def token_scores(features: DocFeatures, registry: FeatureRegistry,
                 W: np.ndarray) -> np.ndarray:
    """(n, K) scores of features under the weights W over the registry's
    columns: the dense rows times W's dense columns, plus the W columns of
    each token's resolved indicators. Unresolved indicators add nothing."""
    dim = registry.dense_dim
    scores = features.table[features.rows] @ W[:, :dim].T
    rows, cols = _resolved(features.names, registry)
    np.add.at(scores, rows, W.T[dim + cols])
    return scores
