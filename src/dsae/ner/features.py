"""Token featurization for the sequence labelers.

Dense part: the word vector plus an OOV flag. Sparse part: indicator
features (window word identities within +-2, POS of the token and its
neighbors, 3/4-char affixes, digit/punctuation flags, lexicon-hit
category). The indicator index space is frozen after the training pass;
unseen indicators at inference map to nothing.

Training builds one sparse token matrix with ``index_features``, resolving
all indicator names in bulk, and ``split_features`` splits it into the dense
block and a 0/1 indicator matrix, which the trainers multiply by; decoding
scores tokens with ``token_scores``, a dense product plus a gather of the
indicator weights, and builds no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp

from ..corpus import Lexicon, match_terms
from ..embeddings import EmbeddingTable
from ..normalize import NormalizedDoc

BOUNDARY = "<s>"


@dataclass
class TokenFeatures:
    dense: np.ndarray  # word vector + oov flag
    names: tuple[str, ...]  # sparse indicator names


class FeatureRegistry:
    """Indicator name -> column index, offset past the dense block."""

    def __init__(self, dense_dim: int):
        self.dense_dim = dense_dim
        self.index: dict[str, int] = {}
        self.frozen = False

    @property
    def total_dim(self) -> int:
        return self.dense_dim + len(self.index)

    def add(self, names) -> None:
        """Give each name not yet indexed the next index, in the order the
        names first appear; a frozen registry adds none."""
        if not self.frozen:
            fresh = [name for name in dict.fromkeys(names) if name not in self.index]
            self.index.update(zip(fresh, range(len(self.index), len(self.index) + len(fresh))))

    def freeze(self) -> None:
        self.frozen = True


def featurize(doc: NormalizedDoc, embeddings: EmbeddingTable,
              lexicons: list[Lexicon] | None = None) -> list[TokenFeatures]:
    surfaces = doc.surfaces()
    # window names read the neighbours from lists padded with the boundary
    words = [BOUNDARY] * 2 + surfaces + [BOUNDARY] * 2
    poss = [BOUNDARY] + [t.pos or "X" for t in doc.tokens] + [BOUNDARY]

    hit_category = [None] * len(surfaces)
    for lex in lexicons or []:
        for hit in match_terms(doc.normalized_text, lex):
            for k, tok in enumerate(doc.tokens):
                if tok.start >= hit.char_start and tok.end <= hit.char_end:
                    hit_category[k] = hit.category

    out: list[TokenFeatures] = []
    for i, (surface, dense) in enumerate(zip(surfaces, embeddings.rows(surfaces))):
        names = [f"w[-2]={words[i]}", f"w[-1]={words[i + 1]}", f"w[0]={surface}",
                 f"w[1]={words[i + 3]}", f"w[2]={words[i + 4]}",
                 f"pos[-1]={poss[i]}", f"pos[0]={poss[i + 1]}", f"pos[1]={poss[i + 2]}"]
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
        if hit_category[i] is not None:
            names.append(f"lex={hit_category[i]}")
        out.append(TokenFeatures(dense=dense, names=tuple(names)))
    return out


def index_features(features: list[TokenFeatures], registry: FeatureRegistry) -> sp.csr_array:
    """Token-by-column CSR matrix over the unified index space. A row holds
    the token's non-zero dense values, then 1.0 for each indicator the
    registry resolves, in name order."""
    n, dim = len(features), registry.dense_dim
    n_names = np.fromiter(map(len, (f.names for f in features)), dtype=np.int64, count=n)
    names = list(chain.from_iterable(f.names for f in features))
    registry.add(names)
    # one padded row per token, dense columns first, then the indicators;
    # column -1 marks a zero dense value, an unresolved indicator or
    # padding, and is dropped
    values = np.ones((n, dim + n_names.max(initial=0)))
    values[:, :dim] = np.array([f.dense for f in features]).reshape(n, dim)
    cols = np.full(values.shape, -1, dtype=np.int32)
    cols[:, :dim] = np.arange(dim)
    cols[:, :dim][values[:, :dim] == 0] = -1
    # an unresolved name gets -1 - dim, so -1 once shifted past the dense block
    resolved = np.fromiter(map(registry.index.get, names, repeat(-1 - dim)),
                           dtype=np.int32, count=len(names))
    cols[:, dim:][np.arange(cols.shape[1] - dim) < n_names[:, None]] = resolved + dim
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_array((values[keep], cols[keep], indptr), shape=(n, registry.total_dim))


def split_features(features: list[TokenFeatures], X: sp.csr_array,
                   dense_dim: int) -> tuple[np.ndarray, sp.csr_array]:
    """The dense rows of features as an (n, dense_dim) array, and the
    indicator columns of X, their ``index_features`` matrix, as a 0/1 CSR
    matrix whose column c is column dense_dim + c of X."""
    n = len(features)
    dense = np.array([f.dense for f in features]).reshape(n, dense_dim)
    # a row of X holds the token's non-zero dense values, then its indicators
    indptr = np.zeros(n + 1, dtype=X.indptr.dtype)
    np.cumsum(np.diff(X.indptr) - np.count_nonzero(dense, axis=1), out=indptr[1:])
    is_indicator = X.indices >= dense_dim
    indicators = sp.csr_array((X.data[is_indicator], X.indices[is_indicator] - dense_dim, indptr),
                              shape=(n, X.shape[1] - dense_dim))
    return dense, indicators


def token_scores(features: list[TokenFeatures], registry: FeatureRegistry,
                 W: np.ndarray) -> np.ndarray:
    """(n, K) scores ``index_features(features, registry) @ W.T``, from the
    dense rows and the W columns of each token's resolved indicators.
    Unresolved indicators add nothing, and the registry is not changed."""
    dim, get = registry.dense_dim, registry.index.get
    scores = np.array([f.dense for f in features]).reshape(len(features), dim) @ W[:, :dim].T
    rows, cols = [], []
    for i, f in enumerate(features):
        for c in map(get, f.names):
            if c is not None:
                rows.append(i)
                cols.append(dim + c)
    np.add.at(scores, rows, W.T[cols])
    return scores
