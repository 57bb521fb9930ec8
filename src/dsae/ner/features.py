"""Token featurization for the sequence labelers.

Dense part: the word vector plus an OOV flag. Sparse part: indicator
features (window word identities within +-2, POS of the token and its
neighbors, 3/4-char affixes, digit/punctuation flags, lexicon-hit
category). The indicator index space is frozen after the training pass;
unseen indicators at inference map to nothing.

Training builds one sparse token matrix with ``index_features``, which the
gradients multiply by; decoding scores tokens with ``token_scores``, a dense
product plus a gather of the indicator weights, and builds no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def resolve(self, name: str) -> int | None:
        idx = self.index.get(name)
        if idx is None and not self.frozen:
            idx = len(self.index)
            self.index[name] = idx
        return None if idx is None else self.dense_dim + idx

    def freeze(self) -> None:
        self.frozen = True


def _window(surfaces: list[str], i: int, offset: int) -> str:
    j = i + offset
    if j < 0 or j >= len(surfaces):
        return BOUNDARY
    return surfaces[j]


def featurize(doc: NormalizedDoc, embeddings: EmbeddingTable,
              lexicons: list[Lexicon] | None = None) -> list[TokenFeatures]:
    surfaces = doc.surfaces()
    poss = [t.pos or "X" for t in doc.tokens]

    hit_category = [None] * len(surfaces)
    for lex in lexicons or []:
        for hit in match_terms(doc.normalized_text, lex):
            for k, tok in enumerate(doc.tokens):
                if tok.start >= hit.char_start and tok.end <= hit.char_end:
                    hit_category[k] = hit.category

    out: list[TokenFeatures] = []
    for i, surface in enumerate(surfaces):
        vec, oov = embeddings.lookup(surface)
        dense = np.concatenate([vec, [1.0 if oov else 0.0]])
        names = []
        for off in (-2, -1, 0, 1, 2):
            names.append(f"w[{off}]={_window(surfaces, i, off)}")
        for off in (-1, 0, 1):
            names.append(f"pos[{off}]={_window(poss, i, off)}")
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
    n_names = np.array([len(f.names) for f in features], dtype=np.int64)
    # one padded row per token, dense columns first, then the indicators;
    # column -1 marks a zero dense value, an unresolved indicator or
    # padding, and is dropped
    values = np.ones((n, dim + n_names.max(initial=0)))
    for row, f in zip(values, features):
        row[:dim] = f.dense
    cols = np.full(values.shape, -1, dtype=np.int32)
    cols[:, :dim] = np.arange(dim)
    cols[:, :dim][values[:, :dim] == 0] = -1
    resolved = (registry.resolve(name) for f in features for name in f.names)
    cols[:, dim:][np.arange(cols.shape[1] - dim) < n_names[:, None]] = np.fromiter(
        (-1 if c is None else c for c in resolved), dtype=np.int32, count=n_names.sum())
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_array((values[keep], cols[keep], indptr), shape=(n, registry.total_dim))


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
