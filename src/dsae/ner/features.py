"""Token featurization for the sequence labelers.

Dense part: the word vector plus an OOV flag. Sparse part: indicator
features (window word identities within +-2, POS of the token and its
neighbors, 3/4-char affixes, digit/punctuation flags, lexicon-hit
category). The indicator index space is frozen after the training pass;
unseen indicators at inference map to nothing.

Training indexes its tokens with ``index_features``, which resolves all
indicator names in bulk and returns the two blocks the trainers multiply
by: the dense rows and a 0/1 indicator matrix. Decoding scores tokens with
``token_scores``, a dense product plus a gather of the indicator weights,
and builds no matrix.
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


def index_features(features: list[TokenFeatures], registry: FeatureRegistry
                   ) -> tuple[np.ndarray, sp.csr_array]:
    """The token matrix of features as two blocks: the (n, dense_dim) dense
    rows, and a 0/1 CSR matrix whose column c is indicator c of the
    registry, a row holding the indicators the registry resolves in name
    order. An unfrozen registry first indexes the names it lacks."""
    n = len(features)
    n_names = np.fromiter(map(len, (f.names for f in features)), dtype=np.int64, count=n)
    names = list(chain.from_iterable(f.names for f in features))
    registry.add(names)
    cols = np.fromiter(map(registry.index.get, names, repeat(-1)), dtype=np.int32,
                       count=len(names))
    # the token of each resolved name; token i's row starts after those before i
    rows = np.repeat(np.arange(n, dtype=np.int32), n_names)[cols >= 0]
    indicators = sp.csr_array((np.ones(rows.size), cols[cols >= 0],
                               np.searchsorted(rows, np.arange(n + 1, dtype=np.int32))),
                              shape=(n, len(registry.index)))
    return np.array([f.dense for f in features]).reshape(n, registry.dense_dim), indicators


def token_scores(features: list[TokenFeatures], registry: FeatureRegistry,
                 W: np.ndarray) -> np.ndarray:
    """(n, K) scores of features under the weights W over the registry's
    columns: the dense rows times W's dense columns, plus the W columns of
    each token's resolved indicators. Unresolved indicators add nothing, and
    the registry is not changed."""
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
