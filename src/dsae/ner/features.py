"""Token featurization for the sequence labelers.

Dense part: the word vector plus an OOV flag. Sparse part: indicator
features (window word identities within +-2, POS of the token and its
neighbors, 3/4-char affixes, digit/punctuation flags, lexicon-hit
category). The indicator index space is frozen after the training pass;
unseen indicators at inference map to nothing. The name strings of a word
or a POS tag are built once, in bounded caches, and shared by every token
that has them.

Training indexes its tokens with ``index_features``, which resolves all
indicator names in bulk and returns the two blocks the trainers multiply
by: the dense rows and a 0/1 indicator matrix; ``index_training_set``
builds them, and the checked gold labels, for the CRF and the SVM alike.
Decoding scores tokens with ``token_scores``, a dense product plus a
gather of the indicator weights, and builds no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp

from ..annotation import label_ids
from ..corpus import Lexicon, match_terms
from ..embeddings import EmbeddingTable
from ..normalize import NormalizedDoc

BOUNDARY = "<s>"
# distinct words whose indicator names are kept for reuse; a word beyond
# them gets the same names, built afresh
_NAMED_WORDS = 4096


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
              lexicons: list[Lexicon] | None = None) -> list[TokenFeatures]:
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

    out: list[TokenFeatures] = []
    for i, (surface, dense) in enumerate(zip(surfaces, embeddings.rows(surfaces))):
        names = (words[i][0], words[i + 1][1], words[i + 2][2], words[i + 3][3],
                 words[i + 4][4], poss[i][0], poss[i + 1][1], poss[i + 2][2])
        names += _shape_names(surface)
        if hit_category[i] is not None:
            names += (f"lex={hit_category[i]}",)
        out.append(TokenFeatures(dense=dense, names=names))
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


def index_training_set(train_docs, labels: tuple[str, ...]):
    """The (features, gold labels) documents of a linear tagger's training
    set as the ``index_features`` blocks of their tokens under a new
    registry, then frozen: returns the blocks, the tokens per document, the
    index in labels of each gold label, and the registry. Documents without
    tokens are dropped; every other one needs one gold label per token."""
    docs = [(features, gold) for features, gold in train_docs if features]
    if not docs:
        raise ValueError("empty training set")
    if any(len(features) != len(gold) for features, gold in docs):
        raise ValueError("every document needs one gold label per token")
    y = np.array(label_ids((lab for _, gold in docs for lab in gold), labels))
    registry = FeatureRegistry(docs[0][0][0].dense.shape[0])
    dense, indicators = index_features([tok for features, _ in docs for tok in features],
                                       registry)
    registry.freeze()
    lengths = np.array([len(features) for features, _ in docs])
    return dense, indicators, lengths, y, registry


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
