"""Static word-vector tables in the common text format."""

from __future__ import annotations

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)


class EmbeddingTable:
    """Static word vectors; unknown words get the zero vector (oov=True)."""

    def __init__(self, dim: int, vocab: dict[str, int], matrix: np.ndarray):
        if matrix.shape != (len(vocab), dim):
            raise ValueError("matrix shape does not match vocab/dim")
        self.dim = dim
        self.vocab = vocab
        self.matrix = matrix
        self._zero = np.zeros(dim)

    def lookup(self, word: str) -> tuple[np.ndarray, bool]:
        idx = self.vocab.get(word.lower())
        if idx is None:
            return self._zero, True
        return self.matrix[idx], False


def load_static(path) -> EmbeddingTable:
    """Parse the common 'word v1 ... vd' text distribution format."""
    vocab: dict[str, int] = {}
    rows: list[list[float]] = []
    dim = None
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            word = parts[0].lower()
            try:
                values = [float(v) for v in parts[1:]]
            except ValueError:
                values = [math.nan]  # not a number: refused below
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: vector values must be finite "
                                 f"numbers, got {line.rstrip()!r}")
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ValueError(f"{path}:{lineno}: no vector values")
            elif len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values, found {len(values)}")
            if word in vocab:
                duplicates += 1
                logger.warning("%s:%d: duplicate word %r, first occurrence kept",
                               path, lineno, word)
                continue
            vocab[word] = len(rows)
            rows.append(values)
    if dim is None:
        raise ValueError(f"{path}: empty embedding file")
    table = EmbeddingTable(dim, vocab, np.asarray(rows, dtype=np.float64))
    table.duplicates = duplicates
    return table

