"""Static word-vector tables, and the token input of every model: row ids.

Every model reads a token sequence as a ``TokenRows``: each token's row id
into an ``EmbeddingTable``'s one read-only ``row_matrix`` (word vector
plus OOV flag) and that matrix by reference, never a copy of its rows.
``EmbeddingTable.tokens`` builds it from a word list; the NER features and
the relation instances extend it with what else their models read.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class EmbeddingTable:
    """Static word vectors; unknown words get the zero vector (oov=True)."""

    def __init__(self, dim: int, vocab: dict[str, int], matrix: np.ndarray):
        if matrix.shape != (len(vocab), dim):
            raise ValueError("matrix shape does not match vocab/dim")
        self.dim = dim
        self.vocab = vocab
        # each vector followed by its OOV flag, then one row for unknown
        # words; read-only, since every model input shares it
        self.row_matrix = np.zeros((len(vocab) + 1, dim + 1))
        self.row_matrix[:-1, :-1] = matrix
        self.row_matrix[-1, -1] = 1.0
        self.row_matrix.flags.writeable = False
        self.duplicates = 0  # repeated words load_static skipped

    def ids(self, words: list[str]) -> np.ndarray:
        """The row of ``row_matrix`` of each word, case-folded, or the
        unknown-word row."""
        unknown, get = len(self.vocab), self.vocab.get
        return np.array([get(w.lower(), unknown) for w in words], dtype=np.intp)

    def tokens(self, words: list[str]) -> "TokenRows":
        """``words`` as the token input of every model."""
        return TokenRows(self.ids(words), self.row_matrix)

    def check_width(self, width: int) -> None:
        """Raise a ValueError unless a model that reads token rows ``width``
        wide can read this table's."""
        if self.row_matrix.shape[1] != width:
            raise ValueError(f"embeddings: the table's rows are {self.row_matrix.shape[1]} wide "
                             f"({self.dim}-d vectors plus the OOV flag), but the model "
                             f"reads rows {width} wide")


@dataclass
class TokenRows:
    """Tokens as rows of a shared row matrix, gathered (``table[rows]``) on use."""
    rows: np.ndarray   # (n,) row of ``table`` of each token
    table: np.ndarray  # an EmbeddingTable's row_matrix, by reference

    def __len__(self) -> int:
        return len(self.rows)


def shared_table(inputs) -> np.ndarray:
    """The one ``.table`` every input of a batch or training set references;
    a ``ValueError`` names the first input that references another."""
    table = inputs[0].table
    for k, x in enumerate(inputs):
        if x.table is not table:
            raise ValueError(f"instance {k} of the batch references a {x.table.shape} "
                             f"embedding table other than instance 0's {table.shape} one")
    return table


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

