"""NER decoding: the one place that knows which input each model reads."""

from __future__ import annotations

from ..corpus import Lexicon
from ..embeddings import EmbeddingTable, TokenRows
from ..normalize import NormalizedDoc
from .crf import CrfModel
from .features import featurize
from .lstm_crf import LstmCrfModel, lstm_crf_decode
from .svm import SvmModel


def doc_matrix(doc: NormalizedDoc, embeddings: EmbeddingTable) -> TokenRows:
    """The BiLSTM-CRF's input: each token's row id into the row matrix."""
    return embeddings.tokens(doc.surfaces())


def decode_many(model, docs: list[NormalizedDoc], embeddings: EmbeddingTable,
                lexicons: list[Lexicon] | None = None) -> list[list[str]]:
    """BIO labels of each document; the BiLSTM-CRF decodes all of them in one call."""
    if isinstance(model, LstmCrfModel):
        embeddings.check_width(model.input_dim)
        return lstm_crf_decode(model, [doc_matrix(doc, embeddings) for doc in docs])
    if isinstance(model, (CrfModel, SvmModel)):
        embeddings.check_width(model.registry.dense_dim)
        return [model.decode(featurize(doc, embeddings, lexicons)) for doc in docs]
    raise TypeError(f"unsupported model type {type(model).__name__}")


def decode_labels(model, doc: NormalizedDoc, embeddings: EmbeddingTable,
                  lexicons: list[Lexicon] | None = None) -> list[str]:
    """``decode_many`` of one document."""
    return decode_many(model, [doc], embeddings, lexicons)[0]
