"""Composition of featurization, decoding, and BIO-to-span conversion."""

from __future__ import annotations

import numpy as np

from ..annotation import EntitySpan, from_bio
from ..corpus import Lexicon
from ..embeddings import EmbeddingTable
from ..normalize import NormalizedDoc
from .crf import CrfModel
from .features import featurize
from .lstm_crf import LstmCrfModel, lstm_crf_decode
from .svm import SvmModel, svm_predict


def doc_matrix(doc: NormalizedDoc, embeddings: EmbeddingTable) -> np.ndarray:
    """Dense per-token input: word vector plus OOV flag."""
    return embeddings.rows(doc.surfaces())


def decode_labels(model, doc: NormalizedDoc, embeddings: EmbeddingTable,
                  lexicons: list[Lexicon] | None = None) -> list[str]:
    if isinstance(model, LstmCrfModel):
        return lstm_crf_decode(model, doc_matrix(doc, embeddings))
    features = featurize(doc, embeddings, lexicons)
    if isinstance(model, SvmModel):
        return svm_predict(model, features)
    if isinstance(model, CrfModel):
        return model.decode(features)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def predict_entities(model, doc: NormalizedDoc, embeddings: EmbeddingTable,
                     lexicons: list[Lexicon] | None = None) -> list[EntitySpan]:
    labels = decode_labels(model, doc, embeddings, lexicons)
    return from_bio(doc, labels)
