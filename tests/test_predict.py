"""``decode_many``, the one NER decode entry point, against decoding one
document at a time."""

import pytest

from dsae.annotation import BIO_LABELS, split_dataset, to_bio
from dsae.ner import CrfConfig, LstmCrfModel, crf_train, svm_train
from dsae.ner.features import featurize
from dsae.ner.predict import decode_labels, decode_many
from dsae.numeric.rng import Rng
from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

from util import make_doc


@pytest.fixture(scope="module")
def split():
    """Each NER model, and a test split of more documents than the
    BiLSTM-CRF decodes in one batch, with an empty document in it."""
    emb = synthetic_embeddings()
    lexicons = list(synthetic_lexicons())
    train, _, test = split_dataset(generate_corpus(200, seed=3), seed=3)
    feats = [(featurize(d.doc, emb, lexicons), to_bio(d.doc, d.entities)) for d in train]
    lstm = LstmCrfModel.init(emb.dim + 1, 8, BIO_LABELS, seed=0)
    lstm.params.data += Rng(4, stream=14).normal((lstm.params.size,), scale=0.3)
    models = {"crf": crf_train(feats, CrfConfig(max_iter=10)),
              "svm": svm_train(feats, epochs=1), "lstm_crf": lstm}
    docs = [d.doc for d in test]
    docs.insert(5, make_doc("empty", []))
    return emb, lexicons, models, docs


@pytest.mark.parametrize("name", ["crf", "svm", "lstm_crf"])
def test_decode_many_equals_per_document_decode(split, name):
    emb, lexicons, models, docs = split
    model = models[name]
    decoded = decode_many(model, docs, emb, lexicons)
    assert decoded == [decode_labels(model, doc, emb, lexicons) for doc in docs]
    assert [len(labels) for labels in decoded] == [len(doc.tokens) for doc in docs]
    assert decoded[5] == []
    assert any(label != "O" for labels in decoded for label in labels)


def test_decode_many_rejects_other_models(split):
    emb, lexicons, _, docs = split
    with pytest.raises(TypeError, match="unsupported model type dict"):
        decode_many({}, docs, emb, lexicons)
