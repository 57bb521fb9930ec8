"""The benchmark's tracer finds its targets by name, so a rename in the
package would silently zero the per-layer metrics that read them. Every
``module:attribute`` target of ``perfbench/tracing.py`` must resolve,
apart from the kernels the batched CRF layer replaced. Every name the
benchmark imports from ``dsae`` must resolve too, or its runs fail."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# deleted when the CRF layer became one batched call; the tracer reports
# them as absent
REPLACED = {f"dsae.numeric.kernels:{name}"
            for name in ("crf_forward", "crf_backward", "unary_scores", "unary_grad")}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(target: str) -> bool:
    module_name, _, attr = target.partition(":")
    return hasattr(importlib.import_module(module_name), attr)


def test_every_traced_entry_point_resolves():
    tracing = _tracing()
    targets = [target for target, *_ in tracing.ENTRY_POINTS]
    assert [t for t in targets if t not in REPLACED and not _resolves(t)] == []
    cls_target, methods = tracing.DRAWS
    module_name, _, name = cls_target.partition(":")
    cls = getattr(importlib.import_module(module_name), name)
    assert [m for m in methods if not hasattr(cls, m)] == []


def test_every_name_the_benchmark_imports_from_dsae_resolves():
    imported = [f"{node.module}:{alias.name}"
                for path in sorted(PERFBENCH.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "dsae"
                for alias in node.names]
    assert "dsae.ner.predict:decode_labels" in imported
    assert [name for name in imported if not _resolves(name)] == []


def test_tracer_hooks_read_featurize_and_index_features():
    """The hooks that turn ``featurize``'s result into ``features.tokens``
    and ``index_features``' registry into ``features.columns`` run on the
    objects the package passes them."""
    from dsae.annotation import to_bio
    from dsae.ner import crf, features
    from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

    emb = synthetic_embeddings(dim=6, seed=2)
    lexicons = list(synthetic_lexicons())
    docs = generate_corpus(12, seed=5)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        train = [(features.featurize(d.doc, emb, lexicons), to_bio(d.doc, d.entities))
                 for d in docs]
        model = crf.crf_train(train, crf.CrfConfig(max_iter=2))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["features.tokens"] == sum(len(d.doc.tokens) for d in docs) > 0
    assert metrics["features.columns"] == model.registry.total_dim > emb.dim + 1
    assert tracer.calls["features.index"] == 1


def test_benchmark_call_shapes_on_a_small_corpus():
    """The calls the benchmark's workloads make, in their shapes, on 12
    documents: ``featurize`` pairs into the CRF and the SVM, ``doc_matrix``
    pairs into the BiLSTM-CRF with a dev split, and ``decode_labels`` for
    each model. ``doc_matrix`` gives row ids into the table itself."""
    from dsae.annotation import to_bio
    from dsae.ner.crf import CrfConfig, crf_train
    from dsae.ner.features import featurize
    from dsae.ner.lstm_crf import LstmCrfConfig, lstm_crf_train
    from dsae.ner.predict import decode_labels, doc_matrix
    from dsae.ner.svm import svm_train
    from dsae.synthetic import generate_corpus, synthetic_embeddings, synthetic_lexicons

    emb = synthetic_embeddings(dim=6, seed=2)
    lexicons = list(synthetic_lexicons())
    docs = generate_corpus(12, seed=7)
    train, dev, test = docs[:8], docs[8:10], docs[10:]
    feats = [(featurize(d.doc, emb, lexicons), to_bio(d.doc, d.entities)) for d in train]
    pack = lambda ds: [(doc_matrix(d.doc, emb), to_bio(d.doc, d.entities)) for d in ds]
    models = [(crf_train(feats, CrfConfig(c1=0.05, c2=0.05, max_iter=3)), lexicons),
              (svm_train(feats, seed=1, epochs=1, lr=0.1, l2=1e-4), lexicons),
              (lstm_crf_train(pack(train), LstmCrfConfig(hidden=4, epochs=1, batch_size=4,
                                                         seed=1), dev=pack(dev)), None)]
    for model, lex in models:
        for d in test:
            assert len(decode_labels(model, d.doc, emb, lex)) == len(d.doc.tokens)
    inputs = doc_matrix(test[0].doc, emb)
    assert inputs.table is emb.row_matrix
    assert inputs.rows.dtype.kind == "i" and len(inputs) == len(test[0].doc.tokens)
