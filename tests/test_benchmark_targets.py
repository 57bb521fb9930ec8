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
