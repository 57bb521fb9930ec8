"""The benchmark's tracer finds its targets by name, so a rename in the
package would silently zero the per-layer metrics that read them. Every
``module:attribute`` target of ``perfbench/tracing.py`` must resolve,
apart from the kernels the batched CRF layer replaced."""

import importlib
import importlib.util
from pathlib import Path

# deleted when the CRF layer became one batched call; the tracer reports
# them as absent
REPLACED = {f"dsae.numeric.kernels:{name}"
            for name in ("crf_forward", "crf_backward", "unary_scores", "unary_grad")}


def _tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
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
