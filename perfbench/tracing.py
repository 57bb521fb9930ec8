"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public entry point of a ``dsae`` layer by
a timing wrapper, in every ``dsae`` module (and every calling module it is
given) that holds a reference to it, so calls made through
``from x import y`` names are seen too. A span records
calls, inclusive time and self time (inclusive time minus the time of
wrapped calls made inside it). Hooks turn arguments and results into
counts. An entry point that no longer exists is listed as absent, and the
metrics that read it report 0.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict


def _count_tokens(tracer, args, result):
    tracer.add("features.tokens", len(result))


def _registry_columns(tracer, args, result):
    tracer.peak("features.columns", args[1].total_dim)


def _lbfgs_objective(tracer, args, kwargs):
    """Trace the objective L-BFGS is given, as the CRF objective."""
    return (tracer.wrap("crf.objective", args[0]),) + tuple(args[1:]), kwargs


def _lbfgs_iterations(tracer, args, result):
    tracer.add("crf.lbfgs_iterations", result.iterations)


def _kept(tracer, args, result):
    tracer.add("corpus.tweets_kept", int(bool(result[0])))


def _normalized_tokens(tracer, args, result):
    tracer.add("normalize.tokens", len(result.tokens))


def _records(tracer, args, result):
    tracer.add("signals.records", len(result))


def _bundle_bytes(tracer, args, result):
    tracer.add("serialization.bundle_bytes", os.path.getsize(args[1]))


# (entry point "module:attribute", span, hook before the call, hook after it)
ENTRY_POINTS = [
    ("dsae.ner.features:featurize", "features.featurize", None, _count_tokens),
    ("dsae.ner.features:index_features", "features.index", None, _registry_columns),
    ("dsae.numeric.optim:lbfgs_minimize", "crf.lbfgs", _lbfgs_objective, _lbfgs_iterations),
    ("dsae.numeric.kernels:crf_forward", "crf.forward_backward", None, None),
    ("dsae.numeric.kernels:crf_backward", "crf.forward_backward", None, None),
    ("dsae.numeric.kernels:unary_scores", "crf.unary", None, None),
    ("dsae.numeric.kernels:unary_grad", "crf.unary", None, None),
    ("dsae.ner.crf:viterbi", "crf.viterbi", None, None),
    ("dsae.ner.svm:svm_train", "svm.train", None, None),
    ("dsae.ner.svm:svm_predict", "svm.decode", None, None),
    ("dsae.ner.lstm_crf:nll_and_grad", "lstm_crf.grad", None, None),
    ("dsae.ner.lstm_crf:lstm_crf_decode", "lstm_crf.decode", None, None),
    ("dsae.relation:encode_instance", "relation.encode", None, None),
    ("dsae.relation:cnn_loss_and_grad", "relation.grad", None, None),
    ("dsae.relation:cnn_forward", "relation.forward", None, None),
    ("dsae.relation:classify_pairs", "relation.classify", None, None),
    ("dsae.numeric.optim:adam_step", "optim.adam", None, None),
    ("dsae.corpus:load_tweets", "corpus.load", None, None),
    ("dsae.corpus:filter_candidate", "corpus.filter", None, _kept),
    ("dsae.normalize:normalize", "normalize", None, _normalized_tokens),
    ("dsae.pipeline:run_pipeline", "pipeline", None, None),
    ("dsae.signals:aggregate", "signals.aggregate", None, _records),
    ("dsae.signals:emit_report", "signals.report", None, None),
    ("dsae.serialization:save_model", "serialization.save", None, _bundle_bytes),
    ("dsae.serialization:load_model", "serialization.load", None, None),
]
# Rng draw methods are counted, not timed: they are many and tiny.
DRAWS = ("dsae.numeric.rng:Rng", ("uniform", "normal", "randint", "permutation"))

# per-layer metric -> (unit, better, what it reads); see README.md for the
# end-to-end metric each one should move.
PER_LAYER = {
    "features.featurize_s": ("s", "lower", ("time", "features.featurize")),
    "features.index_s": ("s", "lower", ("time", "features.index")),
    "features.tokens": ("count", "higher", ("count", "features.tokens")),
    "features.columns": ("count", "lower", ("count", "features.columns")),
    "crf.objective_s": ("s", "lower", ("time", "crf.objective")),
    "crf.objective_evals": ("count", "lower", ("calls", "crf.objective")),
    "crf.lbfgs_iterations": ("count", "lower", ("count", "crf.lbfgs_iterations")),
    "crf.lbfgs_self_s": ("s", "lower", ("self", "crf.lbfgs")),
    "crf.forward_backward_s": ("s", "lower", ("time", "crf.forward_backward")),
    "crf.unary_s": ("s", "lower", ("time", "crf.unary")),
    "crf.viterbi_s": ("s", "lower", ("time", "crf.viterbi")),
    "crf.viterbi_calls": ("count", "lower", ("calls", "crf.viterbi")),
    "svm.train_s": ("s", "lower", ("time", "svm.train")),
    "svm.decode_s": ("s", "lower", ("time", "svm.decode")),
    "lstm_crf.grad_s": ("s", "lower", ("time", "lstm_crf.grad")),
    "lstm_crf.grad_calls": ("count", "lower", ("calls", "lstm_crf.grad")),
    "lstm_crf.decode_s": ("s", "lower", ("time", "lstm_crf.decode")),
    "relation.encode_s": ("s", "lower", ("time", "relation.encode")),
    "relation.grad_s": ("s", "lower", ("time", "relation.grad")),
    "relation.grad_calls": ("count", "lower", ("calls", "relation.grad")),
    "relation.forward_s": ("s", "lower", ("time", "relation.forward")),
    "relation.forward_calls": ("count", "lower", ("calls", "relation.forward")),
    "relation.classify_s": ("s", "lower", ("time", "relation.classify")),
    "optim.adam_s": ("s", "lower", ("time", "optim.adam")),
    "optim.adam_steps": ("count", "lower", ("calls", "optim.adam")),
    "rng.draws": ("count", "lower", ("count", "rng.draws")),
    "corpus.load_s": ("s", "lower", ("time", "corpus.load")),
    "corpus.filter_s": ("s", "lower", ("time", "corpus.filter")),
    "corpus.tweets_loaded": ("count", "higher", ("items", "corpus.load")),
    "corpus.tweets_kept": ("count", "higher", ("count", "corpus.tweets_kept")),
    "normalize.s": ("s", "lower", ("time", "normalize")),
    "normalize.tokens": ("count", "higher", ("count", "normalize.tokens")),
    "pipeline.s": ("s", "lower", ("time", "pipeline")),
    "pipeline.docs": ("count", "higher", ("calls", "pipeline")),
    "signals.aggregate_s": ("s", "lower", ("time", "signals.aggregate")),
    "signals.report_s": ("s", "lower", ("time", "signals.report")),
    "signals.records": ("count", "higher", ("count", "signals.records")),
    "serialization.save_s": ("s", "lower", ("time", "serialization.save")),
    "serialization.load_s": ("s", "lower", ("time", "serialization.load")),
    "serialization.bundle_bytes": ("bytes", "lower", ("count", "serialization.bundle_bytes")),
}


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = sys.modules.get(module_name)
    return owner, getattr(owner, attr, None)


class Tracer:
    """Spans and counts of one traced phase; ``reset`` starts the next."""

    def __init__(self):
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, span: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        child = self._stack.pop()
        self.time[span] += elapsed
        self.self_time[span] += elapsed - child
        self.calls[span] += 1
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, span: str, fn, before=None, after=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    started = self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(span, started)
                    self.items[span] += 1
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            started = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span, started)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["rng.draws"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, *callers) -> None:
        """Wrap every entry point in the imported ``dsae`` modules and in
        ``callers``, the modules that call into the program."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dsae" or name.startswith("dsae.")] + list(callers)
        self.absent = []
        for target, span, before, after in ENTRY_POINTS:
            owner, original = _resolve(target)
            if original is None:
                self.absent.append(target)
                continue
            wrapped = self.wrap(span, original, before, after)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original and not name.startswith("_"):
                        self._undo.append((module, name, value))
                        setattr(module, name, wrapped)
        cls_target, methods = DRAWS
        _, cls = _resolve(cls_target)
        for method in methods:
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                self.absent.append(f"{cls_target}.{method}")
                continue
            self._undo.append((cls, method, original))
            setattr(cls, method, self._counter(original))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the current phase."""
        sources = {"time": self.time, "self": self.self_time, "calls": self.calls,
                   "items": self.items, "count": self.counts}
        return {name: float(sources[kind].get(key, 0))
                for name, (_, _, (kind, key)) in PER_LAYER.items()}
