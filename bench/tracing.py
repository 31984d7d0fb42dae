"""In-memory spans around calls into veridebate, installed from outside.

The benchmark times each layer by rebinding names where the program
looks them up: module globals (``veridebate.pipeline.run_debate``),
class attributes (``AnalysisModel.forward``) and instance attributes
(``pipeline.run_debates``, ``gateway.generate``). ``Instrumentation``
records every rebinding so ``remove`` restores the program exactly.

A span records name, start, end, thread, parent and item id. A span
started on a thread with no open span (a worker of the debate pool)
takes the open stage span as its parent. Self time counts only children
on the span's own thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "id parent name start end thread item tag")

STAGES = (
    ("run_debates", "pipeline.debate"),
    ("run_synthesis", "pipeline.synthesize"),
    ("build_samples", "pipeline.encode"),
    ("train_model", "pipeline.train"),
    ("predict_rows", "pipeline.predict"),
)


class Tracer:
    """Collects spans and counters for one pipeline run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._stage = None  # (span id, item) of the open stage span

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, item_of=None, tag_of=None, stage: bool = False):
        """Return ``fn`` wrapped in a span. ``item_of(args)`` names the
        item (otherwise the parent's is inherited); ``tag_of(args,
        result)`` attaches a value such as a cache-hit flag."""
        spans, ids, clock, get_ident = self.spans, self._ids, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._stage
            item = item_of(args) if item_of else (parent[1] if parent else None)
            frame = (next(ids), item)
            stack.append(frame)
            if stage:
                self._stage = frame
            start = clock()
            tag = None
            try:
                result = fn(*args, **kwargs)
                if tag_of is not None:
                    tag = tag_of(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if stage:
                    self._stage = None
                spans.append(Span(frame[0], parent[0] if parent else None, name,
                                  start, end, get_ident(), item, tag))

        return traced

    def counted(self, fn, name: str):
        """Return ``fn`` wrapped in a call counter (no span, so callers'
        self time keeps the work)."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            with self._count_lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children's
    intervals (clipped to the span)."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children.setdefault(parent.id, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    result = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[s.id] = (s.end - s.start) - covered
    return result


class TimedLimiter:
    """Stands in for a gateway's RateLimiter and times each entry wait."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._enter = tracer.wrap(inner.__enter__, "gateway.limiter_wait")

    def __enter__(self):
        self._enter()
        return self

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


class Instrumentation:
    """Installs span wrappers on one pipeline and on the veridebate
    modules it calls into; ``remove`` undoes every rebinding."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, bool, object]] = []
        self._gat_index: dict[int, int] = {}

    def _patch(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        had_own = attr in own
        self._undo.append((owner, attr, had_own, own.get(attr)))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name: str, **kwargs) -> None:
        self._patch(owner, attr, self.tracer.wrap(getattr(owner, attr), name, **kwargs))

    def _wrap_method(self, cls, attr: str, name: str, **kwargs) -> None:
        self._patch(cls, attr, self.tracer.wrap(vars(cls)[attr], name, **kwargs))

    def remove(self) -> None:
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def install_stages(self, pipeline) -> None:
        """Time ``Pipeline.run`` and its five stage methods (6 calls per
        run); debate and synthesis spans carry their failure count."""
        self._wrap_attr(pipeline, "run", "pipeline.run")
        failures = lambda args, result: len(result[1].failures)
        for attr, name in STAGES:
            tag_of = failures if attr in ("run_debates", "run_synthesis") else None
            self._wrap_attr(pipeline, attr, name, tag_of=tag_of, stage=True)

    def count_requests(self, gateway) -> list[bool]:
        """Record one cache-hit flag per gateway request in the returned
        list (appends are atomic across the debate pool's threads)."""
        flags: list[bool] = []
        generate = gateway.generate

        def counting(request):
            response = generate(request)
            flags.append(response.cached)
            return response

        self._patch(gateway, "generate", counting)
        return flags

    def install_layers(self, pipeline) -> None:
        """Span every public call into the gateway, engine, synthesis,
        encoding, graph and neural modules."""
        # import_module, not ``import a.b as c``: veridebate.neural
        # re-exports a function named ``train`` over its submodule.
        engine, model, train, pipe = (importlib.import_module(f"veridebate.{name}") for name in
                                      ("engine", "neural.model", "neural.train", "pipeline"))

        t = self.tracer
        # The write stage: metrics and predictions.jsonl. explanations.jsonl
        # and metrics.json are written through builtins, which stay
        # unwrapped, so their time is left in trace.unattributed_s.
        self._wrap_attr(pipeline, "_metrics_from_rows", "pipeline.write")
        self._wrap_attr(pipe, "write_predictions_jsonl", "pipeline.write")

        gateway, embedder = pipeline.gateway, pipeline.embedder
        self._wrap_attr(gateway, "generate", "gateway.request",
                        tag_of=lambda args, result: result.cached)
        self._wrap_attr(gateway.backend, "complete", "gateway.backend")
        if gateway.limiter is not None:
            self._patch(gateway, "limiter", TimedLimiter(gateway.limiter, t))

        self._wrap_attr(pipe, "run_debate", "engine.debate", item_of=lambda args: args[0].id)
        self._patch(engine, "load_template", t.counted(engine.load_template, "engine.template_loads"))
        self._wrap_attr(pipe, "log_from_json", "engine.transcript_read")
        self._wrap_attr(pipe, "synthesize", "synthesis.report",
                        item_of=lambda args: args[0].news_id)
        self._wrap_attr(pipe, "report_from_json", "synthesis.report_read")

        self._wrap_attr(embedder, "embed_text", "encoding.embed")
        self._wrap_attr(embedder.provider, "embed_text", "encoding.provider")
        if embedder.cache is not None:
            self._wrap_attr(embedder.cache, "get", "encoding.cache_read",
                            tag_of=lambda args, result: result is not None)
            self._wrap_attr(embedder.cache, "put", "encoding.cache_write")
        self._wrap_attr(pipe, "make_sample", "graph.sample_build",
                        item_of=lambda args: args[0].news_id)

        gat_index = self._gat_index
        fit = pipe.train

        def fit_indexed(model_, *args, **kwargs):
            gat_index.clear()
            gat_index.update((id(layer), i) for i, layer in enumerate(model_.gat_layers))
            return fit(model_, *args, **kwargs)

        self._patch(pipe, "train", t.wrap(fit_indexed, "train.fit"))
        self._wrap_attr(pipe, "save_model", "checkpoint.save",
                        tag_of=lambda args, result: os.path.getsize(args[0]))
        layer_of = lambda args, result: gat_index.get(id(args[0]))
        self._wrap_attr(model, "gat_forward_cached", "gat.forward", tag_of=layer_of)
        self._wrap_attr(model, "gat_backward", "gat.backward", tag_of=layer_of)
        self._wrap_attr(model, "interact_cached", "attention.forward")
        self._wrap_attr(model, "interact_backward", "attention.backward")
        self._wrap_attr(model, "classify", "classifier.forward")
        self._wrap_method(model.AnalysisModel, "forward", "model.forward")
        self._wrap_method(model.AnalysisModel, "parameter_vector", "model.flatten")
        self._wrap_method(model.AnalysisModel, "set_parameter_vector", "model.unflatten")
        self._wrap_attr(train, "loss_and_grad", "model.loss_and_grad",
                        tag_of=lambda args, result: len(args[1]))
        self._wrap_attr(train, "adam_step", "adam.step")
        self._wrap_attr(train, "accuracy", "train.val")
