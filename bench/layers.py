"""Per-layer metrics derived from the spans of traced runs.

Counts and summed times are taken per run and reported as the median
over traced runs; per-call timings pool every traced run's calls.
Each comment names the end-to-end metric the layer metric should move,
and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

from stats import median, percentile
from tracing import STAGES, self_times

SUBDIRS = (
    ("transcripts", "transcripts"),
    ("reports", "reports"),
    ("cache_gen", "cache/gen"),
    ("cache_emb", "cache/emb"),
    ("checkpoints", "checkpoints"),
)

# The six stages of a run; a traced run's time outside them is
# trace.unattributed_s.
STAGE_METRICS = (*(f"{name}_s" for _, name in STAGES), "pipeline.write_s")

PER_LAYER = (
    # run_s, on the workload where each stage dominates.
    *((name, "s") for name in STAGE_METRICS),
    # self_s -> ingest_items_per_s on ingest_cold; backend_s and
    # limiter_wait_s -> ingest_items_per_s on remote_latency; requests
    # read 0 on resume_warm and train_warm.
    ("gateway.requests", "count"),
    ("gateway.cache_hits", "count"),
    ("gateway.backend_calls", "count"),
    ("gateway.retries", "count"),
    ("gateway.busy_s", "s"),
    ("gateway.backend_s", "s"),
    ("gateway.self_s", "s"),
    ("gateway.limiter_wait_s", "s"),
    ("gateway.request_ms.p50", "ms"),
    ("gateway.request_ms.p95", "ms"),
    # self_s, template_loads -> ingest_items_per_s on ingest_cold;
    # transcript_read_s -> run_s on resume_warm.
    ("engine.debates", "count"),
    ("engine.debate_ms.p50", "ms"),
    ("engine.debate_ms.p95", "ms"),
    ("engine.self_s", "s"),
    ("engine.template_loads", "count"),
    ("engine.transcript_reads", "count"),
    ("engine.transcript_read_s", "s"),
    # report reads -> run_s on resume_warm.
    ("synthesis.reports", "count"),
    ("synthesis.self_s", "s"),
    ("synthesis.report_reads", "count"),
    ("synthesis.report_read_s", "s"),
    # provider_s, cache_write_s -> ingest_items_per_s on ingest_cold;
    # cache_read_s -> run_s on resume_warm.
    ("encoding.texts", "count"),
    ("encoding.cache_hits", "count"),
    ("encoding.hit_ratio", "ratio"),
    ("encoding.provider_s", "s"),
    ("encoding.cache_read_s", "s"),
    ("encoding.cache_write_s", "s"),
    ("encoding.self_s", "s"),
    # -> ingest_items_per_s on ingest_cold.
    ("graph.sample_build_s", "s"),
    # -> train_samples_per_s on train_warm; forward timings also ->
    # predict_items_per_s on resume_warm.
    ("model.forward_us.p50", "us"),
    ("model.backward_us.p50", "us"),
    ("model.loss_and_grad_ms.p50", "ms"),
    ("model.flatten_us", "us"),
    ("model.unflatten_us", "us"),
    ("gat0.forward_us", "us"),
    ("gat0.backward_us", "us"),
    ("gat1.forward_us", "us"),
    ("gat1.backward_us", "us"),
    ("attention.forward_us", "us"),
    ("attention.backward_us", "us"),
    ("classifier.forward_us", "us"),
    ("adam.step_us", "us"),
    ("train.steps", "count"),
    ("train.val_s", "s"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    # -> ingest_items_per_s on ingest_cold (disk writeback is not timed).
    ("workspace.files_written", "count"),
    ("workspace.bytes_written", "bytes"),
    *((f"workspace.{key}.{kind}", unit) for key, _ in SUBDIRS
      for kind, unit in (("files", "count"), ("bytes", "bytes"))),
    # The tracing overhead, and the part of a traced run in no stage span.
    ("trace.run_s_untraced", "s"),
    ("trace.run_s_traced", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)

# Per-call timings: metric -> (span name, scale, percentile per-mille).
_CALL_TIMINGS = {
    "gateway.request_ms.p50": ("gateway.request", 1e3, 500),
    "gateway.request_ms.p95": ("gateway.request", 1e3, 950),
    "engine.debate_ms.p50": ("engine.debate", 1e3, 500),
    "engine.debate_ms.p95": ("engine.debate", 1e3, 950),
    "model.forward_us.p50": ("model.forward", 1e6, 500),
    "model.loss_and_grad_ms.p50": ("model.loss_and_grad", 1e3, 500),
    "model.flatten_us": ("model.flatten", 1e6, 500),
    "model.unflatten_us": ("model.unflatten", 1e6, 500),
    "attention.forward_us": ("attention.forward", 1e6, 500),
    "attention.backward_us": ("attention.backward", 1e6, 500),
    "classifier.forward_us": ("classifier.forward", 1e6, 500),
    "adam.step_us": ("adam.step", 1e6, 500),
    "checkpoint.save_ms": ("checkpoint.save", 1e3, 500),
}


def _run_totals(tracer, stage_names) -> dict[str, float]:
    spans = defaultdict(list)
    for s in tracer.spans:
        spans[s.name].append(s)
    selfs = self_times(tracer.spans)
    dur = lambda name: sum(s.end - s.start for s in spans[name])
    own = lambda name: sum(selfs[s.id] for s in spans[name])
    count = lambda name: len(spans[name])
    flagged = lambda name: sum(1 for s in spans[name] if s.tag)

    out = {f"{name}_s": dur(name) for name in (*stage_names, "pipeline.write")}
    out["trace.unattributed_s"] = dur("pipeline.run") - sum(out.values())
    requests, hits = count("gateway.request"), flagged("gateway.request")
    texts, embed_hits = count("encoding.embed"), flagged("encoding.cache_read")
    out.update({
        "gateway.requests": requests,
        "gateway.cache_hits": hits,
        "gateway.backend_calls": count("gateway.backend"),
        "gateway.retries": count("gateway.backend") - (requests - hits),
        "gateway.busy_s": dur("gateway.request"),
        "gateway.backend_s": dur("gateway.backend"),
        "gateway.self_s": own("gateway.request"),
        "gateway.limiter_wait_s": dur("gateway.limiter_wait"),
        "engine.debates": count("engine.debate"),
        "engine.self_s": own("engine.debate"),
        "engine.template_loads": tracer.counts["engine.template_loads"],
        "engine.transcript_reads": count("engine.transcript_read"),
        "engine.transcript_read_s": dur("engine.transcript_read"),
        "synthesis.reports": count("synthesis.report"),
        "synthesis.self_s": own("synthesis.report"),
        "synthesis.report_reads": count("synthesis.report_read"),
        "synthesis.report_read_s": dur("synthesis.report_read"),
        "encoding.texts": texts,
        "encoding.cache_hits": embed_hits,
        "encoding.hit_ratio": embed_hits / texts if texts else None,
        "encoding.provider_s": dur("encoding.provider"),
        "encoding.cache_read_s": dur("encoding.cache_read"),
        "encoding.cache_write_s": dur("encoding.cache_write"),
        "encoding.self_s": own("encoding.embed"),
        "graph.sample_build_s": dur("graph.sample_build"),
        "train.steps": count("adam.step"),
        "train.val_s": dur("train.val"),
        "checkpoint.bytes": spans["checkpoint.save"][-1].tag if spans["checkpoint.save"] else None,
    })
    return out


def _call_samples(tracers) -> dict[str, list[float]]:
    """Per-call timings pooled over runs, keyed by metric name."""
    samples = defaultdict(list)
    for tracer in tracers:
        forward_in = defaultdict(float)
        for s in tracer.spans:
            if s.name == "model.forward":
                forward_in[s.parent] += s.end - s.start
        for s in tracer.spans:
            d = s.end - s.start
            if s.name in ("gat.forward", "gat.backward") and s.tag is not None:
                samples[f"gat{s.tag}.{s.name.split('.')[1]}_us"].append(d * 1e6)
            elif s.name == "model.loss_and_grad":
                samples["model.backward_us.p50"].append((d - forward_in[s.id]) / s.tag * 1e6)
            samples[s.name].append(d)
    for metric, (name, scale, _) in _CALL_TIMINGS.items():
        samples[metric] = [d * scale for d in samples.get(name, ())]
    return samples


def layer_metrics(tracers, writes, run_s_untraced, run_s_traced):
    """Per-layer metric values, plus a reason for each one absent
    (value None). ``writes`` holds one workspace write count per traced
    run."""
    stage_names = [name for _, name in STAGES]
    per_run = [dict(_run_totals(t, stage_names), **w) for t, w in zip(tracers, writes)]
    values = {}
    notes = {}
    for name in per_run[0]:
        present = [r[name] for r in per_run if r[name] is not None]
        values[name] = median(present)
    samples = _call_samples(tracers)
    for metric, (name, _, permille) in _CALL_TIMINGS.items():
        data = samples[metric]
        values[metric] = median(data) if permille == 500 else percentile(data, permille)
        if not data:
            notes[metric] = f"no {name} calls on this workload"
        elif values[metric] is None:
            notes[metric] = f"{len(data)} calls; p{permille / 10:g} needs 10 beyond it"
    for metric in ("model.backward_us.p50", "gat0.forward_us", "gat0.backward_us",
                   "gat1.forward_us", "gat1.backward_us"):
        values[metric] = median(samples.get(metric, []))
    values["trace.run_s_untraced"] = run_s_untraced
    values["trace.run_s_traced"] = run_s_traced
    values["trace.overhead_ratio"] = run_s_traced / run_s_untraced - 1.0
    for name, _ in PER_LAYER:
        if values.get(name) is None and name not in notes:
            notes[name] = "not exercised on this workload"
    return values, notes
