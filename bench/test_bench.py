"""Checks of the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from layers import PER_LAYER, layer_metrics  # noqa: E402
from stats import highest_percentile, percentile, tail_allowed  # noqa: E402
from tracing import Instrumentation, Span, Tracer, self_times  # noqa: E402
from workloads import LatencyBackend  # noqa: E402

from veridebate.config import PipelineConfig  # noqa: E402
from veridebate.gateway import GenerationRequest, GenerationSettings, MockBackend  # noqa: E402
from veridebate.pipeline import Pipeline  # noqa: E402
from veridebate.synthetic import make_synthetic_corpus  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    assert not tail_allowed(500, 19) and tail_allowed(500, 20)
    assert not tail_allowed(950, 199) and tail_allowed(950, 200)
    assert highest_percentile(19) is None
    assert highest_percentile(20) == 500
    assert highest_percentile(100) == 900
    assert highest_percentile(200) == 950
    assert highest_percentile(1000) == 990
    assert highest_percentile(10000) == 999
    values = list(range(1, 201))
    assert percentile(values, 950) == 190
    assert sum(v > 190 for v in values) == 10
    assert percentile(values[:-1], 950) is None


def test_self_time_subtracts_only_same_thread_children():
    a, b = 1, 2
    spans = [
        Span(1, None, "stage", 0.0, 1.0, a, None, None),
        Span(2, 1, "child", 0.2, 0.4, a, None, None),
        Span(3, 1, "child", 0.3, 0.5, a, None, None),   # overlaps span 2
        Span(4, 1, "worker", 0.1, 0.9, b, None, None),  # other thread
        Span(5, 4, "leaf", 0.2, 0.3, b, None, None),
    ]
    selfs = self_times(spans)
    assert abs(selfs[1] - 0.7) < 1e-12
    assert abs(selfs[2] - 0.2) < 1e-12
    assert abs(selfs[4] - 0.7) < 1e-12
    assert abs(selfs[5] - 0.1) < 1e-12


def test_worker_thread_spans_take_the_stage_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.02), "leaf")

    def stage():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(leaf) for _ in range(4)]:
                future.result()

    tracer.wrap(stage, "stage", stage=True)()
    spans = {s.name: [] for s in tracer.spans}
    for s in tracer.spans:
        spans[s.name].append(s)
    (outer,) = spans["stage"]
    assert len(spans["leaf"]) == 4
    assert all(s.parent == outer.id and s.thread != outer.thread for s in spans["leaf"])
    selfs = self_times(tracer.spans)
    assert selfs[outer.id] == outer.end - outer.start


def _request(text: str) -> GenerationRequest:
    return GenerationRequest(messages=(("system", "judge"), ("user", text)),
                             settings=GenerationSettings(seed=3))


def test_latency_model_is_a_pure_function_of_the_request():
    slept = []
    backend = LatencyBackend(MockBackend(), sleep=slept.append)
    other = LatencyBackend(MockBackend(), sleep=slept.append)
    texts = [f"claim number {i}" for i in range(50)]
    first = [backend.latency(_request(t)) for t in texts]
    assert first == [other.latency(_request(t)) for t in texts]
    assert all(0.005 <= s < 0.015 for s in first)
    assert len(set(first)) == len(first)
    assert backend.complete(_request(texts[0])) == MockBackend().complete(_request(texts[0]))
    assert slept == [first[0]]


def _tiny_pipeline(workspace: Path) -> Pipeline:
    config = PipelineConfig(d_h=16, d_r=4, gat_hidden=8, d_p=8, heads=2, epochs=2)
    return Pipeline(config, workspace)


def test_wrappers_leave_outputs_byte_identical(tmp_path):
    dataset = make_synthetic_corpus(n_train=6, n_val=2, n_test=4, seed=5).dataset
    pipe, model = (importlib.import_module(f"veridebate.{m}") for m in ("pipeline", "neural.model"))
    originals = (pipe.run_debate, pipe.train, vars(model.AnalysisModel)["forward"])

    _tiny_pipeline(tmp_path / "plain").run(dataset)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    traced = _tiny_pipeline(tmp_path / "traced")
    inst.install_stages(traced)
    requests = inst.count_requests(traced.gateway)
    inst.install_layers(traced)
    traced.run(dataset)
    inst.remove()
    after = _tiny_pipeline(tmp_path / "after")
    after.run(dataset)

    outputs = {name: (tmp_path / name / "metrics.json").read_bytes()
               for name in ("plain", "traced", "after")}
    assert outputs["plain"] == outputs["traced"] == outputs["after"]
    assert (pipe.run_debate, pipe.train, vars(model.AnalysisModel)["forward"]) == originals
    assert "generate" not in vars(traced.gateway) and "run" not in vars(traced)
    assert len(requests) == 9 * len(dataset) and not any(requests)

    values, notes = layer_metrics([tracer], [{}], 1.0, 1.0)
    names = {name for name, _ in PER_LAYER if not name.startswith("workspace.")}
    assert names <= set(values)
    assert all(values[n] is not None or n in notes for n in names)
    assert values["gateway.requests"] == 9 * len(dataset)
    assert values["gat1.backward_us"] is not None
    # The write stage has spans of its own, so the stages need not add up
    # to the run: what they leave out is reported, not absorbed.
    assert values["pipeline.write_s"] > 0 and values["trace.unattributed_s"] >= 0
    assert threading.active_count() == 1
