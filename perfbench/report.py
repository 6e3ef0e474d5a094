"""Turns measured runs and spans into the named metrics BENCHMARK.json lists."""

from __future__ import annotations

import statistics
from perfbench import measure, tracer

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ex_pct", "%"),
    ("tokens_per_req", "tokens"),
    ("virtual_model_s_per_req", "virtual_s"),
    ("peak_rss_mb", "MB"),
)

#: calls whose spans only occur during set-up; reported in seconds
SETUP_CALLS = ("build_benchmark", "Preprocessor.preprocess_benchmark")
#: calls only the catch-up probe makes; reported per mutation
CATCHUP_CALLS = (
    "MutationDriver.mutate", "ServingEngine.invalidate_db", "ReindexWorker.reindex",
)
#: wrapped but not reported: no serving path calls ``embed_batch`` today
UNREPORTED = ("HashingVectorizer.embed_batch",)
#: layers whose window self time is reported per request
SERVING_LAYERS = (
    "core.pipeline", "core.extraction", "core.fewshot", "core.generation",
    "core.alignment", "core.refinement", "llm", "embedding", "sqlkit",
    "execution", "caching", "serving", "serving.journal",
)
#: layers whose catch-up self time is reported per mutation
CATCHUP_LAYERS = ("livedata", "embedding")


def request_calls() -> list[str]:
    """Wrapped calls reported per window request."""
    skip = SETUP_CALLS + CATCHUP_CALLS + UNREPORTED
    return [t.name for t in tracer.TARGETS if t.name not in skip]


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in print order."""
    units: dict[str, str] = {}
    for call in SETUP_CALLS:
        units[f"{call}.s"] = "s"
    for call in request_calls():
        units[f"{call}.calls_per_req"] = "count"
        units[f"{call}.ms_per_req"] = "ms"
        units[f"{call}.self_ms_per_req"] = "ms"
    for layer in SERVING_LAYERS:
        units[f"layer.{layer}.self_ms_per_req"] = "ms"
    for call in CATCHUP_CALLS:
        units[f"{call}.ms_per_mutation"] = "ms"
        units[f"{call}.self_ms_per_mutation"] = "ms"
    for layer in CATCHUP_LAYERS:
        units[f"layer.{layer}.self_ms_per_mutation"] = "ms"
    units.update({
        "execution.ok_ratio": "ratio",
        "caching.result.hit_ratio": "ratio",
        "caching.extraction.hit_ratio": "ratio",
        "caching.fewshot.hit_ratio": "ratio",
        "serving.overhead_ms_per_req": "ms",
        "serving.warmup_s": "s",
        "serving.journal.bytes_per_req": "bytes",
        "livedata.reindex.vectors_per_mutation": "count",
        "tracing.overhead_pct": "%",
        "tracing.residual_ms_per_req": "ms",
    })
    return units


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run, setup_samples: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and the checks they need."""
    window = run.window
    latencies = [latency * 1000.0 for latency in window.latencies]
    completed = len(latencies)
    p50, _ = measure.percentile(latencies, 50)
    p95, beyond = measure.percentile(latencies, 95)
    accounting = run.accounting
    values = {
        "setup_s": statistics.median(setup_samples),
        "rps": completed / window.elapsed_s,
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "ex_pct": accounting.ex_pct,
        "tokens_per_req": accounting.tokens / accounting.requests,
        "virtual_model_s_per_req": accounting.model_seconds / accounting.requests,
        "peak_rss_mb": peak_rss_mb,
    }
    checks = {
        "answers_match_requests": run.foreign_answers == 0,
        "p95_supported": measure.supported(beyond),
        **run.checks,
    }
    detail = {
        "latency_samples": completed,
        "samples_above_p95": beyond,
        "accounted_requests": accounting.requests,
        "distinct_answers": len(accounting.scores),
        "billed_requests": accounting.billed,
        "twin_answers": run.twin_answers,
        "setup_samples_s": setup_samples,
        **run.detail,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return metrics, {"checks": checks, "detail": detail}


def per_layer(
    traced,
    spans: list[tuple],
    selfs: dict[int, float],
    counts: dict,
    untraced,
    journal_bytes: int,
    journal_requests: int,
) -> dict:
    """Per-layer metrics of a traced run.

    Serving figures cover the window only, per window request; catch-up
    figures cover the probe, per mutation; set-up calls are in seconds.
    """
    n = traced.window.attempted
    mutations = len(traced.vectors)
    layer_of = {t.name: t.layer for t in tracer.TARGETS}
    setup = tracer.call_totals(spans, selfs, {"setup"})
    window = tracer.call_totals(spans, selfs, {"window"})
    catchup = tracer.call_totals(spans, selfs, {"catchup"})
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for call in SETUP_CALLS:
        values[f"{call}.s"] = setup.get(call, empty)["total_s"]
    for call in request_calls():
        entry = window.get(call, empty)
        values[f"{call}.calls_per_req"] = entry["calls"] / n
        values[f"{call}.ms_per_req"] = entry["total_s"] * 1000.0 / n
        values[f"{call}.self_ms_per_req"] = entry["self_s"] * 1000.0 / n
    for layer in SERVING_LAYERS:
        seconds = sum(e["self_s"] for name, e in window.items() if layer_of[name] == layer)
        values[f"layer.{layer}.self_ms_per_req"] = seconds * 1000.0 / n
    for call in CATCHUP_CALLS:
        entry = catchup.get(call, empty)
        values[f"{call}.ms_per_mutation"] = entry["total_s"] * 1000.0 / mutations
        values[f"{call}.self_ms_per_mutation"] = entry["self_s"] * 1000.0 / mutations
    for layer in CATCHUP_LAYERS:
        seconds = sum(e["self_s"] for name, e in catchup.items() if layer_of[name] == layer)
        values[f"layer.{layer}.self_ms_per_mutation"] = seconds * 1000.0 / mutations

    ok = counts.get(("window", "execution.ok"), 0)
    not_ok = counts.get(("window", "execution.not_ok"), 0)
    # Every window span with a request id belongs to a window request.
    requests = [span for span in spans
                if span[tracer.PHASE] == "window" and span[tracer.REQUEST]]
    latency_s = sum(traced.window.latencies)
    answer_s = sum(span[tracer.END] - span[tracer.START] for span in requests
                   if span[tracer.NAME] == "OpenSearchSQL.answer")
    covered_s = sum(selfs[span[tracer.ID]] for span in requests)
    untraced_rps = untraced.window.attempted / untraced.window.elapsed_s
    traced_rps = n / traced.window.elapsed_s
    values.update({
        "execution.ok_ratio": ok / (ok + not_ok) if ok + not_ok else 0.0,
        "caching.result.hit_ratio": traced.cache["result"],
        "caching.extraction.hit_ratio": traced.cache["extraction"],
        "caching.fewshot.hit_ratio": traced.cache["fewshot"],
        "serving.overhead_ms_per_req": (latency_s - answer_s) * 1000.0 / n,
        "serving.warmup_s": untraced.phases[0].elapsed_s,
        "serving.journal.bytes_per_req": journal_bytes / journal_requests,
        "livedata.reindex.vectors_per_mutation": statistics.mean(traced.vectors),
        "tracing.overhead_pct": 100.0 * (untraced_rps - traced_rps) / untraced_rps,
        "tracing.residual_ms_per_req": (latency_s - covered_s) * 1000.0 / n,
    })
    return {name: _metric(values[name], unit) for name, unit in per_layer_units().items()}


def format_metrics(metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}"
        for name, entry in metrics.items()
    )


def describe_layers(metrics: dict) -> str:
    """Window self time per request by layer, largest first."""
    layers = sorted(
        ((name[len("layer."):-len(".self_ms_per_req")], entry["value"])
         for name, entry in metrics.items() if name.endswith(".self_ms_per_req")
         and name.startswith("layer.")),
        key=lambda item: -item[1],
    )
    return "\n".join(f"  {layer:<20} {ms:10.4f} ms/req self" for layer, ms in layers)
