"""Wall-clock serving benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload {cold_unique,warm_zipf} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload untraced, then again with every layer's public calls wrapped, and
prints the per-layer metrics.  Both check the served answers.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.  A full
record (environment, phases, checks) is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: the names in perfbench.workloads, repeated so that parsing arguments
#: does not import the program before set-up is timed
WORKLOADS = ("cold_unique", "warm_zipf")
#: set-ups per run (this process, then fresh interpreters); the median is reported
SETUP_SAMPLES = 3
SETUP_SAMPLE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def setup_sample(workload: str) -> float:
    """Set-up time of one fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_sample.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_SAMPLE_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import measure

    env = measure.environment()
    start = time.perf_counter()
    from perfbench import report, tracer, workloads

    scratch = OUT / "tmp"
    stack = workloads.build_stack(args.workload, scratch)
    setup_samples = [time.perf_counter() - start]
    if not args.trace:
        setup_samples += [setup_sample(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    inputs = workloads.make_inputs(args.workload, args.seed, stack.benchmark)
    ticks = measure.cpu_ticks()
    try:
        run = workloads.run_workload(args.workload, stack, inputs, args.seconds)
        journal_bytes = stack.journal.path.stat().st_size
    finally:
        stack.close()
    env["cpu_steal_pct_while_serving"] = measure.steal_pct(ticks, measure.cpu_ticks())
    peak_rss = measure.peak_rss_mb()
    e2e, verdict = report.end_to_end(run, setup_samples, peak_rss)
    phases = {f"untraced.{p.name}": p.summary() for p in run.phases}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "phases": phases,
              "end_to_end": e2e, **verdict}

    metrics = e2e
    if args.trace:
        del stack
        gc.collect()
        recorder = tracer.SpanRecorder()
        with recorder:
            traced_stack = workloads.build_stack(args.workload, scratch)
            try:
                traced = workloads.run_workload(
                    args.workload, traced_stack, inputs, args.seconds, recorder=recorder,
                )
            finally:
                traced_stack.close()
        spans = recorder.spans()
        selfs = tracer.self_times(spans)
        journal_requests = sum(p.attempted for p in run.phases)
        metrics = report.per_layer(
            traced, spans, selfs, recorder.counts(), run, journal_bytes,
            journal_requests,
        )
        phases.update({f"traced.{p.name}": p.summary() for p in traced.phases})
        record.update(per_layer=metrics, spans=len(spans))
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl", spans, selfs)

    correct = all(verdict["checks"].values())
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    record.update(correct=correct, attempted=attempted, failed=failed)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env))
    for phase, summary in phases.items():
        print(f"phase {phase}: {summary['attempted']} attempted, "
              f"{summary['failed']} failed, {summary['elapsed_s']:.3f} s")
    print("checks: " + json.dumps(verdict["checks"]))
    print("detail: " + json.dumps(verdict["detail"]))
    print(("per-layer" if args.trace else "end-to-end") + " metrics:")
    print(report.format_metrics(metrics))
    if args.trace:
        print("window self time by layer:")
        print(report.describe_layers(metrics))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
