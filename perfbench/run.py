"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload steady --seed 0 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``steady``,
``chat-disagg``, ``numeric-ppl``, ``numeric-decode``.

``--trace 0`` sets the workload up several times (reporting the median
set-up time), runs its timed iterations for ``--seconds``, checks every
output and prints the end-to-end metrics. ``--trace 1`` instead times one
fixed pass untraced and the same pass with the layer spans of
:mod:`spans` installed, checks that the traced pass reproduced the
untraced one, and prints the per-layer metrics; the spans are written to
``.perfbench_out/`` in the checkout.

Every earlier stdout line is a human-readable report; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time

import program
from spans import ROOT, Spans
from workloads import WORKLOADS, median

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5
OUT_DIR = program.ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_host_s": "tok/s",
    "iter_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "succeeded_share": "share",
}

#: Workload-specific outcomes that repeat exactly for a seed: simulated
#: latency and goodput (fleets, numeric-decode) and model quality.
OUTCOME_UNITS = {
    "sim_ttft_p50_s": "s",
    "sim_ttft_p99_s": "s",
    "sim_tpot_p50_s": "s",
    "sim_tpot_p99_s": "s",
    "sim_goodput_tok_s": "tok/s",
    "ppl_mxfp4plus": "ppl",
    "ppl_mxfp4": "ppl",
    "token_match_rate": "share",
}

#: Per-layer metrics: span-derived figures per layer, then counters and
#: ratios read from the program's results, then the traced run's
#: simulated/quality outcomes (which must equal the untraced run's).
SPAN_FIELDS = {
    "serve.cluster.run": ("self_s",),
    "serve.cluster.route": ("calls", "self_s"),
    "serve.engine.step": ("calls", "self_s"),
    "serve.engine.submit": ("self_s",),
    "serve.engine.kv_handoff": ("self_s",),
    "serve.sched.plan": ("calls", "self_s"),
    "gpu.inference.step_time": ("calls", "self_s"),
    "serve.kvcache.append_token": ("calls", "self_s"),
    "serve.kvcache.try_allocate": ("self_s",),
    "obs.tracer.emit": ("calls", "self_s"),
    "obs.export.chrome_trace": ("self_s",),
    "core.encode": ("calls", "self_s"),
    "core.decode": ("self_s",),
    "nn.quantize.weight": ("total_s",),
    "nn.quantize.act": ("total_s",),
    "nn.quantize.kv": ("total_s",),
    "nn.transformer.forward": ("calls", "self_s"),
    ROOT: ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
PER_LAYER_UNITS = {
    **{f"{layer}.{field}": FIELD_UNITS[field] for layer, fields in SPAN_FIELDS.items() for field in fields},
    "serve.engine.rows_per_step": "rows",
    "serve.engine.preemptions_per_request": "count",
    "gpu.inference.step_time.hit_ratio": "share",
    "serve.kvcache.alloc_success_ratio": "share",
    "serve.kvcache.prefix_hit_ratio": "share",
    "serve.kvcache.transfer_bytes_per_request": "B",
    "obs.tracer.dropped_share": "share",
    "core.encode.elems": "count",
    "nn.quantize.weight.elems_per_token": "count",
    "nn.transformer.forward.rows_per_call": "rows",
    "serve.workload.generate_s": "s",
    "models.load_model_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "x",
    "trace.self_sum_share": "share",
    **OUTCOME_UNITS,
}
#: Units of the workload-specific figures printed in the report lines.
REPORT_UNITS = {
    **OUTCOME_UNITS,
    "sim_requests_per_host_s": "req/s",
    "decode_step_ms_p50": "ms",
    "decode_step_ms_p90": "ms",
    "decode_step_samples": "count",
}
#: Self times of all spans must sum to the traced wall time within this share.
SELF_SUM_TOLERANCE = 0.05


def build() -> None:
    subprocess.run([sys.executable, str(program.ROOT / "perfbench" / "build.py")], check=True)


def measured_run(workload, seconds: float, setup_s: float) -> tuple[dict, list[str]]:
    gc.collect()
    workload.timed_phase(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = workload.checks()
    host_s = workload.host_seconds()
    metrics = {
        "setup_s": setup_s,
        "tokens_per_host_s": workload.tokens / host_s if host_s else 0.0,
        "iter_ms_p50": median(workload.iter_s) * 1e3 if workload.iter_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "succeeded_share": (workload.attempted - workload.failed) / workload.attempted,
    }
    print(f"# {workload.name}: {len(workload.iter_s)} timed iterations, {host_s:.3f} host s")
    return metrics, errors


def traced_run(workload, run_id: str, setups: list[dict]) -> tuple[dict, list[str]]:
    gc.collect()
    t0 = time.perf_counter()
    workload.pass_once()
    untraced_s = time.perf_counter() - t0
    tokens_before = workload.tokens
    gc.collect()
    with Spans(run_id) as spans:
        t0 = time.perf_counter()
        spans.run_root(workload.pass_once)
        traced_s = time.perf_counter() - t0
    spans.write(OUT_DIR / f"spans-{run_id}.npz")
    errors = workload.checks()
    tokens = workload.tokens - tokens_before

    stats = spans.layer_stats()
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for layer, fields in SPAN_FIELDS.items():
        for field in fields:
            metrics[f"{layer}.{field}"] = stats.get(layer, {}).get(field, 0.0)
    counters = spans.counters
    steps = stats.get("serve.engine.step", {}).get("calls", 0)
    forwards = stats.get("nn.transformer.forward", {}).get("calls", 0)
    self_sum = sum(s["self_s"] for s in stats.values())
    metrics.update(
        {
            "serve.engine.rows_per_step": counters.get("serve.engine.step.rows", 0) / steps if steps else 0.0,
            "core.encode.elems": counters.get("core.encode.elems", 0),
            "nn.quantize.weight.elems_per_token": counters.get("nn.quantize.weight.elems", 0) / tokens if tokens else 0.0,
            "nn.transformer.forward.rows_per_call": counters.get("nn.transformer.forward.rows", 0) / forwards if forwards else 0.0,
            "serve.workload.generate_s": median([s.get("generate_s", 0.0) for s in setups]),
            "models.load_model_s": median([s.get("load_model_s", 0.0) for s in setups]),
            "trace.wall_s": traced_s,
            "trace.untraced_wall_s": untraced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
            "trace.self_sum_share": self_sum / traced_s,
        }
    )
    metrics.update(workload.layer_figures())
    metrics.update({k: v for k, v in workload.report().items() if k in PER_LAYER_UNITS})
    if abs(self_sum / traced_s - 1.0) > SELF_SUM_TOLERANCE:
        errors.append(f"layer self times sum to {self_sum:.3f} s of {traced_s:.3f} s traced wall time")
    print(f"# {workload.name}: traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s "
          f"(overhead {traced_s / untraced_s:.2f}x), {len(spans.start)} spans")
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build()
    workload = WORKLOADS[args.workload]()
    setups = [workload.setup(args.seed) for _ in range(SETUP_REPS)]
    setup_s = median([s["setup_s"] for s in setups])
    run_id = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, errors = traced_run(workload, run_id, setups)
        units = PER_LAYER_UNITS
    else:
        metrics, errors = measured_run(workload, args.seconds, setup_s)
        units = END_TO_END_UNITS
        extras = workload.report()
        for name, value in extras.items():
            print(f"# {name} = {value:.6g} {REPORT_UNITS[name]}")
    for error in errors:
        print(f"# CHECK FAILED: {error}")
    print(f"# {workload.attempted} operations attempted, "
          f"{workload.attempted - workload.failed} succeeded, {workload.failed} failed "
          f"(failed_share = {workload.failed / max(1, workload.attempted):.6g})")
    result = {
        "correct": not errors and workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
