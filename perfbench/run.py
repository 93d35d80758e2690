"""The repository benchmark: time grid runs end to end, or per layer when traced.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md``): ``grid-cold``, ``reattack-warm``
and ``queue-q1``.  Set-up builds the inputs from ``--seed``; the run then
repeats timed iterations until ``--seconds`` have passed (at least one).
With ``--trace 1`` every iteration is followed by a traced one, which
yields the per-layer metrics and the tracing overhead.

Stdout ends with one JSON line: ``correct``, ``attempted``/``failed`` grid
cells and ``metrics`` (end-to-end ones untraced, per-layer ones traced).
The environment and every iteration are also written to
``.perfbench/results/``.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"

# Metrics per span name: "calls", "busy_s" (self time) and "total_s"
# (inclusive time) read the spans; any other field reads the counter of
# that full name.
SPAN_METRICS: dict[str, tuple[str, ...]] = {
    "data.generate": ("busy_s",),
    "robustness.train_and_score": ("busy_s", "total_s"),
    "training.fit": ("busy_s", "total_s", "sample_epochs"),
    "training.evaluate": ("busy_s",),
    "tensor.backward": ("calls", "busy_s"),
    "optim.adam_step": ("busy_s",),
    "robustness.robustness_curve": ("busy_s", "total_s"),
    "attacks.input_gradient": ("calls", "busy_s"),
    "attacks.predict_batched": ("busy_s",),
    "attacks.evaluate_attack_sweep": ("busy_s", "total_s"),
    "snn.fused_input_gradient": ("calls", "busy_s"),
    "snn.fused_loss_backward": ("calls",),
    "snn.record_forward": ("busy_s",),
    "snn.backward_pass": ("busy_s",),
    "snn.forward": ("calls", "busy_s"),
    "tensor.conv_plan.fwd": ("calls", "busy_s", "gemm_flops", "bytes_computed"),
    "tensor.conv_plan.bwd_input": ("calls", "busy_s", "gemm_flops", "bytes_computed"),
    "tensor.conv_plan.bwd_weight": ("calls", "busy_s", "gemm_flops", "bytes_computed"),
    "tensor.pool_plan.fwd": ("busy_s",),
    "tensor.pool_plan.bwd": ("busy_s",),
    "snn.stack.record_forward": ("busy_s",),
    "snn.stack.backward_pass": ("busy_s",),
    "snn.stack.forward_logits": ("busy_s",),
    "engine.run_stacked_group": ("calls", "busy_s", "total_s"),
    "engine.run_cell_task": ("calls", "busy_s", "total_s"),
    "engine.queue.commit": ("busy_s",),
    "engine.cache.cell_get": ("busy_s",),
    "engine.cache.cell_put": ("busy_s",),
    "engine.cache.weight_put": ("calls", "busy_s", "bytes"),
    "engine.cache.weight_get": ("calls", "busy_s"),
}
UNITS = {
    "busy_s": "s", "total_s": "s", "calls": "count", "sample_epochs": "count",
    "gemm_flops": "flop", "bytes_computed": "B", "bytes": "B",
}
SPAN_ALIASES = {
    # The LIF step metrics keep the names the layer map uses.
    "snn.lif.step_busy_s": "snn.lif.step",
    "snn.lif.step_backward_busy_s": "snn.lif.step_backward",
}

COVERAGE: dict[str, tuple[str, ...]] = {
    "grid-cold": (
        "data.generate", "robustness.train_and_score", "training.fit",
        "training.evaluate", "tensor.backward", "optim.adam_step",
        "robustness.robustness_curve", "snn.forward", "snn.lif.step",
        "engine.run_cell_task", "engine.cache.cell_put", "engine.cache.weight_put",
    ),
    "reattack-warm": (
        "data.generate", "robustness.robustness_curve", "attacks.input_gradient",
        "attacks.predict_batched", "attacks.evaluate_attack_sweep",
        "snn.fused_input_gradient", "snn.record_forward", "snn.backward_pass",
        "snn.forward", "snn.lif.step", "snn.lif.step_backward",
        "tensor.conv_plan.fwd", "tensor.conv_plan.bwd_input",
        "tensor.pool_plan.fwd", "tensor.pool_plan.bwd",
        "engine.run_cell_task", "engine.cache.cell_get", "engine.cache.cell_put",
        "engine.cache.weight_get",
    ),
    "queue-q1": (
        "data.generate", "snn.stack.record_forward", "snn.stack.backward_pass",
        "snn.stack.forward_logits", "snn.lif.step", "snn.lif.step_backward",
        "tensor.conv_plan.fwd", "tensor.conv_plan.bwd_input",
        "tensor.conv_plan.bwd_weight", "tensor.pool_plan.fwd", "tensor.pool_plan.bwd",
        "engine.run_stacked_group", "engine.queue.worker", "engine.queue.commit",
        "engine.cache.cell_get", "engine.cache.cell_put", "engine.cache.weight_put",
    ),
}
"""Spans that must fire on the workload they are said to dominate.  A span
missing here means a wrapper sits on a binding the callers do not use."""


def environment() -> dict:
    """What the numbers depend on, as found (the benchmark sets none of it)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def merge_layers(iterations) -> tuple[dict, dict, int]:
    """Sum span totals and counters over every traced process and pass."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    span_count = 0
    for iteration in iterations:
        for layers in iteration.layers:
            span_count += layers["span_count"]
            for name, entry in layers["spans"].items():
                total = spans.setdefault(name, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    total[key] += value
            for name, value in layers["counts"].items():
                counts[name] = counts.get(name, 0.0) + value
    return spans, counts, span_count


def layer_metrics(plain, traced, stack_width: int) -> dict[str, dict]:
    """Per-layer metrics, averaged per traced pass."""
    spans, counts, span_count = merge_layers(traced)
    passes = len(traced)
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def read(span: str, field: str) -> float:
        return spans.get(span, {}).get(field, 0)

    def calls(span: str) -> float:
        return read(span, "calls")

    def busy(span: str) -> float:
        return read(span, "busy_s")

    for span, fields in SPAN_METRICS.items():
        for field in fields:
            if field in ("calls", "busy_s", "total_s"):
                value = read(span, field)
            else:
                value = counts.get(f"{span}.{field}", 0.0)
            put(f"{span}.{field}", value / passes, UNITS[field])
    for metric, span in SPAN_ALIASES.items():
        put(metric, busy(span) / passes, "s")

    stacked = calls("engine.run_stacked_group")
    singles = calls("engine.run_cell_task")
    slots = (stacked + singles) * stack_width
    lanes = counts.get("engine.run_stacked_group.lanes", 0.0) + singles
    put("engine.stack.lane_fill", lanes / slots if slots else 0.0, "ratio")
    queue = {key: sum(it.queue.get(key, 0) for it in traced) for key in
             ("claims", "steals", "retries", "commits")}
    for key in ("claims", "steals", "retries"):
        put(f"engine.queue.{key}", queue[key] / passes, "count")
    put("engine.queue.claims_per_commit",
        queue["claims"] / queue["commits"] if queue["commits"] else 0.0, "ratio")
    put("engine.queue.worker_idle_s", busy("engine.queue.worker") / passes, "s")
    gets = calls("engine.cache.weight_get")
    hits = counts.get("engine.cache.weight_get.hits", 0.0)
    put("engine.cache.weight_hit_ratio", hits / gets if gets else 0.0, "ratio")
    put("trace.spans", span_count / passes, "count")
    put(
        "trace.overhead_ratio",
        statistics.median(it.wall_s for it in traced)
        / statistics.median(it.wall_s for it in plain),
        "ratio",
    )
    return metrics


def coverage_errors(workload: str, traced) -> list[str]:
    spans, counts, _ = merge_layers(traced)
    errors = [
        f"span {name} never fired on {workload}"
        for name in COVERAGE[workload] if not spans.get(name, {}).get("calls")
    ]
    if workload == "reattack-warm":
        gets = spans.get("engine.cache.weight_get", {}).get("calls", 0)
        if gets == 0 or counts.get("engine.cache.weight_get.hits", 0.0) != gets:
            errors.append("weight cache hit ratio is not 1.0 on reattack-warm")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-cold", "reattack-warm", "queue-q1"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="recompute the default seed's cell hashes of every workload from "
             "serial runs into perfbench/reference.json, then exit",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS, write_reference

    if args.write_reference:
        write_reference()
        return 0

    # A SIGTERM unwinds like an exception, so the ``finally`` blocks reap
    # any child process and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = workload.setup()
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(workload.iterate(None))
            if args.trace:
                traced.append(workload.iterate(tracing.Tracer()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = plain + traced
    attempted = sum(it.attempted for it in runs)
    failed = sum(it.failed for it in runs)
    errors = workload.errors + [error for it in runs for error in it.errors]
    walls = [it.wall_s for it in plain]
    print(f"workload {args.workload}: seed {args.seed}, {len(plain)} timed "
          f"iteration(s) of {plain[0].attempted} cells"
          + (f", {len(traced)} traced" if traced else ""))
    print(f"wall_s = {statistics.median(walls):.4f} s "
          f"(median of {len(walls)}, min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"setup_s = {setup_s:.4f} s (serial reference run in a child process: "
          f"{workload.reference_s:.4f} s)")
    print(f"peak_rss_mb = {statistics.median(it.peak_rss_mb for it in plain):.1f} MB")
    print(f"cells_failed_frac = {failed / attempted:g} ({failed}/{attempted} cells)")
    if args.trace:
        errors += coverage_errors(args.workload, traced)
        metrics = layer_metrics(plain, traced, workload.stack_width)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(it.peak_rss_mb for it in plain),
                "unit": "MB",
            },
        }
    correct = failed == 0 and not errors
    print(f"result_ok = {str(correct).lower()}")
    for error in errors:
        print(f"error: {error}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s": setup_s,
        "reference_s": workload.reference_s, "errors": errors, "metrics": metrics,
        "iterations": [
            {"traced": index >= len(plain), "wall_s": it.wall_s,
             "attempted": it.attempted, "failed": it.failed,
             "peak_rss_mb": it.peak_rss_mb, "queue": it.queue}
            for index, it in enumerate(runs)
        ],
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
