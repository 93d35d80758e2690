"""One grid run in a process of its own (started by ``perfbench/workloads.py``).

With ``--queue`` it joins the queue through
``run_grid_exploration(queue_dir=...)`` exactly as
``python -m repro.experiments grid --queue DIR --stack 2`` would (the
``queue-q1`` worker); without it, it makes a plain serial run (the set-up's
reference run, kept out of the benchmark process so that its memory is not
counted there).  Either way it writes a JSON report: cell hashes, wall
time, peak RSS, queue outcome and, when traced, the per-layer span totals
of this process.

    python3 perfbench/child.py --workload queue-q1 --seed 0 --queue Q --cache C --out R.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--queue", type=Path, default=None)
    parser.add_argument("--cache", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import tracing
    from perfbench.workloads import FLEET_STACK, cell_digests, peak_rss_mb, profile_for
    from repro.experiments.fig678_grid import run_grid_exploration

    profile = profile_for(args.workload, args.seed)
    queued = {"queue_dir": args.queue, "stack": FLEET_STACK} if args.queue else {}
    tracer = tracing.Tracer() if args.trace else None
    patches = tracing.install(tracer) if tracer is not None else []
    start = time.perf_counter()
    try:
        result = run_grid_exploration(profile, cache_dir=args.cache, **queued)
    finally:
        tracing.uninstall(patches)
    wall_s = time.perf_counter() - start
    report = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracing.layer_totals(tracer) if tracer is not None else None,
    }
    if args.queue:
        report.update(
            committed=list(result.committed),
            quarantined=list(result.quarantined),
            complete=result.complete,
        )
        ok = result.complete and not result.quarantined
    else:
        report["digests"] = cell_digests(result)
        ok = True
    args.out.write_text(json.dumps(report))
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
