#!/usr/bin/env python3
"""Launch an elastic grid fleet against one queue directory — and hurt it.

Spawns N ``python -m repro.experiments grid --queue DIR`` worker
subprocesses sharing a queue and cache directory, optionally retires one
worker mid-lease (``--retire-worker sigkill`` proves lease stealing,
``--retire-worker sigterm`` proves graceful handoff), optionally salts
every worker with seeded chaos (``--chaos-fail-rate``,
``--chaos-corrupt-rate``) that the retry layer must absorb, waits for
the survivors, and exits non-zero unless the queue ends complete with
zero quarantined tasks.  This is the CI ``grid-queue`` job's driver and
the fault-injection tests' subprocess harness: a dynamic fleet must
*demonstrably* survive dead workers and transient faults, not assume it.

Typical CI invocations::

    python scripts/run_queue_fleet.py --profile micro --workers 3 \
        --kill-one --queue fleet-q --lease-ttl 2
    python scripts/run_queue_fleet.py --profile micro --workers 3 \
        --chaos-fail-rate 0.3 --retire-worker sigterm --queue chaos-q

then render via ``grid --resume --cache-dir fleet-q/cache`` and compare
against an unsharded reference with ``scripts/compare_results.py``.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

HOLD_TASK = 0
"""Task whose phase the SIGTERM leg holds open (``REPRO_CHAOS_HOLD_TASK``)
until it is handed off, so the victim is always mid-phase, however fast
the cells run."""


def worker_env(worker_id: str, chaos: dict[str, str]) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Pin worker ids so event logs and assertions are deterministic.
    env["REPRO_QUEUE_WORKER"] = worker_id
    # Chaos draws are seeded per (seed, task, attempt), not per worker,
    # so every worker sees the same injected faults — the proof does not
    # depend on which worker claims which cell.
    env.update(chaos)
    return env


def chaos_env(args) -> dict[str, str]:
    env: dict[str, str] = {}
    if args.chaos_fail_rate > 0:
        env["REPRO_CHAOS_FAIL_RATE"] = str(args.chaos_fail_rate)
    if args.chaos_corrupt_rate > 0:
        env["REPRO_CHAOS_CORRUPT_RATE"] = str(args.chaos_corrupt_rate)
    if env:
        env["REPRO_CHAOS_SEED"] = str(args.chaos_seed)
    return env


def spawn_worker(args, worker_id: str, chaos: dict[str, str]) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro.experiments", "grid",
        "--profile", args.profile,
        "--queue", str(args.queue),
        "--cache-dir", str(args.cache_dir),
        "--lease-ttl", str(args.lease_ttl),
    ]
    if args.stack > 1:
        command += ["--stack", str(args.stack)]
    if args.resume:
        command.append("--resume")
    if args.metrics_dir is not None:
        command += ["--metrics-dir", str(args.metrics_dir)]
    if args.max_attempts is not None:
        command += ["--max-attempts", str(args.max_attempts)]
    print(f"[fleet] starting {worker_id}: {' '.join(command)}")
    return subprocess.Popen(
        command,
        env=worker_env(worker_id, chaos),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_for_lease(
    queue_dir: Path, timeout: float, held_for: float = 0.0,
    pattern: str = "lease_*.json",
) -> tuple[Path, str] | None:
    """Block until a parseable lease appears; return it with its owner.

    The kill must target the worker that actually *holds* a lease —
    worker 0 may still be importing numpy while a faster sibling claims
    the first task, and SIGKILLing an idle worker would prove nothing.

    ``held_for`` additionally requires the *same* claim (owner and
    acquisition time) to survive that many seconds.  Chaos-failed first
    attempts release their lease within milliseconds; a lease still held
    after the grace period belongs to a worker genuinely inside its
    phase, which is what graceful retirement needs to interrupt.
    ``pattern`` narrows the wait to matching lease files.
    """
    import json

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for path in sorted(queue_dir.glob(pattern)):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # claim in flight; come back on the next poll
            owner = str(payload.get("owner", ""))
            if not owner:
                continue
            if held_for:
                time.sleep(held_for)
                try:
                    check = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue  # released already: a transient claim
                if (str(check.get("owner", "")) != owner
                        or check.get("acquired") != payload.get("acquired")):
                    continue
            return path, owner
        time.sleep(0.02)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="micro")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--queue", type=Path, required=True)
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="shared checkpoint directory (default: <queue>/cache)",
    )
    parser.add_argument("--lease-ttl", type=float, default=2.0)
    parser.add_argument("--stack", type=int, default=1)
    parser.add_argument(
        "--metrics-dir", type=Path, default=None,
        help="per-worker metrics snapshots for the fleet (gate them "
        "afterwards with scripts/check_metrics.py)",
    )
    parser.add_argument("--resume", action="store_true")
    parser.add_argument(
        "--kill-one", action="store_true",
        help="alias for --retire-worker sigkill (kept for older callers)",
    )
    parser.add_argument(
        "--retire-worker", choices=("none", "sigkill", "sigterm"),
        default=None,
        help="hurt the worker that first holds a lease: sigkill proves "
        "the survivors steal the orphaned task after TTL expiry; sigterm "
        "proves graceful retirement — the victim must exit 0 after "
        "writing a lease handoff that peers reclaim without waiting out "
        "the TTL (default: none)",
    )
    parser.add_argument(
        "--chaos-fail-rate", type=float, default=0.0,
        help="probability each task's first attempt raises an injected "
        "transient failure (seeded; the retry layer must absorb every "
        "one without a quarantine)",
    )
    parser.add_argument(
        "--chaos-corrupt-rate", type=float, default=0.0,
        help="probability each task's first committed checkpoint is "
        "truncated on disk (seeded; checksum verification must catch it "
        "and convert it into a retry)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the chaos draws (default: 0)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None,
        help="per-task attempt budget passed through to the workers "
        "(default: the CLI default)",
    )
    parser.add_argument(
        "--stagger", type=float, default=0.0,
        help="seconds between worker launches (a ragged, late-joining fleet)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()
    # Workers run with cwd=REPO_ROOT (so `-m repro.experiments` resolves),
    # which would silently re-anchor relative --queue/--cache-dir paths
    # away from the invoker's cwd — resolve them here instead.
    args.queue = args.queue.resolve()
    if args.cache_dir is None:
        args.cache_dir = args.queue / "cache"
    args.cache_dir = args.cache_dir.resolve()
    if args.metrics_dir is not None:
        args.metrics_dir = args.metrics_dir.resolve()
    if args.retire_worker is None:
        args.retire_worker = "sigkill" if args.kill_one else "none"
    elif args.kill_one and args.retire_worker != "sigkill":
        parser.error("--kill-one is --retire-worker sigkill; pick one spelling")
    if args.retire_worker != "none" and args.workers < 2:
        parser.error(
            "--retire-worker needs at least two workers (one must survive)"
        )

    chaos = chaos_env(args)
    if args.retire_worker == "sigterm":
        chaos["REPRO_CHAOS_HOLD_TASK"] = f"{HOLD_TASK}:{args.timeout}"
    grid_queue = args.queue / "grid"
    workers: list[subprocess.Popen] = []
    worker_ids = [f"fleet-worker-{number}" for number in range(args.workers)]
    for number, worker_id in enumerate(worker_ids):
        if number and args.stagger:
            time.sleep(args.stagger)
        workers.append(spawn_worker(args, worker_id, chaos))

    exit_code = 0
    victim_index: int | None = None
    try:
        if args.retire_worker != "none":
            sigterm = args.retire_worker == "sigterm"
            found = wait_for_lease(
                grid_queue, timeout=args.timeout,
                held_for=0.35 if sigterm else 0.0,
                pattern=f"lease_{HOLD_TASK}.json" if sigterm else "lease_*.json",
            )
            if found is None:
                print("[fleet] no lease ever appeared; nothing to retire",
                      file=sys.stderr)
                exit_code = 1
            else:
                lease, owner = found
                victim_index = (
                    worker_ids.index(owner) if owner in worker_ids else 0
                )
                victim = workers[victim_index]
                if args.retire_worker == "sigkill":
                    print(f"[fleet] SIGKILL worker {victim_index} "
                          f"(pid {victim.pid}) while it holds {lease.name}")
                    victim.kill()
                    victim.wait()
                else:
                    # The held task and the held_for grace above mean the
                    # victim is inside its phase, so the drain handler
                    # fires mid-task — the interesting case — not between
                    # claims.
                    print(f"[fleet] SIGTERM worker {victim_index} "
                          f"(pid {victim.pid}) while it holds {lease.name}")
                    victim.send_signal(signal.SIGTERM)
                    try:
                        code = victim.wait(timeout=args.timeout)
                    except subprocess.TimeoutExpired:
                        print("[fleet] retiring worker never exited",
                              file=sys.stderr)
                        exit_code = 1
                    else:
                        print(f"[fleet] worker {victim_index} retired "
                              f"gracefully, exited {code}")
                        if code != 0:
                            # Graceful retirement is part of the contract:
                            # a SIGTERM'd worker hands off and exits clean.
                            exit_code = 1

        deadline = time.monotonic() + args.timeout
        for number, worker in enumerate(workers):
            if number == victim_index:
                continue  # SIGKILL victim's code is meaningless; the
                # SIGTERM victim was already waited on above
            remaining = max(0.0, deadline - time.monotonic())
            try:
                code = worker.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                print(f"[fleet] worker {number} timed out", file=sys.stderr)
                exit_code = 1
                continue
            print(f"[fleet] worker {number} exited {code}")
            if code != 0:
                exit_code = 1
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()

    done = len(list(grid_queue.glob("done_*.json")))
    quarantined = sorted(p.name for p in grid_queue.glob("quarantined_*.json"))
    handoffs = len(list(grid_queue.glob("handoff_*.json")))
    leases = [p.name for p in grid_queue.glob("lease_*.json")]
    print(f"[fleet] queue {grid_queue}: {done} task(s) committed, "
          f"{len(quarantined)} quarantined, {handoffs} handoff(s)"
          + (f", leftover leases: {leases}" if leases else ""))
    if done == 0:
        print("[fleet] queue ended empty", file=sys.stderr)
        exit_code = 1
    if quarantined:
        # The harness only ever injects faults the retry budget must
        # absorb (transients strike first attempts only), so a surviving
        # quarantine marker means the resilience layer failed its job.
        print(f"[fleet] quarantined task(s): {quarantined}", file=sys.stderr)
        exit_code = 1
    if args.retire_worker == "sigterm" and handoffs == 0:
        print("[fleet] sigterm retirement left no handoff record",
              file=sys.stderr)
        exit_code = 1
    if exit_code == 0:
        print("[fleet] fleet complete; render with "
              f"`grid --profile {args.profile} --resume --cache-dir "
              f"{args.cache_dir}`")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
