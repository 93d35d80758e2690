"""The benchmark's workloads: inputs from a seed, set-up, one timed iteration.

Every workload drives the program through
:func:`repro.experiments.fig678_grid.run_grid_exploration`, the function the
``grid`` CLI calls, with an :class:`ExperimentProfile` derived from a stock
profile by :func:`dataclasses.replace` and the benchmark seed.

Correctness is checked per grid cell: a cell's value (threshold, window,
clean accuracy, gate flags and every robustness number) is hashed from the
exact float bits.  For :data:`DEFAULT_SEED` the hashes must equal the ones
stored in ``reference.json``; for any other seed they must equal those of
a serial in-process run of the same profile made during set-up.  A cell
that is missing, differs or raised, or that no queue worker committed,
counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import tracing
from repro.engine.queue import merge_event_logs, queue_status
from repro.experiments.fig678_grid import run_grid_exploration
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.workloads import load_profile_data

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
"""The seed whose cell hashes are stored in ``reference.json``."""

SETUP_REPEATS = 10
SETUP_MIN_S = 1.0
"""Set-up generates the inputs at least ``SETUP_REPEATS`` times and for at
least ``SETUP_MIN_S`` seconds, both before and after its serial run, so the
timings span that run; ``setup_s`` counts their median."""

FLEET_STACK = 2
CHILD_TIMEOUT_S = 150.0

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "Iteration",
    "cell_digests",
    "count_failed",
    "peak_rss_mb",
    "profile_for",
    "write_reference",
]


def _profile_seed(seed: int) -> int:
    """The profile's root seed for a benchmark seed (31-bit, deterministic)."""
    return int(np.random.SeedSequence([0xBE7C, int(seed)]).generate_state(1)[0]) & 0x7FFFFFFF


def _grid_profile(seed: int) -> ExperimentProfile:
    """Smoke-scale data, a 2x2 grid, 2 epochs, open gate, one PGD-2 budget."""
    return dataclasses.replace(
        get_profile("smoke"),
        name="bench-grid",
        v_thresholds=(0.5, 1.0),
        time_windows=(8, 16),
        epochs=2,
        accuracy_threshold=0.0,
        grid_epsilons=(1.0,),
        pgd_steps=2,
        attack_subset=64,
        seed=_profile_seed(seed),
    )


def _reattack_profile(seed: int) -> ExperimentProfile:
    """The grid-cold cells re-attacked with five budgets of PGD-8.

    Only attack settings change, so the weight-cache fingerprint (which
    excludes them) still matches the archives a grid-cold run wrote.
    """
    return dataclasses.replace(
        _grid_profile(seed), grid_epsilons=(0.25, 0.5, 1.0, 1.5, 2.0), pgd_steps=8
    )


def _fleet_profile(seed: int) -> ExperimentProfile:
    """24 micro-scale cells: Vth 0.25-1.5 x T {4, 6, 8, 10}, 2 epochs, open gate."""
    return dataclasses.replace(
        get_profile("micro"),
        name="bench-fleet",
        v_thresholds=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
        time_windows=(4, 6, 8, 10),
        epochs=2,
        accuracy_threshold=0.0,
        seed=_profile_seed(seed),
    )


def profile_for(workload: str, seed: int) -> ExperimentProfile:
    """The profile a workload passes to ``run_grid_exploration``."""
    builders = {
        "grid-cold": _grid_profile,
        "reattack-warm": _reattack_profile,
        "queue-q1": _fleet_profile,
    }
    profile = builders[workload](seed)
    profile.validate()
    return profile


# -- correctness ---------------------------------------------------------------


def _cell_key(v_th: float, time_window: int) -> str:
    return f"{float(v_th)!r}/{int(time_window)}"


def cell_digests(result) -> dict[str, str]:
    """``cell key -> sha256`` of each cell's values, bit-exact."""
    digests = {}
    for cell in result.cells:
        payload = [
            float(cell.v_th).hex(),
            int(cell.time_window),
            float(cell.clean_accuracy).hex(),
            bool(cell.learnable),
            bool(cell.diverged),
            sorted((float(e).hex(), float(r).hex()) for e, r in cell.robustness.items()),
        ]
        text = json.dumps(payload, separators=(",", ":"))
        digests[_cell_key(cell.v_th, cell.time_window)] = hashlib.sha256(
            text.encode()
        ).hexdigest()
    return digests


def count_failed(digests: dict[str, str], reference: dict[str, str], bad=()) -> int:
    """Cells of ``reference`` that are missing, differ, or are listed in ``bad``."""
    bad = set(bad)
    return sum(
        1 for key, value in reference.items() if key in bad or digests.get(key) != value
    )


def stored_reference(workload: str) -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())[workload]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(workload: str, seed: int, out: Path, *, queue: Path | None = None,
              cache: Path | None = None, traced: bool = False) -> tuple[dict, list[str]]:
    """Run ``child.py`` on a workload's profile and wait until it has ended.

    Returns its JSON report (empty if it wrote none) and the errors seen.
    The child is killed and reaped on every way out of here, a timeout or
    an interrupt included, so no process outlives the benchmark.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if queue is not None:
        env["REPRO_QUEUE_WORKER"] = "bench-w0"
    command = [
        sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out), "--trace", str(int(traced)),
    ]
    if queue is not None:
        command += ["--queue", str(queue)]
    if cache is not None:
        command += ["--cache", str(cache)]
    errors: list[str] = []
    with open(out.with_suffix(".log"), "wb") as log:
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        errors.append(f"child pid {proc.pid} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        errors.append(f"child pid {proc.pid} exited {proc.returncode}")
    try:
        report = json.loads(out.read_text())
    except (OSError, ValueError):
        report = {}
        errors.append(f"no report from {out.name}")
    return report, errors


@dataclass
class Iteration:
    """One timed pass of a workload."""

    wall_s: float
    attempted: int
    failed: int
    peak_rss_mb: float
    layers: list[dict] = field(default_factory=list)
    """One ``tracing.layer_totals`` per traced process (traced passes only)."""
    queue: dict = field(default_factory=dict)
    """The worker's queue counts (``queue-q1`` only)."""
    errors: list[str] = field(default_factory=list)


def _timed_grid(profile, reference, tracer, **kwargs) -> Iteration:
    """Run one in-process grid call and check it; wall time ends at the check."""
    patches = tracing.install(tracer) if tracer is not None else []
    errors: list[str] = []
    start = time.perf_counter()
    try:
        digests = cell_digests(run_grid_exploration(profile, **kwargs))
    except Exception as error:  # a raising run fails every cell it owns
        digests = {}
        errors.append(f"{type(error).__name__}: {error}")
    finally:
        tracing.uninstall(patches)
    failed = count_failed(digests, reference)
    wall = time.perf_counter() - start
    layers = [tracing.layer_totals(tracer)] if tracer is not None else []
    return Iteration(wall, len(reference), failed, peak_rss_mb(), layers, errors=errors)


class Workload:
    """Base: set-up generates the inputs; subclasses add their own state."""

    name = ""
    stack_width = 1
    """Cells one execution group can hold (for ``engine.stack.lane_fill``)."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.profile = profile_for(self.name, self.seed)
        self.reference: dict[str, str] = {}
        self.reference_s = 0.0
        self.errors: list[str] = []
        self._count = 0

    def setup(self) -> float:
        """Build the inputs and the reference; returns ``setup_s``.

        ``setup_s`` is the median time of the repeated input generations
        (made before and after :meth:`prepare`, so that a short slow spell
        of a shared host moves only some of them), plus whatever part of :meth:`prepare` is set-up proper (the warm
        cache population of ``reattack-warm``).  The serial reference run
        of :meth:`prepare` happens for every seed; for :data:`DEFAULT_SEED`
        its cell hashes must also match ``reference.json``, which then
        becomes the reference.
        """
        times = self.generate_inputs()
        digests, populate_s = self.prepare()
        times += self.generate_inputs()
        self.reference = digests
        if self.seed == DEFAULT_SEED:
            self.reference = stored_reference(self.name)
            if count_failed(digests, self.reference):
                self.errors.append("serial set-up run differs from reference.json")
        return statistics.median(times) + populate_s

    def generate_inputs(self) -> list[float]:
        """Time repeated input generations (at least ``SETUP_REPEATS``, ``SETUP_MIN_S``)."""
        times = []
        start = time.perf_counter()
        while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
            begin = time.perf_counter()
            load_profile_data(self.profile)
            times.append(time.perf_counter() - begin)
        return times

    def prepare(self) -> tuple[dict[str, str], float]:
        """Hash a serial run of the profile without a cache, in a child process.

        Returns the hashes and the set-up time to count; the reference run
        itself is kept out of ``setup_s``, in ``reference_s``.
        """
        digests, self.reference_s = self.serial_run(None)
        return digests, 0.0

    def serial_run(self, cache: Path | None) -> tuple[dict[str, str], float]:
        """Cell hashes and wall time of a serial run in a child process."""
        report, errors = run_child(
            self.name, self.seed, self.workdir / "serial.json", cache=cache
        )
        if errors or "digests" not in report:
            raise RuntimeError(f"serial set-up run failed: {'; '.join(errors)}")
        return report["digests"], report["wall_s"]

    def fresh_dir(self, label: str) -> Path:
        self._count += 1
        path = self.workdir / f"{label}{self._count}"
        path.mkdir(parents=True)
        return path

    def iterate(self, tracer: tracing.Tracer | None) -> Iteration:
        raise NotImplementedError


class GridCold(Workload):
    name = "grid-cold"

    def iterate(self, tracer):
        cache = self.fresh_dir("cold")
        return _timed_grid(self.profile, self.reference, tracer, cache_dir=cache)


class ReattackWarm(Workload):
    name = "reattack-warm"

    def prepare(self):
        """Train the grid once into a weights-only template directory.

        This warm-cache population is a cold serial run of this very
        profile, so besides archiving the weights it yields the reference
        cell values, from fresh training, independent of the weight-loading
        path the timed iterations take.  Its time counts in ``setup_s``.
        """
        self.template = self.workdir / "weights"
        digests, self.reference_s = self.serial_run(self.template)
        for path in self.template.iterdir():
            if not path.name.startswith("weights_"):
                path.unlink()
        return digests, self.reference_s

    def iterate(self, tracer):
        cache = self.fresh_dir("warm")
        shutil.copytree(self.template, cache, dirs_exist_ok=True)
        return _timed_grid(self.profile, self.reference, tracer, cache_dir=cache, resume=True)


class QueueQ1(Workload):
    """One queue worker process serving the 24-cell micro grid with stack=2.

    The benchmark process spawns the worker (``child.py``), waits
    for it, and reads the merged result back with ``resume=True``.
    """

    name = "queue-q1"
    stack_width = FLEET_STACK

    def iterate(self, tracer):
        base = self.fresh_dir("fleet")
        queue_dir, cache_dir, out = base / "queue", base / "cache", base / "worker.json"
        start = time.perf_counter()
        report, errors = run_child(self.name, self.seed, out, queue=queue_dir,
                                   cache=cache_dir, traced=tracer is not None)
        # A cell the worker did not commit (crash, timeout, quarantine) fails
        # even though the read-back below would compute it in-process.
        committed = {
            event["task"] for event in merge_event_logs(queue_dir / "grid")
            if event.get("event") in ("commit", "cached")
        }
        # Task indices run v_th-major (repro.engine.job.build_cell_tasks).
        keys = [_cell_key(v, t) for v in self.profile.v_thresholds
                for t in self.profile.time_windows]
        missing = {key for index, key in enumerate(keys) if index not in committed}
        # Read the merged result back exactly as a user would render it.
        patches = tracing.install(tracer) if tracer is not None else []
        try:
            result = run_grid_exploration(self.profile, cache_dir=cache_dir, resume=True)
            digests = cell_digests(result)
        except Exception as error:
            digests = {}
            errors.append(f"{type(error).__name__}: {error}")
        finally:
            tracing.uninstall(patches)
        failed = count_failed(digests, self.reference, missing)
        wall = time.perf_counter() - start
        layers = [report["layers"]] if report.get("layers") else []
        if tracer is not None:
            layers.append(tracing.layer_totals(tracer))
        queue = {"claims": 0, "steals": 0, "retries": 0, "commits": 0}
        for bucket in queue_status(queue_dir / "grid")["workers"].values():
            for key in queue:
                queue[key] += bucket[key]
        rss = report.get("peak_rss_mb", 0.0)
        return Iteration(wall, len(self.reference), failed, rss, layers, queue, errors)


WORKLOADS = {cls.name: cls for cls in (GridCold, ReattackWarm, QueueQ1)}


def write_reference() -> None:
    """Store the default seed's serial cell hashes of every workload.

    The re-attack reference trains and attacks in one cold run, like its
    set-up does; the others are plain serial runs without a cache.
    """
    by_profile: dict[ExperimentProfile, dict[str, str]] = {}
    reference = {}
    for name in WORKLOADS:
        profile = profile_for(name, DEFAULT_SEED)
        if profile not in by_profile:
            by_profile[profile] = cell_digests(run_grid_exploration(profile))
        reference[name] = by_profile[profile]
    REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
