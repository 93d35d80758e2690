"""Tests of the benchmark itself: seeded inputs, failure accounting, self time.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from perfbench import tracing
from perfbench.workloads import cell_digests, count_failed, profile_for
from repro.experiments.workloads import load_profile_data
from repro.robustness.results import CellResult, ExplorationResult


def input_digest(profile) -> str:
    """sha256 of the train and test arrays the program generates for a profile."""
    train, test, _bounds = load_profile_data(profile)
    digest = hashlib.sha256()
    for array in (train.images, train.labels, test.images, test.labels):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_seed_changes_the_generated_inputs():
    first = input_digest(profile_for("queue-q1", 1))
    assert input_digest(profile_for("queue-q1", 1)) == first
    assert input_digest(profile_for("queue-q1", 2)) != first
    assert profile_for("grid-cold", 1).seed != profile_for("grid-cold", 2).seed


def _grid(robustness_of_last: float) -> ExplorationResult:
    cells = [
        CellResult(0.5, 8, 0.25, True, robustness={1.0: 0.125}),
        CellResult(1.0, 8, 0.5, True, robustness={1.0: robustness_of_last}),
    ]
    return ExplorationResult((0.5, 1.0), (8,), cells)


def test_perturbed_cell_counts_as_failed():
    reference = cell_digests(_grid(0.375))
    assert count_failed(cell_digests(_grid(0.375)), reference) == 0
    one_ulp = float(np.nextafter(0.375, 1.0))
    assert count_failed(cell_digests(_grid(one_ulp)), reference) == 1


def test_missing_or_quarantined_cell_counts_as_failed():
    reference = cell_digests(_grid(0.375))
    partial = dict(reference)
    partial.pop("1.0/8")
    assert count_failed(partial, reference) == 1
    assert count_failed(reference, reference, bad={"0.5/8"}) == 1
    assert count_failed({}, reference) == 2


def test_self_time_on_a_synthetic_span_tree():
    # root 0-10 with children a 1-4 and b 5-6; a has child c 2-3.
    spans = [
        (1, 0, 1, "root", 0.0, 10.0),
        (2, 1, 1, "a", 1.0, 4.0),
        (3, 2, 1, "c", 2.0, 3.0),
        (4, 1, 1, "b", 5.0, 6.0),
        (5, 0, 5, "a", 20.0, 22.0),
    ]
    totals = tracing.self_times(spans)
    assert totals["root"] == (1, pytest.approx(6.0), pytest.approx(10.0))
    assert totals["a"] == (2, pytest.approx(2.0 + 2.0), pytest.approx(5.0))
    assert totals["b"] == (1, pytest.approx(1.0), pytest.approx(1.0))
    assert totals["c"] == (1, pytest.approx(1.0), pytest.approx(1.0))


def test_overlapping_children_are_not_subtracted_twice():
    spans = [
        (1, 0, 1, "root", 0.0, 10.0),
        (2, 1, 1, "x", 1.0, 5.0),
        (3, 1, 1, "y", 3.0, 7.0),
    ]
    assert tracing.self_times(spans)["root"][1] == pytest.approx(4.0)


def test_wrapped_calls_record_parent_and_trace_ids():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    outer()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    (o1, o2), (i1, i2) = by_name["outer"], by_name["inner"]
    assert i1[1] == o1[0] and i1[2] == o1[0]
    assert o2[1] == 0 and i2[2] == o2[0]
    assert tracing.self_times(tracer.spans)["outer"] == (2, pytest.approx(4.0), pytest.approx(6.0))


def test_install_reaches_names_bound_by_import_and_uninstall_restores():
    import repro.attacks.base as base
    import repro.attacks.pgd as pgd

    original = base.input_gradient
    probe = tracing.Probe("repro.attacks.base", "input_gradient", "attacks.input_gradient")
    patches = tracing.install(tracing.Tracer(), (probe,))
    try:
        assert pgd.input_gradient is not original
        assert pgd.input_gradient is base.input_gradient
    finally:
        tracing.uninstall(patches)
    assert pgd.input_gradient is original and base.input_gradient is original
