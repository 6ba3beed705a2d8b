"""The benchmark's hooks still find every name they wrap.

perfbench/spans.py and the workloads' ``steps`` look names up through
``owner.__dict__[attr]``, so a refactor that deletes or moves one of them
breaks the benchmark.  These tests install and remove both kinds of hook, so
such a refactor fails here instead.
"""

from pathlib import Path

import numpy.linalg
import pytest
import scipy.linalg

from qmpc import config, dp, envs, harness, mdp, ocp, qp, rl, sensitivity, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (
    config, dp, envs, harness, mdp, ocp, qp, rl, sensitivity, solver,
    numpy.linalg, scipy.linalg, rl.ValueModel, rl.GaussianMPCPolicy, solver.MPCController,
)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import worker
    import workloads

    return spans, worker, workloads


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def assert_restored(before):
    for owner, attrs in zip(OWNERS, before):
        for name, value in vars(owner).items():
            assert value is attrs.get(name), f"{owner}.{name} not restored"


def test_tracer_instruments_and_restores(perfbench):
    spans, _, _ = perfbench
    before = snapshot()
    original = harness.reinforce_gradient
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        assert harness.reinforce_gradient is not original
    finally:
        tracer.restore()
    assert_restored(before)


def test_step_clock_wraps_and_restores_every_workload(perfbench):
    _, worker, workloads = perfbench
    assert len(workloads.WORKLOADS) == 4
    before = snapshot()
    for cls in workloads.WORKLOADS.values():
        worker.StepClock(cls.steps).restore()
    assert_restored(before)
