"""Time one law evaluation of the particle stepper for each shipped particle scenario.

This is the force-kernel layer: each case builds the scenario's model as
`vacuumlab run` does, binds its stage evaluation once, as a run does, and
times one call at the launch state.  It needs the pytest-benchmark plugin:

    PYTHONPATH=src python -m pytest benchmarks/test_stage_kernels.py --benchmark-only

The directory lies outside the tier-1 testpaths, so the test suite never
collects it.
"""

import os

import pytest

import vacuumlab.integrate as integ
from vacuumlab import cli

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
PARTICLE_SCENARIOS = sorted(
    name[:-5]
    for name in os.listdir(SCENARIOS)
    if name.endswith(".yaml") and cli.parse_config(os.path.join(SCENARIOS, name)).kind == "particle"
)


@pytest.mark.parametrize("name", PARTICLE_SCENARIOS)
def test_stage_evaluation(benchmark, name):
    config = cli.parse_config(os.path.join(SCENARIOS, name + ".yaml"))
    model, state, params = cli.build_particle_model(config)
    axis = integ._axis_for(model, params)
    evaluate = integ._evaluator(model, axis)
    x, y = (state.t if axis == "lab" else state.tau), integ._pack(model, state, axis)
    k, _, _ = benchmark(evaluate, x, y)
    assert len(k) == len(y)
