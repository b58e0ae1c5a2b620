"""Time the Euler-Lagrange oracle on each shipped particle scenario's audit path and on a sheet.

This is the oracle layer: each particle case integrates the scenario and
builds its path as `vacuumlab audit` does (every step a node; the
constrained model resampled onto a uniform proper-time grid), then times
one `euler_lagrange_residual` call on that path.  The sheet case runs the
shipped string pluck and times the string-density oracle on every 16th
tau row of it.  It needs the pytest-benchmark plugin:

    PYTHONPATH=src python -m pytest benchmarks/test_oracle.py --benchmark-only

The directory lies outside the tier-1 testpaths, so the test suite never
collects it.
"""

import os

import numpy as np
import pytest

from vacuumlab import cli
from vacuumlab.integrate import integrate_string
from vacuumlab.variational import (
    LagrangianKind,
    LagrangianSpec,
    StringWorldPath,
    euler_lagrange_residual,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
PARTICLE_SCENARIOS = sorted(
    name[:-5]
    for name in os.listdir(SCENARIOS)
    if name.endswith(".yaml") and cli.parse_config(os.path.join(SCENARIOS, name)).kind == "particle"
)


@pytest.mark.parametrize("name", PARTICLE_SCENARIOS)
def test_particle_audit_path(benchmark, name):
    spec, path, _ = cli._audit_path(cli.parse_config(os.path.join(SCENARIOS, name + ".yaml")))
    residuals = benchmark(euler_lagrange_residual, spec, path)
    assert residuals.shape == (path.m - 2, 3)


def test_string_world_sheet(benchmark):
    config = cli.parse_config(os.path.join(SCENARIOS, "string_pluck.yaml"))
    state, field, params = cli.build_string_state(config)
    traj = integrate_string(state, field, params)
    rows = range(0, len(traj.tau), 16)
    sheet = StringWorldPath(
        tau=np.asarray(traj.tau)[rows],
        sigma=state.grid.sigma,
        r=np.array([traj.state(i).r for i in rows]),
    )
    spec = LagrangianSpec(LagrangianKind.STRING_DENSITY, field)
    residuals = benchmark(euler_lagrange_residual, spec, sheet)
    assert residuals.shape == (len(rows) - 2, state.grid.n - 2, 3)
