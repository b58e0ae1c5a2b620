"""Time the Euler-Lagrange oracle on each shipped particle scenario's audit path and on a sheet.

This is the oracle layer: each particle case integrates the scenario and
builds its path as `vacuumlab audit` does (every step a node; the
constrained model resampled onto a uniform proper-time grid), then times
one `euler_lagrange_residual` call on that path.  The sheet case runs the
shipped string pluck and times the string-density oracle on every 16th
tau row of it, taken as one block of rows on the string's sigma axis.  It
needs the pytest-benchmark plugin:

    PYTHONPATH=src python -m pytest benchmarks/test_oracle.py --benchmark-only

The directory lies outside the tier-1 testpaths, so the test suite never
collects it.
"""

import os

import pytest

from vacuumlab import cli
from vacuumlab.integrate import integrate_string
from vacuumlab.variational import (
    DiscretePath,
    LagrangianKind,
    LagrangianSpec,
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
    spec, path = cli._audit_path(cli.parse_config(os.path.join(SCENARIOS, name + ".yaml")))
    residuals = benchmark(euler_lagrange_residual, spec, path)
    assert residuals.shape == (path.m - 2, 3)


def test_string_world_sheet(benchmark):
    config = cli.parse_config(os.path.join(SCENARIOS, "string_pluck.yaml"))
    state, field, params = cli.build_string_state(config)
    traj = integrate_string(state, field, params)
    rows = range(0, len(traj.tau), 16)
    block = traj.state(rows)  # one block of rows: a world sheet is a path of strings
    sheet = DiscretePath(block.tau, block.r, sigma=state.grid.sigma)
    spec = LagrangianSpec(LagrangianKind.STRING_DENSITY, field)
    residuals = benchmark(euler_lagrange_residual, spec, sheet)
    assert residuals.shape == (len(rows) - 2, state.grid.n - 2, 3)
