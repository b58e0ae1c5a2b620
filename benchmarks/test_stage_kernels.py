"""Time one law evaluation, one RK4 step and one row read of each shipped particle scenario.

These are the force-kernel, step and row-read layers: each case builds
the scenario's model as `vacuumlab run` does and binds, once, as a run
does, either its float-bound law (the stage rate), timed as one call at
the launch state, or its rate and its generated RK4 step, timed as one
step from the launch state with the launch rate as k1.  The row read is
the columns and the invariants of the scenario's finished run, as the
CLI reads them after integrating.  One more pair times the classical law
of `classical_coulomb` with its source at rest and moving, a combination
no shipped scenario runs.  It needs the pytest-benchmark plugin:

    PYTHONPATH=src python -m pytest benchmarks/test_stage_kernels.py --benchmark-only

The directory lies outside the tier-1 testpaths, so the test suite never
collects it.

The medians do not repeat between sittings: on a shared 2-vCPU VM
(Python 3.11.7), one case read 2.92 us at one sitting and 3.97 us at the
next, from the same checkout.  Compare medians only within one sitting,
and make a claim below a microsecond from ``timeit`` minima instead.
"""

import os

import pytest
import yaml

import vacuumlab.integrate as integ
from vacuumlab import cli, particle
from vacuumlab.geometry import FLOATS

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
PARTICLE_SCENARIOS = sorted(
    name[:-5]
    for name in os.listdir(SCENARIOS)
    if name.endswith(".yaml") and cli.parse_config(os.path.join(SCENARIOS, name)).kind == "particle"
)


def _launch(name, directory=SCENARIOS):
    """(model, axis, params, x, y) of a scenario's launch, as `vacuumlab run` builds it."""
    config = cli.parse_config(os.path.join(directory, name + ".yaml"))
    model, state, params = cli.build_particle_model(config)
    axis = integ.axis_for(model.kind, params.time_axis)
    return (model, axis, params, *particle.pack(model, state, axis))


@pytest.mark.parametrize("name", PARTICLE_SCENARIOS)
def test_stage_evaluation(benchmark, name):
    model, axis, _, x, y = _launch(name)
    law = particle.bind_law(model, axis, FLOATS)
    k, _, _ = benchmark(law, x, y)
    assert len(k) == len(y)


# The classical_coulomb launch with its source at rest and moving: a classical law in a
# moving source evaluates the Coulomb kernel three times per stage, a static one once.
SOURCE_MOTION = {
    "coulomb-static": {},
    "coulomb-comoving": {"kind": "coulomb-comoving", "u_f": [0.1, 0.0, 0.05]},
}


@pytest.mark.parametrize("source", sorted(SOURCE_MOTION))
def test_classical_stage_by_source_motion(benchmark, tmp_path, source):
    with open(os.path.join(SCENARIOS, "classical_coulomb.yaml")) as fh:
        data = yaml.safe_load(fh)
    data["field"].update(SOURCE_MOTION[source])
    (tmp_path / f"{source}.yaml").write_text(yaml.safe_dump(data))
    model, axis, _, x, y = _launch(source, str(tmp_path))
    assert model.field.kind == source
    law = particle.bind_law(model, axis, FLOATS)
    k, _, _ = benchmark(law, x, y)
    assert len(k) == len(y)


@pytest.mark.parametrize("name", PARTICLE_SCENARIOS)
def test_rk4_step(benchmark, name):
    model, axis, params, x, y = _launch(name)
    rhs, _ = particle.bind_step(model, axis)
    step = integ._stepper(integ._RK4, len(y))  # bound once, as _march binds it
    y_new = benchmark(step, rhs, x, y, params.step, rhs(x, y))
    assert len(y_new) == len(y)


@pytest.mark.parametrize("name", PARTICLE_SCENARIOS)
def test_row_read(benchmark, name):
    config = cli.parse_config(os.path.join(SCENARIOS, name + ".yaml"))
    traj = integ.integrate_particle(*cli.build_particle_model(config))

    def read():
        return traj.columns(), traj.invariants()

    columns, invariants = benchmark(read)
    assert len(columns.t) == len(traj.x) and set(invariants) == set(particle.INVARIANTS[traj.model.kind])
