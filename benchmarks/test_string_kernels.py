"""Time the string layer on the shipped pluck: one writer stage and one block audit.

The writer case binds the flow's writer once, as `integrate_string` does,
and times one stage at the launch state.  The audit case integrates the
shipped run once and times the audit of its 100 later audited rows as one
block, as the run's final audit makes it.  Both need the pytest-benchmark
plugin:

    PYTHONPATH=src python -m pytest benchmarks/test_string_kernels.py --benchmark-only

The directory lies outside the tier-1 testpaths, so the test suite never
collects it.
"""

import os

import vacuumlab.integrate as integ
from vacuumlab import cli, strings

PLUCK = os.path.join(os.path.dirname(__file__), "..", "scenarios", "string_pluck.yaml")


def _pluck():
    return cli.build_string_state(cli.parse_config(PLUCK))


def test_string_writer_stage(benchmark):
    state, field, _ = _pluck()
    m = state.grid.n
    rates = strings.bind_rates(state.grid, field)
    k = benchmark(rates, strings.flat(state))
    assert k.shape == (7 * m,)


def test_string_block_audit(benchmark):
    state, field, params = _pluck()
    traj = integ.integrate_string(state, field, params)
    rows = list(range(params.audit_every, params.n_steps + 1, params.audit_every))

    def audit():
        block = traj.state(rows)
        return integ._invariants(integ._STRING_INVARIANTS, (block, field), None, traj.annotate)

    values = benchmark(audit)
    assert len(rows) == 100 and values["hamiltonian"].shape == (100,)
