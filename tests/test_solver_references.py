"""The string flow and the SOR solver against the loops they replaced.

``reference_charged_rhs`` is the charged-string force law as it was written
before it became a branch of the bound string writer (a branch that no run
reached, since deleted): each term assembled on its own node rows, and kept
by name so the finite-difference oracle in ``test_strings.py`` can check
each one.  It stays as the written law that a charged writer, when one
returns, must reproduce bit for bit.  ``reference_integrate_string`` is the
loop ``integrate_string`` ran before the string trajectory kept its flat
states as columns: a new ``StringState`` per right-hand-side call, with the
flow assembled node by node from a cell record, and a ``StringState`` copy
per step.
``reference_relax`` is the three-residual checkerboard sweep
``relax_elliptic`` ran before it reused the residual after a sweep,
driven by the conformal residual as it was then
written (the potential gradient on the full grid).  ``reference_rk4_step``
and ``reference_rkf45_step`` are the steppers as they were written with
generator-built stage tuples, against which the generated steps of
``integrate._stepper`` are held.  All must be reproduced bit for bit, signs
of zero included, except by ``solve_conformal`` on grids it can halve: its
multigrid solution is held to ``reference_relax``'s within a recorded gap.
"""

import builtins
import dataclasses
import math
import pathlib

import numpy as np
import pytest
import yaml

import vacuumlab.integrate as integrate
import vacuumlab.strings as strings
from vacuumlab import cli
from vacuumlab.conformal import coons_interior, relax_elliptic, residual_grid, solve_conformal
from vacuumlab.conformal_cases import manufactured_case
from vacuumlab.errors import ConvergenceError, EnergyDomainError, PhysicsDomainError
from vacuumlab.geometry import Vec3, ZERO3
from vacuumlab.integrate import (
    ConservationReport,
    ConservationStat,
    IntegrationParams,
    integrate_string,
    rkf45_step,
)
from vacuumlab.potentials import (
    LinearField,
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
)
from vacuumlab.strings import (
    ENERGY_DOMAIN_GUARD,
    StringGrid,
    plucked_string,
    straight_string,
    string_canonical_rhs,
    string_hamiltonian,
)
from test_conformal import exp_harmonic_case
from test_potentials import node_rows


SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def identical(a, b):
    """Equal values and equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# --- the string flow as it was --------------------------------------------------


def reference_cells(state, field, need_grad=True):
    """(w, grad_w, rprime, dr, pbar, hdens) of the cells."""
    h = state.grid.h
    dr = state.r[1:] - state.r[:-1]
    mid = 0.5 * (state.r[1:] + state.r[:-1])
    tmid = 0.5 * (state.t[1:] + state.t[:-1])
    w = field.wbar_many(mid, tmid)
    rprime = dr / h
    pbar = 0.5 * (state.p[1:] + state.p[:-1])
    g = w * w * np.einsum("ij,ij->i", rprime, rprime) - np.einsum("ij,ij->i", pbar, pbar)
    if np.min(g) < ENERGY_DOMAIN_GUARD:
        worst = int(np.argmin(g))
        raise EnergyDomainError(f"(wbar r')^2 - p^2 = {g[worst]:.3g} at cell {worst}", where=worst)
    grad_w = field.grad_wbar_many(mid, tmid) if need_grad else np.zeros_like(mid)
    return w, grad_w, rprime, dr, pbar, np.sqrt(g)


def reference_cell_pieces(state, field):
    """(grad-wbar part, tension vector, velocity half-sum) of each cell, each (n-1, 3).

    Both nodes of a cell receive its pieces; the tension is lost by the left
    node and gained by the right.
    """
    h = state.grid.h
    w, grad_w, rprime, dr, pbar, hdens = reference_cells(state, field)
    rp2 = np.einsum("ij,ij->i", rprime, rprime)
    wcoef = 0.5 * (w * rp2 / hdens)
    wpart = wcoef[:, None] * grad_w
    vec = (w**2)[:, None] * dr / (h * h * hdens[:, None])
    cp = 0.5 * pbar / hdens[:, None]
    return wpart, vec, cp


def reference_gradient_parts(state, field):
    wpart, vec, cp = reference_cell_pieces(state, field)
    n = state.grid.n

    grad_piece = np.zeros((n, 3))
    grad_piece[:-1] += wpart
    grad_piece[1:] += wpart

    tension_piece = np.zeros((n, 3))
    tension_piece[:-1] -= vec
    tension_piece[1:] += vec

    velocity = np.zeros((n, 3))
    velocity[:-1] += cp
    velocity[1:] += cp
    return grad_piece, tension_piece, velocity


def reference_rhs(state, field):
    grad_piece, tension_piece, velocity = reference_gradient_parts(state, field)
    dr = velocity
    dp = grad_piece + tension_piece
    dr[0] = dr[-1] = 0.0
    dp[0] = dp[-1] = 0.0
    return dr, dp


def _reference_node_rows(cells, lead=np.add):
    """All node rows of a cell piece, as a sum into zeros; the end nodes receive their one cell."""
    return np.concatenate([lead(0.0, cells[:1]), lead(0.0, cells[1:]) + cells[:-1], 0.0 + cells[-1:]])


def reference_charged_rhs(state, field, q):
    """(dr, dp, terms) of a string of charge density q, the field's u_f, each term by name."""
    u_f = getattr(field, "u_f", ZERO3)
    n = state.grid.n

    grad, tension, velocity = reference_cell_pieces(state, field)
    grad_piece = _reference_node_rows(grad)
    tension_piece = _reference_node_rows(tension, np.subtract)
    v = _reference_node_rows(velocity)
    beta = np.sqrt(1.0 + np.einsum("ij,ij->i", v, v))
    rdot = v + np.outer(beta, u_f.as_array())

    magnetic = np.zeros((n, 3))
    vecpot_gradient = np.zeros((n, 3))
    induction = np.zeros((n, 3))
    if q != 0.0:
        inner = slice(1, n - 1)
        # the A-Jacobian and dA/dt on the interior node rows, by the field's component methods
        x, y, z, t = *state.r[inner].T, state.t[inner]
        jac = np.stack([node_rows(row, n - 2) for row in field._grad_vecpot(x, y, z, t)], axis=1)
        curl = np.column_stack(
            [jac[:, 2, 1] - jac[:, 1, 2], jac[:, 0, 2] - jac[:, 2, 0], jac[:, 1, 0] - jac[:, 0, 1]]
        )
        magnetic[inner] = q * np.cross(rdot[inner], curl)
        vecpot_gradient[inner] = -q * np.einsum("nij,ni->nj", jac, rdot[inner])
        induction[inner] = (-q * beta[inner])[:, None] * node_rows(field._dvecpot_dt(x, y, z, t), n - 2)

    dp = grad_piece + tension_piece + magnetic + vecpot_gradient + induction
    dr = rdot.copy()
    dr[0] = dr[-1] = 0.0
    dp[0] = dp[-1] = 0.0
    terms = {
        "magnetic": magnetic,  # q rdot x B
        "vecpot_gradient": vecpot_gradient,  # -q grad<A, rdot>
        "induction": induction,  # -q beta dA/dt
        "wbar_gradient": grad_piece,
        "tension": tension_piece,
        "rdot": rdot,  # v + u_f beta
        "relative_velocity": v,
        "beta": beta,
    }
    return dr, dp, terms


def reference_hamiltonian(state, field):
    return float(state.grid.h * np.sum(reference_cells(state, field, need_grad=False)[5]))


class DriftReport(ConservationReport):
    """The reference audit: each invariant's drift, accumulated one audited value at a time."""

    def observe(self, name, value):
        stat = self.setdefault(name, ConservationStat(value, 0.0, 0))
        stat.max_drift = max(stat.max_drift, abs(value - stat.initial))
        stat.samples += 1


def reference_integrate_string(state, field, params):
    """(samples, report) of the per-call-state RK4 loop."""
    y = np.concatenate([state.r.ravel(), state.p.ravel(), state.t])
    tau = state.tau
    h = params.step

    def rebuild(tau_val, yv):
        return strings.view(state.grid, yv.copy(), tau_val)

    def rhs(tau_val, yv):
        dr, dp = reference_rhs(strings.view(state.grid, yv, tau_val), field)
        dt = np.sqrt(1.0 + np.einsum("ij,ij->i", dr, dr))
        return np.concatenate([dr.ravel(), dp.ravel(), dt])

    report = DriftReport()
    samples = [rebuild(tau, y)]
    report.observe("hamiltonian", reference_hamiltonian(samples[0], field))
    report.observe("transversality", strings.transversality_defect(samples[0]))
    for i in range(1, params.n_steps + 1):
        try:
            k1 = rhs(tau, y)
            k2 = rhs(tau + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(tau + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(tau + h, y + h * k3)
        except EnergyDomainError as exc:
            raise EnergyDomainError(f"{exc} [tau={tau:.9g}]", where=exc.where) from None
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        tau += h
        st = rebuild(tau, y)
        samples.append(st)
        if i % params.audit_every == 0 or i == params.n_steps:
            report.observe("hamiltonian", reference_hamiltonian(st, field))
            report.observe("transversality", strings.transversality_defect(st))
    return samples, report


def _comoving_coulomb():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING, 0.5, u_f=Vec3(0.1, 0.05, 0.2), softening=0.3, background=-2.0
    )
    return build_potential(spec, 1.0)


def _pluck(n, start=ZERO3, end=Vec3(1, 0, 0), amplitude=0.002):
    return plucked_string(StringGrid.uniform(0.0, 1.0, n), start, end, amplitude, 0.12)


STRING_CASES = {
    "pluck-uniform": (lambda: _pluck(32), lambda: UniformField(-1.0), 1e-4, 120),
    "static": (
        lambda: straight_string(StringGrid.uniform(0.0, 1.0, 24), ZERO3, Vec3(1, 0, 0)),
        lambda: UniformField(-1.0),
        1e-3,
        60,
    ),
    "pluck-linear-3d-gradient": (
        lambda: _pluck(24, Vec3(0.1, -0.2, 0.3), Vec3(0.9, 0.1, 0.2), 0.01),
        lambda: LinearField(-2.0, Vec3(0.15, -0.1, 0.05)),
        2e-4,
        80,
    ),
    "pluck-comoving-coulomb": (
        lambda: _pluck(24, Vec3(0.5, 0.2, -0.1), Vec3(1.5, 0.3, 0.1), 0.01),
        _comoving_coulomb,
        2e-4,
        80,
    ),
}


@pytest.mark.parametrize("case", sorted(STRING_CASES))
def test_string_trajectory_equals_the_per_call_state_loop(case):
    make_state, make_field, step, n_steps = STRING_CASES[case]
    state, field = make_state(), make_field()
    params = IntegrationParams(step=step, n_steps=n_steps, audit_every=7)
    traj = integrate_string(state, field, params)
    ref_samples, ref_report = reference_integrate_string(state, field, params)

    m = state.grid.n
    assert traj.tau.shape == (n_steps + 1,) and traj.Y.shape == (n_steps + 1, 7 * m)
    for row, ref in zip(traj.Y, ref_samples):
        assert identical(row, np.concatenate([ref.r.ravel(), ref.p.ravel(), ref.t]))
    assert identical(traj.tau, [s.tau for s in ref_samples])
    assert traj.report.to_dict() == ref_report.to_dict()
    if case == "pluck-comoving-coulomb":
        assert np.ptp(traj.state(-1).t) > 0  # the t channel varies along the string
    # the on-demand states are views of the rows
    samples = traj.samples
    assert len(samples) == n_steps + 1
    for got, ref in ((samples[5], ref_samples[5]), (traj.state(-1), ref_samples[-1])):
        assert got.tau == ref.tau
        assert identical(got.r, ref.r) and identical(got.p, ref.p) and identical(got.t, ref.t)
    assert np.shares_memory(traj.state(3).r, traj.Y)


@pytest.mark.parametrize("case", sorted(STRING_CASES))
def test_string_laws_equal_the_cell_record_assembly(case):
    make_state, make_field, _, _ = STRING_CASES[case]
    state, field = make_state(), make_field()
    state.p[1:-1, 2] += 0.003  # a momentum off the pluck plane
    dr, dp = string_canonical_rhs(state, field)
    ref_dr, ref_dp = reference_rhs(state, field)
    assert identical(dr, ref_dr) and identical(dp, ref_dp)
    assert string_hamiltonian(state, field) == reference_hamiltonian(state, field)

    grad_piece, tension_piece, velocity = reference_gradient_parts(state, field)
    terms = reference_charged_rhs(state, field, 0.0)[2]
    assert identical(terms["wbar_gradient"], grad_piece)
    assert identical(terms["tension"], tension_piece)
    assert identical(terms["relative_velocity"], velocity)


STRING_FIELDS = {
    "uniform": lambda: UniformField(-1.0),
    "linear": lambda: LinearField(-2.0, Vec3(0.15, -0.1, 0.05)),
    "coulomb-static": lambda: build_potential(
        SourceSpec(SourceKind.COULOMB_STATIC, 0.8, softening=0.3, background=-2.0), 1.0
    ),
    "coulomb-comoving": _comoving_coulomb,
    # A != 0 with u_f = 0
    "uniform-b": lambda: UniformMagneticField(Vec3(0.2, -0.4, 0.9), -1.0),
}



@pytest.mark.parametrize("q", [0.0, 0.6, -1.3])
@pytest.mark.parametrize("kind", sorted(STRING_FIELDS))
def test_charged_law_is_the_running_flow_plus_the_charge_terms(kind, q):
    """The written charged law, bit for bit: the uncharged writer's rate, the u_f drift, the q terms."""
    field = STRING_FIELDS[kind]()
    u_f = getattr(field, "u_f", ZERO3).as_array()
    inner = slice(1, -1)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        state = _pluck(24, Vec3(0.5, 0.2, -0.1), Vec3(1.5, 0.3, 0.1), 0.01)
        state.r[1:-1] += 0.02 * rng.normal(size=(22, 3))
        state.p[1:-1] += 0.05 * rng.normal(size=(22, 3))
        state.t = rng.uniform(0.0, 0.5, size=24)
        dr, dp = string_canonical_rhs(state, field)
        ref_dr, ref_dp, terms = reference_charged_rhs(state, field, q)
        assert identical(dr[inner], terms["relative_velocity"][inner])
        assert identical(dp[inner], (terms["wbar_gradient"] + terms["tension"])[inner])
        beta = np.sqrt(1.0 + np.einsum("ij,ij->i", dr, dr))
        assert identical(ref_dr[inner], (dr + np.outer(beta, u_f))[inner])
        charged = dp + terms["magnetic"] + terms["vecpot_gradient"] + terms["induction"]
        assert identical(ref_dp[inner], charged[inner])
        for end in (ref_dr, ref_dp, dr, dp):
            assert identical(end[[0, -1]], np.zeros((2, 3)))
        if q == 0.0:
            assert not any(np.any(terms[name]) for name in ("magnetic", "vecpot_gradient", "induction"))


def test_string_energy_domain_abort_equals_the_reference():
    state = plucked_string(StringGrid.uniform(0.0, 1.0, 32), ZERO3, Vec3(1, 0, 0), 0.9, 0.05)
    field = UniformField(-1.0)
    params = IntegrationParams(step=5e-3, n_steps=4000, audit_every=10)
    with pytest.raises(EnergyDomainError) as ref:
        reference_integrate_string(state, field, params)
    with pytest.raises(EnergyDomainError) as got:
        integrate_string(state, field, params)
    assert "[tau=" in str(ref.value)
    assert str(got.value) == str(ref.value)
    assert got.value.where == ref.value.where


def test_string_stage_rate_is_the_canonical_flow_and_its_dt_channel(monkeypatch):
    make_state, make_field, step, _ = STRING_CASES["pluck-comoving-coulomb"]
    state, field = make_state(), make_field()
    # |dr| of order 1 in all three components, so that dt's last bit depends on |dr|^2's
    state.p[1:-1] += (0.9, 1.2, -0.6)
    builder, seen, rates = integrate._stepper, [], []
    bind = strings.bind_rates

    def counted_bind(*args):
        writer = bind(*args)

        def counted(y):
            rates.append(strings.view(state.grid, y, 0.0).r.copy())
            return writer(y)

        return counted

    def spy(f, x, y, h, k1):
        (k,) = k1
        dr, dp = string_canonical_rhs(strings.view(state.grid, y[0], x), field)
        rates.pop()  # that reference's writer call, not the run's
        dt = np.sqrt(1.0 + np.einsum("ij,ij->i", dr, dr))
        assert identical(k, np.concatenate([dr.ravel(), dp.ravel(), dt]))
        seen.append(x)
        return builder(integrate._RK4, 1)(f, x, y, h, k1)

    def spied_builder(method, arity):
        assert (method, arity) == (integrate._RK4, 1)
        return spy

    monkeypatch.setattr(integrate, "_stepper", spied_builder)
    monkeypatch.setattr(strings, "bind_rates", counted_bind)
    traj = integrate_string(state, field, IntegrationParams(step=step, n_steps=6))
    assert len(seen) == 6 and np.ptp(traj.state(-1).t) > 0
    # the string check evaluates no rate: each step evaluates its own k1 and
    # three more stages, and no rate is taken at the last row
    assert len(rates) == 4 * 6
    assert not any(np.array_equal(r, traj.state(-1).r) for r in rates)


def _flat(state):
    return np.concatenate([state.r.ravel(), state.p.ravel(), state.t])


def _reference_rate(state, field):
    """The flat (dr, dp, dt) rate of the reference law."""
    dr, dp = reference_rhs(state, field)
    return np.concatenate([dr.ravel(), dp.ravel(), np.sqrt(1.0 + np.einsum("ij,ij->i", dr, dr))])


@pytest.mark.parametrize("kind", sorted(STRING_FIELDS))
def test_the_bound_writer_keeps_no_state_between_calls(kind):
    field = STRING_FIELDS[kind]()
    states = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        state = _pluck(24, Vec3(0.5, 0.2, -0.1), Vec3(1.5, 0.3, 0.1), 0.01)
        state.r[1:-1] += 0.02 * rng.normal(size=(22, 3))
        state.p[1:-1] += 0.05 * rng.normal(size=(22, 3))
        state.t = rng.uniform(0.0, 0.5, size=24)
        states.append(state)
    unphysical = states[1].copy()
    unphysical.p[5:7] += (0.0, 40.0, 0.0)  # |p| above wbar |r'| about cell 5
    with pytest.raises(EnergyDomainError) as ref:
        reference_cells(unphysical, field)

    rates = strings.bind_rates(states[0].grid, field)
    first = rates(_flat(states[0]))
    kept = first.copy()
    later = [rates(_flat(state)) for state in states[1:]]
    assert identical(first, kept)  # three more calls at other states left it alone
    for state, rate in zip(states, [first, *later]):
        assert identical(rate, _reference_rate(state, field))
    with pytest.raises(EnergyDomainError) as err:
        rates(_flat(unphysical))
    assert str(err.value) == str(ref.value) and err.value.where == ref.value.where
    after = rates(_flat(states[2]))
    assert identical(after, _reference_rate(states[2], field))


def test_a_string_run_binds_its_writer_once(monkeypatch):
    binds, bind = [], strings.bind_rates

    def counted(*args):
        binds.append(args)
        return bind(*args)

    monkeypatch.setattr(strings, "bind_rates", counted)
    state, params = _pluck(16), IntegrationParams(step=1e-4, n_steps=1000)
    assert len(integrate_string(state, UniformField(-1.0), params).tau) == 1001
    assert len(binds) == 1  # not one per stage, nor per step
    integrate_string(state, UniformField(-1.0), params)
    assert len(binds) == 2


@pytest.mark.parametrize("n_steps", [None, 20, 7])
def test_a_string_run_binds_its_cells_four_times(tmp_path, monkeypatch, n_steps):
    # the writer, the launch audit, the block audit of the later rows and the CSV
    # block: not one per audited or written row
    binds, bind = [], strings._cells

    def counted(*args):
        binds.append(args[2].shape)
        return bind(*args)

    monkeypatch.setattr(strings, "_cells", counted)
    config = cli.parse_config(str(SCENARIOS / "string_pluck.yaml"),
                              {"n_steps": n_steps, "out": str(tmp_path)})
    cli.run_scenario(config, quiet=True)
    steps, m = config.data["integration"]["n_steps"], config.data["grid"]["n"]
    audited = len(range(10, steps, 10)) + 1
    written = len(range(0, steps, max(1, steps // 50))) + 1
    assert binds == [(m, 3), (1, m, 3), (audited, m, 3), (written, m, 3)]


# --- the generic steppers as they were --------------------------------------------


def reference_rk4_step(f, x, y, h):
    k1 = f(x, y)
    y2 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
    k2 = f(x + 0.5 * h, y2)
    y3 = tuple(a + 0.5 * h * b for a, b in zip(y, k2))
    k3 = f(x + 0.5 * h, y3)
    y4 = tuple(a + h * b for a, b in zip(y, k3))
    k4 = f(x + h, y4)
    return tuple(
        a + (h / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


_REF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_REF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)


def reference_rkf45_stages(f, x, y, h):
    k1 = f(x, y)
    k2 = f(x + h / 4.0, tuple(a + h * (b / 4.0) for a, b in zip(y, k1)))
    k3 = f(
        x + 3.0 * h / 8.0,
        tuple(a + h * (3.0 * b1 / 32.0 + 9.0 * b2 / 32.0) for a, b1, b2 in zip(y, k1, k2)),
    )
    k4 = f(
        x + 12.0 * h / 13.0,
        tuple(
            a + h * (1932.0 * b1 - 7200.0 * b2 + 7296.0 * b3) / 2197.0
            for a, b1, b2, b3 in zip(y, k1, k2, k3)
        ),
    )
    k5 = f(
        x + h,
        tuple(
            a + h * (439.0 * b1 / 216.0 - 8.0 * b2 + 3680.0 * b3 / 513.0 - 845.0 * b4 / 4104.0)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ),
    )
    k6 = f(
        x + h / 2.0,
        tuple(
            a + h * (-8.0 * b1 / 27.0 + 2.0 * b2 - 3544.0 * b3 / 2565.0
                     + 1859.0 * b4 / 4104.0 - 11.0 * b5 / 40.0)
            for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)
        ),
    )
    return (k1, k2, k3, k4, k5, k6)


def _left_sum(terms):
    """sum(terms) as Python sums floats before 3.12: from 0, left to right, uncompensated."""
    total = 0
    for term in terms:
        total = total + term
    return total


def reference_rkf45_step(f, x, y, h, rel_tol, abs_tol):
    ks = reference_rkf45_stages(f, x, y, h)
    y5 = tuple(a + h * _left_sum(b * k[i] for b, k in zip(_REF_B5, ks)) for i, a in enumerate(y))
    y4 = tuple(a + h * _left_sum(b * k[i] for b, k in zip(_REF_B4, ks)) for i, a in enumerate(y))
    ratio = 0.0
    for a, b, y0 in zip(y5, y4, y):
        ratio = max(ratio, abs(a - b) / (abs_tol + rel_tol * abs(y0)))
    return ratio <= 1.0, y5, ratio


def _float_law(x, y):
    """A nonlinear, coupled rate of a float tuple; from three floats on, its last two are 0.0 and -0.0."""
    n = len(y)
    rates = [math.sin(x + y[i]) * y[(i + 1) % n] - 0.3 * y[i] for i in range(n)]
    if n > 2:
        rates[-2:] = (0.0, -0.0 * y[0])
    return tuple(rates)


def _array_law(x, y):
    (a,) = y
    return (np.sin(x + a) * a[::-1] - 0.3 * a,)


def _linear_law(x, y):
    """A coupled rate that takes -0.0, inf and nan without raising."""
    return tuple(x * v - 0.5 * y[i - 1] for i, v in enumerate(y))


def same_bits(a, b):
    """Bit-identical floats: signs of zero count, and a NaN equals only the same NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def rk4_step(f, x, y, h, k1):
    """The program's RK4 step, as ``integrate._march`` binds it."""
    return integrate._stepper(integrate._RK4, len(y))(f, x, y, h, k1)


def rkf45_stages(f, x, y, h, k1):
    """The six rates of the program's RKF45 attempt."""
    return integrate._stepper(integrate._RKF45, len(y))(f, x, y, h, k1)[0]


def _assert_float_steps_match(law, x, y, h, rel_tol, abs_tol, ratios=True):
    k1 = law(x, y)
    got, ref = rk4_step(law, x, y, h, k1), reference_rk4_step(law, x, y, h)
    assert same_bits(got, ref) and all(type(v) is float for v in got)
    for k, ref_k in zip(rkf45_stages(law, x, y, h, k1), reference_rkf45_stages(law, x, y, h)):
        assert same_bits(k, ref_k)
    (acc, y5, ratio) = rkf45_step(law, x, y, h, rel_tol, abs_tol, k1)
    (ref_acc, ref_y5, ref_ratio) = reference_rkf45_step(law, x, y, h, rel_tol, abs_tol)
    assert same_bits(y5, ref_y5)
    if ratios:  # a NaN error estimate reads inf by design, where the reference keeps max(ratio, nan)
        assert (acc, ratio) == (ref_acc, ref_ratio)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_steppers_equal_the_generator_built_references(seed):
    # every arity the program steps: 8 and 7 floats (particles on the proper
    # and the lab axis), 1 float, and the string's one-array tuple
    rng = np.random.default_rng(seed)
    for _ in range(40):
        x, h = float(rng.normal()), float(rng.uniform(1e-3, 0.5))
        rel_tol, abs_tol = 10.0 ** rng.uniform(-10, -2), 10.0 ** rng.uniform(-12, -4)
        y = tuple(float(v) for v in rng.normal(scale=2.0, size=8))
        _assert_float_steps_match(_float_law, x, y, h, rel_tol, abs_tol)

        arr = (rng.normal(size=24),)
        k1 = _array_law(x, arr)
        (got,), (ref,) = rk4_step(_array_law, x, arr, h, k1), reference_rk4_step(_array_law, x, arr, h)
        assert identical(got, ref)
        # an array state is stepped by RK4 only; its RKF45 stages are still pinned
        stages = rkf45_stages(_array_law, x, arr, h, k1)
        for (k,), (ref_k,) in zip(stages, reference_rkf45_stages(_array_law, x, arr, h)):
            assert identical(k, ref_k)

        for n in (7, 1):
            y = tuple(float(v) for v in rng.normal(scale=2.0, size=n))
            _assert_float_steps_match(_float_law, x, y, h, rel_tol, abs_tol)

    # -0.0, inf and nan in the state: the same bits, NaNs included
    special = (-0.0, math.inf, math.nan)
    states = [(v,) for v in special] + [special + tuple(rng.normal(size=n - 3).tolist()) for n in (7, 8)]
    for y in states:
        _assert_float_steps_match(_linear_law, float(rng.normal()), y, 0.25, 1e-9, 1e-12, ratios=False)


def _shipped_particle(name, **changes):
    model, state, params = cli.build_particle_model(cli.parse_config(str(SCENARIOS / name)))
    return model, state, dataclasses.replace(params, **changes)


def test_the_stepper_cache_does_not_grow_with_steps():
    integrate._stepper.cache_clear()
    proper = _shipped_particle("vacuum_free_coulomb.yaml", n_steps=1000)  # 8 floats
    integrate.integrate_particle(*proper)
    assert integrate._stepper.cache_info().currsize == 1  # RK4 on 8 floats
    lab = _shipped_particle("classical_gyro.yaml", n_steps=1000, method="rk45")  # 7 floats
    assert len(integrate.integrate_particle(*lab).x) > 10
    assert integrate._stepper.cache_info().currsize == 2  # and RKF45 on 7 floats
    integrate.integrate_particle(*proper)
    integrate.integrate_particle(*lab)
    info = integrate._stepper.cache_info()
    assert (info.currsize, info.misses) == (2, 2)


def test_rkf45_runs_do_not_depend_on_the_builtin_sum(monkeypatch):
    # Python 3.12's sum compensates float sums and math.fsum rounds the exact
    # sum once: a run that summed through the builtin would change bits here
    model, state, params = _shipped_particle("constrained_rk45.yaml")
    expected = integrate.integrate_particle(model, state, params)
    monkeypatch.setattr(builtins, "sum", math.fsum)
    got = integrate.integrate_particle(model, state, params)
    monkeypatch.undo()
    assert same_bits(got.x, expected.x) and same_bits(got.Y, expected.Y)


# --- non-finite string states ----------------------------------------------------


def _overflowing_string(n=16):
    grid = StringGrid.uniform(0.0, 1.0, n)
    return plucked_string(grid, ZERO3, Vec3(1, 0, -1e300), 1e-3, 0.1)


def test_non_finite_string_audit_raises_at_its_row():
    # |r'| overflows: the initial energy functional is inf, and the flow NaN
    with pytest.raises(PhysicsDomainError, match=r"non-finite hamiltonian inf \[tau=0\]"):
        integrate_string(
            _overflowing_string(), UniformField(-1.0), IntegrationParams(step=1e-3, n_steps=20)
        )


def test_a_string_audit_error_names_its_row(monkeypatch):
    # an unphysical launch is refused by the launch audit, before any step
    state = _pluck(16)
    state.p[7] += (0.0, 40.0, 0.0)
    with pytest.raises(EnergyDomainError) as own:
        string_hamiltonian(state, UniformField(-1.0))
    with pytest.raises(EnergyDomainError) as err:
        integrate_string(state, UniformField(-1.0), IntegrationParams(step=1e-3, n_steps=10))
    assert str(err.value) == f"{own.value} [tau=0]" and err.value.where == 0
    # a later row: the last stage of step 20 kicks node 7's momentum out of the
    # domain, so step 21's first stage raises, and the audit of rows 10 and 20 wins
    calls, bind = [], strings.bind_rates

    def kicking_bind(grid, field):
        writer, m = bind(grid, field), grid.n

        def kicking(y):
            calls.append(1)
            out = writer(y)
            if len(calls) == 80:
                out[3 * m + 3 * 7 + 1] += 6.0 * 40.0 / 1e-3
            return out

        return kicking

    monkeypatch.setattr(strings, "bind_rates", kicking_bind)
    with pytest.raises(EnergyDomainError) as err:
        integrate_string(_pluck(16), UniformField(-1.0), IntegrationParams(step=1e-3, n_steps=30))
    assert str(err.value).endswith("[tau=0.02]") and err.value.where == 20


def test_non_finite_string_state_raises_at_the_step_that_made_it(monkeypatch):
    calls = []
    bind = strings.bind_rates

    def poisoned_bind(grid, field):
        writer, m = bind(grid, field), grid.n

        def poisoned(y):
            calls.append(1)
            out = writer(y)
            if len(calls) == 12:  # the last stage of step 3
                out[: 6 * m].reshape(2, m, 3)[1, 5, 1] = math.nan
            return out

        return poisoned

    monkeypatch.setattr(strings, "bind_rates", poisoned_bind)
    state = _pluck(16)
    message = r"non-finite string state at node 5 \[tau=0.003\]"
    with pytest.raises(PhysicsDomainError, match=message) as err:
        integrate_string(state, UniformField(-1.0), IntegrationParams(step=1e-3, n_steps=10))
    assert err.value.where == 5


def test_non_finite_string_state_exits_2_with_one_line(tmp_path, capsys):
    data = {
        "name": "overflow",
        "kind": "string",
        "field": {"kind": "uniform", "strength": -1.0},
        "grid": {"n": 16},
        "initial": {
            "kind": "pluck",
            "start": [0, 0, 0],
            "end": [1, 0, -1e300],
            "amplitude": 1e-3,
            "width": 0.1,
            "direction": [0, 1, 0],
        },
        "integration": {"step": 1e-3, "n_steps": 20},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["run", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["physics abort: non-finite hamiltonian inf [tau=0]"]


# --- the SOR solver as it was ------------------------------------------------------


def reference_residual_grid(xi, h_sigma, h_s, field):
    pts = xi[..., 0:3].reshape(-1, 3)
    times = xi[..., 3].reshape(-1)
    w = field.wbar_many(pts, times).reshape(xi.shape[:2])
    g3 = field.grad_wbar_many(pts, times)
    gt = field.dwbar_dt_many(pts, times)
    grad4 = np.concatenate([g3, gt[:, None]], axis=1).reshape(xi.shape[:2] + (4,))[1:-1, 1:-1, :]

    mid = xi[1:-1, 1:-1, :]
    xi_ss = (xi[1:-1, 2:, :] - 2.0 * mid + xi[1:-1, :-2, :]) / (h_s * h_s)
    xi_gg = (xi[2:, 1:-1, :] - 2.0 * mid + xi[:-2, 1:-1, :]) / (h_sigma * h_sigma)
    xi_s = (xi[1:-1, 2:, :] - xi[1:-1, :-2, :]) / (2.0 * h_s)
    xi_g = (xi[2:, 1:-1, :] - xi[:-2, 1:-1, :]) / (2.0 * h_sigma)
    w_s = (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * h_s)
    w_g = (w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * h_sigma)
    w_mid = w[1:-1, 1:-1]
    measure = np.sqrt(np.einsum("ijk,ijk->ij", xi_g, xi_g) * np.einsum("ijk,ijk->ij", xi_s, xi_s))
    return (
        w_mid[..., None] * (xi_ss + xi_gg)
        + w_s[..., None] * xi_s
        + w_g[..., None] * xi_g
        - measure[..., None] * grad4
    )


def reference_relax(residual_fn, xi0, tol, max_iters=20000, omega=None):
    """(xi, iterations, final residual, history) of the three-residual sweep."""
    xi = np.array(xi0, dtype=float, copy=True)
    n1, n2, ncomp = xi.shape
    if omega is None:
        omega = 2.0 / (1.0 + math.sin(math.pi / max(n1 - 1, n2 - 1)))
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    masks = [((ii + jj) % 2 == parity) for parity in (0, 1)]
    probe = 1e-7 * max(1.0, float(np.max(np.abs(xi))))

    def compute_diagonals(current):
        base = residual_fn(current)
        diags = np.zeros_like(base)
        for mask in masks:
            for k in range(ncomp):
                trial = current.copy()
                interior = trial[1:-1, 1:-1, k]
                interior[mask] += probe
                shifted = residual_fn(trial)
                d = (shifted[..., k] - base[..., k]) / probe
                diags[..., k][mask] = d[mask]
        return diags

    history = []
    diagonals = None
    for iteration in range(1, max_iters + 1):
        if diagonals is None or iteration % 200 == 0:
            diagonals = compute_diagonals(xi)
        for mask in masks:
            res = residual_fn(xi)
            for k in range(ncomp):
                upd = omega * res[..., k] / diagonals[..., k]
                xi[1:-1, 1:-1, k][mask] -= upd[mask]
        res = residual_fn(xi)
        max_res = float(np.max(np.abs(res)))
        history.append(max_res)
        if len(history) > 25:
            history.pop(0)
        if max_res < tol:
            return xi, iteration, max_res, history
    raise ConvergenceError(
        f"no convergence after {max_iters} sweeps (residual {history[-1]:.3g})",
        residual_history=history,
    )


def _laplace_problem(n=17):
    """The discrete Laplace problem of test_relax_elliptic_contract: (residual_fn, start)."""
    x = np.linspace(0, 1, n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    start = np.zeros((n, n, 1))
    start[..., 0] = xx**2 - yy**2
    start[1:-1, 1:-1, 0] = 0.0
    h2 = (x[1] - x[0]) ** 2

    def residual(grid):
        u = grid[..., 0]
        lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4 * u[1:-1, 1:-1]) / h2
        return lap[..., None]

    return residual, start


def _conformal_problem(case, residual_grid_fn):
    h_sigma, h_s = case.boundary.h_sigma, case.boundary.h_s
    forcing = 0.0 if case.forcing is None else case.forcing

    def residual(xi):
        return residual_grid_fn(xi, h_sigma, h_s, case.field) - forcing

    return residual, coons_interior(case.boundary)


# (case, tol, bound on max |xi - SOR xi| of solve_conformal's multigrid
# solution).  The grids are halvable, so solve_conformal runs V-cycles, not the
# SOR sweep; the bounds are about ten times the gaps measured when the cycles
# replaced it (1.74e-12, 1.21e-12, 3.86e-13; see CHANGES.md).
SOR_CASES = {
    "manufactured-17": (lambda: manufactured_case(17, 17), 1e-9, 2e-11),
    "manufactured-33": (lambda: manufactured_case(33, 33), 1e-9, 2e-11),
    "harmonic-exp-17": (lambda: exp_harmonic_case(17, 17), 1e-10, 4e-12),
}


@pytest.mark.parametrize("case", sorted(SOR_CASES))
def test_sor_solve_equals_the_three_residual_sweep(case):
    make_case, tol, gap = SOR_CASES[case]
    c = make_case()
    got = relax_elliptic(*_conformal_problem(c, residual_grid), tol)
    ref_problem = _conformal_problem(c, reference_residual_grid)
    xi, iterations, final, history = reference_relax(*ref_problem, tol)
    assert identical(got.xi, xi)
    assert (got.iterations, got.final_residual, got.history) == (iterations, final, history)
    # and the solver entry point's multigrid solve lands within the recorded gap
    solved, result = solve_conformal(c.boundary, c.field, tol, forcing=c.forcing)
    assert np.max(np.abs(solved.xi - xi)) <= gap and result.final_residual < tol


@pytest.mark.parametrize("tol", [1e-6, 1e-7])
def test_sor_laplace_contract_problem_equals_the_three_residual_sweep(tol):
    residual, start = _laplace_problem()
    got = relax_elliptic(residual, start, tol)
    xi, iterations, final, history = reference_relax(residual, start, tol)
    assert identical(got.xi, xi)
    assert (got.iterations, got.final_residual, got.history) == (iterations, final, history)


def test_sor_history_across_a_diagonal_refresh_equals_the_reference():
    # 250 sweeps without convergence: the diagonal is probed again at sweep 200
    residual, start = _laplace_problem(9)
    with pytest.raises(ConvergenceError) as ref:
        reference_relax(residual, start, 1e-300, max_iters=250)
    with pytest.raises(ConvergenceError) as got:
        relax_elliptic(residual, start, 1e-300, max_iters=250)
    assert str(got.value) == str(ref.value)
    assert got.value.residual_history == ref.value.residual_history


def test_conformal_residual_equals_the_full_grid_gradient_form():
    for case in (manufactured_case(17, 21), exp_harmonic_case(19, 17)):
        xi = coons_interior(case.boundary)
        h_sigma, h_s = case.boundary.h_sigma, case.boundary.h_s
        assert identical(
            residual_grid(xi, h_sigma, h_s, case.field),
            reference_residual_grid(xi, h_sigma, h_s, case.field),
        )
    xi = coons_interior(manufactured_case(9, 9).boundary)
    xi[..., 3] += np.linspace(0.0, 0.5, 9)[:, None]  # the tau slot feeds the time derivative
    field = _comoving_coulomb()
    assert identical(
        residual_grid(xi, 0.125, 0.125, field), reference_residual_grid(xi, 0.125, 0.125, field)
    )


@pytest.mark.parametrize("max_iters", [None, 250])
def test_sor_residual_calls_per_sweep(max_iters):
    residual, start = _laplace_problem(9)
    calls = []

    def counting(grid):
        calls.append(1)
        return residual(grid)

    if max_iters is None:
        sweeps = relax_elliptic(counting, start, 1e-9).iterations
    else:
        with pytest.raises(ConvergenceError):
            relax_elliptic(counting, start, 1e-300, max_iters=max_iters)
        sweeps = max_iters
    refreshes = 1 + sweeps // 200
    assert len(calls) <= 2 * sweeps + 9 * refreshes + 1
