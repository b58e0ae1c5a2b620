"""Columnar particle trajectories against the per-step state loop they replaced.

``reference_integrate`` is the loop ``integrate_particle`` ran before the
trajectory kept its flat state as columns: one ``ParticleState`` per step and
one scalar audit per audited step.  ``SCALAR_INVARIANTS`` is the scalar form
of ``particle.INVARIANTS``, written here on ``Vec3`` so the reference shares
no kernel with it.  The columns must reproduce both bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import vacuumlab.integrate as integ
import vacuumlab.particle as particle
from vacuumlab.errors import EnergyDomainError, PhysicsDomainError, SuperluminalVelocityError
from vacuumlab.geometry import Vec3, ZERO3, proper_time_factor
from vacuumlab.integrate import (
    ConservationReport,
    ConservationStat,
    IntegrationParams,
    integrate_particle,
)
from vacuumlab.particle import (
    INVARIANTS,
    ForceModel,
    ModelKind,
    ParticleState,
    dynamic_mass,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
    qa_vector,
)
from vacuumlab.potentials import (
    LinearField,
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
)
from vacuumlab.variational import path_from_trajectory


def vacuum_free_hamiltonian(wbar, p):
    d2 = wbar * wbar - p.norm2()
    if d2 <= 0.0:
        raise EnergyDomainError(f"|p| = {p.norm():.6g} exceeds |wbar| = {abs(wbar):.6g}")
    return -math.sqrt(d2)


def total_energy(wbar, p):
    return -vacuum_free_hamiltonian(wbar, p)


def interacting_hamiltonian(wbar, p, qa):
    big_p = p + qa
    d2 = wbar * wbar - big_p.norm2()
    if d2 <= 0.0:
        raise EnergyDomainError(
            f"|p+qA| = {big_p.norm():.6g} exceeds |wbar| = {abs(wbar):.6g}"
        )
    d = math.sqrt(d2)
    return -d - big_p.dot(qa) / d


def interacting_energy(wbar, p, qa):
    return -interacting_hamiltonian(wbar, p, qa)


def _relative_invariant(wbar, p, qa):
    big_p = p + qa
    d2 = wbar * wbar - big_p.norm2()
    if d2 <= 0.0:
        raise EnergyDomainError("relative momentum exceeds |wbar|")
    return math.sqrt(d2)


SCALAR_INVARIANTS = {
    ModelKind.CLASSICAL: {
        "energy": lambda s, m: math.sqrt(m.rest_mass**2 + s.p.norm2())
        + m.field.wbar(s.r, s.t),
    },
    ModelKind.CONSTRAINED: {
        "rest_mass": lambda s, m: s.lam * proper_time_factor(s.u),
    },
    ModelKind.VACUUM_FREE: {
        "hamiltonian": lambda s, m: vacuum_free_hamiltonian(m.field.wbar(s.r, s.t), s.p),
        "energy": lambda s, m: total_energy(m.field.wbar(s.r, s.t), s.p),
        "rest_mass": lambda s, m: -m.field.wbar(s.r, s.t) * proper_time_factor(s.u),
    },
    ModelKind.VACUUM_INTERACTING: {
        "hamiltonian": lambda s, m: interacting_hamiltonian(
            m.field.wbar(s.r, s.t), s.p, qa_vector(m, s.r, s.t)
        ),
        "energy": lambda s, m: interacting_energy(
            m.field.wbar(s.r, s.t), s.p, qa_vector(m, s.r, s.t)
        ),
        "relative_invariant": lambda s, m: _relative_invariant(
            m.field.wbar(s.r, s.t), s.p, qa_vector(m, s.r, s.t)
        ),
    },
}


def classical_velocity(m0, p):
    """Invert the classical momentum: u = p / (m0^2 + p^2)^(1/2)."""
    return p / math.sqrt(m0 * m0 + p.norm2())


def vacuum_velocity(wbar, p):
    """u = p / (-wbar), the inverse of the vacuum momentum relation."""
    u = p / dynamic_mass(wbar)
    if u.norm2() >= 1.0:
        raise SuperluminalVelocityError("|p| >= -wbar implies |u| >= 1")
    return u


def _unpack(model, y, x, axis):
    r = Vec3(y[0], y[1], y[2])
    p = Vec3(y[3], y[4], y[5])
    if model.kind is ModelKind.CONSTRAINED:
        y2 = y[6]
        return ParticleState(y[7], x, r, p / y2, p, y2)
    if model.kind is ModelKind.CLASSICAL:
        u = classical_velocity(model.rest_mass, p)
        return ParticleState(y[6], x, r, u, p)
    t, tau = (x, y[6]) if axis == "lab" else (y[6], y[7])
    if model.kind is ModelKind.VACUUM_INTERACTING:
        p = p - qa_vector(model, r, t)
    return ParticleState(tau, t, r, vacuum_velocity(model.field.wbar(r, t), p), p)


class DriftReport(ConservationReport):
    """The reference audit: each invariant's drift, accumulated one audited value at a time."""

    def observe(self, name, value):
        stat = self.setdefault(name, ConservationStat(value, 0.0, 0))
        stat.max_drift = max(stat.max_drift, abs(value - stat.initial))
        stat.samples += 1


def reference_integrate(model, initial, params):
    """(samples, report) of the per-step loop: a state and a scalar audit per step."""
    axis = integ.axis_for(model.kind, params.time_axis)
    rhs, _ = particle.bind_step(model, axis)
    audits = SCALAR_INVARIANTS[model.kind]
    x, y = particle.pack(model, initial, axis)

    report = DriftReport()
    samples = [initial]
    for name, fn in audits.items():
        report.observe(name, fn(initial, model))

    def guarded(step_fn, *args):
        try:
            return step_fn(*args)
        except PhysicsDomainError as exc:
            label = "t" if axis == "lab" else "tau"
            raise type(exc)(f"{exc} [{label}={x:.9g}]") from None

    if params.method == "rk4":
        h, step = params.step, integ._stepper(integ._RK4, len(y))
        for i in range(1, params.n_steps + 1):
            y = guarded(lambda: step(rhs, x, y, h, rhs(x, y)))
            x += h
            state = guarded(_unpack, model, y, x, axis)
            samples.append(state)
            if i % params.audit_every == 0 or i == params.n_steps:
                for name, fn in audits.items():
                    report.observe(name, fn(state, model))
    else:
        horizon = params.horizon
        x_end = x + horizon
        h = params.step
        i = 0
        while x < x_end - 1e-15 * horizon:
            h = min(h, x_end - x)
            accepted, y_new, ratio = guarded(
                lambda: integ.rkf45_step(rhs, x, y, h, params.rel_tol, params.abs_tol, rhs(x, y))
            )
            if accepted:
                y = y_new
                x += h
                i += 1
                state = guarded(_unpack, model, y, x, axis)
                samples.append(state)
                if i % params.audit_every == 0:
                    for name, fn in audits.items():
                        report.observe(name, fn(state, model))
            if ratio > 0:
                h = min(max(0.9 * h * ratio ** -0.2, 0.2 * h), 5.0 * h)
        if i % params.audit_every:
            for name, fn in audits.items():
                report.observe(name, fn(samples[-1], model))
    return samples, report


def _coulomb(u_f):
    kind = SourceKind.COULOMB_COMOVING if u_f != ZERO3 else SourceKind.COULOMB_STATIC
    spec = SourceSpec(kind, 1.0, u_f=u_f, softening=0.05, background=-1.0)
    return build_potential(spec, 1.0)


def _case(kind, axis, method):
    # the classical and constrained u and the interacting p of these launches do
    # not survive the round trip through the flat state, so row 0 must be read
    # from the initial state
    r0 = Vec3(0.5, 0.0, 0.0)
    if kind is ModelKind.CLASSICAL:
        field = UniformMagneticField(Vec3(0.0, 0.2, 1.0))
        state = make_classical_state(r0, Vec3(0.6, 0.05, 0.1), 1.0)
    elif kind is ModelKind.CONSTRAINED:
        field = LinearField(-2.0, Vec3(-0.5, 0.1, 0.0))
        state = make_constrained_state(r0, Vec3(0.12, 0.3, 0.0), 1.0)
    elif kind is ModelKind.VACUUM_FREE:
        field = _coulomb(ZERO3)
        state = make_vacuum_state(field, r0, Vec3(0.05, 0.3, 0.02))
    else:
        field = _coulomb(Vec3(0.12, 0.0, 0.05))
        state = make_vacuum_state(field, r0, Vec3(0.0, 0.3, 0.1))
    model = ForceModel(kind, field, charge=0.7, rest_mass=1.0)
    params = IntegrationParams(
        step=2e-3, n_steps=300, method=method, audit_every=7, time_axis=axis,
        rel_tol=1e-11, abs_tol=1e-13,
    )
    return model, state, params


CASES = [
    (kind, axis, method)
    for kind in ModelKind
    for axis in ("lab", "proper")
    for method in ("rk4", "rk45")
    if axis == "lab" or kind in (ModelKind.VACUUM_FREE, ModelKind.VACUUM_INTERACTING)
]


@pytest.mark.parametrize(
    "kind, axis, method", CASES, ids=[f"{k.value}-{a}-{m}" for k, a, m in CASES]
)
def test_columns_reproduce_the_per_step_loop(kind, axis, method):
    model, state, params = _case(kind, axis, method)
    traj = integrate_particle(model, state, params)
    ref_samples, ref_report = reference_integrate(model, state, params)

    c = traj.columns()
    for name in ("t", "tau"):
        assert np.array_equal(getattr(c, name), [getattr(s, name) for s in ref_samples])
    for name in ("r", "u", "p"):
        assert np.array_equal(getattr(c, name), [list(getattr(s, name)) for s in ref_samples])
    samples = traj.samples
    assert samples[0] is state
    assert samples == ref_samples
    if method == "rk4":
        assert len(samples) == params.n_steps + 1
    # the audit: same initial values, drifts and sample counts
    assert traj.report.to_dict() == ref_report.to_dict()
    # every array invariant equals its scalar form on every row
    scalar = SCALAR_INVARIANTS[kind]
    for name, values in traj.invariants().items():
        expected = np.array([scalar[name](s, model) for s in ref_samples])
        assert np.array_equal(values, expected), name
    assert list(traj.invariants()) == list(INVARIANTS[kind])
    if method == "rk45":
        # audit_every dividing the last step: that row is observed once
        again = replace(params, audit_every=len(traj.x) - 1)
        report = integrate_particle(model, state, again).report.to_dict()
        assert report == reference_integrate(model, state, again)[1].to_dict()
        assert next(iter(report.values()))["samples"] == 2
        return  # adaptive rows are not a uniform path

    # the oracle's path reads the columns as it read the samples
    path = path_from_trajectory(traj, stride=3)
    picked = ref_samples[::3]
    # the loop's parameter: x += h per step from the launch's t (lab) or tau (proper)
    x_ref = np.add.accumulate([traj.x[0]] + [params.step] * params.n_steps)
    assert np.array_equal(traj.x, x_ref)
    assert np.array_equal(path.s, x_ref[::3])
    assert np.array_equal(path.t, [s.t for s in picked])
    assert np.array_equal(path.r, [list(s.r) for s in picked])
    if kind is ModelKind.CONSTRAINED:
        lam = [s.lam * math.sqrt(1.0 - s.u.norm2()) for s in picked]
        assert np.array_equal(path.lam, lam)


def _raised(fn, *args):
    with pytest.raises(PhysicsDomainError) as err:
        fn(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize(
    "kind, field, u0, params",
    [
        # |u| rounds to 1 after a few huge pushes
        (ModelKind.CLASSICAL, LinearField(-1.0, Vec3(-1e10, 0, 0)), Vec3(0.1, 0, 0),
         IntegrationParams(step=1e-3, n_steps=50)),
        # RK4 overshoots the turning point in a steep potential on the proper axis
        (ModelKind.VACUUM_FREE, LinearField(-1.0, Vec3(5.0, 0, 0)), Vec3(0.9, 0, 0),
         IntegrationParams(step=0.05, n_steps=100, time_axis="proper")),
        # the same on the last step, where only the step check sees the new state
        (ModelKind.VACUUM_FREE, LinearField(-1.0, Vec3(8.0, 0, 0)), Vec3(0.9, 0, 0),
         IntegrationParams(step=0.1, n_steps=17, time_axis="proper")),
        # the momentum overflows to inf
        (ModelKind.CLASSICAL, LinearField(-1.0, Vec3(-1e308, 0, 0)), Vec3(0.1, 0, 0),
         IntegrationParams(step=1.0, n_steps=20)),
    ],
    ids=["classical-lab", "vacuum-free-proper", "vacuum-free-last-step", "non-finite-state"],
)
def test_mid_run_domain_error_keeps_the_step_annotation(kind, field, u0, params):
    model = ForceModel(kind, field, charge=1.0, rest_mass=1.0)
    if kind is ModelKind.CLASSICAL:
        state = make_classical_state(ZERO3, u0, 1.0)
    else:
        state = make_vacuum_state(field, ZERO3, u0)
    with np.errstate(all="ignore"):
        got = _raised(integrate_particle, model, state, params)
        assert got == _raised(reference_integrate, model, state, params)
    label = "t" if params.time_axis != "proper" else "tau"
    # a mid-run step, not the launch
    assert f"[{label}=" in got[1] and f"[{label}=0]" not in got[1]


def test_row_zero_is_the_initial_state_not_its_round_trip():
    # (u m) / m rounds to |u| = 1 here: row 0 decoded from the flat state would
    # be superluminal, but the launch's own energy is the first error
    field = UniformField(-2.4444988835171637)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, ZERO3, Vec3(0.15823800757138404, 0.9874009990676729, 0.0))
    for axis in ("lab", "proper"):
        params = IntegrationParams(step=1e-3, n_steps=10, time_axis=axis)
        with pytest.raises(EnergyDomainError, match=r"exceeds .*=0\]$"):
            integrate_particle(model, state, params)


def test_a_launch_the_audit_refuses_takes_no_step(monkeypatch):
    # |u| < 1 but |u - u_f| = 1.1: the lab-axis law would step on, but the
    # launch row's interacting energy root is out of its domain
    spec = SourceSpec(SourceKind.COULOMB_COMOVING, 1.0, u_f=Vec3(0.6, 0.0, 0.0), softening=0.05,
                      background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0.0, 0.0), Vec3(-0.5, 0.0, 0.0))
    evaluations, bind = [], particle.bind_law

    def counted(model, axis, binding):
        law = bind(model, axis, binding)
        return lambda x, y: evaluations.append(x) or law(x, y)

    monkeypatch.setattr(particle, "bind_law", counted)
    params = IntegrationParams(step=1e-3, n_steps=10, time_axis="lab")
    message = r"^\|p\+qA\| = 1.2742 exceeds \|wbar\| = 1.15837 \[t=0\]$"
    with pytest.raises(EnergyDomainError, match=message):
        integrate_particle(model, state, params)
    assert evaluations == []


def test_non_finite_state_is_a_physics_domain_error():
    with pytest.raises(PhysicsDomainError, match="non-finite"):
        ParticleState(0.0, 0.0, Vec3(math.inf, 0, 0), ZERO3, ZERO3)


def test_non_finite_invariant_raises_at_its_first_audited_row():
    field = LinearField(-2.0, Vec3(1e300, 0, 0))
    model = ForceModel(ModelKind.CLASSICAL, field, charge=1.0, rest_mass=1.0)
    state = make_classical_state(ZERO3, Vec3(0.1, 0.3, 0.0), 1.0)
    params = IntegrationParams(step=5e-4, n_steps=50, audit_every=5)
    with np.errstate(all="ignore"), pytest.raises(PhysicsDomainError) as err:
        integrate_particle(model, state, params)
    # the energy overflows at step 1; the first audited row after it is step 5
    assert str(err.value) == "non-finite energy inf [t=0.0025]"
    assert err.value.where == 5


def test_invariant_errors_raise_at_the_earliest_row(monkeypatch):
    model, state, params = _case(ModelKind.VACUUM_FREE, "lab", "rk4")
    traj = integrate_particle(model, state, replace(params, n_steps=4))

    def flagged(k, value):
        def fn(c, m):
            out = np.ones(len(c.t))
            out[k] = value
            return out

        return fn

    def domain(c, m):
        raise EnergyDomainError("out of its domain", where=2)

    table = {"early": flagged(1, math.nan), "late": flagged(3, math.inf), "domain": domain}
    monkeypatch.setitem(integ.INVARIANTS, ModelKind.VACUUM_FREE, table)
    with pytest.raises(PhysicsDomainError) as err:
        traj.invariants()
    assert str(err.value) == f"non-finite early nan [t={traj.x[1]:.9g}]"
    del table["early"]
    with pytest.raises(EnergyDomainError) as err:
        traj.invariants()
    assert str(err.value) == f"out of its domain [t={traj.x[2]:.9g}]"
