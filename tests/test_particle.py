import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vacuumlab.particle as particle
from vacuumlab import cli
from vacuumlab.errors import (
    DegenerateMultiplierError,
    EnergyDomainError,
    NonpositiveMassError,
    PhysicsDomainError,
    SingularPointError,
    SuperluminalVelocityError,
)
from vacuumlab.geometry import FLOATS, ROWS, Vec3, ZERO3, domain_error, proper_time_factor
from vacuumlab.integrate import IntegrationParams, axis_for, integrate_particle
from vacuumlab.particle import (
    ForceModel,
    ModelKind,
    TwoParticleScenario,
    _em_terms,
    bind_law,
    bind_rows,
    check_state,
    classical_energy,
    classical_momentum,
    classical_rhs,
    constrained_rhs,
    dynamic_mass,
    interacting_hamiltonian,
    interacting_energy,
    interacting_rhs,
    interaction_extra_force,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
    pack,
    qa_vector,
    rest_mass_limit_check,
    total_energy,
    vacuum_free_hamiltonian,
    vacuum_momentum,
    vacuum_rhs,
)
from vacuumlab.potentials import (
    CallableField,
    LinearField,
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
)
from test_acceptance import vacuum_lorentz_rhs
from test_potentials import math_field
from test_solver_references import identical


def test_classical_momentum_examples():
    assert classical_momentum(1.0, ZERO3) == ZERO3
    p = classical_momentum(1.0, Vec3(0.6, 0, 0))
    assert (p - Vec3(0.75, 0, 0)).norm() < 1e-14
    p2 = classical_momentum(2.0, Vec3(0, 0.6, 0))
    assert (p2 - Vec3(0, 1.5, 0)).norm() < 1e-14
    with pytest.raises(SuperluminalVelocityError):
        classical_momentum(1.0, Vec3(1.0, 0, 0))


@pytest.mark.parametrize("m0", [None, 0.0, -1.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("kind", [ModelKind.CLASSICAL, ModelKind.CONSTRAINED])
def test_a_massive_model_needs_a_finite_positive_rest_mass(kind, m0):
    with pytest.raises(NonpositiveMassError, match=f"{kind.value} model needs a finite m0 > 0"):
        ForceModel(kind, UniformField(-1.0), rest_mass=m0)


def test_dynamic_mass_examples():
    assert dynamic_mass(-2.0) == 2.0
    with pytest.raises(NonpositiveMassError):
        dynamic_mass(0.0)
    # at rest the dynamic mass is the rest mass
    m0 = 1.3
    assert dynamic_mass(-m0) == m0


def test_vacuum_momentum_examples():
    assert vacuum_momentum(-1.0, ZERO3) == ZERO3
    assert (vacuum_momentum(-1.0, Vec3(0.5, 0, 0)) - Vec3(0.5, 0, 0)).norm() < 1e-15
    # -wbar = m0 gamma with m0 = 1, |u| = 0.6 gives |p| = 0.75
    p = vacuum_momentum(-1.25, Vec3(0.6, 0, 0))
    assert p.norm() == pytest.approx(0.75, abs=1e-14)


def test_vacuum_free_hamiltonian_examples():
    assert vacuum_free_hamiltonian(-1.0, ZERO3) == -1.0
    assert vacuum_free_hamiltonian(-1.25, Vec3(0.75, 0, 0)) == pytest.approx(-1.0)
    with pytest.raises(EnergyDomainError):
        vacuum_free_hamiltonian(-1.0, Vec3(2.0, 0, 0))


def test_total_energy_examples():
    assert total_energy(-1.7, ZERO3) == pytest.approx(1.7)
    assert total_energy(-1.25, Vec3(0, 0.75, 0)) == pytest.approx(1.0)


def test_interacting_hamiltonian_reductions():
    rng = np.random.default_rng(31)
    for _ in range(50):
        wbar = -float(rng.uniform(1.0, 3.0))
        p = Vec3(*rng.uniform(-0.5, 0.5, size=3))
        assert interacting_hamiltonian(wbar, p, ZERO3) == pytest.approx(
            vacuum_free_hamiltonian(wbar, p), rel=1e-14
        )
        qa = Vec3(*rng.uniform(-0.3, 0.3, size=3))
        assert interacting_hamiltonian(wbar, -1.0 * qa, qa) == pytest.approx(-abs(wbar))
        assert interacting_energy(wbar, p, qa) == pytest.approx(
            -interacting_hamiltonian(wbar, p, qa)
        )


def test_classical_rhs_free_flight_and_push():
    field = UniformField(-1.0)
    model = ForceModel(ModelKind.CLASSICAL, field, charge=1.0, rest_mass=1.0)
    state = make_classical_state(Vec3(0, 0, 0), Vec3(0.3, 0.1, 0), 1.0)
    dp, dr = map(Vec3._make, classical_rhs(model, state.r, state.p, state.t))
    assert dp.norm() < 1e-15
    assert (dr - state.u).norm() < 1e-15

    # uniform E = (E0, 0, 0) via linear wbar = -q E0 x
    e0, q = 0.8, 1.0
    lin = LinearField(-1.0, Vec3(-q * e0, 0, 0))
    model_e = ForceModel(ModelKind.CLASSICAL, lin, charge=q, rest_mass=1.0)
    rest = make_classical_state(Vec3(0, 0, 0), ZERO3, 1.0)
    dp = Vec3(*classical_rhs(model_e, rest.r, rest.p, rest.t)[0])
    assert (dp - Vec3(q * e0, 0, 0)).norm() < 1e-14


def test_constrained_rhs_free_and_invariant():
    field = UniformField(-1.0)
    model = ForceModel(ModelKind.CONSTRAINED, field, charge=1.0, rest_mass=1.0)
    state = make_constrained_state(Vec3(0, 0, 0), Vec3(0.4, 0, 0), 1.0)
    d1, d2, dr = constrained_rhs(model, state.r, state.p, state.lam, state.t)
    d1 = Vec3(*d1)
    assert d1.norm() < 1e-15 and abs(d2) < 1e-15
    bad = make_constrained_state(Vec3(0, 0, 0), Vec3(0.4, 0, 0), 1.0)
    bad.lam = 0.0
    with pytest.raises(DegenerateMultiplierError):
        constrained_rhs(model, bad.r, bad.p, bad.lam, bad.t)


def test_constrained_invariant_along_uniform_e_trajectory():
    lin = LinearField(-2.0, Vec3(-0.5, 0, 0))
    model = ForceModel(ModelKind.CONSTRAINED, lin, charge=1.0, rest_mass=1.0)
    state = make_constrained_state(Vec3(0, 0, 0), Vec3(0.1, 0.3, 0), 1.0)
    traj = integrate_particle(
        model, state, IntegrationParams(step=1e-3, n_steps=3000, audit_every=5)
    )
    assert traj.report["rest_mass"].max_drift < 1e-8


def test_vacuum_free_rhs_uniform_is_free_flight():
    field = UniformField(-1.5)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0, 0, 0), Vec3(0.2, 0.1, -0.3))
    dp, dr = map(Vec3._make, vacuum_rhs(model, state.r, state.p, state.t))
    assert dp.norm() < 1e-15
    assert (dr - state.u).norm() < 1e-15


def test_vacuum_free_rest_mass_constant_along_trajectory():
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=1e-3, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.25, 0))
    traj = integrate_particle(
        model, state, IntegrationParams(step=1e-3, n_steps=3000, audit_every=5)
    )
    assert traj.report["rest_mass"].relative_drift < 1e-9
    assert traj.report["energy"].relative_drift < 1e-9


def uniform_a_field(const_a: Vec3, coulomb_kwargs=None):
    """Softened-Coulomb wbar with a constant vector potential bolted on."""
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=0.05, background=-1.0)
    base = build_potential(spec, 1.0)
    return CallableField(
        wbar_fn=base.wbar,
        grad_wbar_fn=base.grad_wbar,
        dwbar_dt_fn=base.dwbar_dt,
        vecpot_fn=lambda r, t: const_a,
        grad_vecpot_fn=lambda r, t: np.zeros((3, 3)),
        dvecpot_dt_fn=lambda r, t: ZERO3,
    )


def test_interacting_rhs_uniform_a_reduces_to_lorentz_form():
    field = uniform_a_field(Vec3(0.1, -0.2, 0.3))
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.6, 0.2, 0), Vec3(0.1, 0.2, -0.1))
    dp_full, dr_full = map(Vec3._make, interacting_rhs(model, state.r, state.p, state.t))
    dp_lor, dr_lor = vacuum_lorentz_rhs(model, state.r, state.p, state.t)
    assert (dp_full - dp_lor).norm() < 1e-15
    assert (dr_full - dr_lor).norm() < 1e-15
    fc = Vec3(*interaction_extra_force(1.0, state.u, field, state.r, state.t))
    assert fc.norm() < 1e-15


def test_the_interacting_force_depends_on_the_gauge_of_a_field_without_a_source():
    # README model note "Gauge dependence of the interacting force": one B = z,
    # two gauges, two orbits from the same launch (wbar = -1, u = (0.3, 0, 0)),
    # so every verb refuses vacuum-interacting outside potentials.QA_IS_WBAR_UF
    symmetric = UniformMagneticField(Vec3(0, 0, 1.0), -1.0)  # A = B x r / 2
    landau = CallableField(
        wbar_fn=lambda r, t: -1.0,
        vecpot_fn=lambda r, t: Vec3(-r.y, 0.0, 0.0),
        grad_vecpot_fn=lambda r, t: np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    params = IntegrationParams(step=1e-3, n_steps=6283, audit_every=6283, time_axis="lab")
    orbits = []
    for field in (symmetric, landau):
        model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
        orbits.append(integrate_particle(model, make_vacuum_state(field, ZERO3, Vec3(0.3, 0, 0)),
                                         params).columns())
    circle, line = orbits
    # symmetric gauge: a circle of radius 0.6 about (0, -0.6, 0) at omega = 0.5, half the
    # Lorentz force's; at t = 6.283 the particle is half way round, at (5.6e-5, -1.2, 0)
    wt = 0.5 * circle.t
    exact = np.stack([0.6 * np.sin(wt), -0.6 + 0.6 * np.cos(wt), 0.0 * wt], axis=1)
    assert np.max(np.abs(circle.r - exact)) < 1e-11
    assert np.allclose(circle.r[-1], [5.559e-5, -1.2, 0.0], rtol=0.0, atol=1e-7)
    # Landau gauge A = (-y, 0, 0) of the same B: a straight line, y stays 0
    assert not line.r[:, 1:].any()
    assert line.r[-1, 0] == pytest.approx(0.3 * 6.283, rel=1e-12)


def test_interacting_rhs_at_rest_is_electric_push():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        1.0,
        u_f=Vec3(0.2, 0, 0),
        softening=0.05,
        background=-1.0,
    )
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0.3, 0), ZERO3)
    dp, dr = map(Vec3._make, interacting_rhs(model, state.r, state.p, state.t))
    g = field.grad_wbar(state.r, state.t)
    qe = -1.0 * g - 1.0 * field.dvecpot_dt(state.r, state.t)
    assert (dp - qe).norm() < 1e-14
    assert dr.norm() < 1e-15


def moving_a_field():
    """Softened-Coulomb wbar with a position- and time-dependent vector potential."""
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=0.05, background=-1.0)
    base = build_potential(spec, 1.0)
    return CallableField(
        wbar_fn=base.wbar,
        grad_wbar_fn=base.grad_wbar,
        dwbar_dt_fn=base.dwbar_dt,
        vecpot_fn=lambda r, t: Vec3(
            0.3 * r.y * t, -0.2 * r.x + 0.1 * r.z * r.z, 0.25 * r.x * r.y + 0.1 * t
        ),
        grad_vecpot_fn=lambda r, t: np.array(
            [[0.0, 0.3 * t, 0.0], [-0.2, 0.0, 0.2 * r.z], [0.25 * r.y, 0.25 * r.x, 0.0]]
        ),
        dvecpot_dt_fn=lambda r, t: Vec3(0.3 * r.y, 0.0, 0.1),
    )


IDENTITY_FIELDS = {
    "comoving-coulomb": lambda q: build_potential(
        SourceSpec(
            SourceKind.COULOMB_COMOVING, 1.0, u_f=Vec3(0.2, 0.0, 0.15),
            softening=0.05, background=-1.0,
        ),
        q,
    ),
    "uniform-b": lambda q: UniformMagneticField(Vec3(0.1, -0.3, 1.0), -1.0),
    "moving-a": lambda q: moving_a_field(),
}
coords = st.floats(-1.5, 1.5)
speeds = st.floats(-0.55, 0.55)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(IDENTITY_FIELDS)),
    q=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
    r=st.tuples(coords, coords, coords),
    u=st.tuples(speeds, speeds, speeds),
    t=st.floats(0.0, 2.0),
)
def test_vacuum_rhs_is_the_lorentz_type_force_in_canonical_momentum(name, q, r, u, t):
    # d(p + qA)/dt = -grad(wbar) is qE + u x qB - q grad<u,A> = dp/dt plus q dA/dt
    field = IDENTITY_FIELDS[name](q)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=q)
    r, u = Vec3(*r), Vec3(*u)
    p = vacuum_momentum(field.wbar(r, t), u)
    dp, u_lorentz = map(Vec3._make, interacting_rhs(model, r, p, t))
    dbig_p, u_canonical = map(Vec3._make, vacuum_rhs(model, r, p + q * field.vecpot(r, t), t))
    jac_u = field.grad_vecpot(r, t) @ u.as_array()
    q_da_dt = q * (field.dvecpot_dt(r, t) + Vec3(*jac_u))
    gap = dp - (dbig_p - q_da_dt)
    assert gap.norm() <= 1e-12 * (dbig_p.norm() + q_da_dt.norm())
    assert (u_lorentz - u_canonical).norm() <= 1e-12


BUILT_IN_FIELDS = {
    "uniform": lambda q: UniformField(-1.5),
    "linear": lambda q: LinearField(-2.0, Vec3(0.3, -0.1, 0.2)),
    "uniform-b": lambda q: UniformMagneticField(Vec3(0.1, -0.3, 1.0), -1.0),
    "coulomb-static": lambda q: build_potential(
        SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=0.05, background=-1.0), q
    ),
    "coulomb-comoving": IDENTITY_FIELDS["comoving-coulomb"],
}
# name -> (model kind, law as f(model, r, p, y2, t))
COMPONENT_LAWS = {
    "classical": (ModelKind.CLASSICAL, lambda m, r, p, y2, t: classical_rhs(m, r, p, t)),
    "constrained": (ModelKind.CONSTRAINED, constrained_rhs),
    "vacuum-free": (ModelKind.VACUUM_FREE, lambda m, r, p, y2, t: vacuum_rhs(m, r, p, t)),
    "vacuum-interacting": (
        ModelKind.VACUUM_INTERACTING, lambda m, r, p, y2, t: vacuum_rhs(m, r, p, t)
    ),
    "interacting-lorentz": (
        ModelKind.VACUUM_INTERACTING, lambda m, r, p, y2, t: interacting_rhs(m, r, p, t)
    ),
    "extra-force": (
        ModelKind.VACUUM_INTERACTING,
        lambda m, r, p, y2, t: interaction_extra_force(m.charge, p, m.field, r, t),
    ),
    # the invariant kernels, with p read as the model's kinetic momentum
    "classical-energy": (
        ModelKind.CLASSICAL,
        lambda m, r, p, y2, t: classical_energy(m.rest_mass, m.field._wbar(*r, t), p),
    ),
    "vacuum-free-hamiltonian": (
        ModelKind.VACUUM_FREE,
        lambda m, r, p, y2, t: vacuum_free_hamiltonian(m.field._wbar(*r, t), p),
    ),
    "total-energy": (
        ModelKind.VACUUM_FREE, lambda m, r, p, y2, t: total_energy(m.field._wbar(*r, t), p)
    ),
    "interacting-hamiltonian": (
        ModelKind.VACUUM_INTERACTING,
        lambda m, r, p, y2, t: interacting_hamiltonian(m.field._wbar(*r, t), p, _qa(m, r, t)),
    ),
    "interacting-energy": (
        ModelKind.VACUUM_INTERACTING,
        lambda m, r, p, y2, t: interacting_energy(m.field._wbar(*r, t), p, _qa(m, r, t)),
    ),
}


# the laws the stepper binds to floats, with the axes it steps them on
STAGE_AXES = {
    "classical": ("lab",),
    "constrained": ("lab",),
    "vacuum-free": ("lab", "proper"),
    "vacuum-interacting": ("lab", "proper"),
}


def reference_law(model, binding):
    """bind_law as it was written before it read the flat state and took the clock factors.

    law(r, P, t) -> (dP/dt, u, p), or law(r, y1, y2, t) -> (dy1/dt, dy2/dt, u)
    for the constrained model: the classical velocity p / (m0^2 + p^2)^(1/2)
    and the vacuum law were helpers of their own.
    """
    sqrt, violated = binding
    field, q = model.field, model.charge
    if model.kind is ModelKind.CONSTRAINED:

        def law(r, y1, y2, t):
            bad = y2 <= 0.0
            if violated(bad):
                raise domain_error(DegenerateMultiplierError, bad, "lambda*tdot = {:.6g} <= 0", y2)
            px, py, pz = y1
            u = ux, uy, uz = px / y2, py / y2, pz / y2
            (ex, ey, ez), (mx, my, mz) = _em_terms(field, q, r, u, t)
            return (ex + mx, ey + my, ez + mz), (ex * ux + ey * uy) + ez * uz, u

        return law

    if model.kind is ModelKind.CLASSICAL:
        m0 = model.rest_mass

        def law(r, p, t):
            px, py, pz = p
            s = sqrt(m0 * m0 + ((px * px + py * py) + pz * pz))
            u = px / s, py / s, pz / s
            (ex, ey, ez), (mx, my, mz) = _em_terms(field, q, r, u, t)
            return (ex + mx, ey + my, ez + mz), u, p

        return law

    point, interacting = field._point(binding), model.kind is ModelKind.VACUUM_INTERACTING

    def law(r, big_p, t):
        x, y, z = r
        wbar, (gx, gy, gz), (ax, ay, az) = point(x, y, z, t)
        px, py, pz = big_p
        if interacting:
            px, py, pz = px - ax * q, py - ay * q, pz - az * q
        if violated(wbar >= 0.0):
            dynamic_mass(wbar)  # raises its NonpositiveMassError
        m = -wbar
        ux, uy, uz = px / m, py / m, pz / m
        bad = (ux * ux + uy * uy) + uz * uz >= 1.0
        if violated(bad):
            raise domain_error(SuperluminalVelocityError, bad, "|p| >= -wbar implies |u| >= 1")
        return (-gx, -gy, -gz), (ux, uy, uz), (px, py, pz)

    return law


def reference_rate(model, axis, binding):
    """The stage rate as it was composed: reference_law with one proper_time_factor call per clock factor.

    evaluate(x, y) -> (dy/dx, u, p) at a flat state of ``particle._pack``'s layout.
    """
    law, clock = reference_law(model, binding), proper_time_factor
    if model.kind is ModelKind.CONSTRAINED:

        def evaluate(t, y):
            p = y[3:6]
            (d1x, d1y, d1z), d2, u = law(y[0:3], p, y[6], t)
            return (*u, d1x, d1y, d1z, d2, clock(u)), u, p

        return evaluate

    if axis == "lab":

        def evaluate(t, y):
            (dpx, dpy, dpz), u, p = law(y[0:3], y[3:6], t)
            return (*u, dpx, dpy, dpz, clock(u)), u, p

        return evaluate

    ufx, ufy, ufz = model.field.u_f if model.kind is ModelKind.VACUUM_INTERACTING else ZERO3
    moving = (ufx, ufy, ufz) != ZERO3

    def evaluate(x, y):
        (dpx, dpy, dpz), u, p = law(y[0:3], y[3:6], y[6])
        ux, uy, uz = u
        if moving:
            rate = 1.0 / clock((ux - ufx, uy - ufy, uz - ufz))
            dtau = clock(u) * rate
        else:
            factor = clock(u)
            rate = 1.0 / factor
            dtau = factor * rate
        k = (ux * rate, uy * rate, uz * rate, dpx * rate, dpy * rate, dpz * rate, rate, dtau)
        return k, u, p

    return evaluate


def _same_outcome(a, b):
    (leaves_a, exc_a), (leaves_b, exc_b) = a, b
    if exc_a is not None or exc_b is not None:
        assert type(exc_a) is type(exc_b) and str(exc_a) == str(exc_b)
        assert exc_a.where == exc_b.where
        return
    assert np.array(leaves_a, dtype=float).tobytes() == np.array(leaves_b, dtype=float).tobytes()


def _qa(model, r, t):
    return tuple(a * model.charge for a in model.field._vecpot(*r, t))


def _leaves(value):
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _law_or_error(law, *args):
    try:
        return _leaves(law(*args)), None
    except PhysicsDomainError as exc:
        return None, exc


# about 25 examples per law
@settings(max_examples=275, deadline=None)
@given(
    law_name=st.sampled_from(sorted(COMPONENT_LAWS)),
    name=st.sampled_from(sorted(BUILT_IN_FIELDS)),
    q=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
    rows=st.lists(
        st.tuples(
            st.tuples(coords, coords, coords),
            st.tuples(*[st.floats(-1.0, 1.0)] * 3),
            st.floats(-0.5, 2.0),
            st.floats(0.0, 2.0),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_component_laws_on_arrays_equal_the_float_rows(law_name, name, q, rows):
    # the ensemble form of every law: one call on 1-D arrays gives each row's
    # float result bit for bit, or the first failing row's error named by where
    kind, law = COMPONENT_LAWS[law_name]
    model = ForceModel(kind, BUILT_IN_FIELDS[name](q), charge=q, rest_mass=1.0)
    # the stepper's float-bound stage equals the row binding on each row, or
    # raises the same error
    for axis in STAGE_AXES.get(law_name, ()):
        law_floats, reference = bind_law(model, axis, FLOATS), reference_rate(model, axis, ROWS)
        for r, p, y2, t in rows:
            if kind is ModelKind.CONSTRAINED:
                y = (*r, *p, y2, 0.0)
            else:
                y = (*r, *p, 0.0) if axis == "lab" else (*r, *p, t, 0.0)
            _same_outcome(_law_or_error(law_floats, t, y), _law_or_error(reference, t, y))
    per_row = [_law_or_error(law, model, r, p, y2, t) for r, p, y2, t in rows]
    r, p, y2, t = (np.array(c) for c in zip(*rows))
    with np.errstate(all="ignore"):  # a tiny l tdot overflows silently on floats too
        leaves, error = _law_or_error(law, model, tuple(r.T), tuple(p.T), y2, t)
    failed = [k for k, (_, exc) in enumerate(per_row) if exc is not None]
    if failed:
        k = failed[0]
        assert type(error) is type(per_row[k][1]) and error.where == k
        assert str(error) == str(per_row[k][1])
        return
    assert error is None
    for i, leaf in enumerate(leaves):
        column = np.array([row_leaves[i] for row_leaves, _ in per_row], dtype=float)
        assert np.broadcast_to(leaf, column.shape).tobytes() == column.tobytes()


# the fields of the fused-law test, by name, as f(q, w0): w0 sets wbar where a field has a constant term
LAW_FIELDS = {
    "uniform": lambda q, w0: UniformField(w0),
    "linear": lambda q, w0: LinearField(w0, Vec3(0.3, -0.1, 0.2)),
    "uniform-b": lambda q, w0: UniformMagneticField(Vec3(0.1, -0.3, 1.0), w0),
    "coulomb-static": lambda q, w0: BUILT_IN_FIELDS["coulomb-static"](q),
    "coulomb-comoving": lambda q, w0: BUILT_IN_FIELDS["coulomb-comoving"](q),
    # force terms that fail at r = 0, so that their error and the clock's meet
    "coulomb-unsoftened": lambda q, w0: build_potential(
        SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=0.0, background=-1.0), q
    ),
    "callable": lambda q, w0: math_field(),
}
LAW_AXES = [(ModelKind.CLASSICAL, "lab"), (ModelKind.CONSTRAINED, "lab"),
            (ModelKind.VACUUM_FREE, "lab"), (ModelKind.VACUUM_FREE, "proper"),
            (ModelKind.VACUUM_INTERACTING, "lab"), (ModelKind.VACUUM_INTERACTING, "proper")]
_ZEROS = st.sampled_from([0.0, -0.0])
_SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300])


@st.composite
def _law_rows(draw, model, axis):
    """(x, y) of flat states on axis: |u| near 1, with at most one component ±0.0 or non-finite."""
    field = model.field
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        r = Vec3(*draw(st.tuples(*[st.floats(-1.5, 1.5) | _ZEROS] * 3)))
        t = draw(st.floats(0.0, 2.0) | _ZEROS)
        direction = Vec3(*draw(st.tuples(*[st.floats(-1.0, 1.0) | _ZEROS] * 3)))
        n = direction.norm()
        scale = draw(st.floats(1.0 - 1e-12, 1.0 + 1e-12) | st.floats(0.0, 1.2))
        v = direction * (scale / n) if n > 0 else direction  # a speed near 1, or a zero velocity
        if model.kind is ModelKind.CLASSICAL:  # |u|^2 rounds to 1 from |p| ~ 1e8 m0 on
            size = draw(st.sampled_from([1e8, 1e9, 1e16]) | st.floats(0.0, 10.0))
            y = (*r, *(direction * size), 0.0)
        elif model.kind is ModelKind.CONSTRAINED:
            y2 = draw(st.floats(-0.5, 2.0) | st.sampled_from([0.0, -0.0, 5e-324]))
            y = (*r, *(v * y2), y2, 0.0)
        else:
            try:
                big_p = v * -field.wbar(r, t)
                if model.kind is ModelKind.VACUUM_INTERACTING:
                    big_p = big_p + qa_vector(model, r, t)
            except PhysicsDomainError:  # on an unsoftened source: the law raises there too
                big_p = v
            y = (*r, *big_p, 0.0) if axis == "lab" else (*r, *big_p, t, 0.0)
        if draw(st.booleans()):
            k = draw(st.integers(0, len(y) - 1))
            y = y[:k] + (draw(_SPECIALS),) + y[k + 1:]
        rows.append((t if axis == "lab" else draw(st.floats(0.0, 2.0)), y))
    return rows


def _bits_or_error(call):
    """(bytes of each leaf of call(), None), or (None, (type, message, where)) of the error it raises.

    Leaves compare bit for bit, signed zeros included, except that every NaN
    reads as one NaN: CPython's specialized float operations do not keep the
    sign of the NaN they propagate.
    """
    try:
        with np.errstate(all="ignore"):  # rows stay as silent as floats
            leaves = [np.asarray(v, dtype=float) for v in _leaves(call())]
    except (PhysicsDomainError, ArithmeticError, ValueError) as exc:  # a math callable's too
        return None, (type(exc), str(exc), getattr(exc, "where", None))
    return [np.where(np.isnan(v), np.nan, v).tobytes() for v in leaves], None


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(LAW_AXES),
    name=st.sampled_from(sorted(LAW_FIELDS)),
    q=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
    w0=st.sampled_from([-1e-300, -5e-324, -0.0, 0.0, 1e-300]) | st.floats(-2.0, -1e-6),
    data=st.data(),
)
def test_the_bound_law_equals_the_reference_rate(case, name, q, w0, data):
    # each stage rate, u and p, or the same error (type, message and where):
    # on each state as floats, and on the columns of the block of rows
    kind, axis = case
    model = ForceModel(kind, LAW_FIELDS[name](q, w0), charge=q, rest_mass=1.0)
    rows = data.draw(_law_rows(model, axis))
    for x, y in rows:
        expected = _bits_or_error(lambda: reference_rate(model, axis, FLOATS)(x, y))
        assert _bits_or_error(lambda: bind_law(model, axis, FLOATS)(x, y)) == expected
    x = np.array([x for x, _ in rows])
    block = tuple(np.array(column) for column in zip(*(y for _, y in rows)))
    expected = _bits_or_error(lambda: reference_rate(model, axis, ROWS)(x, block))
    assert _bits_or_error(lambda: bind_law(model, axis, ROWS)(x, block)) == expected
    if axis == "proper":
        return
    # the public law at the block's lab states is the written law, which takes no clock factor
    law, r, p, t = reference_law(model, ROWS), block[0:3], block[3:6], x
    if kind is ModelKind.CONSTRAINED:
        public = _bits_or_error(lambda: constrained_rhs(model, r, p, block[6], t))
        written = _bits_or_error(lambda: law(r, p, block[6], t))
    else:
        public_law = classical_rhs if kind is ModelKind.CLASSICAL else vacuum_rhs
        public = _bits_or_error(lambda: public_law(model, r, p, t))
        written = _bits_or_error(lambda: law(r, p, t)[:2])
    assert public == written


@pytest.mark.parametrize("binding", [FLOATS, ROWS], ids=["floats", "rows"])
@pytest.mark.parametrize("kind", [ModelKind.CLASSICAL, ModelKind.CONSTRAINED], ids=lambda k: k.value)
def test_a_force_term_error_is_raised_before_the_clock_error(kind, binding):
    # |u| >= 1 at the unsoftened source: the field's error, as the reference raises it
    model = ForceModel(kind, LAW_FIELDS["coulomb-unsoftened"](1.0, -1.0), charge=1.0, rest_mass=1.0)
    y = (0.0, 0.0, 0.0, 1e16, 0.0, 0.0, *((0.5,) if kind is ModelKind.CONSTRAINED else ()), 0.0)
    outcome = _bits_or_error(lambda: bind_law(model, "lab", binding)(0.0, y))
    assert outcome[1][0] is SingularPointError
    assert outcome == _bits_or_error(lambda: reference_rate(model, "lab", binding)(0.0, y))


def test_extra_force_uniform_a_is_zero():
    field = uniform_a_field(Vec3(0.3, 0.3, -0.1))
    fc = Vec3(*interaction_extra_force(1.0, Vec3(0.2, -0.4, 0.1), field, Vec3(1, 1, 1), 0.0))
    assert fc.norm() < 1e-15


def test_extra_force_constructed_symmetry_is_zero():
    # <u, A> is constant when u picks the constant component of A
    field = CallableField(
        vecpot_fn=lambda r, t: Vec3(0.7, r.x * r.y, r.z**2),
        grad_vecpot_fn=lambda r, t: np.array(
            [[0.0, 0.0, 0.0], [r.y, r.x, 0.0], [0.0, 0.0, 2 * r.z]]
        ),
    )
    fc = Vec3(*interaction_extra_force(1.3, Vec3(1.0, 0.0, 0.0), field, Vec3(0.4, -0.2, 0.9), 0.0))
    assert fc.norm() < 1e-15


def test_extra_force_matches_central_differences():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        1.0,
        u_f=Vec3(0.15, -0.1, 0.2),
        softening=0.08,
        background=-1.0,
    )
    field = build_potential(spec, 0.7)
    rng = np.random.default_rng(37)
    h = 1e-5
    for _ in range(100):
        r = Vec3(*rng.uniform(0.3, 1.0, size=3))
        t = float(rng.uniform(0.0, 0.5))
        u = Vec3(*rng.uniform(-0.4, 0.4, size=3))
        fc = interaction_extra_force(0.7, u, field, r, t)
        for k in range(3):
            e = [0.0, 0.0, 0.0]
            e[k] = h
            dr = Vec3(*e)
            num = -0.7 * (
                u.dot(field.vecpot(r + dr, t)) - u.dot(field.vecpot(r - dr, t))
            ) / (2 * h)
            assert num == pytest.approx(fc[k], rel=1e-6, abs=1e-10)


def test_rest_mass_limit_sequence():
    scenario = TwoParticleScenario(
        q=1.0,
        q_f=1.0,
        r_f0=ZERO3,
        u_f=Vec3(0.2, 0.0, 0.1),
        r0=Vec3(0.6, 0.0, 0.0),
        u0=ZERO3,
        softening=0.05,
        background=-1.0,
        horizon=1.0,
        n_steps=1000,
    )
    report = rest_mass_limit_check(scenario, [1e-2, 5e-3, 2.5e-3])
    assert all(d > 0 for d in report.deviations)
    for ratio in report.ratios:
        assert ratio == pytest.approx(0.5, abs=0.1)
    with pytest.raises(Exception):
        rest_mass_limit_check(scenario, [1e-3, 1e-2])

    # uniform wbar at any charge: zero gradient keeps the deviation at rounding
    free_model = ForceModel(ModelKind.VACUUM_INTERACTING, UniformField(-1.0), charge=1.0)
    state = make_vacuum_state(free_model.field, Vec3(0.6, 0, 0), Vec3(0.2, 0, 0))
    traj = integrate_particle(
        free_model, state, IntegrationParams(step=2e-3, n_steps=500, audit_every=1)
    )
    m0 = 1.0 * math.sqrt(1.0 - 0.04)
    worst = max(
        abs(-free_model.field.wbar(s.r, s.t) * math.sqrt(1.0 - s.u.norm2()) - m0)
        for s in traj.samples
    )
    assert worst < 1e-14


def eta_f(scenario, state):
    """Relative rest-frame event (r - r_f(t), tau) of a state in a two-particle scenario."""
    return state.r - (scenario.r_f0 + scenario.u_f * state.t), state.tau


def test_eta_f_relative_event():
    scenario = TwoParticleScenario(
        q=1.0, q_f=1.0, r_f0=Vec3(0.1, 0, 0), u_f=Vec3(0.2, 0, 0),
        r0=Vec3(0.6, 0, 0), u0=ZERO3,
    )
    state = scenario.initial_state()
    state.t = 2.0
    state.tau = 1.5
    r, tau = eta_f(scenario, state)
    assert tau == 1.5
    assert (r - (state.r - Vec3(0.1 + 0.4, 0, 0))).norm() < 1e-15


def test_model_agreement_scaling_interacting_vs_classical():
    # uniform vector potential, shrinking charge: trajectory gap scales O(q)
    from vacuumlab.integrate import IntegrationParams, integrate_particle

    qs = [1e-3, 1e-4]
    dists = []
    for q in qs:
        spec = SourceSpec(
            SourceKind.COULOMB_STATIC, 1.0, softening=0.05, background=-1.0
        )
        field = build_potential(spec, q)
        r0, u0 = Vec3(0.6, 0, 0), Vec3(0.0, 0.3, 0)
        params = IntegrationParams(
            step=1e-3, n_steps=2000, audit_every=2000, time_axis="lab"
        )
        m_int = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=q)
        m_cls = ForceModel(ModelKind.CLASSICAL, field, charge=q, rest_mass=1.0)
        t_int = integrate_particle(m_int, make_vacuum_state(field, r0, u0), params)
        t_cls = integrate_particle(m_cls, make_classical_state(r0, u0, 1.0), params)
        dists.append(
            max((a.r - b.r).norm() for a, b in zip(t_int.samples, t_cls.samples))
        )
    ratio = dists[0] / dists[1]
    assert ratio == pytest.approx(10.0, rel=0.25)


def test_interacting_generic_orientation_cross_term_measured():
    # For a source velocity with a component along the relative motion the
    # full Hamiltonian's cross term <p+qA, qA>/D oscillates (the model note);
    # the leading invariant (wbar^2 - |p+qA|^2)^(1/2) stays flat regardless.
    from vacuumlab.integrate import IntegrationParams, integrate_particle

    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        1.0,
        u_f=Vec3(0.12, 0.0, 0.05),
        softening=1e-3,
        background=-1.0,
    )
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.3, 0))
    traj = integrate_particle(
        model, state, IntegrationParams(step=2e-4, n_steps=5000, audit_every=5)
    )
    assert traj.report["relative_invariant"].relative_drift < 1e-10
    assert traj.report["hamiltonian"].relative_drift > 1e-4


def test_trajectory_clocks_monotone():
    from vacuumlab.integrate import IntegrationParams, integrate_particle

    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=1e-3, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.25, 0))
    traj = integrate_particle(
        model, state, IntegrationParams(step=1e-3, n_steps=500, audit_every=50)
    )
    taus = [s.tau for s in traj.samples]
    ts = [s.t for s in traj.samples]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert all(b > a for a, b in zip(ts, ts[1:]))


def reference_check_state(tau, r, u, p):
    """check_state as it was written: the superluminal test, then ``math.isfinite`` of each component."""
    u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    if u2 >= 1.0:
        raise SuperluminalVelocityError(f"|u| = {math.sqrt(u2):.6g} >= 1 at tau={tau:.6g}")
    if not all(map(math.isfinite, (*r, *u, *p))):
        raise PhysicsDomainError("non-finite particle state")


def _outcome(check, *args):
    try:
        check(*args)
    except PhysicsDomainError as exc:
        return type(exc), str(exc)
    return None


# signed zeros, infinities, NaN, the float range's edges and speeds about |u| = 1
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1.7976931348623157e308,
          1.79e308, -1.79e308, 5e-324, 1.0, -1.0, 0.5, 0.7071067811865476]
_components = st.sampled_from(_EDGES) | st.floats(allow_nan=True, allow_infinity=True)
_triples = st.tuples(_components, _components, _components)


@given(r=_triples, u=_triples, p=_triples, vec3=st.booleans())
@settings(max_examples=400, deadline=None)
def test_check_state_raises_exactly_as_the_isfinite_test(r, u, p, vec3):
    if vec3:
        r, u, p = Vec3(*r), Vec3(*u), Vec3(*p)
    assert _outcome(check_state, 0.25, r, u, p) == _outcome(reference_check_state, 0.25, r, u, p)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", range(9))
def test_check_state_refuses_each_non_finite_component(bad, slot):
    values = [0.1, -0.0, 1.7976931348623157e308, 0.2, -0.3, 0.0, -1.7976931348623157e308, 5e-324, 1.0]
    values[slot] = bad
    r, u, p = values[0:3], values[3:6], values[6:9]
    expected = _outcome(reference_check_state, 0.0, r, u, p)
    assert expected is not None and _outcome(check_state, 0.0, r, u, p) == expected
    values[slot] = 0.5
    assert _outcome(check_state, 0.0, values[0:3], values[3:6], values[6:9]) is None


SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def _particle_launches():
    """(scenario, axis): each shipped particle scenario on lab time and on its model's own clock."""
    for path in sorted(SCENARIOS.glob("*.yaml")):
        config = cli.parse_config(str(path))
        if config.kind == "particle":
            kind = cli.build_particle_model(config)[0].kind
            yield from ((path.stem, axis) for axis in sorted({"lab", axis_for(kind, "auto")}))


@pytest.mark.parametrize("name, axis", list(_particle_launches()))
def test_bind_rows_reads_the_packed_launch_back_bit_for_bit(monkeypatch, name, axis):
    model, state, _ = cli.build_particle_model(cli.parse_config(str(SCENARIOS / f"{name}.yaml")))
    # no law reads tau, so a launch tau apart from t tells the two parameters apart
    state = dataclasses.replace(state, tau=0.375)
    x, y = pack(model, state, axis)
    assert identical(x, state.t if axis == "lab" else state.tau)
    read = bind_rows(model, axis)
    monkeypatch.setattr(particle, "bind_law", None)  # the reader evaluates no law
    t, tau, r, u, p, lam = read(np.array([x]), np.array([y]), np.array([(*state.u, *state.p)]))
    assert identical(t, [state.t]) and identical(tau, [state.tau])
    for got, want in ((r, state.r), (u, state.u), (p, state.p)):
        assert got.shape == (1, 3) and identical(got[0], want)
    if model.kind is ModelKind.CONSTRAINED:
        assert identical(lam, [state.lam])
    else:
        assert lam is None


@pytest.mark.parametrize("name, axis", list(_particle_launches()))
def test_kept_rows_read_the_law_bound_to_rows_bit_for_bit(name, axis):
    # the u and p a run keeps are its step checks' float evaluations: at every
    # later row they equal the law bound to rows there, signs of zero included,
    # and row 0 reads the launch's own
    config = cli.parse_config(str(SCENARIOS / f"{name}.yaml"), {"n_steps": 200})
    model, state, params = cli.build_particle_model(config)
    traj = integrate_particle(model, state, dataclasses.replace(params, time_axis=axis))
    c = traj.columns()
    assert identical(c.u[0], state.u) and identical(c.p[0], state.p)
    with np.errstate(all="ignore"):
        _, u, p = bind_law(model, axis, ROWS)(traj.x[1:], tuple(traj.Y[1:].T))
    assert len(c.u) > 1 and identical(c.u[1:], np.transpose(u)) and identical(c.p[1:], np.transpose(p))
