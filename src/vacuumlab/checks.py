"""Fast self-test invariant battery backing the `vacuumlab check` verb.

Each check is a desk-scale version of a suite invariant; the full
acceptance evidence lives in the test suite.  Everything here is seeded
and deterministic and the whole battery stays well under a minute.
"""

from __future__ import annotations

import math

import numpy as np

from .conformal import solve_conformal
from .conformal_cases import harmonic_case
from .geometry import Vec3
from .integrate import IntegrationParams, integrate_particle, integrate_string
from .particle import (
    ForceModel,
    ModelKind,
    interaction_extra_force,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
)
from .potentials import (
    CoulombField,
    LinearField,
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
    wave_residual,
)
from . import strings


def _rng():
    return np.random.default_rng(20240817)


def check_field_gradients():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        strength=0.8,
        u_f=Vec3(0.2, 0.05, -0.1),
        softening=0.05,
        background=-1.0,
    )
    field = build_potential(spec, 1.0)
    rng = _rng()
    h = 1e-5
    worst = 0.0
    for _ in range(25):
        r = Vec3(*rng.uniform(0.3, 1.2, size=3))
        t = float(rng.uniform(0.0, 1.0))
        g = field.grad_wbar(r, t)
        for k in range(3):
            e = [0.0, 0.0, 0.0]
            e[k] = h
            num = (field.wbar(r + Vec3(*e), t) - field.wbar(r - Vec3(*e), t)) / (2 * h)
            worst = max(worst, abs(num - g[k]) / max(abs(g[k]), 1e-12))
    return worst < 1e-6, f"max rel error {worst:.2e}"


def check_wave_residuals():
    # inside the softening core, where rho is large: the Hessian's trace must cancel it
    spec = SourceSpec(SourceKind.COULOMB_STATIC, strength=1.0, softening=0.05)
    field = CoulombField(spec, 1.0)
    r = Vec3(0.03, 0.02, -0.01)
    res = wave_residual(field, r, 0.0)
    return abs(res) < 1e-8, f"softened static Coulomb residual {res:.2e} at rho {field.rho(r, 0.0):.4g}"


def check_gyro_orbit():
    b0, m0, q, u = 1.0, 1.0, 1.0, 0.6
    field = UniformMagneticField(Vec3(0.0, 0.0, b0))
    model = ForceModel(ModelKind.CLASSICAL, field, charge=q, rest_mass=m0)
    state = make_classical_state(Vec3(0.0, 0.0, 0.0), Vec3(u, 0.0, 0.0), m0)
    gamma = 1.0 / math.sqrt(1.0 - u * u)
    period = 2.0 * math.pi * m0 * gamma / (q * b0)
    n = 2000
    traj = integrate_particle(
        model, state, IntegrationParams(step=period / n, n_steps=n, audit_every=100)
    )
    err = (Vec3(*traj.columns(slice(-1, None)).r[0].tolist()) - state.r).norm()
    return err < 1e-6, f"closure error {err:.2e} after one period"


def check_extra_force_oracle():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        strength=1.0,
        u_f=Vec3(0.15, -0.1, 0.2),
        softening=0.08,
        background=-1.0,
    )
    field = build_potential(spec, 0.7)
    rng = _rng()
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        r = Vec3(*rng.uniform(0.3, 1.0, size=3))
        t = float(rng.uniform(0.0, 0.5))
        u = Vec3(*rng.uniform(-0.4, 0.4, size=3))
        fc = interaction_extra_force(0.7, u, field, r, t)
        for k in range(3):
            e = [0.0, 0.0, 0.0]
            e[k] = h
            num = -0.7 * (
                u.dot(field.vecpot(r + Vec3(*e), t)) - u.dot(field.vecpot(r - Vec3(*e), t))
            ) / (2 * h)
            worst = max(worst, abs(num - fc[k]) / max(abs(fc[k]), 1e-10))
    return worst < 1e-6, f"max rel error {worst:.2e}"


def check_vacuum_free_drift():
    spec = SourceSpec(SourceKind.COULOMB_STATIC, strength=1.0, softening=1e-3, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0.0, 0.0), Vec3(0.0, 0.25, 0.0))
    traj = integrate_particle(
        model, state, IntegrationParams(step=1e-3, n_steps=2000, audit_every=5)
    )
    drift = traj.report["energy"].relative_drift
    return drift < 1e-8, f"energy drift {drift:.2e}"


def check_interacting_drift():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        strength=1.0,
        u_f=Vec3(0.0, 0.0, 0.15),
        softening=1e-3,
        background=-1.0,
    )
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0.0, 0.0), Vec3(0.0, 0.25, 0.15))
    traj = integrate_particle(
        model, state, IntegrationParams(step=1e-3, n_steps=2000, audit_every=5)
    )
    drift = traj.report["hamiltonian"].relative_drift
    return drift < 1e-8, f"hamiltonian drift {drift:.2e}"


def check_constrained_vs_classical():
    field = LinearField(-2.0, Vec3(-0.3, 0.0, 0.0))
    m_con = ForceModel(ModelKind.CONSTRAINED, field, charge=1.0, rest_mass=1.0)
    m_cls = ForceModel(ModelKind.CLASSICAL, field, charge=1.0, rest_mass=1.0)
    r0, u0 = Vec3(0.0, 0.0, 0.0), Vec3(0.1, 0.2, 0.0)
    params = IntegrationParams(step=1e-3, n_steps=2000, audit_every=50)
    t_con = integrate_particle(m_con, make_constrained_state(r0, u0, 1.0), params)
    t_cls = integrate_particle(m_cls, make_classical_state(r0, u0, 1.0), params)
    worst = max(
        (a.r - b.r).norm() for a, b in zip(t_con.samples, t_cls.samples)
    )
    return worst < 1e-9, f"max trajectory distance {worst:.2e}"


def check_string_equilibrium():
    grid = strings.StringGrid.uniform(0.0, 1.0, 32)
    state = strings.straight_string(grid, Vec3(0, 0, 0), Vec3(1, 0, 0))
    field = UniformField(-1.0)
    dr, dp = strings.string_canonical_rhs(state, field)
    worst = max(float(np.max(np.abs(dr))), float(np.max(np.abs(dp))))
    return worst < 1e-14, f"max rhs {worst:.2e}"


def check_string_pluck_drift():
    # elliptic-in-tau flow: short horizon keeps the e^{|k| tau} growth benign
    grid = strings.StringGrid.uniform(0.0, 1.0, 32)
    state = strings.plucked_string(grid, Vec3(0, 0, 0), Vec3(1, 0, 0), 0.01, 0.1)
    field = UniformField(-1.0)
    traj = integrate_string(
        state, field, IntegrationParams(step=2e-4, n_steps=200, audit_every=5)
    )
    drift = traj.report["hamiltonian"].relative_drift
    return drift < 1e-6, f"H drift {drift:.2e}"


def check_string_gradient_fd():
    rng = _rng()
    grid = strings.StringGrid.uniform(0.0, 1.0, 16)
    state = strings.straight_string(grid, Vec3(0, 0, 0), Vec3(1, 0, 0))
    state.r += 0.05 * np.sin(np.outer(grid.sigma * math.pi, np.ones(3)) * [1, 2, 3])
    state.p = 0.05 * rng.normal(size=(16, 3))
    state.p[0] = state.p[-1] = 0.0
    spec = SourceSpec(SourceKind.COULOMB_STATIC, strength=0.5, softening=0.4, background=-2.0)
    field = build_potential(spec, 1.0)
    dr, dp = strings.string_canonical_rhs(state, field)
    # one block of perturbed states: p moved by +h at each (node, component), then by
    # -2h from there, and r likewise; central differences of H give -dr and dp
    h, j, k, six = 1e-6, np.repeat([5, 9], 3), np.tile([0, 1, 2], 2), np.arange(6)
    r, p = np.tile(state.r, (4, 6, 1, 1)), np.tile(state.p, (4, 6, 1, 1))
    for pair in (p[:2], r[2:]):
        pair[:, six, j, k] += h
        pair[1, six, j, k] -= 2 * h
    hs = strings.string_hamiltonian(strings.StringState(grid, r, p), field)
    num = np.array([-(hs[0] - hs[1]), hs[2] - hs[3]]) / (2 * h) / grid.h
    scale = np.array([[np.max(np.abs(dr))], [np.max(np.abs(dp))]])
    worst = float(np.max(np.abs(num - [dr[j, k], dp[j, k]]) / scale))
    return worst < 1e-5, f"max rel mismatch {worst:.2e}"


def check_conformal_laplace():
    case = harmonic_case(17, 17)
    solved, result = solve_conformal(case.boundary, case.field, tol=1e-10)
    err = float(np.max(np.abs(solved.xi - case.exact.xi)))
    gauge = solved.max_gauge_defect()
    return err < 1e-8 and gauge < 1e-8, f"err {err:.2e}, gauge {gauge:.2e}, {result.iterations} V-cycles"


def check_alt_hamiltonian_gap():
    # a transversal pluck: |wbar r' - p|^2 = (wbar r')^2 + p^2 on every cell, so
    # the alternative integrand lies above the energy; near the fixed ends p^2 is
    # so small that the two round to the same float
    grid = strings.StringGrid.uniform(0.0, 1.0, 32)
    state = strings.plucked_string(grid, Vec3(0, 0, 0), Vec3(1, 0, 0), 0.05, 0.08)
    cells = strings.cell_integrands(state, LinearField(-2.0, Vec3(0.3, 0.0, 0.0)))
    alt, energy, p2 = cells["alt"], cells["energy"], cells["pbar_sq"]
    defect = float(np.max(np.abs(alt**2 - (cells["wrprime_sq"] + p2))))
    moving = p2 > 1e-8
    above = bool(np.all(alt >= energy) and np.all(alt[moving] > energy[moving]))
    gap = float(np.max(alt - energy))
    detail = f"identity defect {defect:.2e}, alt > energy on {int(moving.sum())} cells"
    return defect < 1e-12 and above, f"{detail}, max gap {gap:.2e}"


def check_determinism():
    spec = SourceSpec(SourceKind.COULOMB_STATIC, strength=1.0, softening=1e-3, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)

    def run():
        state = make_vacuum_state(field, Vec3(0.5, 0.0, 0.0), Vec3(0.0, 0.25, 0.0))
        traj = integrate_particle(
            model, state, IntegrationParams(step=1e-3, n_steps=500, audit_every=10)
        )
        return [(s.tau, s.t, tuple(s.r), tuple(s.p)) for s in traj.samples]

    same = run() == run()
    return same, "bit-identical rerun" if same else "reruns differ"


_ALL = [
    ("field-gradient-fd", check_field_gradients),
    ("wave-residual-static-coulomb", check_wave_residuals),
    ("gyro-orbit-closure", check_gyro_orbit),
    ("extra-force-fd-oracle", check_extra_force_oracle),
    ("vacuum-free-energy-drift", check_vacuum_free_drift),
    ("interacting-hamiltonian-drift", check_interacting_drift),
    ("constrained-vs-classical", check_constrained_vs_classical),
    ("string-static-equilibrium", check_string_equilibrium),
    ("string-pluck-drift", check_string_pluck_drift),
    ("string-gradient-fd", check_string_gradient_fd),
    ("conformal-laplace-17", check_conformal_laplace),
    ("alt-hamiltonian-gap", check_alt_hamiltonian_gap),
    ("determinism", check_determinism),
]


def run_all():
    results = []
    for name, fn in _ALL:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
