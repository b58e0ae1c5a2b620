"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np

from vacuumlab import cli
from vacuumlab.geometry import Vec3, ZERO3
from vacuumlab.integrate import (
    IntegrationParams,
    integrate_particle,
    integrate_string,
)
from vacuumlab.particle import (
    ForceModel,
    ModelKind,
    dynamic_mass,
    interaction_extra_force,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
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
    StringGrid,
    StringState,
    cell_integrands,
    plucked_string,
    straight_string,
    string_canonical_rhs,
    string_hamiltonian,
    string_hamiltonian_alt,
)
from vacuumlab.conformal import solve_conformal
from vacuumlab.conformal_cases import manufactured_case
from vacuumlab.variational import (
    LagrangianKind,
    LagrangianSpec,
    euler_lagrange_residual,
    path_from_trajectory,
    uniform_proper_path,
)
from test_conformal import exp_harmonic_case


def _report(name, passed, detail):
    print(f"\n[{name}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{name}: {detail}"


def _worst(res):
    return float(np.max(np.sqrt(np.einsum("ij,ij->i", res, res))))


def soft_coulomb_field(charge=1.0, u_f=ZERO3, softening=1e-3):
    kind = SourceKind.COULOMB_COMOVING if u_f.norm2() > 0 else SourceKind.COULOMB_STATIC
    spec = SourceSpec(kind, 1.0, u_f=u_f, softening=softening, background=-1.0)
    return build_potential(spec, charge)


def test_ac1_rest_mass_recovery():
    field = soft_coulomb_field()
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.3, 0))
    t0 = time.perf_counter()
    traj = integrate_particle(
        model, state, IntegrationParams(step=2e-4, n_steps=10000, audit_every=1)
    )
    elapsed = time.perf_counter() - t0
    drift = traj.report["rest_mass"].relative_drift
    _report(
        "AC1 rest-mass recovery",
        drift < 1e-6 and elapsed < 1.0,
        f"relative drift {drift:.3e} (budget 1e-6), runtime {elapsed:.2f} s (budget 1 s)",
    )


def test_ac2_hamiltonian_conservation():
    field = soft_coulomb_field()
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.3, 0))
    t0 = time.perf_counter()
    traj = integrate_particle(
        model, state, IntegrationParams(step=2e-4, n_steps=10000, audit_every=1)
    )
    free_elapsed = time.perf_counter() - t0
    free_drift = traj.report["hamiltonian"].relative_drift

    u_f = Vec3(0.0, 0.0, 0.15)
    field_i = soft_coulomb_field(u_f=u_f)
    model_i = ForceModel(ModelKind.VACUUM_INTERACTING, field_i, charge=1.0)
    state_i = make_vacuum_state(field_i, Vec3(0.5, 0, 0), Vec3(0, 0.3, 0.15))
    t0 = time.perf_counter()
    traj_i = integrate_particle(
        model_i, state_i, IntegrationParams(step=2e-4, n_steps=10000, audit_every=1)
    )
    int_elapsed = time.perf_counter() - t0
    int_drift = traj_i.report["hamiltonian"].relative_drift
    rel_drift = traj_i.report["relative_invariant"].relative_drift
    _report(
        "AC2 Hamiltonian conservation",
        free_drift < 1e-6 and int_drift < 1e-5 and free_elapsed < 2 and int_elapsed < 2,
        f"vacuum-free drift {free_drift:.3e} (1e-6), interacting drift {int_drift:.3e} "
        f"(1e-5, relative invariant {rel_drift:.3e}), runtimes "
        f"{free_elapsed:.2f}/{int_elapsed:.2f} s (2 s each)",
    )


def vacuum_lorentz_rhs(model, r, p, t):
    """(dp/dt, u) for the Lorentz-type force qE + u x qB of a vacuum model.

    The interacting law without the extra gradient force -q grad<u, A>: the
    reference whose gap to the interacting law AC3 measures.
    """
    field, q = model.field, model.charge
    u = p / dynamic_mass(field.wbar(r, t))
    qe = -field.grad_wbar(r, t) - q * field.dvecpot_dt(r, t)
    jac = field.grad_vecpot(r, t)
    qb = Vec3(
        q * (jac[2, 1] - jac[1, 2]),
        q * (jac[0, 2] - jac[2, 0]),
        q * (jac[1, 0] - jac[0, 1]),
    )
    return qe + Vec3(u.y * qb.z - u.z * qb.y, u.z * qb.x - u.x * qb.z, u.x * qb.y - u.y * qb.x), u


def _integrate_lorentz(field, q, r0, u0, step, n):
    """Fixed-step RK4 on the Lorentz-type force without the extra gradient term."""
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=q)
    state = make_vacuum_state(field, r0, u0)
    rs = [state.r]
    r, p, t = state.r, state.p, 0.0

    def rhs(rr, pp, tt):
        dp, dr = vacuum_lorentz_rhs(model, rr, pp, tt)
        return dr, dp

    for _ in range(n):
        k1r, k1p = rhs(r, p, t)
        k2r, k2p = rhs(r + k1r * (step / 2), p + k1p * (step / 2), t + step / 2)
        k3r, k3p = rhs(r + k2r * (step / 2), p + k2p * (step / 2), t + step / 2)
        k4r, k4p = rhs(r + k3r * step, p + k3p * step, t + step)
        r = r + (k1r + 2 * (k2r + k3r) + k4r) * (step / 6)
        p = p + (k1p + 2 * (k2p + k3p) + k4p) * (step / 6)
        t += step
        rs.append(r)
    return rs


def test_ac3_classical_limit_slope():
    qs = [1e-2, 1e-3, 1e-4]
    dists = []
    u_f = Vec3(0.2, 0.0, 0.1)
    for q in qs:
        spec = SourceSpec(
            SourceKind.COULOMB_COMOVING, 1.0, u_f=u_f, softening=0.05, background=-1.0
        )
        field = build_potential(spec, q)
        r0, u0 = Vec3(0.6, 0, 0), Vec3(0.15, 0.25, 0)
        model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=q)
        traj = integrate_particle(
            model,
            make_vacuum_state(field, r0, u0),
            IntegrationParams(step=1e-3, n_steps=2000, audit_every=2000, time_axis="lab"),
        )
        lorentz = _integrate_lorentz(field, q, r0, u0, 1e-3, 2000)
        dists.append(max((a.r - b).norm() for a, b in zip(traj.samples, lorentz)))
    slope = float(np.polyfit(np.log(qs), np.log(dists), 1)[0])
    _report(
        "AC3 classical limit",
        abs(slope - 1.0) < 0.2,
        f"log-log slope {slope:.3f} (budget 1.0 +- 0.2), distances "
        + ", ".join(f"{d:.2e}" for d in dists),
    )


def test_ac4_extra_force_oracle():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        1.0,
        u_f=Vec3(0.15, -0.1, 0.2),
        softening=0.08,
        background=-1.0,
    )
    field = build_potential(spec, 0.7)
    rng = np.random.default_rng(61)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        r = Vec3(*rng.uniform(0.3, 1.0, size=3))
        t = float(rng.uniform(0.0, 0.5))
        u = Vec3(*rng.uniform(-0.4, 0.4, size=3))
        fc = Vec3(*interaction_extra_force(0.7, u, field, r, t))
        scale = max(fc.norm(), 1e-12)
        for k in range(3):
            e = [0.0, 0.0, 0.0]
            e[k] = h
            dr = Vec3(*e)
            num = -0.7 * (
                u.dot(field.vecpot(r + dr, t)) - u.dot(field.vecpot(r - dr, t))
            ) / (2 * h)
            worst = max(worst, abs(num - fc[k]) / scale)
    _report(
        "AC4 extra-force gradient oracle",
        worst < 1e-6,
        f"max relative mismatch {worst:.3e} over 100 random states (budget 1e-6)",
    )


def test_ac5_constrained_multiplier():
    lin = LinearField(-2.0, Vec3(-0.5, 0, 0))
    params = IntegrationParams(step=5e-4, n_steps=4000, audit_every=1)
    m_con = ForceModel(ModelKind.CONSTRAINED, lin, charge=1.0, rest_mass=1.0)
    m_cls = ForceModel(ModelKind.CLASSICAL, lin, charge=1.0, rest_mass=1.0)
    r0, u0 = ZERO3, Vec3(0.1, 0.3, 0)
    t_con = integrate_particle(m_con, make_constrained_state(r0, u0, 1.0), params)
    t_cls = integrate_particle(m_cls, make_classical_state(r0, u0, 1.0), params)
    drift = t_con.report["rest_mass"].max_drift
    dist = max((a.r - b.r).norm() for a, b in zip(t_con.samples, t_cls.samples))
    _report(
        "AC5 constrained multiplier",
        drift < 1e-7 and dist < 1e-6,
        f"multiplier combination drift {drift:.3e} (budget 1e-7), distance to "
        f"classical twin {dist:.3e} (budget 1e-6)",
    )


def test_ac6_variational_cross_validation():
    results = {}

    # classical: relativistic gyro orbit over lab time
    field_b = UniformMagneticField(Vec3(0, 0, 1.0), 0.0)
    model = ForceModel(ModelKind.CLASSICAL, field_b, charge=1.0, rest_mass=1.0)
    gamma = 1.0 / math.sqrt(1.0 - 0.36)
    period = 2.0 * math.pi * gamma
    traj = integrate_particle(
        model,
        make_classical_state(ZERO3, Vec3(0.6, 0, 0), 1.0),
        IntegrationParams(step=period / 8192, n_steps=8192, audit_every=8192),
    )
    spec = LagrangianSpec(LagrangianKind.CLASSICAL_POINT, field_b, m0=1.0, charge=1.0)
    res = [
        _worst(euler_lagrange_residual(spec, path_from_trajectory(traj, stride=s)))
        for s in (32, 16)
    ]
    results["classical"] = res

    # constrained: uniform-E run resampled onto a uniform proper-time grid
    lin = LinearField(-2.0, Vec3(-0.5, 0, 0))
    m_con = ForceModel(ModelKind.CONSTRAINED, lin, charge=1.0, rest_mass=1.0)
    t_con = integrate_particle(
        m_con,
        make_constrained_state(ZERO3, Vec3(0.1, 0.3, 0), 1.0),
        IntegrationParams(step=2.5e-4, n_steps=8000, audit_every=8000),
    )
    spec_c = LagrangianSpec(LagrangianKind.CONSTRAINED_POINT, lin, m0=1.0, charge=1.0)
    results["constrained"] = [
        _worst(euler_lagrange_residual(spec_c, uniform_proper_path(t_con, m)))
        for m in (120, 240)
    ]

    # vacuum-free: near-circular orbit in a softened Coulomb potential
    field_f = soft_coulomb_field(softening=0.05)
    m_free = ForceModel(ModelKind.VACUUM_FREE, field_f, charge=1.0)
    t_free = integrate_particle(
        m_free,
        make_vacuum_state(field_f, Vec3(0.5, 0, 0), Vec3(0, 0.37, 0)),
        IntegrationParams(step=2.5e-4, n_steps=8000, audit_every=8000),
    )
    spec_f = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, field_f)
    results["vacuum-free"] = [
        _worst(euler_lagrange_residual(spec_f, path_from_trajectory(t_free, stride=s)))
        for s in (64, 32)
    ]

    # interacting: canonical relative flow of a comoving source
    u_f = Vec3(0.1, 0.0, 0.15)
    field_i = soft_coulomb_field(u_f=u_f, softening=0.05)
    m_int = ForceModel(ModelKind.VACUUM_INTERACTING, field_i, charge=1.0)
    t_int = integrate_particle(
        m_int,
        make_vacuum_state(field_i, Vec3(0.5, 0, 0), Vec3(0.05, 0.37, 0.1)),
        IntegrationParams(step=2.5e-4, n_steps=8000, audit_every=8000,
                          time_axis="proper"),
    )
    spec_i = LagrangianSpec(LagrangianKind.VACUUM_INTERACTING_POINT, field_i)
    results["interacting"] = [
        _worst(euler_lagrange_residual(spec_i, path_from_trajectory(t_int, stride=s)))
        for s in (64, 32)
    ]

    ok = True
    details = []
    for name, (coarse, fine) in results.items():
        slope = math.log(coarse / fine) / math.log(2.0)
        ok = ok and fine < 1e-5 and abs(slope - 2.0) < 0.3
        details.append(f"{name}: residual {fine:.2e}, order {slope:.2f}")
    _report(
        "AC6 variational cross-validation",
        ok,
        "; ".join(details) + " (budgets: 1e-5, order 2.0 +- 0.3)",
    )


def test_ac7_gyro_orbit_oracle():
    u, b0, m0, q = 0.6, 1.0, 1.0, 1.0
    field = UniformMagneticField(Vec3(0, 0, b0))
    model = ForceModel(ModelKind.CLASSICAL, field, charge=q, rest_mass=m0)
    gamma = 1.0 / math.sqrt(1.0 - u * u)
    period = 2.0 * math.pi * m0 * gamma / (q * b0)
    radius = m0 * gamma * u / (q * b0)
    state = make_classical_state(ZERO3, Vec3(u, 0, 0), m0)
    n = 4000
    traj = integrate_particle(
        model, state, IntegrationParams(step=period / n, n_steps=n, audit_every=n)
    )
    center = Vec3(0.0, -radius, 0.0)
    radius_err = max(
        abs((s.r - center).norm() - radius) for s in traj.samples
    ) / radius
    period_err = (traj.samples[-1].r - state.r).norm() / (2.0 * math.pi * radius)

    errors, steps = [], []
    for n in (100, 200, 400, 800):
        t = integrate_particle(
            model, state, IntegrationParams(step=period / n, n_steps=n, audit_every=n)
        )
        errors.append((t.samples[-1].r - state.r).norm())
        steps.append(period / n)
    order = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    _report(
        "AC7 gyro-orbit oracle",
        radius_err < 1e-6 and period_err < 1e-6 and abs(order - 4.0) < 0.3,
        f"radius error {radius_err:.2e}, period closure {period_err:.2e} "
        f"(budgets 1e-6), RK4 order {order:.2f} (4.0 +- 0.3)",
    )


def test_ac8_string_equilibrium_and_conservation():
    grid = StringGrid.uniform(0.0, 1.0, 64)
    field = UniformField(-1.0)
    static = straight_string(grid, ZERO3, Vec3(1, 0, 0))
    dr, dp = string_canonical_rhs(static, field)
    stationary = max(float(np.max(np.abs(dr))), float(np.max(np.abs(dp))))
    t0 = time.perf_counter()
    static_traj = integrate_string(
        static, field, IntegrationParams(step=1e-3, n_steps=100, audit_every=10)
    )
    moved = float(np.max(np.abs(static_traj.state(-1).r - static.r)))

    pluck = plucked_string(grid, ZERO3, Vec3(1, 0, 0), 0.002, 0.12)
    traj = integrate_string(
        pluck, field, IntegrationParams(step=1e-4, n_steps=1000, audit_every=10)
    )
    elapsed = time.perf_counter() - t0
    h_drift = traj.report["hamiltonian"].relative_drift
    growth = traj.report["transversality"].max_drift / (1e-4 * 1000)
    _report(
        "AC8 string equilibrium and conservation",
        stationary < 1e-12 and moved < 1e-12 and h_drift < 1e-5 and growth < 1e-6
        and elapsed < 5.0,
        f"static rhs {stationary:.2e} and drift {moved:.2e} (1e-12), pluck H drift "
        f"{h_drift:.2e} (1e-5), transversality growth {growth:.2e}/tau (1e-6), "
        f"runtime {elapsed:.2f} s (5 s)",
    )


def test_ac9_conformal_solver_convergence():
    t0 = time.perf_counter()
    errs, hs = [], []
    for n in (17, 33, 65):
        case = manufactured_case(n, n)
        solved, _ = solve_conformal(
            case.boundary, case.field, tol=1e-10, forcing=case.forcing
        )
        errs.append(float(np.max(np.abs(solved.xi - case.exact.xi))))
        hs.append(1.0 / (n - 1))
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    lap_errs = []
    for n in (17, 33):
        case = exp_harmonic_case(n, n)
        solved, _ = solve_conformal(case.boundary, case.field, tol=1e-11)
        lap_errs.append(float(np.max(np.abs(solved.xi - case.exact.xi))))
    lap_order = math.log(lap_errs[0] / lap_errs[1]) / math.log(2.0)
    elapsed = time.perf_counter() - t0
    _report(
        "AC9 conformal elliptic solver",
        abs(order - 2.0) < 0.2 and abs(lap_order - 2.0) < 0.3 and elapsed < 10.0,
        f"manufactured order {order:.3f} (2.0 +- 0.2), Laplace-limit order "
        f"{lap_order:.2f}, runtime {elapsed:.2f} s (10 s)",
    )


def test_ac10_hamiltonian_functional_discrepancy():
    rng = np.random.default_rng(67)
    worst_identity = 0.0
    min_gap = float("inf")
    for _ in range(50):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        grid = StringGrid.uniform(0.0, 1.0, 12)
        spans = np.cumsum(rng.uniform(0.5, 1.5, size=12))
        spans = (spans - spans[0]) / (spans[-1] - spans[0])
        r = np.outer(spans, e)
        wbar = -float(rng.uniform(0.8, 2.0))
        min_wrp = abs(wbar) * float(
            np.min(np.linalg.norm(np.diff(r, axis=0), axis=1))
        ) / grid.h
        p_raw = rng.normal(size=(12, 3))
        p_raw *= 0.3 * min_wrp / max(float(np.max(np.abs(p_raw))), 1e-12)
        p = p_raw - np.outer(p_raw @ e, e)
        state = StringState(grid, r, p)
        field = UniformField(wbar)
        cells = cell_integrands(state, field)
        worst_identity = max(
            worst_identity,
            float(np.max(np.abs(cells["alt"] ** 2 - cells["wrprime_sq"] - cells["pbar_sq"]))),
        )
        min_gap = min(
            min_gap, string_hamiltonian_alt(state, field) - string_hamiltonian(state, field)
        )
    _report(
        "AC10 functional-equivalence discrepancy",
        worst_identity < 1e-10 and min_gap > 0.0,
        f"|wbar r' - p|^2 = (wbar r')^2 + p^2 defect {worst_identity:.2e} (1e-10); "
        f"smallest alternative-minus-energy gap {min_gap:.3e} > 0: the claimed "
        "equivalence fails for transversal p != 0",
    )


def test_ac11_determinism_and_check_suite(tmp_path):
    import os

    scenario = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            "vacuum_free_coulomb.yaml")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", scenario, "--out", out_a, "--steps", "2000", "--quiet"]) == 0
    assert cli.main(["run", scenario, "--out", out_b, "--steps", "2000", "--quiet"]) == 0
    import json
    import pathlib

    csv_a = pathlib.Path(out_a, "vacuum-free-coulomb.csv").read_bytes()
    csv_b = pathlib.Path(out_b, "vacuum-free-coulomb.csv").read_bytes()
    man_a = json.loads(pathlib.Path(out_a, "vacuum-free-coulomb.manifest.json").read_text())
    man_b = json.loads(pathlib.Path(out_b, "vacuum-free-coulomb.manifest.json").read_text())
    t0 = time.perf_counter()
    results = cli.check_battery(quiet=True)
    elapsed = time.perf_counter() - t0
    all_pass = all(ok for _, ok, _ in results)
    _report(
        "AC11 determinism and self-check",
        csv_a == csv_b and man_a["config_hash"] == man_b["config_hash"] and all_pass
        and elapsed < 60.0,
        f"rerun CSV identical ({len(csv_a)} bytes), manifest hash stable, "
        f"check suite {sum(ok for _, ok, _ in results)}/{len(results)} in "
        f"{elapsed:.1f} s (60 s)",
    )
