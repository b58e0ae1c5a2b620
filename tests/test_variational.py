import math

import numpy as np
import pytest

from vacuumlab.errors import ActionDomainError, DegenerateLagrangianError, ValidationError
from vacuumlab.geometry import Vec3, ZERO3
from vacuumlab.integrate import IntegrationParams, integrate_particle, integrate_string
from vacuumlab.particle import (
    ForceModel,
    ModelKind,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
)
from vacuumlab.tolerances import FD_RELATIVE_STEP
from vacuumlab.potentials import (
    LinearField,
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
)
from vacuumlab.strings import StringGrid, plucked_string
from vacuumlab.variational import (
    DiscretePath,
    LagrangianKind,
    LagrangianSpec,
    StringWorldPath,
    _sheet_cell_lagrangian,
    discrete_action,
    euler_lagrange_residual,
    legendre_transform_check,
    multiplier_consistency,
    path_from_trajectory,
    uniform_proper_path,
)


def straight_path(m=41, v=ZERO3, r0=ZERO3, horizon=1.0):
    s = np.linspace(0.0, horizon, m)
    r = np.array([list(r0 + v * si) for si in s])
    return DiscretePath(s=s, r=r)


def test_action_static_path_uniform_potential():
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, UniformField(-1.0))
    assert discrete_action(spec, straight_path()) == pytest.approx(1.0, abs=1e-13)


def test_action_uniform_velocity_closed_form():
    v = Vec3(0.4, 0.2, -0.1)
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, UniformField(-1.0))
    expected = math.sqrt(1.0 + v.norm2())
    assert discrete_action(spec, straight_path(v=v)) == pytest.approx(expected, abs=1e-12)


def test_action_quadrature_convergence():
    # curved path in a varying potential: trapezoid error drops 4x per halving
    field = LinearField(-2.0, Vec3(0.3, 0.0, 0.0))
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, field)

    def path(m):
        s = np.linspace(0.0, 1.0, m)
        r = np.stack([np.sin(s), 0.2 * s**2, np.zeros_like(s)], axis=1)
        return DiscretePath(s=s, r=r)

    vals = [discrete_action(spec, path(m)) for m in (41, 81, 161)]
    e1, e2 = abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
    assert e1 / e2 == pytest.approx(4.0, rel=0.35)


def test_el_residual_straight_free_path_is_stationary():
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, UniformField(-1.0))
    res = euler_lagrange_residual(spec, straight_path(v=Vec3(0.3, 0.0, 0.0)))
    assert np.max(np.abs(res)) < 1e-8


def test_el_residual_perturbed_node_sign_restoring():
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, UniformField(-1.0))
    path = straight_path(m=41, v=Vec3(0.3, 0.0, 0.0))
    j = 20
    path.r[j, 1] += 0.01  # push one node off the straight line
    res = euler_lagrange_residual(spec, path)
    norms = np.sqrt(np.einsum("ij,ij->i", res, res))
    assert np.argmax(norms) == j - 1
    # the action gradient points along the displacement (restoring force is minus it)
    assert res[j - 1, 1] > 0


def test_el_residual_vacuum_free_trajectory():
    # near-circular orbit keeps the discretization constant small
    spec_src = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=0.05, background=-1.0)
    field = build_potential(spec_src, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.37, 0))
    traj = integrate_particle(
        model, state, IntegrationParams(step=2.5e-4, n_steps=8000, audit_every=100)
    )
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, field)
    res_coarse = euler_lagrange_residual(spec, path_from_trajectory(traj, stride=64))
    res_fine = euler_lagrange_residual(spec, path_from_trajectory(traj, stride=32))
    worst_c = float(np.max(np.sqrt(np.einsum("ij,ij->i", res_coarse, res_coarse))))
    worst_f = float(np.max(np.sqrt(np.einsum("ij,ij->i", res_fine, res_fine))))
    assert worst_f < 1e-5
    assert worst_c / worst_f == pytest.approx(4.0, rel=0.35)


def test_action_domain_error():
    spec = LagrangianSpec(
        LagrangianKind.CLASSICAL_POINT, UniformField(-1.0), m0=1.0, charge=1.0
    )
    path = straight_path(v=Vec3(1.2, 0, 0))  # superluminal classical path
    with pytest.raises(ActionDomainError):
        discrete_action(spec, path)
    with pytest.raises(ActionDomainError):
        euler_lagrange_residual(spec, path)
    with pytest.raises(ActionDomainError):
        _loop_el_residual(spec, path)

    # constrained path whose cell 19 is spacelike: |dr/ds| = 2.5 > dt/ds = 1
    con = LagrangianSpec(LagrangianKind.CONSTRAINED_POINT, UniformField(-1.0), m0=1.0)
    s = np.linspace(0.0, 1.0, 41)
    r = np.stack([0.5 * s, np.zeros_like(s), np.zeros_like(s)], axis=1)
    r[20, 0] += 0.05
    path = DiscretePath(s=s, r=r, t=s.copy(), lam=np.ones_like(s))
    with pytest.raises(ActionDomainError):
        discrete_action(con, path)
    with pytest.raises(ActionDomainError):
        euler_lagrange_residual(con, path)
    with pytest.raises(ActionDomainError):
        _loop_el_residual(con, path)


def test_legendre_vacuum_free_matches_hamiltonian():
    field = LinearField(-2.0, Vec3(0.2, -0.1, 0.0))
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, field)
    rng = np.random.default_rng(41)
    s = np.linspace(0.0, 1.0, 121)
    r = np.stack(
        [0.4 * np.sin(s + 0.3), 0.3 * np.cos(2 * s), 0.1 * s**2], axis=1
    )
    report = legendre_transform_check(spec, DiscretePath(s=s, r=r))
    assert report.passed(1e-8)


def test_legendre_interacting_reduces_and_matches():
    spec_src = SourceSpec(
        SourceKind.COULOMB_COMOVING, 1.0, u_f=Vec3(0.15, 0.0, 0.1),
        softening=0.1, background=-1.5,
    )
    field = build_potential(spec_src, 1.0)
    s = np.linspace(0.0, 0.6, 121)
    r = np.stack([0.5 + 0.2 * s, 0.1 * np.sin(s), 0.05 * s], axis=1)
    t = s * 1.2  # frozen lab-clock channel
    spec = LagrangianSpec(
        LagrangianKind.VACUUM_INTERACTING_POINT, field, u_f=Vec3(0.15, 0.0, 0.1)
    )
    report = legendre_transform_check(spec, DiscretePath(s=s, r=r, t=t))
    assert report.passed(1e-8)
    # u_f = 0 reduces to the free kind
    spec0 = LagrangianSpec(LagrangianKind.VACUUM_INTERACTING_POINT, field, u_f=ZERO3)
    free = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, field)
    path = DiscretePath(s=s, r=r, t=t)
    assert discrete_action(spec0, path) == pytest.approx(
        discrete_action(free, path), rel=1e-12
    )


def test_legendre_classical_and_rest_frame():
    field = UniformMagneticField(Vec3(0, 0, 0.8), -1.2)
    s = np.linspace(0.0, 1.0, 121)
    r = np.stack([0.3 * np.sin(s), 0.3 * np.cos(s), 0.05 * s], axis=1)
    cls = LagrangianSpec(LagrangianKind.CLASSICAL_POINT, field, m0=1.0, charge=0.7)
    assert legendre_transform_check(cls, DiscretePath(s=s, r=r)).passed(1e-8)
    rest = LagrangianSpec(LagrangianKind.REST_FRAME_POINT, field, charge=0.7)
    assert legendre_transform_check(rest, DiscretePath(s=s, r=r)).passed(1e-8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("channel", ["s", "r", "t", "lam"])
def test_discrete_path_rejects_non_finite_channels(channel, bad):
    s = np.linspace(0.0, 1.0, 9)
    data = {"s": s, "r": np.zeros((9, 3)), "t": s.copy(), "lam": np.ones(9)}
    data[channel] = data[channel].copy()
    data[channel].flat[4] = bad
    with pytest.raises(ValidationError, match=f"channel {channel} has non-finite"):
        DiscretePath(**data)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("channel", ["tau", "sigma", "r"])
def test_world_path_rejects_non_finite_channels(channel, bad):
    data = {"tau": np.linspace(0.0, 1.0, 6), "sigma": np.linspace(0.0, 1.0, 7)}
    data["r"] = np.zeros((6, 7, 3))
    data[channel] = data[channel].copy()
    data[channel].flat[3] = bad
    with pytest.raises(ValidationError, match=f"channel {channel} has non-finite"):
        StringWorldPath(**data)


@pytest.mark.parametrize(
    "grid", [[0.0, 0.5, 0.2, 0.7, 0.9, 1.0], [0.0, 0.1, 0.3, 0.4, 0.6, 1.0], np.linspace(1.0, 0.0, 6)],
    ids=["non-increasing", "non-uniform", "decreasing"],
)
@pytest.mark.parametrize("channel", ["tau", "sigma"])
def test_world_path_rejects_non_uniform_grids(channel, grid):
    data = {"tau": np.linspace(0.0, 1.0, 6), "sigma": np.linspace(0.0, 1.0, 6)}
    data[channel] = np.array(grid)
    data["r"] = np.zeros((6, 6, 3))
    with pytest.raises(ValidationError, match=f"{channel} grid must be uniform and increasing"):
        StringWorldPath(**data)


def test_legendre_degenerate_kinds_raise():
    field = UniformField(-1.0)
    path = straight_path()
    with pytest.raises(DegenerateLagrangianError):
        legendre_transform_check(
            LagrangianSpec(LagrangianKind.STRING_DENSITY, field), path
        )
    with pytest.raises(DegenerateLagrangianError):
        legendre_transform_check(
            LagrangianSpec(LagrangianKind.CONSTRAINED_POINT, field, m0=1.0), path
        )


def test_legendre_interacting_refuses_fields_without_qa_equal_wbar_uf():
    path = straight_path(v=Vec3(0.2, 0.1, 0.0))
    path.t = path.s * 1.1
    spec = LagrangianSpec(
        LagrangianKind.VACUUM_INTERACTING_POINT, UniformMagneticField(Vec3(0, 0, 1), -1.0)
    )
    with pytest.raises(ValidationError, match="'uniform-b'"):
        legendre_transform_check(spec, path)
    # A = 0 and u_f = 0: qA = wbar u_f holds with both sides zero
    for field in (UniformField(-1.0), LinearField(-2.0, Vec3(-0.5, 0.0, 0.0))):
        spec = LagrangianSpec(LagrangianKind.VACUUM_INTERACTING_POINT, field)
        assert legendre_transform_check(spec, path).passed(1e-8)


def test_multiplier_consistency_exact_free_path():
    m = 41
    tau = np.linspace(0.0, 1.0, m)
    u = Vec3(0.3, 0.1, 0.0)
    gamma = 1.0 / math.sqrt(1.0 - u.norm2())
    r = np.array([list(u * (gamma * ti)) for ti in tau])  # rdot = u measured in tau
    t = gamma * tau
    path = DiscretePath(s=tau, r=r, t=t, lam=np.full(m, 1.0))
    report = multiplier_consistency(path, 1.0)
    assert report.max_deviation < 1e-10
    assert report.constraint_defect < 1e-10


def test_multiplier_consistency_integrated_uniform_e():
    lin = LinearField(-2.0, Vec3(-0.5, 0, 0))
    model = ForceModel(ModelKind.CONSTRAINED, lin, charge=1.0, rest_mass=1.0)
    state = make_constrained_state(ZERO3, Vec3(0.1, 0.3, 0), 1.0)
    traj = integrate_particle(
        model, state, IntegrationParams(step=5e-4, n_steps=4000, audit_every=100)
    )
    path = uniform_proper_path(traj, 400)
    report = multiplier_consistency(path, 1.0)
    assert report.max_deviation < 1e-7
    # the unit-norm four-velocity constraint holds along proper-time paths
    assert report.constraint_defect < 1e-8
    # an adaptive run can end in fewer rows than the four-point stencil needs
    short = integrate_particle(
        model, state, IntegrationParams(step=5e-4, n_steps=5, method="rk45")
    )
    assert len(short.x) < 4
    with pytest.raises(ValidationError, match="at least 4 trajectory rows"):
        uniform_proper_path(short, 5)


def test_multiplier_consistency_flags_violation():
    m = 41
    tau = np.linspace(0.0, 1.0, m)
    r = np.stack([0.5 * tau**2, np.zeros(m), np.zeros(m)], axis=1)
    t = tau.copy()  # violates <xdot,xdot> = 1 since tdot = 1 but rdot != 0
    path = DiscretePath(s=tau, r=r, t=t, lam=np.full(m, 1.0))
    report = multiplier_consistency(path, 1.0)
    assert not report.is_constant(1e-7)
    assert report.constraint_defect > 1e-3


def test_string_action_and_sigma_relabeling_invariance():
    field = UniformField(-1.0)
    spec = LagrangianSpec(LagrangianKind.STRING_DENSITY, field)
    nt, ns = 9, 33
    tau = np.linspace(0.0, 0.05, nt)
    sigma = np.linspace(0.0, 1.0, ns)

    def sheet(warp):
        r = np.zeros((nt, ns, 3))
        for k, tk in enumerate(tau):
            ss = sigma + warp * np.sin(math.pi * sigma) * (sigma[-1] - sigma)
            r[k, :, 0] = ss
            r[k, :, 1] = 0.02 * np.sin(math.pi * sigma) * math.cos(tk)
        return StringWorldPath(tau, sigma, r)

    a_uniform = discrete_action(spec, sheet(0.0))
    a_warped = discrete_action(spec, sheet(0.15))
    # same geometric surface, relabeled sigma: equal within quadrature error
    assert a_warped == pytest.approx(a_uniform, rel=5e-4)
    finer = discrete_action(spec, sheet(0.075))
    assert abs(finer - a_uniform) <= abs(a_warped - a_uniform) + 1e-12


def test_string_el_residual_static_straight_sheet():
    field = UniformField(-1.0)
    spec = LagrangianSpec(LagrangianKind.STRING_DENSITY, field)
    nt, ns = 7, 17
    tau = np.linspace(0.0, 0.05, nt)
    sigma = np.linspace(0.0, 1.0, ns)
    r = np.zeros((nt, ns, 3))
    r[:, :, 0] = sigma[None, :]
    res = euler_lagrange_residual(spec, StringWorldPath(tau, sigma, r))
    assert np.max(np.abs(res)) < 1e-8


def test_action_stationarity_under_random_perturbations():
    # first-order change vanishes: action differences scale quadratically in
    # the perturbation amplitude for 100 random smooth endpoint-fixed bumps
    spec_src = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=0.05, background=-1.0)
    field = build_potential(spec_src, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.37, 0))
    traj = integrate_particle(
        model, state, IntegrationParams(step=5e-4, n_steps=2000, audit_every=2000)
    )
    path = path_from_trajectory(traj, stride=10)
    spec = LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, field)
    s0 = discrete_action(spec, path)
    rng = np.random.default_rng(83)
    m = path.m
    envelope = np.sin(math.pi * np.linspace(0.0, 1.0, m))
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        phase = rng.uniform(0, math.pi)
        shape = envelope * np.sin(math.pi * np.linspace(0, 1, m) * rng.integers(1, 4) + phase)
        bump = np.outer(shape, direction)
        deltas = []
        for amp in (2e-2, 1e-2):
            pert = DiscretePath(s=path.s, r=path.r + amp * bump, t=path.t, lam=path.lam)
            deltas.append(abs(discrete_action(spec, pert) - s0))
        # quadratic scaling: halving the amplitude quarters the action change
        assert deltas[0] / deltas[1] == pytest.approx(4.0, rel=0.25)
        assert deltas[1] < 1e-2 * 1e-2 * 50.0


# --- reference loop oracle -------------------------------------------------------
#
# The node-by-node oracle with its own scalar Lagrangian densities.  The
# library evaluates the same discrete Lagrangians colour by colour on
# arrays in the same operation order, so the two must agree bit for bit.


def _ref_density(spec, r, v, t, tdot, lam):
    f = spec.field
    kind = spec.kind
    if kind is LagrangianKind.CLASSICAL_POINT:
        u2 = v.norm2()
        if u2 >= 1.0:
            raise ActionDomainError(f"|u|^2 = {u2:.6g} >= 1 on a classical path")
        qa = spec.charge * f.vecpot(r, t)
        return -spec.m0 * math.sqrt(1.0 - u2) - f.wbar(r, t) + qa.dot(v)
    if kind is LagrangianKind.CONSTRAINED_POINT:
        mink = tdot * tdot - v.norm2()
        if mink <= 0.0:
            raise ActionDomainError("constrained path has <xdot,xdot> <= 0")
        qa = spec.charge * f.vecpot(r, t)
        return -spec.m0 - (f.wbar(r, t) * tdot - qa.dot(v)) - lam * (math.sqrt(mink) - 1.0)
    if kind is LagrangianKind.REST_FRAME_POINT:
        qa = spec.charge * f.vecpot(r, t)
        return -f.wbar(r, t) * math.sqrt(1.0 + v.norm2()) + qa.dot(v)
    if kind is LagrangianKind.VACUUM_FREE_POINT:
        return -f.wbar(r, t) * math.sqrt(1.0 + v.norm2())
    rel = v - spec.u_f * tdot
    return -f.wbar(r, t) * math.sqrt(1.0 + rel.norm2())


def _loop_cell_action(spec, r, t, lam, ds, cells):
    total = 0.0
    for c in cells:
        v = Vec3(*((r[c + 1] - r[c]) / ds))
        tdot = (t[c + 1] - t[c]) / ds
        total += 0.5 * ds * (
            _ref_density(spec, Vec3(*r[c]), v, float(t[c]), tdot, float(lam[c]))
            + _ref_density(spec, Vec3(*r[c + 1]), v, float(t[c + 1]), tdot, float(lam[c + 1]))
        )
    return total


def _loop_channels(spec, path):
    t = path.s if spec.kind is LagrangianKind.CLASSICAL_POINT else path.t
    lam = path.lam if path.lam is not None else np.zeros(path.m)
    return t, lam


def _loop_el_residual(spec, path, rel_step=FD_RELATIVE_STEP):
    m, ds = path.m, path.ds
    t, lam = _loop_channels(spec, path)
    hp = rel_step * max(1.0, float(np.max(np.abs(path.r))))
    r_work = path.r.copy()
    residuals = np.zeros((m - 2, 3))
    for j in range(1, m - 1):
        for k in range(3):
            orig = r_work[j, k]
            r_work[j, k] = orig + hp
            s_plus = _loop_cell_action(spec, r_work, t, lam, ds, (j - 1, j))
            r_work[j, k] = orig - hp
            s_minus = _loop_cell_action(spec, r_work, t, lam, ds, (j - 1, j))
            r_work[j, k] = orig
            residuals[j - 1, k] = (s_plus - s_minus) / (2.0 * hp) / ds
    return residuals


def _loop_sheet_el_residual(spec, path, rel_step=FD_RELATIVE_STEP):
    nt, ns = path.tau.size, path.sigma.size
    d_tau, d_sigma = path.d_tau, path.d_sigma
    hp = rel_step * max(1.0, float(np.max(np.abs(path.r))))
    work = path.r.copy()

    def cells_sum(k, j):
        block = work[k - 1 : k + 2, j - 1 : j + 2]
        lag = _sheet_cell_lagrangian(spec, block, d_tau, d_sigma)
        return float(np.sum(lag)) * d_tau * d_sigma

    out = np.zeros((nt - 2, ns - 2, 3))
    for k in range(1, nt - 1):
        for j in range(1, ns - 1):
            for c in range(3):
                orig = work[k, j, c]
                work[k, j, c] = orig + hp
                sp = cells_sum(k, j)
                work[k, j, c] = orig - hp
                sm = cells_sum(k, j)
                work[k, j, c] = orig
                out[k - 1, j - 1, c] = (sp - sm) / (2.0 * hp) / (d_tau * d_sigma)
    return out


def _loop_resample(tau_s, values, grid):
    out = np.empty((grid.size,) + values.shape[1:])
    for i, target in enumerate(grid):
        idx = int(np.searchsorted(tau_s, target))
        i0 = min(max(idx - 2, 0), len(tau_s) - 4)
        xs = tau_s[i0 : i0 + 4]
        acc = np.zeros(values.shape[1:]) if values.ndim > 1 else 0.0
        for a in range(4):
            wgt = 1.0
            for b in range(4):
                if a != b:
                    wgt *= (target - xs[b]) / (xs[a] - xs[b])
            acc = acc + wgt * values[i0 + a]
        out[i] = acc
    return out


def _soft_coulomb(u_f=ZERO3):
    kind = SourceKind.COULOMB_COMOVING if u_f.norm2() > 0 else SourceKind.COULOMB_STATIC
    return build_potential(SourceSpec(kind, 1.0, u_f=u_f, softening=0.05, background=-1.0), 1.0)


def _gyro_case():
    field = UniformMagneticField(Vec3(0, 0, 1.0), 0.0)
    model = ForceModel(ModelKind.CLASSICAL, field, charge=1.0, rest_mass=1.0)
    period = 2.0 * math.pi / math.sqrt(1.0 - 0.36)
    traj = integrate_particle(
        model,
        make_classical_state(ZERO3, Vec3(0.6, 0, 0), 1.0),
        IntegrationParams(step=period / 1024, n_steps=1024, audit_every=1024),
    )
    spec = LagrangianSpec(LagrangianKind.CLASSICAL_POINT, field, m0=1.0, charge=1.0)
    return spec, path_from_trajectory(traj, stride=4)


def _constrained_case():
    lin = LinearField(-2.0, Vec3(-0.5, 0, 0))
    model = ForceModel(ModelKind.CONSTRAINED, lin, charge=1.0, rest_mass=1.0)
    traj = integrate_particle(
        model,
        make_constrained_state(ZERO3, Vec3(0.1, 0.3, 0), 1.0),
        IntegrationParams(step=5e-4, n_steps=2000, audit_every=2000),
    )
    path = uniform_proper_path(traj, 160)
    # the resample itself matches the per-target loop
    samples = traj.samples
    tau_s = np.array([smp.tau for smp in samples])
    r_s = np.array([list(smp.r) for smp in samples])
    t_s = np.array([smp.t for smp in samples])
    lam_s = np.array(
        [smp.extra["lambda_tdot"] * math.sqrt(1.0 - smp.u.norm2()) for smp in samples]
    )
    assert np.array_equal(path.r, _loop_resample(tau_s, r_s, path.s))
    assert np.array_equal(path.t, _loop_resample(tau_s, t_s, path.s))
    assert np.array_equal(path.lam, _loop_resample(tau_s, lam_s, path.s))
    return LagrangianSpec(LagrangianKind.CONSTRAINED_POINT, lin, m0=1.0, charge=1.0), path


def _orbit(field, model_kind, u0, time_axis="lab"):
    model = ForceModel(model_kind, field, charge=1.0)
    traj = integrate_particle(
        model,
        make_vacuum_state(field, Vec3(0.5, 0, 0), u0),
        IntegrationParams(step=2.5e-4, n_steps=2000, audit_every=2000, time_axis=time_axis),
    )
    return path_from_trajectory(traj, stride=16)


def _rest_frame_case():
    u_f = Vec3(0.1, 0.0, 0.15)
    field = _soft_coulomb(u_f)
    path = _orbit(field, ModelKind.VACUUM_INTERACTING, Vec3(0.05, 0.37, 0.1), "proper")
    return LagrangianSpec(LagrangianKind.REST_FRAME_POINT, field, charge=0.7), path


def _vacuum_free_case():
    field = _soft_coulomb()
    path = _orbit(field, ModelKind.VACUUM_FREE, Vec3(0, 0.37, 0))
    return LagrangianSpec(LagrangianKind.VACUUM_FREE_POINT, field), path


def _interacting_case():
    u_f = Vec3(0.1, 0.0, 0.15)
    field = _soft_coulomb(u_f)
    path = _orbit(field, ModelKind.VACUUM_INTERACTING, Vec3(0.05, 0.37, 0.1), "proper")
    spec = LagrangianSpec(LagrangianKind.VACUUM_INTERACTING_POINT, field, u_f=u_f)
    return spec, path


def _ref_clock_rate(spec, v):
    if spec.kind is not LagrangianKind.VACUUM_INTERACTING_POINT:
        return 1.0
    uf2 = spec.u_f.norm2()
    if uf2 == 0.0:
        return math.sqrt(1.0 + v.norm2())
    b = v.dot(spec.u_f)
    disc = b * b + (1.0 - uf2) * (1.0 + v.norm2())
    return (-b + math.sqrt(disc)) / (1.0 - uf2)


def _ref_vacuum_free_hamiltonian(wbar, p):
    return -math.sqrt(wbar * wbar - p.norm2())


def _loop_legendre_max_diff(spec, path):
    """Node by node: max |<p, v> - L - H(r, p)| with p = dL/dv by central differences."""
    f, ds = spec.field, path.ds
    t_nodes = path.s if spec.kind is LagrangianKind.CLASSICAL_POINT else path.t
    worst = 0.0
    for i in range(1, path.m - 1):
        r, t = Vec3(*path.r[i]), float(t_nodes[i])
        v = Vec3(*((path.r[i + 1] - path.r[i - 1]) / (2.0 * ds)))
        tdot = _ref_clock_rate(spec, v)
        hv = FD_RELATIVE_STEP * (1.0 + math.sqrt(v.norm2()))
        p = []
        for k in range(3):
            dv = Vec3(*[hv if j == k else 0.0 for j in range(3)])
            lp = _ref_density(spec, r, v + dv, t, tdot, 0.0)
            lm = _ref_density(spec, r, v - dv, t, tdot, 0.0)
            p.append((lp - lm) / (2.0 * hv))
        p = Vec3(*p)
        h_num = p.dot(v) - _ref_density(spec, r, v, t, tdot, 0.0)
        wbar = f.wbar(r, t)
        if spec.kind is LagrangianKind.VACUUM_FREE_POINT:
            h_ref = _ref_vacuum_free_hamiltonian(wbar, p)
        elif spec.kind is LagrangianKind.REST_FRAME_POINT:
            h_ref = _ref_vacuum_free_hamiltonian(wbar, p - spec.charge * f.vecpot(r, t))
        elif spec.kind is LagrangianKind.VACUUM_INTERACTING_POINT:
            qa = spec.u_f * wbar
            big_p = p - qa + qa
            d = math.sqrt(wbar * wbar - big_p.norm2())
            h_ref = -d - big_p.dot(qa) / d
        else:
            kin = p - spec.charge * f.vecpot(r, t)
            h_ref = math.sqrt(spec.m0**2 + kin.norm2()) + wbar
        worst = max(worst, abs(h_num - h_ref))
    return worst


@pytest.mark.parametrize(
    "case",
    [_gyro_case, _rest_frame_case, _vacuum_free_case, _interacting_case],
    ids=["classical-gyro", "rest-frame-comoving", "vacuum-free", "interacting"],
)
def test_array_legendre_check_matches_node_loop(case):
    spec, path = case()
    report = legendre_transform_check(spec, path)
    assert report.nodes == path.m - 2
    assert report.max_abs_diff == _loop_legendre_max_diff(spec, path)
    assert report.passed()


@pytest.mark.parametrize(
    "case",
    [_gyro_case, _constrained_case, _rest_frame_case, _vacuum_free_case, _interacting_case],
    ids=[
        "classical-gyro", "constrained-resampled", "rest-frame-comoving", "vacuum-free",
        "interacting",
    ],
)
def test_colour_batched_oracle_matches_node_loop(case):
    spec, path = case()
    res = euler_lagrange_residual(spec, path)
    assert res.shape == (path.m - 2, 3)
    assert np.array_equal(res, _loop_el_residual(spec, path))
    t, lam = _loop_channels(spec, path)
    loop_action = _loop_cell_action(spec, path.r, t, lam, path.ds, range(path.m - 1))
    assert discrete_action(spec, path) == loop_action


def test_colour_batched_sheet_oracle_matches_node_loop():
    n = 33
    grid = StringGrid.uniform(0.0, 1.0, n)
    field = UniformField(-1.0)
    state = plucked_string(grid, ZERO3, Vec3(1, 0, 0), 0.01, 0.18)
    traj = integrate_string(
        state, field, IntegrationParams(step=2.5e-4, n_steps=64, audit_every=64)
    )
    samples = traj.samples[::2]
    sheet = StringWorldPath(
        tau=np.array([s.tau for s in samples]),
        sigma=grid.sigma,
        r=np.array([s.r for s in samples]),
    )
    for fld in (field, LinearField(-2.0, Vec3(0.3, -0.2, 0.1))):
        spec = LagrangianSpec(LagrangianKind.STRING_DENSITY, fld)
        assert np.array_equal(
            euler_lagrange_residual(spec, sheet), _loop_sheet_el_residual(spec, sheet)
        )


# --- block bounds: each colour's block at every parity of the grid sides ------------

BOUNDS_FIELDS = [UniformField(-1.0), LinearField(-2.0, Vec3(0.3, -0.2, 0.1))]
POINT_KINDS = [kind for kind in LagrangianKind if kind is not LagrangianKind.STRING_DENSITY]


@pytest.mark.parametrize("field", BOUNDS_FIELDS, ids=["uniform", "linear"])
@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_colour_blocks_of_short_paths_match_node_loop(field, m):
    s = np.linspace(0.0, 0.4, m)
    r = np.stack([0.5 + 0.3 * s, 0.2 * s + 0.4 * s**2, 0.1 * np.sin(3.0 * s)], axis=1)
    path = DiscretePath(s=s, r=r, t=1.2 * s + 0.05 * s**2, lam=1.0 + 0.1 * s)
    for kind in POINT_KINDS:
        spec = LagrangianSpec(kind, field, m0=1.0, charge=0.7, u_f=Vec3(0.1, 0.0, 0.15))
        assert np.array_equal(euler_lagrange_residual(spec, path), _loop_el_residual(spec, path))
        t, lam = _loop_channels(spec, path)
        loop_action = _loop_cell_action(spec, r, t, lam, path.ds, range(m - 1))
        assert discrete_action(spec, path) == loop_action


@pytest.mark.parametrize("field", BOUNDS_FIELDS, ids=["uniform", "linear"])
@pytest.mark.parametrize("nt, ns", [(5, 5), (5, 6), (6, 5), (6, 6)])
def test_colour_blocks_of_small_sheets_match_node_loop(field, nt, ns):
    tau = np.linspace(0.0, 0.05, nt)
    sigma = np.linspace(0.0, 1.0, ns)
    r = np.zeros((nt, ns, 3))
    r[:, :, 0] = 0.5 + sigma[None, :]
    r[:, :, 1] = 0.05 * np.outer(np.cos(3.0 * tau), np.sin(math.pi * sigma))
    r[:, :, 2] = 0.02 * np.outer(tau, sigma)
    sheet = StringWorldPath(tau, sigma, r)
    spec = LagrangianSpec(LagrangianKind.STRING_DENSITY, field)
    res = euler_lagrange_residual(spec, sheet)
    assert res.shape == (nt - 2, ns - 2, 3)
    assert np.array_equal(res, _loop_sheet_el_residual(spec, sheet))
