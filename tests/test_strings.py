import math

import numpy as np
import pytest

from vacuumlab.errors import EnergyDomainError, SingularPointError, ValidationError
from vacuumlab.geometry import Vec3, ZERO3
from vacuumlab.integrate import IntegrationParams, integrate_string
from vacuumlab.potentials import (
    CallableField,
    SourceKind,
    SourceSpec,
    UniformField,
    build_potential,
)
from vacuumlab.strings import (
    StringGrid,
    StringState,
    cell_integrands,
    node_energy_density,
    plucked_string,
    sigma_derivative,
    straight_string,
    string_canonical_rhs,
    string_hamiltonian,
    string_hamiltonian_alt,
    transversality_defect,
)
from test_solver_references import STRING_FIELDS, identical, reference_charged_rhs


def unit_string(n=16, wbar=-1.0):
    grid = StringGrid.uniform(0.0, 1.0, n)
    return straight_string(grid, ZERO3, Vec3(1, 0, 0)), UniformField(wbar)


def smooth_state(n=24, seed=43, amp=0.05):
    rng = np.random.default_rng(seed)
    grid = StringGrid.uniform(0.0, 1.0, n)
    state = straight_string(grid, ZERO3, Vec3(1, 0, 0))
    s = grid.sigma
    state.r[:, 1] += amp * np.sin(math.pi * s)
    state.r[:, 2] += 0.5 * amp * np.sin(2 * math.pi * s)
    state.p = amp * rng.normal(size=(n, 3))
    state.p[0] = state.p[-1] = 0.0
    return state, grid


def test_grid_validation():
    with pytest.raises(ValidationError):
        StringGrid(np.linspace(0, 1, 4))
    with pytest.raises(ValidationError):
        StringGrid(np.array([0.0, 0.1, 0.15, 0.3, 0.4, 0.5, 0.6, 0.7]))


def test_hamiltonian_static_unit_string():
    state, field = unit_string()
    assert string_hamiltonian(state, field) == pytest.approx(1.0, abs=1e-14)
    state2, field2 = unit_string(wbar=-2.0)
    assert string_hamiltonian(state2, field2) == pytest.approx(2.0, abs=1e-14)


def test_hamiltonian_quadrature_convergence():
    # curved static string: midpoint quadrature converges O(h^2) to arc length
    def value(n):
        grid = StringGrid.uniform(0.0, 1.0, n)
        state = straight_string(grid, ZERO3, Vec3(1, 0, 0))
        state.r[:, 1] = 0.1 * np.sin(math.pi * grid.sigma)
        return string_hamiltonian(state, UniformField(-1.0))

    sig = np.linspace(0.0, 1.0, 20001)
    exact = np.trapezoid(np.sqrt(1.0 + (0.1 * math.pi * np.cos(math.pi * sig)) ** 2), sig)
    errs = [abs(value(n) - exact) for n in (17, 33, 65)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def string_momentum(r, rdot, wbar_values, grid):
    """Momentum density p = -wbar r'^2 Nhat rdot / [r'^2(rdot^2+1) - <r',rdot>^2]^(1/2).

    Pointwise evaluation at the nodes; the output is transversal,
    <p, r'> = 0, up to rounding.
    """
    r = np.asarray(r, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    rp = sigma_derivative(grid, r)
    rp2 = np.einsum("ij,ij->i", rp, rp)
    cross = np.einsum("ij,ij->i", rp, rdot)
    rd2 = np.einsum("ij,ij->i", rdot, rdot)
    q2 = rp2 * (rd2 + 1.0) - cross**2
    if np.min(q2) <= 0:
        raise EnergyDomainError("momentum kernel square root went nonpositive")
    w = np.asarray(wbar_values, dtype=float)
    num = rp2[:, None] * rdot - rp * cross[:, None]
    return -w[:, None] * num / np.sqrt(q2)[:, None]


def test_string_momentum_examples():
    grid = StringGrid.uniform(0.0, 1.0, 16)
    state = straight_string(grid, ZERO3, Vec3(1, 0, 0))
    w = np.full(16, -1.0)
    p = string_momentum(state.r, np.zeros((16, 3)), w, grid)
    assert np.max(np.abs(p)) < 1e-15
    # velocity parallel to r' gives zero momentum
    rdot = np.tile([0.4, 0.0, 0.0], (16, 1))
    p_par = string_momentum(state.r, rdot, w, grid)
    assert np.max(np.abs(p_par)) < 1e-14
    # transverse velocity: p = (0, v/sqrt(1+v^2), 0) for unit r' and wbar = -1
    v = 0.3
    rdot_t = np.tile([0.0, v, 0.0], (16, 1))
    p_t = string_momentum(state.r, rdot_t, w, grid)
    expected = v / math.sqrt(1.0 + v * v)
    assert np.allclose(p_t[:, 1], expected, atol=1e-14)
    assert np.max(np.abs(p_t[:, [0, 2]])) < 1e-14


def test_string_momentum_zero_direction():
    # |r'| = 0 at every node zeroes the square root's argument
    grid = StringGrid.uniform(0.0, 1.0, 8)
    r = np.zeros((8, 3))
    with pytest.raises(EnergyDomainError):
        string_momentum(r, np.zeros((8, 3)), np.full(8, -1.0), grid)


def test_transversality_examples():
    state, field = unit_string()
    rng = np.random.default_rng(3)
    state.p = rng.normal(size=(16, 3))
    state.p[:, 0] = 0.0  # transverse to r' = +x
    assert transversality_defect(state) < 1e-15
    state.p = sigma_derivative(state.grid, state.r)  # p = r'
    assert transversality_defect(state) == pytest.approx(1.0, abs=1e-12)
    # output of string_momentum is transversal
    state2, grid = smooth_state()
    rdot = 0.1 * np.random.default_rng(5).normal(size=state2.r.shape)
    w = np.full(grid.n, -1.5)
    p = string_momentum(state2.r, rdot, w, grid)
    probe = StringState(grid, state2.r, p)
    assert transversality_defect(probe) < 1e-12


def test_canonical_rhs_static_straight_is_equilibrium():
    state, field = unit_string()
    dr, dp = string_canonical_rhs(state, field)
    assert np.max(np.abs(dr)) < 1e-15
    assert np.max(np.abs(dp)) < 1e-14
    # even with uneven node spacing along the same line
    state.r[5] = state.r[5] + np.array([0.01, 0.0, 0.0])
    dr2, dp2 = string_canonical_rhs(state, field)
    assert np.max(np.abs(dp2)) < 1e-14


def test_canonical_rhs_matches_fd_gradient_50_states():
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 0.5, softening=0.4, background=-2.0)
    field = build_potential(spec, 1.0)
    h = 1e-6
    rng = np.random.default_rng(47)
    worst = 0.0
    for trial in range(50):
        state, grid = smooth_state(seed=100 + trial)
        dr, dp = string_canonical_rhs(state, field)
        dr_scale = max(float(np.max(np.abs(dr))), 1e-12)
        dp_scale = max(float(np.max(np.abs(dp))), 1e-12)
        j = int(rng.integers(1, grid.n - 1))
        for k in range(3):
            pert = state.copy()
            pert.p[j, k] += h
            hp = string_hamiltonian(pert, field)
            pert.p[j, k] -= 2 * h
            hm = string_hamiltonian(pert, field)
            num = -(hp - hm) / (2 * h) / grid.h
            worst = max(worst, abs(num - dr[j, k]) / dr_scale)
            pert = state.copy()
            pert.r[j, k] += h
            hp = string_hamiltonian(pert, field)
            pert.r[j, k] -= 2 * h
            hm = string_hamiltonian(pert, field)
            num = (hp - hm) / (2 * h) / grid.h
            worst = max(worst, abs(num - dp[j, k]) / dp_scale)
    assert worst < 1e-5


def test_energy_domain_guard_reports_node():
    state, field = unit_string()
    state.p[7] = np.array([0.0, 40.0, 0.0])
    with pytest.raises(EnergyDomainError) as err:
        string_hamiltonian(state, field)
    assert err.value.where in (6, 7)


def test_alt_hamiltonian_reduces_at_zero_momentum():
    state, field = unit_string()
    assert string_hamiltonian_alt(state, field) == pytest.approx(
        string_hamiltonian(state, field), abs=1e-14
    )


def test_alt_hamiltonian_integrand_example():
    # wbar = -1, r' = (1,0,0), p = (0,0.5,0): energy integrand sqrt(0.75),
    # alternative integrand sqrt(1.25); the gap is the claimed-equivalence failure
    state, field = unit_string()
    state.p = np.tile([0.0, 0.5, 0.0], (16, 1))
    cells = cell_integrands(state, field)
    assert np.allclose(cells["energy"], math.sqrt(0.75), atol=1e-12)
    assert np.allclose(cells["alt"], math.sqrt(1.25), atol=1e-12)
    assert string_hamiltonian_alt(state, field) > string_hamiltonian(state, field)


def test_alt_gap_identity_transversal_states():
    rng = np.random.default_rng(53)
    for _ in range(50):
        # straight string along a random direction, momentum exactly transverse
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        grid = StringGrid.uniform(0.0, 1.0, 12)
        spans = np.cumsum(rng.uniform(0.5, 1.5, size=12))
        spans = (spans - spans[0]) / (spans[-1] - spans[0])
        r = np.outer(spans, e)
        wbar = -float(rng.uniform(0.8, 2.0))
        # momentum exactly transverse and safely inside the energy domain
        min_wrp = abs(wbar) * float(np.min(np.linalg.norm(np.diff(r, axis=0), axis=1))) / grid.h
        p_raw = rng.normal(size=(12, 3))
        p_raw *= 0.3 * min_wrp / max(float(np.max(np.abs(p_raw))), 1e-12)
        p = p_raw - np.outer(p_raw @ e, e)
        state = StringState(grid, r, p)
        field = UniformField(wbar)
        cells = cell_integrands(state, field)
        lhs = cells["alt"] ** 2
        rhs = cells["wrprime_sq"] + cells["pbar_sq"]
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        if np.max(np.abs(p)) > 1e-12:
            assert string_hamiltonian_alt(state, field) > string_hamiltonian(state, field)


def test_integrate_static_string_unchanged():
    state, field = unit_string(n=32)
    traj = integrate_string(
        state, field, IntegrationParams(step=1e-3, n_steps=200, audit_every=20)
    )
    final = traj.state(-1)
    assert np.max(np.abs(final.r - state.r)) < 1e-12
    assert np.max(np.abs(final.p)) < 1e-12


def test_integrate_pluck_conservation_and_transversality():
    # linear-regime pluck: the nodal transversality defect grows ~ amplitude^2
    grid = StringGrid.uniform(0.0, 1.0, 64)
    state = plucked_string(grid, ZERO3, Vec3(1, 0, 0), 0.002, 0.12)
    field = UniformField(-1.0)
    traj = integrate_string(
        state, field, IntegrationParams(step=1e-4, n_steps=1000, audit_every=10)
    )
    assert traj.report["hamiltonian"].relative_drift < 1e-5
    horizon = 1e-4 * 1000
    growth = traj.report["transversality"].max_drift / horizon
    assert growth < 1e-6


def test_integrate_energy_domain_abort_is_clean():
    grid = StringGrid.uniform(0.0, 1.0, 32)
    state = plucked_string(grid, ZERO3, Vec3(1, 0, 0), 0.9, 0.05)
    field = UniformField(-1.0)
    with pytest.raises(EnergyDomainError) as err:
        integrate_string(
            state, field, IntegrationParams(step=5e-3, n_steps=4000, audit_every=10)
        )
    assert err.value.where is not None


def test_charged_rhs_reduces_to_uncharged():
    # no vector potential: the written charged law is the running uncharged flow at any q
    state, field = unit_string(n=20)
    state.p = np.zeros_like(state.p)
    state.r[:, 1] += 0.03 * np.sin(math.pi * state.grid.sigma)
    state.p[1:-1, 1] = 0.02
    dr_u, dp_u = string_canonical_rhs(state, field)
    dr, dp, _ = reference_charged_rhs(state, field, 0.5)
    assert identical(dr, dr_u)
    assert identical(dp, dp_u)


def test_charged_rhs_uniform_vecpot_terms_vanish():
    state, field = unit_string(n=16)
    const_a = CallableField(
        wbar_fn=lambda r, t: -1.0,
        vecpot_fn=lambda r, t: Vec3(0.2, -0.1, 0.3),
        grad_vecpot_fn=lambda r, t: np.zeros((3, 3)),
    )
    terms = reference_charged_rhs(state, const_a, 1.0)[2]
    assert np.max(np.abs(terms["magnetic"])) < 1e-15
    assert np.max(np.abs(terms["vecpot_gradient"])) < 1e-15
    # so the law is the uncharged flow's
    dr_u, dp_u = string_canonical_rhs(state, const_a)
    dr, dp, _ = reference_charged_rhs(state, const_a, 1.0)
    assert identical(dr, dr_u) and identical(dp, dp_u)


def test_charged_rhs_term_by_term_oracle():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING,
        0.8,
        u_f=Vec3(0.1, 0.05, 0.2),
        softening=0.3,
        background=-2.0,
    )
    field = build_potential(spec, 1.0)
    state, grid = smooth_state(n=20, seed=71, amp=0.04)
    state.r[:, 0] += 0.5  # keep away from the source core
    q = 0.6
    terms = reference_charged_rhs(state, field, q)[2]
    h = 1e-5
    for i in (3, 9, 16):
        ri = Vec3(*state.r[i])
        ti = float(state.t[i])
        rdot = Vec3(*terms["rdot"][i])
        beta = terms["beta"][i]
        # magnetic term against a finite-difference curl
        curl = np.zeros(3)
        for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eb = [0.0] * 3
            eb[b] = h
            ec = [0.0] * 3
            ec[c] = h
            dc_db = (field.vecpot(ri + Vec3(*eb), ti)[c] - field.vecpot(ri - Vec3(*eb), ti)[c]) / (2 * h)
            db_dc = (field.vecpot(ri + Vec3(*ec), ti)[b] - field.vecpot(ri - Vec3(*ec), ti)[b]) / (2 * h)
            curl[a] = dc_db - db_dc
        mag_fd = q * np.cross(np.array(list(rdot)), curl)
        assert np.allclose(terms["magnetic"][i], mag_fd, rtol=1e-6, atol=1e-9)
        # vector-potential gradient term
        grad_fd = np.zeros(3)
        for k in range(3):
            e = [0.0] * 3
            e[k] = h
            grad_fd[k] = (
                rdot.dot(field.vecpot(ri + Vec3(*e), ti))
                - rdot.dot(field.vecpot(ri - Vec3(*e), ti))
            ) / (2 * h)
        assert np.allclose(terms["vecpot_gradient"][i], -q * grad_fd, rtol=1e-6, atol=1e-9)
        # induction term against a time difference
        at = (field.vecpot(ri, ti + h) - field.vecpot(ri, ti - h)) / (2 * h)
        assert np.allclose(
            terms["induction"][i], -q * beta * np.array(list(at)), rtol=1e-6, atol=1e-9
        )
    # Hamiltonian-part terms against the finite-difference functional gradient
    dgrad = terms["wbar_gradient"] + terms["tension"]
    for j in (5, 12):
        for k in range(3):
            pert = state.copy()
            pert.r[j, k] += 1e-6
            hp = string_hamiltonian(pert, field)
            pert.r[j, k] -= 2e-6
            hm = string_hamiltonian(pert, field)
            num = (hp - hm) / (2e-6) / grid.h
            assert num == pytest.approx(dgrad[j, k], rel=2e-5, abs=1e-7)


def test_canonical_rhs_coincident_nodes_guard():
    grid = StringGrid.uniform(0.0, 1.0, 8)
    state = StringState(grid, np.zeros((8, 3)), np.zeros((8, 3)))
    with pytest.raises(EnergyDomainError):
        string_canonical_rhs(state, UniformField(-1.0))


def test_alt_and_energy_functionals_at_degenerate_boundary():
    # p = wbar * r' zeroes the alternative integrand while the energy
    # integrand sits exactly on its square-root domain boundary
    state, field = unit_string()
    rp = sigma_derivative(state.grid, state.r)
    state.p = -1.0 * rp  # wbar = -1
    diff_norms = np.linalg.norm(-1.0 * (np.diff(state.r, axis=0) / state.grid.h)
                                - 0.5 * (state.p[1:] + state.p[:-1]), axis=1)
    assert np.max(diff_norms) < 1e-14  # alternative integrand vanishes
    with pytest.raises(EnergyDomainError):
        string_hamiltonian(state, field)


def test_string_flow_cross_validated_by_worldsheet_action():
    # integrate the canonical flow, stack samples into a world sheet, and
    # measure the independent discrete-action stationarity; refining both
    # grids by two shrinks the residual by about four
    from vacuumlab.variational import (
        LagrangianKind,
        LagrangianSpec,
        StringWorldPath,
        euler_lagrange_residual,
    )

    field = UniformField(-1.0)
    spec = LagrangianSpec(LagrangianKind.STRING_DENSITY, field)

    def residual_for(n, stride):
        grid = StringGrid.uniform(0.0, 1.0, n)
        state = plucked_string(grid, ZERO3, Vec3(1, 0, 0), 0.01, 0.18)
        step = 2.5e-4
        traj = integrate_string(
            state, field, IntegrationParams(step=step, n_steps=64, audit_every=64)
        )
        # the block of the kept rows is the world sheet: r of shape (n_tau, n_sigma, 3)
        block = traj.state(range(0, 65, stride))
        assert identical(block.r, np.array([s.r for s in traj.samples[::stride]]))
        sheet = StringWorldPath(tau=block.tau, sigma=grid.sigma, r=block.r)
        res = euler_lagrange_residual(spec, sheet)
        return float(np.max(np.sqrt(np.einsum("ijk,ijk->ij", res, res))))

    # the coarse level must resolve the pluck width: the residual's symbol
    # 1 - cos^4(kh/2) is second order only while kh is small
    coarse = residual_for(33, 2)  # h_sigma = 1/32, d_tau = 5e-4
    fine = residual_for(65, 1)    # h_sigma = 1/64, d_tau = 2.5e-4
    assert fine < 1e-2
    assert coarse / fine == pytest.approx(4.0, rel=0.4)


# --- block kernels ------------------------------------------------------------------

BLOCK_FIELDS = {
    **STRING_FIELDS,
    "callable": lambda: CallableField(
        wbar_fn=lambda r, t: -1.5 - 0.2 * r.x + 0.1 * r.y * r.z + 0.05 * t
    ),
}


def _random_plucks(rows, n=20, seed=11):
    """A block of rows random plucks off a straight string, with a varying t channel."""
    rng = np.random.default_rng(seed)
    base = plucked_string(StringGrid.uniform(0.0, 1.0, n), Vec3(0.5, 0.2, -0.1),
                          Vec3(1.5, 0.3, 0.1), 0.01, 0.12)
    r = base.r + 0.02 * rng.normal(size=(rows, n, 3))
    p = base.p + 0.05 * rng.normal(size=(rows, n, 3))
    return StringState(base.grid, r, p, np.arange(rows) * 0.1, rng.uniform(0.0, 0.5, (rows, n)))


def _one(block, k):
    return StringState(block.grid, block.r[k], block.p[k], block.tau[k], block.t[k])


def _cell_integrand(key):
    return lambda state, field: cell_integrands(state, field)[key]


BLOCK_KERNELS = {
    "hamiltonian": string_hamiltonian,
    "hamiltonian_alt": string_hamiltonian_alt,
    "transversality": lambda state, field: transversality_defect(state),
    "node_energy_density": node_energy_density,
    "sigma_derivative": lambda state, field: sigma_derivative(state.grid, state.r),
    **{f"cell_{key}": _cell_integrand(key) for key in ("energy", "alt", "wrprime_sq", "pbar_sq")},
}


@pytest.mark.parametrize("rows", [0, 1, 7])
@pytest.mark.parametrize("kernel", sorted(BLOCK_KERNELS))
@pytest.mark.parametrize("kind", sorted(BLOCK_FIELDS))
def test_a_kernel_on_a_block_equals_it_on_each_state(kind, kernel, rows):
    field, f = BLOCK_FIELDS[kind](), BLOCK_KERNELS[kernel]
    block = _random_plucks(rows)
    single = f(_one(_random_plucks(1), 0), field)  # the shape of one state's result
    assert isinstance(single, float) or single.ndim  # one state's scalar is a float
    got = f(block, field)
    expected = np.array([f(_one(block, k), field) for k in range(rows)]).reshape(
        (rows, *np.shape(single))
    )
    assert got.shape == expected.shape and identical(got, expected)


def test_a_block_domain_error_is_its_first_offending_state_s():
    field = BLOCK_FIELDS["linear"]()
    block = _random_plucks(7)
    for k, node in ((5, 12), (3, 6)):
        block.p[k, node : node + 2] += (0.0, 40.0, 0.0)  # |p| above wbar |r'| about the node
    with pytest.raises(EnergyDomainError) as own:
        string_hamiltonian(_one(block, 3), field)
    for kernel in ("hamiltonian", "hamiltonian_alt", "node_energy_density", "cell_energy"):
        with pytest.raises(EnergyDomainError) as err:
            BLOCK_KERNELS[kernel](block, field)
        assert str(err.value) == str(own.value) and own.value.where in (5, 6)
        assert err.value.where == 3


def test_a_block_field_error_is_its_first_offending_state_s():
    # an unsoftened source on the midpoint of cell 4 of state 2 (and of cell 9 of state 6)
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=0.0, background=-1.0)
    field = build_potential(spec, 1.0)
    block = _random_plucks(7)
    for k, cell in ((6, 9), (2, 4)):
        block.r[k, cell : cell + 2] = [(-0.25, 0.0, 0.0), (0.25, 0.0, 0.0)]
    with pytest.raises(SingularPointError) as own:
        string_hamiltonian(_one(block, 2), field)
    with pytest.raises(SingularPointError) as err:
        string_hamiltonian(block, field)
    # one state names its first offending cell, as an EnergyDomainError names its worst; a block its state
    assert str(err.value) == str(own.value) and own.value.where == 4
    assert err.value.where == 2
