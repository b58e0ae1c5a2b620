"""The string flow and the SOR solver against the loops they replaced.

``reference_integrate_string`` is the loop ``integrate_string`` ran before
the string trajectory kept its flat states as columns: a new ``StringState``
per right-hand-side call, with the flow assembled node by node from a cell
record, and a ``StringState`` copy per step.  ``reference_relax`` is the
three-residual checkerboard sweep ``relax_elliptic`` ran before it reused the
residual after a sweep, driven by the conformal residual as it was then
written (the potential gradient on the full grid).  Both must be reproduced
bit for bit, signs of zero included.
"""

import math

import numpy as np
import pytest
import yaml

import vacuumlab.strings as strings
from vacuumlab import cli
from vacuumlab.conformal import coons_interior, residual_grid, solve_conformal
from vacuumlab.conformal_cases import harmonic_case, manufactured_case
from vacuumlab.errors import ConvergenceError, EnergyDomainError, PhysicsDomainError
from vacuumlab.geometry import Vec3, ZERO3
from vacuumlab.integrate import (
    ConservationReport,
    IntegrationParams,
    integrate_string,
    relax_elliptic,
)
from vacuumlab.potentials import LinearField, SourceKind, SourceSpec, UniformField, build_potential
from vacuumlab.strings import (
    StringGrid,
    StringState,
    charged_string_rhs,
    plucked_string,
    straight_string,
    string_canonical_rhs,
    string_hamiltonian,
)
from vacuumlab.tolerances import ENERGY_DOMAIN_GUARD


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


def reference_gradient_parts(state, field):
    h = state.grid.h
    w, grad_w, rprime, dr, pbar, hdens = reference_cells(state, field)
    n = state.grid.n

    rp2 = np.einsum("ij,ij->i", rprime, rprime)
    wcoef = 0.5 * (w * rp2 / hdens)
    grad_piece = np.zeros((n, 3))
    wpart = wcoef[:, None] * grad_w
    grad_piece[:-1] += wpart
    grad_piece[1:] += wpart

    tension_piece = np.zeros((n, 3))
    vec = (w**2)[:, None] * dr / (h * h * hdens[:, None])
    tension_piece[:-1] -= vec
    tension_piece[1:] += vec

    velocity = np.zeros((n, 3))
    cp = 0.5 * pbar / hdens[:, None]
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


def reference_hamiltonian(state, field):
    return float(state.grid.h * np.sum(reference_cells(state, field, need_grad=False)[5]))


def reference_integrate_string(state, field, params):
    """(samples, report) of the per-call-state RK4 loop."""
    n = state.grid.n
    y = np.concatenate([state.r.ravel(), state.p.ravel(), state.t])
    tau = state.tau
    h = params.step

    def rebuild(tau_val, yv):
        r = yv[: 3 * n].reshape(n, 3)
        p = yv[3 * n : 6 * n].reshape(n, 3)
        return StringState(state.grid, r.copy(), p.copy(), tau_val, yv[6 * n :].copy())

    def rhs(tau_val, yv):
        st = StringState(
            state.grid,
            yv[: 3 * n].reshape(n, 3),
            yv[3 * n : 6 * n].reshape(n, 3),
            tau_val,
            yv[6 * n :],
        )
        dr, dp = reference_rhs(st, field)
        dt = np.sqrt(1.0 + np.einsum("ij,ij->i", dr, dr))
        return np.concatenate([dr.ravel(), dp.ravel(), dt])

    report = ConservationReport()
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
        assert np.ptp(traj.final.t) > 0  # the t channel varies along the string
    # the on-demand states are views of the rows
    samples = traj.samples
    assert len(samples) == n_steps + 1
    for got, ref in ((samples[5], ref_samples[5]), (traj.final, ref_samples[-1])):
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
    terms = charged_string_rhs(state, field, 0.0).terms
    assert identical(terms.wbar_gradient, grad_piece)
    assert identical(terms.tension, tension_piece)
    assert identical(terms.relative_velocity, velocity)


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


def test_non_finite_string_state_raises_at_the_step_that_made_it(monkeypatch):
    calls = []
    law = strings.string_canonical_rhs

    def poisoned(state, field):
        calls.append(1)
        dr, dp = law(state, field)
        if len(calls) == 12:  # the last stage of step 3
            dp[5, 1] = math.nan
        return dr, dp

    monkeypatch.setattr(strings, "string_canonical_rhs", poisoned)
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


SOR_CASES = {
    "manufactured-17": (lambda: manufactured_case(17, 17), 1e-9),
    "manufactured-33": (lambda: manufactured_case(33, 33), 1e-9),
    "harmonic-exp-17": (lambda: harmonic_case(17, 17, kind="exp"), 1e-10),
}


@pytest.mark.parametrize("case", sorted(SOR_CASES))
def test_sor_solve_equals_the_three_residual_sweep(case):
    make_case, tol = SOR_CASES[case]
    c = make_case()
    got = relax_elliptic(*_conformal_problem(c, residual_grid), tol)
    ref_problem = _conformal_problem(c, reference_residual_grid)
    xi, iterations, final, history = reference_relax(*ref_problem, tol)
    assert identical(got.xi, xi)
    assert (got.iterations, got.final_residual, got.history) == (iterations, final, history)
    # and the solver entry point returns the same relaxation
    solved, result = solve_conformal(c.boundary, c.field, tol, forcing=c.forcing)
    assert identical(solved.xi, xi) and result.history == history


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
    for case in (manufactured_case(17, 21), harmonic_case(19, 17, kind="exp")):
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
