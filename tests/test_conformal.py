import dataclasses
import math

import numpy as np
import pytest

from vacuumlab.conformal import (
    ConformalPatch,
    coons_interior,
    relax_elliptic,
    residual_grid,
    solve_conformal,
)
from vacuumlab.conformal_cases import (
    ConformalCase,
    _grid,
    _patch_from,
    harmonic_case,
    manufactured_case,
)
from vacuumlab.errors import ConvergenceError, ValidationError
from vacuumlab.potentials import UniformField


def exp_harmonic_case(n_sigma: int, n_s: int) -> ConformalCase:
    """Laplace limit on the pair (0.25 e^z, 0.3 z): genuine O(h^2) discretization error."""
    sigma, s = _grid(n_sigma, n_s)

    def fn(sg, ss):
        return (0.25 * np.exp(sg) * np.cos(ss), 0.25 * np.exp(sg) * np.sin(ss), 0.3 * sg, 0.3 * ss)

    exact = _patch_from(sigma, s, fn)
    return ConformalCase(exact.copy_with(exact.xi), exact, UniformField(-1.0), None)


def make_patch(sigma, s, fn) -> ConformalPatch:
    """Sample xi(sigma, s) from a callable returning a length-4 array."""
    sigma = np.asarray(sigma, dtype=float)
    s = np.asarray(s, dtype=float)
    xi = np.empty((sigma.size, s.size, 4))
    for i, sg in enumerate(sigma):
        for j, ss in enumerate(s):
            xi[i, j, :] = fn(float(sg), float(ss))
    return ConformalPatch(sigma, s, xi)


def conformal_residual(patch: ConformalPatch, w) -> np.ndarray:
    """Residual 4-vectors at interior nodes."""
    return residual_grid(patch.xi, patch.h_sigma, patch.h_s, w)


def test_residual_harmonic_polynomial_is_tiny():
    case = dataclasses.replace(harmonic_case(17, 17), field=UniformField(-1.5))
    res = conformal_residual(case.exact, case.field)
    # polynomial harmonics are exact for the 5-point stencil
    assert np.max(np.abs(res)) < 1e-12


def test_residual_sigma_squared_patch():
    wbar = -1.3
    sigma = np.linspace(0.0, 1.0, 17)
    s = np.linspace(0.0, 1.0, 17)
    patch = make_patch(sigma, s, lambda sg, ss: np.array([sg**2, 0.0, 0.0, ss]))
    res = conformal_residual(patch, UniformField(wbar))
    norms = np.sqrt(np.einsum("ijk,ijk->ij", res, res))
    assert np.allclose(norms, 2.0 * abs(wbar), atol=1e-10)


def test_residual_manufactured_matches_forcing():
    # the exact surface's discrete residual approaches the analytic forcing
    errs = []
    for n in (17, 33):
        case = manufactured_case(n, n)
        res = conformal_residual(case.exact, case.field)
        errs.append(float(np.max(np.abs(res - case.forcing))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)


def test_gauge_defects_and_violation():
    case = harmonic_case(17, 17)
    assert case.exact.max_gauge_defect() < 1e-12
    sigma = np.linspace(0.0, 1.0, 17)
    patch = make_patch(sigma, sigma, lambda sg, ss: np.array([sg**2, 0.0, 0.0, ss]))
    assert patch.max_gauge_defect() > 1.0
    assert conformal_residual(patch, UniformField(-1.0)).shape == (15, 15, 4)


def test_solve_laplace_polynomial_boundary():
    case = harmonic_case(17, 17)
    start = case.boundary.copy_with(case.boundary.xi)
    start.xi[1:-1, 1:-1, :] = 0.0  # interior is ignored; boundary drives the solve
    solved, result = solve_conformal(start, case.field, tol=1e-10)
    assert np.max(np.abs(solved.xi - case.exact.xi)) < 1e-8
    assert solved.max_gauge_defect() < 1e-8
    assert result.final_residual < 1e-10


def test_solve_laplace_transcendental_second_order():
    errs = []
    for n in (17, 33):
        case = exp_harmonic_case(n, n)
        solved, _ = solve_conformal(case.boundary, case.field, tol=1e-11)
        errs.append(float(np.max(np.abs(solved.xi - case.exact.xi))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)


def test_solve_manufactured_convergence_order():
    errs, hs = [], []
    for n in (17, 33):
        case = manufactured_case(n, n)
        solved, _ = solve_conformal(
            case.boundary, case.field, tol=1e-11, forcing=case.forcing
        )
        errs.append(float(np.max(np.abs(solved.xi - case.exact.xi))))
        hs.append(1.0 / (n - 1))
    order = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
    assert order == pytest.approx(2.0, abs=0.2)


def test_solver_tolerance_contract():
    case = exp_harmonic_case(17, 17)
    _, loose = solve_conformal(case.boundary, case.field, tol=1e-6)
    _, tight = solve_conformal(case.boundary, case.field, tol=1e-9)
    assert loose.final_residual < 1e-6
    assert tight.final_residual < 1e-9
    assert tight.iterations >= loose.iterations


def test_solver_rejects_bad_input():
    case = harmonic_case(9, 9)
    bad = case.boundary.copy_with(case.boundary.xi)
    bad.xi[0, 3, 1] = float("nan")
    with pytest.raises(ValidationError):
        solve_conformal(bad, case.field, tol=1e-8)
    with pytest.raises(ConvergenceError) as err:
        solve_conformal(case.boundary, exp_harmonic_case(9, 9).field, tol=1e-30, max_iters=3)
    assert err.value.residual_history


def test_patch_validation():
    with pytest.raises(ValidationError):
        ConformalPatch(np.linspace(0, 1, 5), np.linspace(0, 1, 5), np.zeros((5, 4, 4)))
    with pytest.raises(ValidationError):
        ConformalPatch(np.array([0.0, 0.2, 0.3]), np.linspace(0, 1, 3), np.zeros((3, 3, 4)))


@pytest.mark.parametrize("n", [33, 65, 129])
def test_multigrid_cycles_do_not_grow_with_the_grid(n):
    # the SOR sweep needed 89, 170 and 324 sweeps here
    case = manufactured_case(n, n)
    solved, result = solve_conformal(case.boundary, case.field, tol=1e-9, forcing=case.forcing)
    assert result.iterations <= 12 and result.final_residual < 1e-9
    assert len(result.history) == result.iterations


def test_multigrid_rectangular_grid_converges_with_its_boundary_kept():
    case = manufactured_case(33, 17)  # halved once, to 17 x 9
    solved, result = solve_conformal(case.boundary, case.field, tol=1e-9, forcing=case.forcing)
    assert result.final_residual < 1e-9
    assert np.max(np.abs(solved.xi - case.exact.xi)) < 2e-5
    interior = np.zeros(solved.xi.shape[:2], dtype=bool)
    interior[1:-1, 1:-1] = True
    assert np.array_equal(solved.xi[~interior], case.boundary.xi[~interior])


@pytest.mark.parametrize("shape", [(34, 34), (33, 34)])
def test_grids_that_cannot_be_halved_get_the_sor_relaxation(shape):
    case = manufactured_case(*shape)
    h_sigma, h_s = case.boundary.h_sigma, case.boundary.h_s

    def residual(xi):
        return residual_grid(xi, h_sigma, h_s, case.field) - case.forcing

    ref = relax_elliptic(residual, coons_interior(case.boundary), 1e-9)
    solved, result = solve_conformal(case.boundary, case.field, tol=1e-9, forcing=case.forcing)
    assert solved.xi.tobytes() == ref.xi.tobytes()
    assert (result.iterations, result.final_residual, result.history) == (
        ref.iterations,
        ref.final_residual,
        ref.history,
    )


def test_multigrid_cycle_budget_raises_with_its_history():
    case = manufactured_case(33, 33)
    with pytest.raises(ConvergenceError, match=r"^no convergence after 3 V-cycles") as err:
        solve_conformal(case.boundary, case.field, tol=1e-30, max_iters=3, forcing=case.forcing)
    history = err.value.residual_history
    assert len(history) == 3 and history[0] > history[1] > history[2] > 0.0
