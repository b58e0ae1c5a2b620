"""Conformal world-surface equation: residual evaluation and elliptic solve.

In conformal variables (sigma, s) the world-surface map xi = (r, tau)
into Euclidean 4-space satisfies the linear second-order equation

    d/ds (wbar xi_s) + d/dsigma (wbar xi_sigma) = (xi_sigma^2 xi_s^2)^(1/2) grad_xi(wbar)

which is elliptic (the induced metric is Euclidean), so it is treated as
a boundary-value problem: Dirichlet data on all four patch edges, solved
by FAS multigrid V-cycles on grids that can be halved and by checkerboard
SOR sweeps (`integrate.relax_elliptic`) on the others.  The right-hand
side is the full 4-gradient of the potential with respect to xi, the form
the least-action derivation produces; the potential is evaluated with the
patch's tau slot as its time argument (static potentials are unaffected).

Gauge identities <xi_sigma, xi_s> = 0 and xi_sigma^2 = xi_s^2 are a
property of the data, not enforced by the solver; pass gauge_tol to have
them checked (GaugeViolationError) and use gauge_defects for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .errors import GaugeViolationError, ValidationError
from .integrate import (
    RelaxationResult,
    _Checkerboard,
    _checkerboard,
    _color_diagonals,
    _color_sweep,
    _iterate,
    _relaxation_grid,
    relax_elliptic,
)
from .potentials import PotentialField


@dataclass
class ConformalPatch:
    """xi(sigma_i, s_j) in E^4 on a uniform 2-D grid; components (x, y, z, tau)."""

    sigma: np.ndarray
    s: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.xi.shape != (self.sigma.size, self.s.size, 4):
            raise ValidationError("xi must have shape (n_sigma, n_s, 4)")
        for axis in (self.sigma, self.s):
            d = np.diff(axis)
            if axis.size < 3 or np.any(d <= 0):
                raise ValidationError("patch axes must be increasing with >= 3 nodes")
            if np.max(np.abs(d - d[0])) > 1e-12 * max(1.0, abs(float(d[0]))):
                raise ValidationError("patch axes must be uniform")

    @property
    def h_sigma(self) -> float:
        return float(self.sigma[1] - self.sigma[0])

    @property
    def h_s(self) -> float:
        return float(self.s[1] - self.s[0])

    def copy_with(self, xi: np.ndarray) -> "ConformalPatch":
        return ConformalPatch(self.sigma, self.s, np.array(xi, dtype=float))

    def gauge_defects(self) -> Tuple[np.ndarray, np.ndarray]:
        """Interior grids of <xi', xi_dot> and xi'^2 - xi_dot^2 (central diffs)."""
        d_sig = (self.xi[2:, 1:-1, :] - self.xi[:-2, 1:-1, :]) / (2.0 * self.h_sigma)
        d_s = (self.xi[1:-1, 2:, :] - self.xi[1:-1, :-2, :]) / (2.0 * self.h_s)
        inner = np.einsum("ijk,ijk->ij", d_sig, d_s)
        norms = np.einsum("ijk,ijk->ij", d_sig, d_sig) - np.einsum(
            "ijk,ijk->ij", d_s, d_s
        )
        return inner, norms

    def max_gauge_defect(self) -> float:
        inner, norms = self.gauge_defects()
        return float(max(np.max(np.abs(inner)), np.max(np.abs(norms))))


def _wbar_grid(xi: np.ndarray, field: PotentialField) -> np.ndarray:
    pts = xi[..., 0:3].reshape(-1, 3)
    times = xi[..., 3].reshape(-1)
    return field.wbar_many(pts, times).reshape(xi.shape[:2])


def _wbar_grad4(xi: np.ndarray, field: PotentialField) -> np.ndarray:
    pts = xi[..., 0:3].reshape(-1, 3)
    times = xi[..., 3].reshape(-1)
    out = np.empty(xi.shape[:2] + (4,))
    rows = out.reshape(-1, 4)
    rows[:, :3] = field.grad_wbar_many(pts, times)
    rows[:, 3] = field.dwbar_dt_many(pts, times)
    return out


def residual_grid(xi: np.ndarray, h_sigma: float, h_s: float, field: PotentialField) -> np.ndarray:
    """Central-difference residual of the conformal equation at interior nodes."""
    w = _wbar_grid(xi, field)
    grad4 = _wbar_grad4(xi[1:-1, 1:-1], field)

    twice_mid = 2.0 * xi[1:-1, 1:-1, :]
    xi_ss = (xi[1:-1, 2:, :] - twice_mid + xi[1:-1, :-2, :]) / (h_s * h_s)
    xi_gg = (xi[2:, 1:-1, :] - twice_mid + xi[:-2, 1:-1, :]) / (h_sigma * h_sigma)
    xi_s = (xi[1:-1, 2:, :] - xi[1:-1, :-2, :]) / (2.0 * h_s)
    xi_g = (xi[2:, 1:-1, :] - xi[:-2, 1:-1, :]) / (2.0 * h_sigma)
    w_s = (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * h_s)
    w_g = (w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * h_sigma)
    w_mid = w[1:-1, 1:-1]

    measure = np.sqrt(
        np.einsum("ijk,ijk->ij", xi_g, xi_g) * np.einsum("ijk,ijk->ij", xi_s, xi_s)
    )
    return (
        w_mid[..., None] * (xi_ss + xi_gg)
        + w_s[..., None] * xi_s
        + w_g[..., None] * xi_g
        - measure[..., None] * grad4
    )


def _check_gauge(patch: ConformalPatch, gauge_tol: Optional[float], label: str) -> None:
    """Raise GaugeViolationError when gauge_tol is set and the patch's gauge defect exceeds it."""
    if gauge_tol is not None:
        defect = patch.max_gauge_defect()
        if defect > gauge_tol:
            raise GaugeViolationError(f"{label} gauge defect {defect:.3g} exceeds {gauge_tol:.3g}")


def coons_interior(patch: ConformalPatch) -> np.ndarray:
    """Transfinite (Coons) interpolation of the boundary into the interior."""
    xi = np.array(patch.xi, dtype=float)
    n1, n2, _ = xi.shape
    u = np.linspace(0.0, 1.0, n1)[:, None, None]
    v = np.linspace(0.0, 1.0, n2)[None, :, None]
    c0 = xi[0, :, :][None, :, :]
    c1 = xi[-1, :, :][None, :, :]
    d0 = xi[:, 0, :][:, None, :]
    d1 = xi[:, -1, :][:, None, :]
    blend = (
        (1 - u) * c0
        + u * c1
        + (1 - v) * d0
        + v * d1
        - (
            (1 - u) * (1 - v) * xi[0, 0, :]
            + u * (1 - v) * xi[-1, 0, :]
            + (1 - u) * v * xi[0, -1, :]
            + u * v * xi[-1, -1, :]
        )
    )
    out = xi
    out[1:-1, 1:-1, :] = blend[1:-1, 1:-1, :]
    return out


# The multigrid cycle's constants: a grid is halved while both sides are odd
# and both halves keep at least _COARSEST nodes, and the coarsest grid gets
# _COARSEST_SWEEPS SOR sweeps per cycle.
_COARSEST = 9
_COARSEST_SWEEPS = 10


def _halvable(n1: int, n2: int) -> bool:
    """Both sides odd, and both halves ((n + 1) / 2 nodes) at least _COARSEST."""
    return n1 % 2 == 1 and n2 % 2 == 1 and min(n1, n2) + 1 >= 2 * _COARSEST


@dataclass
class _Level:
    """One grid of the multigrid hierarchy: its steps and its red-black sweep data."""

    h_sigma: float
    h_s: float
    board: _Checkerboard
    diagonals: list


def _levels(xi: np.ndarray, h_sigma: float, h_s: float, field: PotentialField, base: np.ndarray):
    """The hierarchy from the fine grid xi down, each level's diagonals probed at xi's injection.

    base is the fine grid's residual_grid, the base of its probe.
    """
    levels = []
    while True:
        operator = partial(residual_grid, h_sigma=h_sigma, h_s=h_s, field=field)
        board = _checkerboard(xi)
        levels.append(_Level(h_sigma, h_s, board, _color_diagonals(operator, xi, base, board)))
        if not _halvable(*xi.shape[:2]):
            return levels
        xi = xi[::2, ::2].copy()
        h_sigma, h_s = 2.0 * h_sigma, 2.0 * h_s
        base = residual_grid(xi, h_sigma, h_s, field)


def _full_weighting(res: np.ndarray) -> np.ndarray:
    """The interior residual of a grid, full-weighted onto the interior of its halved grid."""
    rows = 0.25 * (res[:-2:2] + res[2::2]) + 0.5 * res[1:-1:2]
    return 0.25 * (rows[:, :-2:2] + rows[:, 2::2]) + 0.5 * rows[:, 1:-1:2]


def _bilinear(coarse: np.ndarray) -> np.ndarray:
    """A halved grid's values, interpolated bilinearly onto the full grid."""
    n1, n2, ncomp = coarse.shape
    fine = np.empty((2 * n1 - 1, 2 * n2 - 1, ncomp))
    fine[::2, ::2] = coarse
    fine[1::2, ::2] = 0.5 * (coarse[:-1] + coarse[1:])
    fine[:, 1::2] = 0.5 * (fine[:, :-2:2] + fine[:, 2::2])
    return fine


def _v_cycle(levels, k: int, xi: np.ndarray, res: np.ndarray, rhs, field: PotentialField) -> None:
    """One FAS V-cycle for residual_grid(xi) = rhs on level k, updating xi in place.

    res is residual_grid(xi) - rhs on entry; the residual of the updated xi
    is left to the caller.  Boundary nodes never change.
    """
    level = levels[k]
    colors, diagonals = level.board.colors, level.diagonals

    def defect(grid):
        return residual_grid(grid, level.h_sigma, level.h_s, field) - rhs

    if k == len(levels) - 1:
        for sweep in range(_COARSEST_SWEEPS):
            res = defect(xi) if sweep else res
            _color_sweep(defect, xi, res, colors, diagonals, level.board.omega)
        return
    _color_sweep(defect, xi, res, colors, diagonals, 1.0)
    res = defect(xi)
    coarse = levels[k + 1]
    start = xi[::2, ::2].copy()
    base = residual_grid(start, coarse.h_sigma, coarse.h_s, field)
    coarse_rhs = base - _full_weighting(res)
    grid = start.copy()
    _v_cycle(levels, k + 1, grid, base - coarse_rhs, coarse_rhs, field)
    xi[1:-1, 1:-1] += _bilinear(grid - start)[1:-1, 1:-1]
    _color_sweep(defect, xi, defect(xi), colors, diagonals, 1.0)


def solve_conformal(
    boundary: ConformalPatch,
    w: PotentialField,
    tol: float,
    max_iters: int = 20000,
    forcing: Optional[np.ndarray] = None,
    gauge_tol: Optional[float] = None,
) -> Tuple[ConformalPatch, RelaxationResult]:
    """Solve for the interior of a patch until max |residual| < tol.

    Only the boundary of `boundary` is honored (the interior is re-seeded
    by transfinite interpolation).  `forcing`, when given, is subtracted
    from the interior residual (manufactured-solution runs).  Raises
    ConvergenceError when the budget is exhausted and GaugeViolationError
    when gauge_tol is set and the solution violates the gauge identities.

    A grid whose sides are both odd with at least 17 nodes is solved by FAS
    multigrid V-cycles, and the result's iterations count cycles, at most
    max_iters.  Each cycle makes one red-black Gauss-Seidel sweep on each
    level before and after its coarse correction, passes the grid down by
    injection and the residual by full weighting, brings the correction back
    bilinearly, and makes 10 SOR sweeps on the coarsest grid (the first
    with a side that cannot be halved).  The convergence test follows each cycle.  Any other grid is
    relaxed by `relax_elliptic`'s SOR sweeps alone.
    """
    if not np.all(np.isfinite(boundary.xi)):
        raise ValidationError("boundary data contains non-finite values")
    xi0 = coons_interior(boundary)
    h_sigma, h_s = boundary.h_sigma, boundary.h_s

    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        expected = (boundary.sigma.size - 2, boundary.s.size - 2, 4)
        if forcing.shape != expected:
            raise ValidationError(f"forcing must have shape {expected}")

    rhs = 0.0 if forcing is None else forcing  # x - 0.0 is x, bit for bit
    if _halvable(*xi0.shape[:2]):
        xi = _relaxation_grid(xi0, tol, max_iters)
        base = residual_grid(xi, h_sigma, h_s, w)
        levels = _levels(xi, h_sigma, h_s, w, base)

        def cycle(_, res):
            _v_cycle(levels, 0, xi, res, rhs, w)
            return residual_grid(xi, h_sigma, h_s, w) - rhs

        result = _iterate(cycle, xi, base - rhs, tol, max_iters, "V-cycles")
    else:

        def residual_fn(xi):
            return residual_grid(xi, h_sigma, h_s, w) - rhs

        result = relax_elliptic(residual_fn, xi0, tol, max_iters=max_iters)
    solved = boundary.copy_with(result.xi)
    _check_gauge(solved, gauge_tol, "solved patch")
    return solved, result
