"""Conformal world-surface equation: residual evaluation and elliptic solve.

In conformal variables (sigma, s) the world-surface map xi = (r, tau)
into Euclidean 4-space satisfies the linear second-order equation

    d/ds (wbar xi_s) + d/dsigma (wbar xi_sigma) = (xi_sigma^2 xi_s^2)^(1/2) grad_xi(wbar)

which is elliptic (the induced metric is Euclidean), so it is treated as
a boundary-value problem: Dirichlet data on all four patch edges, solved
by FAS multigrid V-cycles on grids that can be halved and by checkerboard
SOR sweeps (`relax_elliptic`) on the others.  The right-hand
side is the full 4-gradient of the potential with respect to xi, the form
the least-action derivation produces; the potential is evaluated with the
patch's tau slot as its time argument (static potentials are unaffected).

Gauge identities <xi_sigma, xi_s> = 0 and xi_sigma^2 = xi_s^2 are a
property of the data, not enforced by the solver; gauge_defects reports them.

The module owns its red-black relaxation engine.  One `_Level` describes
a relaxation grid: its operator (the residual as a function of the full
grid), its checkerboard colors, the probe step and SOR factor taken from
its start grid, and its probed diagonals.  `relax_elliptic` relaxes one
level; the V-cycle holds one level per grid of the hierarchy and uses the
same color sweep as its smoother and coarsest-grid solve, and the same
convergence loop, `_iterate`, as its cycle loop.  The color sweep leaves
the residual after its last color to the callers that read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, ValidationError
from .geometry import check_uniform_axis
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
        for axis, name in ((self.sigma, "patch sigma axis"), (self.s, "patch s axis")):
            if axis.size < 3:
                raise ValidationError(f"{name} needs at least 3 nodes")
            check_uniform_axis(axis, name)

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


# --- the red-black relaxation engine --------------------------------------------


@dataclass
class RelaxationResult:
    xi: np.ndarray
    iterations: int
    final_residual: float
    history: List[float] = dc_field(default_factory=list)


# sweeps of residual history kept in RelaxationResult and ConvergenceError
_HISTORY_TAIL = 25


def relax_elliptic(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    xi0: np.ndarray,
    tol: float,
    max_iters: int = 20000,
) -> RelaxationResult:
    """Checkerboard SOR sweeps driving max |residual| below tol.

    residual_fn maps the full grid (n1, n2, c) to the interior residual
    (n1-2, n2-2, c), a new array on each call.  The local diagonal
    d(R_ij)/d(xi_ij) is probed numerically per checkerboard color (5-point
    couplings never connect same-color interior nodes, so one vectorized
    probe per color and component is exact) at the first sweep and every
    200th.  Boundary values are never touched.  The over-relaxation factor
    is 2 / (1 + sin(pi / (n - 1))) for the longer grid side n.

    A sweep updates each color, all components at once, from a residual of
    the current grid.  The residual after a sweep gives the convergence
    test and, the grid being unchanged, also serves as the next sweep's
    first-color residual and as the base of a diagonal probe.  So a solve
    evaluates residual_fn once, plus twice per sweep and 2c times per probe.

    This is the whole solve on a grid the conformal solver cannot halve.
    """
    xi = _relaxation_grid(xi0, tol, max_iters)
    res = residual_fn(xi)
    level = _level(residual_fn, xi, res)

    def sweep(iteration, res):
        if iteration % 200 == 0:
            level.diagonals = _color_diagonals(level, xi, res)
        _color_sweep(level, residual_fn, xi, res, level.omega)
        return residual_fn(xi)

    return _iterate(sweep, xi, res, tol, max_iters, "sweeps")


def _relaxation_grid(xi0: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """A fresh C-ordered copy of the start grid, once tol, max_iters and the grid are checked."""
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    xi = np.array(xi0, dtype=float, copy=True)
    n1, n2, _ = xi.shape
    if n1 < 3 or n2 < 3:
        raise ValidationError("grid too small for interior relaxation")
    if not np.all(np.isfinite(xi)):
        raise ValidationError("initial patch contains non-finite values")
    return xi


@dataclass
class _Level:
    """One relaxation grid: its operator, its red-black layout and the constants of its start grid.

    operator maps the full grid to its interior residual.  colors holds, per
    color, the flat element indices of its nodes' components in the interior
    residual and in the full grid; probe is the diagonal probe's step, omega
    the SOR factor for the grid's sides, and diagonals the probed d(R)/d(xi)
    per color.
    """

    operator: Callable[[np.ndarray], np.ndarray]
    colors: list
    probe: float
    omega: float
    diagonals: list


def _level(operator, xi: np.ndarray, base: np.ndarray) -> _Level:
    """The level of operator on the grid xi, its diagonals probed at xi (residual base)."""
    n1, n2, ncomp = xi.shape
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    colors = []
    for parity in (0, 1):
        mask = (ii + jj) % 2 == parity
        nodes = (np.flatnonzero(mask), (ii * n2 + jj)[mask])
        colors.append(tuple((idx[:, None] * ncomp + np.arange(ncomp)).ravel() for idx in nodes))
    probe = 1e-7 * max(1.0, float(np.max(np.abs(xi))))
    omega = 2.0 / (1.0 + math.sin(math.pi / max(n1 - 1, n2 - 1)))
    level = _Level(operator, colors, probe, omega, [])
    level.diagonals = _color_diagonals(level, xi, base)
    return level


def _color_diagonals(level: _Level, xi: np.ndarray, base: np.ndarray) -> list:
    """Per color, d(R)/d(xi) of the level's operator at its elements, probed at the grid xi (residual base)."""
    ncomp = xi.shape[2]
    diagonals = []
    for inner, full in level.colors:
        d = np.empty(len(inner))
        for k in range(ncomp):
            trial = xi.copy()
            trial.reshape(-1)[full[k::ncomp]] += level.probe
            shifted = level.operator(trial).reshape(-1)
            d[k::ncomp] = (shifted[inner[k::ncomp]] - base.reshape(-1)[inner[k::ncomp]]) / level.probe
        diagonals.append(d)
    if min(np.min(np.abs(d)) for d in diagonals) < 1e-300:
        raise ConvergenceError("degenerate relaxation diagonal")
    return diagonals


def _color_sweep(level: _Level, residual_fn, xi: np.ndarray, res: np.ndarray, omega: float) -> None:
    """One checkerboard sweep of the level's C-ordered grid xi in place, from its residual res.

    residual_fn is the level's operator, less a right-hand side in a
    V-cycle.  Each later color is updated from a new residual of the grid; a
    caller that reads the residual after the sweep evaluates it itself.
    """
    flat = xi.reshape(-1)
    for k, ((inner, full), diagonal) in enumerate(zip(level.colors, level.diagonals)):
        if k:
            res = residual_fn(xi)
        flat[full] -= omega * res.reshape(-1).take(inner) / diagonal


def _iterate(step, xi: np.ndarray, res: np.ndarray, tol: float, max_iters: int, unit: str) -> RelaxationResult:
    """Apply res = step(iteration, res) until max |res| < tol, keeping the history tail.

    Raises ConvergenceError when the residual turns non-finite or grows
    1e8-fold over the first iteration's, or when max_iters pass without
    convergence; `unit` names the iterations in that message.
    """
    history: List[float] = []
    initial_res = None
    for iteration in range(1, max_iters + 1):
        res = step(iteration, res)
        max_res = float(np.max(np.abs(res)))
        history.append(max_res)
        if len(history) > _HISTORY_TAIL:
            history.pop(0)
        if initial_res is None:
            initial_res = max_res if max_res > 0 else 1.0
        if not math.isfinite(max_res) or max_res > 1e8 * initial_res:
            raise ConvergenceError(
                f"relaxation diverged at iteration {iteration}", residual_history=history
            )
        if max_res < tol:
            return RelaxationResult(xi, iteration, max_res, history)
    raise ConvergenceError(
        f"no convergence after {max_iters} {unit} (residual {history[-1]:.3g})",
        residual_history=history,
    )


# --- multigrid ----------------------------------------------------------------------


# The multigrid cycle's constants: a grid is halved while both sides are odd
# and both halves keep at least _COARSEST nodes, and the coarsest grid gets
# _COARSEST_SWEEPS SOR sweeps per cycle.
_COARSEST = 9
_COARSEST_SWEEPS = 10


def _halvable(n1: int, n2: int) -> bool:
    """Both sides odd, and both halves ((n + 1) / 2 nodes) at least _COARSEST."""
    return n1 % 2 == 1 and n2 % 2 == 1 and min(n1, n2) + 1 >= 2 * _COARSEST


def _levels(operator, xi: np.ndarray, base: np.ndarray) -> List[_Level]:
    """The hierarchy from the fine grid xi down, each level's diagonals probed at xi's injection.

    operator is the fine grid's residual_grid partial and base its residual
    at xi; each halved grid's operator is the same partial at twice the steps.
    """
    levels = [_level(operator, xi, base)]
    while _halvable(*xi.shape[:2]):
        xi = xi[::2, ::2].copy()
        steps = operator.keywords
        operator = partial(operator, h_sigma=2.0 * steps["h_sigma"], h_s=2.0 * steps["h_s"])
        levels.append(_level(operator, xi, operator(xi)))
    return levels


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


def _v_cycle(levels: List[_Level], k: int, xi: np.ndarray, res: np.ndarray, rhs) -> None:
    """One FAS V-cycle for levels[k].operator(xi) = rhs, updating xi in place.

    res is the operator's residual of xi less rhs on entry; the residual of
    the updated xi is left to the caller.  Boundary nodes never change.
    """
    level = levels[k]

    def defect(grid):
        return level.operator(grid) - rhs

    if k == len(levels) - 1:
        for sweep in range(_COARSEST_SWEEPS):
            res = defect(xi) if sweep else res
            _color_sweep(level, defect, xi, res, level.omega)
        return
    _color_sweep(level, defect, xi, res, 1.0)
    res = defect(xi)
    start = xi[::2, ::2].copy()
    base = levels[k + 1].operator(start)
    coarse_rhs = base - _full_weighting(res)
    grid = start.copy()
    _v_cycle(levels, k + 1, grid, base - coarse_rhs, coarse_rhs)
    xi[1:-1, 1:-1] += _bilinear(grid - start)[1:-1, 1:-1]
    _color_sweep(level, defect, xi, defect(xi), 1.0)


def solve_conformal(
    boundary: ConformalPatch,
    w: PotentialField,
    tol: float,
    max_iters: int = 20000,
    forcing: Optional[np.ndarray] = None,
) -> Tuple[ConformalPatch, RelaxationResult]:
    """Solve for the interior of a patch until max |residual| < tol.

    Only the boundary of `boundary` is honored (the interior is re-seeded
    by transfinite interpolation).  `forcing`, when given, is subtracted
    from the interior residual (manufactured-solution runs).  Raises
    ConvergenceError when the budget is exhausted.

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

    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        expected = (boundary.sigma.size - 2, boundary.s.size - 2, 4)
        if forcing.shape != expected:
            raise ValidationError(f"forcing must have shape {expected}")

    rhs = 0.0 if forcing is None else forcing  # x - 0.0 is x, bit for bit
    operator = partial(residual_grid, h_sigma=boundary.h_sigma, h_s=boundary.h_s, field=w)

    def residual_fn(xi):
        return operator(xi) - rhs

    if _halvable(*xi0.shape[:2]):
        xi = _relaxation_grid(xi0, tol, max_iters)
        base = operator(xi)
        levels = _levels(operator, xi, base)

        def cycle(_, res):
            _v_cycle(levels, 0, xi, res, rhs)
            return residual_fn(xi)

        result = _iterate(cycle, xi, base - rhs, tol, max_iters, "V-cycles")
    else:
        result = relax_elliptic(residual_fn, xi0, tol, max_iters=max_iters)
    return boundary.copy_with(result.xi), result
