"""Discrete least-action engine and Euler-Lagrange residual oracle.

Evaluates the model Lagrangians on discretized paths (trapezoidal
quadrature, difference velocities) and string world sheets (four-corner
midpoint cells), and measures stationarity by perturbing interior nodes
symmetrically and differencing the action.  One colouring engine does this
for both: each kind supplies only its discrete Lagrangian (a cell function
over a block of nodes, the weights of a node's summed cells and the
normaliser), and the engine perturbs the nodes of one colour at a time,
2 colours x 2 cells per node on a path and 4 x 4 on a sheet.
Nothing here shares code with the hand-coded right-hand sides: the
functional derivatives are finite differences of the action itself, so
the oracle cross-validates the integrators instead of echoing them.

The Legendre check is the one place the oracle meets `particle`: it takes
p = dL/dv by finite differences of the array densities and compares
<p, v> - L with the model's invariant kernels, called once on the node
arrays.  It reads no force law.

Path channels: every kind uses the node positions r(s); the constrained
and interacting kinds additionally read a frozen lab-clock channel t(s)
(and the constrained kind a multiplier channel lambda(s)).  Frozen means
the channel is data along the path, not varied by the residual operator.
Every channel must be finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ActionDomainError,
    DegenerateLagrangianError,
    ValidationError,
)
from .geometry import Vec3, ZERO3, dot_rows as _dot, norm2_rows as _norm2
from .particle import (
    classical_energy,
    interacting_hamiltonian,
    vacuum_free_hamiltonian,
)
from .potentials import PotentialField
from .tolerances import FD_RELATIVE_STEP


class LagrangianKind(Enum):
    CLASSICAL_POINT = "classical-point"
    CONSTRAINED_POINT = "constrained-point"
    REST_FRAME_POINT = "rest-frame-point"
    VACUUM_FREE_POINT = "vacuum-free-point"
    VACUUM_INTERACTING_POINT = "vacuum-interacting-point"
    STRING_DENSITY = "string-density"


_NEEDS_T = {
    LagrangianKind.CONSTRAINED_POINT,
    LagrangianKind.VACUUM_INTERACTING_POINT,
}


@dataclass
class LagrangianSpec:
    kind: LagrangianKind
    field: PotentialField
    m0: Optional[float] = None
    charge: float = 1.0
    u_f: Vec3 = ZERO3

    def __post_init__(self):
        if self.kind in (LagrangianKind.CLASSICAL_POINT, LagrangianKind.CONSTRAINED_POINT):
            if self.m0 is None or self.m0 <= 0:
                raise ValidationError(f"{self.kind.value} needs m0 > 0")


def _finite_channel(values, name: str) -> np.ndarray:
    """values as a float array; ValidationError naming the channel if any entry is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"path channel {name} has non-finite values")
    return values


def _uniform_grid(values: np.ndarray, name: str) -> None:
    """ValidationError naming the grid unless values are uniform and increasing."""
    d = np.diff(values)
    if np.any(d <= 0) or np.max(np.abs(d - d[0])) > 1e-9 * max(1.0, abs(float(d[0]))):
        raise ValidationError(f"{name} must be uniform and increasing")


@dataclass
class DiscretePath:
    """Uniform parameter grid with node positions and optional t / lambda channels."""

    s: np.ndarray
    r: np.ndarray
    t: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None

    def __post_init__(self):
        self.s = _finite_channel(self.s, "s")
        self.r = _finite_channel(self.r, "r")
        m = self.s.size
        if m < 5:
            raise ValidationError("a discrete path needs at least 5 nodes")
        if self.r.shape != (m, 3):
            raise ValidationError("r must have shape (m, 3)")
        _uniform_grid(self.s, "parameter grid")
        for name in ("t", "lam"):
            ch = getattr(self, name)
            if ch is not None:
                ch = _finite_channel(ch, name)
                if ch.shape != (m,):
                    raise ValidationError(f"{name} channel must have shape (m,)")
                setattr(self, name, ch)

    @property
    def m(self) -> int:
        return self.s.size

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])


def _multiplier_channel(c) -> Optional[np.ndarray]:
    """lambda = l tdot (1 - u^2)^(1/2) per row of particle columns, if they carry l tdot."""
    if c.lam is None:
        return None
    return c.lam * np.sqrt(1.0 - _norm2(c.u))


def path_from_trajectory(trajectory, stride: int = 1) -> DiscretePath:
    """Build a path on the trajectory's own (uniform) integration grid.

    The path parameter is the run's integration variable; the lab clock is
    always carried as the t channel (for lab runs it coincides with the
    parameter) along with the multiplier channel when present.
    """
    rows = slice(None, None, stride)
    c = trajectory.columns(rows)
    return DiscretePath(s=trajectory.x[rows], r=c.r, t=c.t, lam=_multiplier_channel(c))


def uniform_proper_path(trajectory, m: int) -> DiscretePath:
    """Resample a lab-axis trajectory onto a uniform proper-time grid.

    Four-point Lagrange (cubic) interpolation in tau, so the O(dtau^4)
    resampling error stays below the O(dtau^2) discretization signal the
    residual oracle measures.
    """
    c = trajectory.columns()
    tau_s, t_s, r_s, lam_s = c.tau, c.t, c.r, _multiplier_channel(c)
    if len(tau_s) < 4:
        raise ValidationError(f"resampling needs at least 4 trajectory rows, got {len(tau_s)}")
    grid = np.linspace(tau_s[1], tau_s[-2], m)
    # each target's four-sample stencil and its Lagrange weights
    i0 = np.minimum(np.maximum(np.searchsorted(tau_s, grid) - 2, 0), len(tau_s) - 4)
    xs = tau_s[i0[:, None] + np.arange(4)]
    weights = []
    for a in range(4):
        wgt = np.ones(m)
        for b in range(4):
            if a != b:
                wgt = wgt * ((grid - xs[:, b]) / (xs[:, a] - xs[:, b]))
        weights.append(wgt)

    def interp(values):
        acc = np.zeros((m,) + values.shape[1:])
        for a, wgt in enumerate(weights):
            acc = acc + wgt.reshape((m,) + (1,) * (values.ndim - 1)) * values[i0 + a]
        return acc

    return DiscretePath(
        s=grid,
        r=interp(r_s),
        t=interp(t_s),
        lam=None if lam_s is None else interp(lam_s),
    )


# --- array Lagrangian densities ----------------------------------------------
#
# One density per point kind, L(r, v, t, tdot, lam) on arrays of nodes: r and
# v have shape (n, 3), the rest shape (n,); v is the velocity in the path's
# parameter.  Each keeps one fixed operation order, (x*x + y*y) + z*z for
# squared norms and dots, so a node's value does not depend on how many
# nodes are evaluated together.


def _qa(spec: LagrangianSpec, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    return spec.field.vecpot_many(r, t) * spec.charge


def _classical_density(spec, r, v, t, tdot, lam):
    # parameter is lab time; v = u
    u2 = _norm2(v)
    if np.any(u2 >= 1.0):
        raise ActionDomainError(
            f"|u|^2 = {u2[u2 >= 1.0][0]:.6g} >= 1 on a classical path"
        )
    qa = _qa(spec, r, t)
    return -spec.m0 * np.sqrt(1.0 - u2) - spec.field.wbar_many(r, t) + _dot(qa, v)


def _constrained_density(spec, r, v, t, tdot, lam):
    mink = tdot * tdot - _norm2(v)
    if np.any(mink <= 0.0):
        raise ActionDomainError("constrained path has <xdot,xdot> <= 0")
    qa = _qa(spec, r, t)
    wbar = spec.field.wbar_many(r, t)
    return -spec.m0 - (wbar * tdot - _dot(qa, v)) - lam * (np.sqrt(mink) - 1.0)


def _rest_frame_density(spec, r, v, t, tdot, lam):
    qa = _qa(spec, r, t)
    return -spec.field.wbar_many(r, t) * np.sqrt(1.0 + _norm2(v)) + _dot(qa, v)


def _vacuum_free_density(spec, r, v, t, tdot, lam):
    return -spec.field.wbar_many(r, t) * np.sqrt(1.0 + _norm2(v))


def _vacuum_interacting_density(spec, r, v, t, tdot, lam):
    rel = v - np.asarray(spec.u_f) * tdot[:, None]
    return -spec.field.wbar_many(r, t) * np.sqrt(1.0 + _norm2(rel))


_DENSITIES = {
    LagrangianKind.CLASSICAL_POINT: _classical_density,
    LagrangianKind.CONSTRAINED_POINT: _constrained_density,
    LagrangianKind.REST_FRAME_POINT: _rest_frame_density,
    LagrangianKind.VACUUM_FREE_POINT: _vacuum_free_density,
    LagrangianKind.VACUUM_INTERACTING_POINT: _vacuum_interacting_density,
}


# Field kinds whose vector potential is qA = wbar u_f by construction (A = 0
# with no source velocity, or a Coulomb source): the relation the interacting
# density and its Legendre check assume.
_QA_IS_WBAR_UF = ("uniform", "linear", "coulomb-static", "coulomb-comoving")


def check_oracle_coverage(spec: LagrangianSpec) -> None:
    """Refuse an interacting-kind spec in a field the oracle's density does not model."""
    if spec.kind is LagrangianKind.VACUUM_INTERACTING_POINT:
        kind = spec.field.kind
        if kind not in _QA_IS_WBAR_UF:
            raise ValidationError(
                f"the {spec.kind.value} oracle assumes qA = wbar u_f and does not cover "
                f"field kind '{kind}' (covered: {', '.join(_QA_IS_WBAR_UF)})"
            )


def _clock_nodes(spec: LagrangianSpec, path: DiscretePath) -> np.ndarray:
    """Lab-clock value at each node (the parameter itself for the classical kind)."""
    if spec.kind is LagrangianKind.CLASSICAL_POINT:
        return path.s
    if path.t is not None:
        return path.t
    return np.zeros(path.m)


def _point_channels(spec: LagrangianSpec, path: DiscretePath):
    """(t, lam) node channels of a point-kind path."""
    if spec.kind in _NEEDS_T and path.t is None:
        raise ValidationError(f"{spec.kind.value} path needs a t channel")
    lam = path.lam if path.lam is not None else np.zeros(path.m)
    return _clock_nodes(spec, path), lam


class _Lattice(NamedTuple):
    """One kind's discrete Lagrangian on a node grid of d axes (d = 1 path, d = 2 sheet).

    The path's nodes r have shape grid + (3,).  cells(nodes, block)
    evaluates every cell of a block of nodes cut from r by the axis slices
    block (the point kinds read their t and lambda channels through it).
    weights multiply a node's summed cells in turn, norm divides its
    difference quotient, and action(cells) is the action of all the grid's
    cells, in the kind's own summation order.
    """

    cells: Callable
    weights: tuple
    norm: float
    action: Callable


def _point_lattice(spec: LagrangianSpec, path: DiscretePath) -> _Lattice:
    """Trapezoidal discrete Lagrangian of the cells [a, b] between neighbouring nodes.

    Each cell carries the difference velocity (r_b - r_a)/ds and
    contributes (ds/2)[L(r_a, v) + L(r_b, v)]; this classic discrete
    Lagrangian is variationally consistent at every interior node (no
    spurious boundary gradients), unlike nodal quadrature with one-sided
    end stencils.  The action sums the cells from the left, not in np.sum's
    pairwise order.
    """
    t, lam = _point_channels(spec, path)
    density, ds = _DENSITIES[spec.kind], path.ds

    def cells(r, block):
        tb, lb = t[block], lam[block]
        v, tdot = (r[1:] - r[:-1]) / ds, (tb[1:] - tb[:-1]) / ds
        left = density(spec, r[:-1], v, tb[:-1], tdot, lb[:-1])
        return 0.5 * ds * (left + density(spec, r[1:], v, tb[1:], tdot, lb[1:]))

    return _Lattice(cells, (), ds, lambda c: np.add.accumulate(c)[-1])


def _lattice(spec: LagrangianSpec, path) -> _Lattice:
    if spec.kind is LagrangianKind.STRING_DENSITY:
        return _sheet_lattice(spec, path)
    return _point_lattice(spec, path)


def discrete_action(spec: LagrangianSpec, path) -> float:
    """Discrete-Lagrangian quadrature of the action over the path or world sheet."""
    lat = _lattice(spec, path)
    return float(lat.action(lat.cells(path.r, (slice(None),) * (path.r.ndim - 1))))


def euler_lagrange_residual(spec: LagrangianSpec, path) -> np.ndarray:
    """Numeric functional derivative dS/dr at interior nodes, density-normalized.

    Symmetric node perturbations with scale FD_RELATIVE_STEP * path amplitude;
    only the cells touching the perturbed node enter its difference
    quotient.  A true solution path returns residuals that vanish at
    second order in the path spacing.

    Colouring: on a grid of d axes a node is a corner of 2^d cells (j-1 and
    j on a path; (k-1 or k, j-1 or j) on a sheet), and every cell has
    exactly one corner of each colour, the parities of the node's indices.
    So all interior nodes of one colour are perturbed together, in one
    component and one sign at a time, and the cells next to them form one
    block of the grid that is evaluated as a whole: 2 colours x 2 cells on
    a path, 4 x 4 on a sheet.  Each node's quotient reads exactly its own
    cells, summed in index order (cell[j-1] + cell[j]; on a sheet
    ((lag[k-1, j-1] + lag[k-1, j]) + lag[k, j-1]) + lag[k, j]), so the
    passes give the residual of perturbing one node at a time, and a domain
    error is raised exactly when one of the perturbed cells leaves the
    Lagrangian's domain.

    On a sheet sampled from the staggered canonical flow the residual is
    the sigma-averaging mismatch between the flow and the four-corner
    Lagrangian.  To linear order about a straight string with |r'| = 1 and
    constant wbar, the flow solves y_tautau = -A D y while this action's
    stationarity reads A y_tautau + D y = 0, with A = [1, 2, 1]/4 and
    D = [1, -2, 1]/h^2 along sigma; the transverse residual is therefore
    wbar (1 - A^2) D y, with leading term -wbar (h^2/2) d^4y/dsigma^4.
    Its symbol (1 - cos^4(kh/2)) 4 sin^2(kh/2)/h^2 is second order only
    while kh is small, so the coarse/fine ratio of 4 shows once h
    resolves the data's shortest sigma scale.
    """
    lat, r = _lattice(spec, path), path.r
    grid = r.shape[:-1]
    hp = FD_RELATIVE_STEP * max(1.0, float(np.max(np.abs(r))))
    # a node's cells, in index order, sit at the even or odd positions of each block axis
    corners = list(itertools.product((slice(0, None, 2), slice(1, None, 2)), repeat=len(grid)))
    odd = corners[-1]  # the colour's nodes: odd on every axis

    out = np.empty(tuple(n - 2 for n in grid) + (3,))
    for colour in itertools.product((1, 2), repeat=len(grid)):
        # from one node before the colour's first to one after its last interior node
        block = tuple(slice(s - 1, s + 2 * ((n - 2 - s) // 2) + 2) for s, n in zip(colour, grid))
        nodes = r[block]
        for c in range(3):
            sums = []
            for shift in (hp, -hp):
                work = nodes.copy()
                work[odd + (c,)] = nodes[odd + (c,)] + shift
                cells = lat.cells(work, block)
                # started from the first cell, not from 0.0, which would change signs of zero
                total = sum((cells[corner] for corner in corners[1:]), cells[corners[0]])
                for weight in lat.weights:
                    total = total * weight
                sums.append(total)
            quotient = (sums[0] - sums[1]) / (2.0 * hp) / lat.norm
            out[tuple(slice(s - 1, None, 2) for s in colour) + (c,)] = quotient
    return out


# --- Legendre transform check --------------------------------------------------


@dataclass
class LegendreReport:
    kind: str
    max_abs_diff: float
    nodes: int

    def passed(self, tol: float = 1e-8) -> bool:
        return self.max_abs_diff < tol


def _onshell_clock_rates(spec: LagrangianSpec, v: np.ndarray) -> np.ndarray:
    """Clock rate dt/ds consistent with the kind's own time relation, per node.

    For the interacting kind the lab clock is slaved to the relative
    velocity through tdot^2 = 1 + |v - u_f tdot|^2 (positive root); the
    other nondegenerate kinds use unit rate (their Lagrangians do not
    read tdot).
    """
    if spec.kind is not LagrangianKind.VACUUM_INTERACTING_POINT:
        return np.ones(len(v))
    uf2 = spec.u_f.norm2()
    if uf2 == 0.0:
        return np.sqrt(1.0 + _norm2(v))
    b = _dot(v, np.asarray(spec.u_f))
    disc = b * b + (1.0 - uf2) * (1.0 + _norm2(v))
    return (-b + np.sqrt(disc)) / (1.0 - uf2)


def legendre_transform_check(spec: LagrangianSpec, path: DiscretePath) -> LegendreReport:
    """Verify <dL/dv, v> - L against the model Hamiltonian at (r, p = dL/dv).

    Raises DegenerateLagrangianError for kinds whose velocity Hessian is
    singular (the string density, and the constrained kind whose
    multiplier term is homogeneous of degree one in the four-velocity).
    """
    if spec.kind in (LagrangianKind.STRING_DENSITY, LagrangianKind.CONSTRAINED_POINT):
        raise DegenerateLagrangianError(f"{spec.kind.value} has a degenerate Legendre map")
    check_oracle_coverage(spec)
    density = _DENSITIES[spec.kind]
    r = path.r[1:-1]
    v = (path.r[2:] - path.r[:-2]) / (2.0 * path.ds)  # central differences at the interior nodes
    t = _clock_nodes(spec, path)[1:-1]
    tdot = _onshell_clock_rates(spec, v)
    lam = np.zeros(len(v))
    hv = FD_RELATIVE_STEP * (1.0 + np.sqrt(_norm2(v)))
    p = np.empty_like(v)
    for k in range(3):
        dv = np.zeros_like(v)
        dv[:, k] = hv
        lp = density(spec, r, v + dv, t, tdot, lam)
        lm = density(spec, r, v - dv, t, tdot, lam)
        p[:, k] = (lp - lm) / (2.0 * hv)
    h_num = _dot(p, v) - density(spec, r, v, t, tdot, lam)

    wbar = spec.field.wbar_many(r, t)
    if spec.kind is LagrangianKind.VACUUM_FREE_POINT:
        h_ref = vacuum_free_hamiltonian(wbar, p.T)
    elif spec.kind is LagrangianKind.VACUUM_INTERACTING_POINT:
        qa = np.multiply.outer(np.asarray(spec.u_f), wbar)
        h_ref = interacting_hamiltonian(wbar, p.T - qa, qa)
    elif spec.kind is LagrangianKind.REST_FRAME_POINT:
        h_ref = vacuum_free_hamiltonian(wbar, p.T - _qa(spec, r, t).T)
    else:  # classical
        h_ref = classical_energy(spec.m0, wbar, p.T - _qa(spec, r, t).T)
    worst = np.max(np.abs(h_num - h_ref))
    return LegendreReport(spec.kind.value, float(worst), len(v))


# --- multiplier consistency ------------------------------------------------------


@dataclass
class MultiplierReport:
    values: np.ndarray
    max_deviation: float
    constraint_defect: float

    def is_constant(self, tol: float) -> bool:
        return self.max_deviation < tol


def multiplier_consistency(path: DiscretePath, m0: float) -> MultiplierReport:
    """Constancy of lambda tdot (1-u^2)^(1/2) along a constrained-kind path.

    Uses fourth-order differences of the clock channels so the check
    resolves 1e-7 constancy on integrator-produced paths.  Paths that
    violate the unit-norm four-velocity constraint show up as nonconstant.
    """
    if path.t is None:
        raise ValidationError("multiplier consistency needs the t channel")
    m, ds = path.m, path.ds
    if m < 7:
        raise ValidationError("need at least 7 nodes for the high-order stencil")
    lam = path.lam if path.lam is not None else np.full(m, m0)

    def d4(values):
        return (
            -values[4:] + 8.0 * values[3:-1] - 8.0 * values[1:-3] + values[:-4]
        ) / (12.0 * ds)

    tdot = d4(path.t)
    rdot = np.stack([d4(path.r[:, k]) for k in range(3)], axis=1)
    u2 = np.einsum("ij,ij->i", rdot, rdot) / tdot**2
    if np.any(u2 >= 1.0):
        raise ActionDomainError("path implies |u| >= 1")
    values = lam[2:-2] * tdot * np.sqrt(1.0 - u2)
    constraint = np.abs(np.sqrt(tdot**2 - np.einsum("ij,ij->i", rdot, rdot)) - 1.0)
    return MultiplierReport(
        values=values,
        max_deviation=float(np.max(np.abs(values - values[0]))),
        constraint_defect=float(np.max(constraint)),
    )


# --- string world-sheet action -----------------------------------------------------


@dataclass
class StringWorldPath:
    """World-sheet samples r(tau_k, sigma_j) on uniform grids."""

    tau: np.ndarray
    sigma: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.tau = _finite_channel(self.tau, "tau")
        self.sigma = _finite_channel(self.sigma, "sigma")
        self.r = _finite_channel(self.r, "r")
        if self.r.shape != (self.tau.size, self.sigma.size, 3):
            raise ValidationError("r must have shape (n_tau, n_sigma, 3)")
        if self.tau.size < 5 or self.sigma.size < 5:
            raise ValidationError("world sheet needs at least 5 nodes per axis")
        _uniform_grid(self.tau, "tau grid")
        _uniform_grid(self.sigma, "sigma grid")

    @property
    def d_tau(self) -> float:
        return float(self.tau[1] - self.tau[0])

    @property
    def d_sigma(self) -> float:
        return float(self.sigma[1] - self.sigma[0])


def _sheet_cell_lagrangian(spec: LagrangianSpec, r: np.ndarray, d_tau: float, d_sigma: float) -> np.ndarray:
    """Midpoint discrete Lagrangian density per world-sheet cell.

    Each cell averages its four corners for the position and takes edge
    differences for the two derivative directions; like the 1-D discrete
    Lagrangian this is variationally consistent at every interior node.
    """
    mid = 0.25 * (r[1:, 1:] + r[1:, :-1] + r[:-1, 1:] + r[:-1, :-1])
    rdot = 0.5 * ((r[1:, 1:] + r[1:, :-1]) - (r[:-1, 1:] + r[:-1, :-1])) / d_tau
    rprime = 0.5 * ((r[1:, 1:] + r[:-1, 1:]) - (r[1:, :-1] + r[:-1, :-1])) / d_sigma
    pts = mid.reshape(-1, 3)
    w = spec.field.wbar_many(pts, np.zeros(len(pts))).reshape(mid.shape[:2])
    rp2 = np.einsum("ijk,ijk->ij", rprime, rprime)
    rd2 = np.einsum("ijk,ijk->ij", rdot, rdot)
    cross = np.einsum("ijk,ijk->ij", rprime, rdot)
    q2 = rp2 * (1.0 + rd2) - cross**2
    if np.min(q2) <= 0.0:
        raise ActionDomainError("string world-sheet measure went nonpositive")
    return -w * np.sqrt(q2)


def _sheet_lattice(spec: LagrangianSpec, path: StringWorldPath) -> _Lattice:
    """The midpoint cells of a world sheet; the action is np.sum of them times dtau, dsigma."""
    d_tau, d_sigma = path.d_tau, path.d_sigma

    def cells(r, block):
        return _sheet_cell_lagrangian(spec, r, d_tau, d_sigma)

    return _Lattice(cells, (d_tau, d_sigma), d_tau * d_sigma, lambda c: np.sum(c) * d_tau * d_sigma)
