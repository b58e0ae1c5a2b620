"""Vacuum-potential string dynamics on a sigma-discretized grid.

The energy functional is the quadrature of

    h(sigma) = [ (wbar |r'|)^2 - |p|^2 ]^(1/2)

over the string, evaluated on staggered cells: r' and the averaged
momentum live on half-grid midpoints.  The staggered form is exactly
invariant under longitudinal relabeling of collinear nodes, so a
straight static string is an exact discrete equilibrium (no spurious
boundary forces), and the canonical flow conserves the discrete
functional up to time-stepper error only.

Sign conventions: the pointwise Legendre transform of the string
Lagrangian density gives <p, rdot> - L = -h, so the canonical generator
is the NEGATIVE of the (positive) energy functional reported by
string_hamiltonian; the flow implemented here,

    dr/dtau = + p / h          dp/dtau = (wbar |r'|^2 / h) grad(wbar)
                                          - d/dsigma (wbar^2 r' / h)

is the Lagrangian-consistent one (it is the uncharged reduction of the
charged-string force law).  The alternative functional |wbar r' - p| is
provided for comparison: under the Euclidean reading with <p, r'> = 0
it satisfies |wbar r' - p|^2 = (wbar r')^2 + p^2, strictly above the
energy integrand whenever p != 0 - the claimed equivalence of the two
forms fails, and the gap is measured, not resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EnergyDomainError, ValidationError, ZeroDirectionError
from .geometry import Vec3, ZERO3
from .potentials import PotentialField
from .tolerances import ENERGY_DOMAIN_GUARD


@dataclass(frozen=True)
class StringGrid:
    """Uniform sigma grid on [sigma_1, sigma_2] with at least 8 nodes."""

    sigma: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        if sig.ndim != 1 or sig.size < 8:
            raise ValidationError("string grid needs at least 8 nodes")
        d = np.diff(sig)
        if np.any(d <= 0):
            raise ValidationError("sigma grid must be strictly increasing")
        if np.max(np.abs(d - d[0])) > 1e-12 * max(1.0, abs(float(d[0]))):
            raise ValidationError("sigma grid must be uniform")

    @property
    def n(self) -> int:
        return self.sigma.size

    @property
    def h(self) -> float:
        return float(self.sigma[1] - self.sigma[0])

    @staticmethod
    def uniform(sigma_min: float, sigma_max: float, n: int) -> "StringGrid":
        return StringGrid(np.linspace(sigma_min, sigma_max, n))


@dataclass
class StringState:
    """Positions r(sigma_i), momentum density p(sigma_i), clocks tau and t(sigma_i)."""

    grid: StringGrid
    r: np.ndarray
    p: np.ndarray
    tau: float = 0.0
    t: Optional[np.ndarray] = None

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        n = self.grid.n
        if self.r.shape != (n, 3) or self.p.shape != (n, 3):
            raise ValidationError("r and p must have shape (n, 3)")
        if self.t is None:
            self.t = np.zeros(n)
        else:
            self.t = np.asarray(self.t, dtype=float)
            if self.t.shape != (n,):
                raise ValidationError("t channel must have shape (n,)")

    def copy(self) -> "StringState":
        return StringState(self.grid, self.r.copy(), self.p.copy(), self.tau, self.t.copy())


def sigma_derivative(grid: StringGrid, values: np.ndarray) -> np.ndarray:
    """Nodal d/dsigma: central interior, one-sided second order at the ends."""
    h = grid.h
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


# --- staggered cell machinery -------------------------------------------------


@dataclass
class _Cells:
    w: np.ndarray        # wbar at cell midpoints                (n-1,)
    grad_w: np.ndarray   # grad wbar at cell midpoints           (n-1, 3)
    rprime: np.ndarray   # (r_{c+1} - r_c)/h                     (n-1, 3)
    dr: np.ndarray       # r_{c+1} - r_c                         (n-1, 3)
    pbar: np.ndarray     # (p_c + p_{c+1})/2                     (n-1, 3)
    hdens: np.ndarray    # [(w |r'|)^2 - |pbar|^2]^(1/2)         (n-1,)


def _cells(state: StringState, field: PotentialField, need_grad: bool = True) -> _Cells:
    h = state.grid.h
    dr = state.r[1:] - state.r[:-1]
    mid = 0.5 * (state.r[1:] + state.r[:-1])
    tmid = 0.5 * (state.t[1:] + state.t[:-1])
    w = field.wbar_many(mid, tmid)
    rprime = dr / h
    pbar = 0.5 * (state.p[1:] + state.p[:-1])
    g = w * w * np.einsum("ij,ij->i", rprime, rprime) - np.einsum(
        "ij,ij->i", pbar, pbar
    )
    if np.min(g) < ENERGY_DOMAIN_GUARD:
        worst = int(np.argmin(g))
        raise EnergyDomainError(
            f"(wbar r')^2 - p^2 = {g[worst]:.3g} at cell {worst}", where=worst
        )
    grad_w = field.grad_wbar_many(mid, tmid) if need_grad else np.zeros_like(mid)
    return _Cells(w, grad_w, rprime, dr, pbar, np.sqrt(g))


def string_hamiltonian(state: StringState, field: PotentialField) -> float:
    """Energy functional: midpoint quadrature of [(wbar r')^2 - p^2]^(1/2)."""
    cells = _cells(state, field, need_grad=False)
    return float(state.grid.h * np.sum(cells.hdens))


def string_hamiltonian_alt(state: StringState, field: PotentialField) -> float:
    """Alternative functional: quadrature of |wbar r' - p| on the same cells."""
    cells = _cells(state, field, need_grad=False)
    diff = cells.w[:, None] * cells.rprime - cells.pbar
    return float(state.grid.h * np.sum(np.sqrt(np.einsum("ij,ij->i", diff, diff))))


def cell_integrands(state: StringState, field: PotentialField) -> dict:
    """Per-cell integrand values of both functionals, for gap diagnostics."""
    cells = _cells(state, field, need_grad=False)
    diff = cells.w[:, None] * cells.rprime - cells.pbar
    wrp2 = cells.w**2 * np.einsum("ij,ij->i", cells.rprime, cells.rprime)
    p2 = np.einsum("ij,ij->i", cells.pbar, cells.pbar)
    cross = np.einsum("ij,ij->i", cells.rprime, cells.pbar)
    return {
        "energy": cells.hdens,
        "alt": np.sqrt(np.einsum("ij,ij->i", diff, diff)),
        "wrprime_sq": wrp2,
        "pbar_sq": p2,
        "transversality": cells.w * cross,
    }


def node_energy_density(state: StringState, field: PotentialField) -> np.ndarray:
    """Energy integrand averaged back to nodes (trajectory CSV column)."""
    cells = _cells(state, field, need_grad=False)
    out = np.zeros(state.grid.n)
    out[:-1] += 0.5 * cells.hdens
    out[1:] += 0.5 * cells.hdens
    out[0] *= 2.0
    out[-1] *= 2.0
    return out


def _gradient_parts(state: StringState, field: PotentialField):
    """Split dp/dtau into the potential-gradient and tension pieces (density form)."""
    h = state.grid.h
    cells = _cells(state, field)
    n = state.grid.n

    rp2 = np.einsum("ij,ij->i", cells.rprime, cells.rprime)
    wcoef = 0.5 * (cells.w * rp2 / cells.hdens)
    grad_piece = np.zeros((n, 3))
    wpart = wcoef[:, None] * cells.grad_w
    grad_piece[:-1] += wpart
    grad_piece[1:] += wpart

    tension_piece = np.zeros((n, 3))
    vec = (cells.w**2)[:, None] * cells.dr / (h * h * cells.hdens[:, None])
    tension_piece[:-1] -= vec
    tension_piece[1:] += vec

    velocity = np.zeros((n, 3))
    cp = 0.5 * cells.pbar / cells.hdens[:, None]
    velocity[:-1] += cp
    velocity[1:] += cp
    return grad_piece, tension_piece, velocity


def string_canonical_rhs(state: StringState, field: PotentialField):
    """(dr/dtau, dp/dtau) of the canonical flow with fixed endpoints.

    Equals the exact gradient of the discretized energy functional H via
    dr_j = -(1/h) dH/dp_j and dp_j = +(1/h) dH/dr_j (generator -H).
    """
    grad_piece, tension_piece, velocity = _gradient_parts(state, field)
    dr = velocity
    dp = grad_piece + tension_piece
    dr[0] = dr[-1] = 0.0
    dp[0] = dp[-1] = 0.0
    return dr, dp


# --- nodal kernels --------------------------------------------------------------


def string_momentum(r: np.ndarray, rdot: np.ndarray, wbar_values: np.ndarray, grid: StringGrid) -> np.ndarray:
    """Momentum density p = -wbar r'^2 Nhat rdot / [r'^2(rdot^2+1) - <r',rdot>^2]^(1/2).

    Pointwise evaluation at the nodes; the output is transversal,
    <p, r'> = 0, up to rounding.
    """
    r = np.asarray(r, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    rp = sigma_derivative(grid, r)
    rp2 = np.einsum("ij,ij->i", rp, rp)
    if np.any(rp2 == 0.0):
        raise ZeroDirectionError("|r'| = 0 at a node")
    cross = np.einsum("ij,ij->i", rp, rdot)
    rd2 = np.einsum("ij,ij->i", rdot, rdot)
    q2 = rp2 * (rd2 + 1.0) - cross**2
    if np.min(q2) <= 0:
        raise EnergyDomainError("momentum kernel square root went nonpositive")
    w = np.asarray(wbar_values, dtype=float)
    num = rp2[:, None] * rdot - rp * cross[:, None]
    return -w[:, None] * num / np.sqrt(q2)[:, None]


def transversality_defect(state: StringState) -> float:
    """max over nodes of |<p, r'>| (nodal central derivative)."""
    rp = sigma_derivative(state.grid, state.r)
    return float(np.max(np.abs(np.einsum("ij,ij->i", rp, state.p))))


# --- charged string ---------------------------------------------------------------


@dataclass
class ChargedStringScenario:
    """Charged string (density q) in an external field from a comoving source."""

    state: StringState
    charge_density: float
    field: PotentialField
    u_f: Vec3 = ZERO3


@dataclass
class ChargedStringTerms:
    """Named force contributions per node (zero rows at the fixed ends)."""

    magnetic: np.ndarray          # q rdot x B
    vecpot_gradient: np.ndarray   # -q grad<A, rdot>
    induction: np.ndarray         # -q dA/dtau
    wbar_gradient: np.ndarray     # -(Q_f) grad(wbar) piece
    tension: np.ndarray           # d/dsigma of the projector bracket
    rdot: np.ndarray              # node velocities v + u_f beta
    relative_velocity: np.ndarray
    beta: np.ndarray
    qa_string: np.ndarray         # intrinsic vector potential (momentum split)
    p_local: np.ndarray           # P - qa_string


@dataclass
class ChargedStringRhs:
    dr: np.ndarray
    dp: np.ndarray
    terms: ChargedStringTerms


def charged_string_rhs(scenario: ChargedStringScenario) -> ChargedStringRhs:
    """Full charged-string force law evaluated at the scenario state.

    The state's momentum array is the generalized momentum P; the
    potential-gradient and tension pieces are the staggered-functional
    gradients in P (identical, term by term, to the uncharged flow when
    u_f = 0 and A = 0), and the electromagnetic terms are evaluated
    nodally from the external field.
    """
    state = scenario.state
    field = scenario.field
    q = scenario.charge_density
    u_f = scenario.u_f
    n = state.grid.n

    grad_piece, tension_piece, v = _gradient_parts(state, field)
    beta = np.sqrt(1.0 + np.einsum("ij,ij->i", v, v))
    rdot = v + np.outer(beta, u_f.as_array())

    magnetic = np.zeros((n, 3))
    vecpot_gradient = np.zeros((n, 3))
    induction = np.zeros((n, 3))
    if q != 0.0:
        inner = slice(1, n - 1)
        jac = field.grad_vecpot_many(state.r[inner], state.t[inner])
        curl = np.column_stack(
            [jac[:, 2, 1] - jac[:, 1, 2], jac[:, 0, 2] - jac[:, 2, 0], jac[:, 1, 0] - jac[:, 0, 1]]
        )
        magnetic[inner] = q * np.cross(rdot[inner], curl)
        vecpot_gradient[inner] = -q * np.einsum("nij,ni->nj", jac, rdot[inner])
        induction[inner] = (-q * beta[inner])[:, None] * field.dvecpot_dt_many(
            state.r[inner], state.t[inner]
        )

    # intrinsic vector potential and local momentum (momentum split diagnostics)
    rp = sigma_derivative(state.grid, state.r)
    rp2 = np.einsum("ij,ij->i", rp, rp)
    if np.any(rp2 == 0.0):
        raise ZeroDirectionError("|r'| = 0 at a node")
    qa_string = np.zeros((n, 3))
    if u_f.norm2() > 0:
        w_nodes = field.wbar_many(state.r, state.t)
        rdot_f = np.outer(beta, u_f.as_array())
        cross = np.einsum("ij,ij->i", rp, rdot_f)
        nhat_rdot_f = rdot_f - rp * (cross / rp2)[:, None]
        vrel = v
        v2 = np.einsum("ij,ij->i", vrel, vrel)
        vcross = np.einsum("ij,ij->i", vrel, rp)
        q2 = rp2 * (1.0 + v2) - vcross**2
        qa_string = w_nodes[:, None] * rp2[:, None] * nhat_rdot_f / np.sqrt(q2)[:, None]
    p_local = state.p - qa_string

    dp = grad_piece + tension_piece + magnetic + vecpot_gradient + induction
    dr = rdot.copy()
    dr[0] = dr[-1] = 0.0
    dp[0] = dp[-1] = 0.0

    terms = ChargedStringTerms(
        magnetic=magnetic,
        vecpot_gradient=vecpot_gradient,
        induction=induction,
        wbar_gradient=grad_piece,
        tension=tension_piece,
        rdot=rdot,
        relative_velocity=v,
        beta=beta,
        qa_string=qa_string,
        p_local=p_local,
    )
    return ChargedStringRhs(dr=dr, dp=dp, terms=terms)


# --- state builders ---------------------------------------------------------------


def straight_string(grid: StringGrid, start: Vec3, end: Vec3) -> StringState:
    """Static straight string from start to end with p = 0."""
    frac = (grid.sigma - grid.sigma[0]) / (grid.sigma[-1] - grid.sigma[0])
    r = start.as_array()[None, :] + np.outer(frac, (end - start).as_array())
    return StringState(grid, r, np.zeros((grid.n, 3)))


def plucked_string(
    grid: StringGrid,
    start: Vec3,
    end: Vec3,
    amplitude: float,
    width: float,
    direction: Vec3 = Vec3(0.0, 1.0, 0.0),
    center: Optional[float] = None,
) -> StringState:
    """Straight string with a transverse Gaussian momentum pluck.

    The profile is windowed by sin^2 of the normalized position so the
    momentum vanishes smoothly at the fixed ends; a hard cutoff would seed
    a kink whose broadband spectrum the elliptic-in-tau flow amplifies.
    """
    state = straight_string(grid, start, end)
    c = 0.5 * (grid.sigma[0] + grid.sigma[-1]) if center is None else center
    frac = (grid.sigma - grid.sigma[0]) / (grid.sigma[-1] - grid.sigma[0])
    window = np.sin(math.pi * frac) ** 2
    try:
        spread = 2.0 * width**2
    except OverflowError:  # a pluck this wide is flat
        spread = math.inf
    bump = amplitude * np.exp(-((grid.sigma - c) ** 2) / spread) * window
    state.p = np.outer(bump, direction.as_array())
    return state
