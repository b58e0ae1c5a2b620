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
charged-string force law).  One staggered kernel, computed once per call on
the node arrays, gives each cell's grad(wbar) part, tension vector and
velocity half-sum, and one writer, ``_rates``, accumulates each cell into
its two nodes in the order of a sum into zeros.  string_canonical_rhs(state,
field) is that writer on a new buffer; charged_string_rhs(state, field, q)
is the same writer given the charge density q and the field's source
velocity u_f, which adds u_f beta to dr and the three nodal
electromagnetic terms to dp.  The alternative
functional |wbar r' - p| is provided for comparison: under the Euclidean
reading with <p, r'> = 0 it satisfies |wbar r' - p|^2 = (wbar r')^2 + p^2,
strictly above the energy integrand whenever p != 0 - the claimed
equivalence of the two forms fails, and the gap is measured, not resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EnergyDomainError, ValidationError
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


# --- staggered cells ------------------------------------------------------------


def _cells(h: float, field: PotentialField, r: np.ndarray, p: np.ndarray, t: np.ndarray):
    """The staggered cells of node rows r, p, t on spacing h.

    Returns (w, dr, rprime, pbar, rp2, hdens, mid, tmid, w2): wbar at the
    cell midpoints mid and times tmid, dr = r_{c+1} - r_c, rprime = dr / h,
    the averaged momentum pbar, rp2 = |rprime|^2, the energy root
    hdens = [(w |r'|)^2 - |pbar|^2]^(1/2) and w2 = w * w, all of length n-1.
    Raises EnergyDomainError, naming the worst cell, when the root's argument
    is below the domain guard.  Only arrays allocated here are updated in
    place, never the one ``wbar_many`` returned.
    """
    dr = r[1:] - r[:-1]
    mid = r[1:] + r[:-1]
    mid *= 0.5
    tmid = t[1:] + t[:-1]
    tmid *= 0.5
    w = field.wbar_many(mid, tmid)
    rprime = dr / h
    pbar = p[1:] + p[:-1]
    pbar *= 0.5
    rp2 = np.einsum("ij,ij->i", rprime, rprime)
    w2 = w * w
    g = w2 * rp2
    g -= np.einsum("ij,ij->i", pbar, pbar)
    if g.min() < ENERGY_DOMAIN_GUARD:
        worst = int(np.argmin(g))
        raise EnergyDomainError(
            f"(wbar r')^2 - p^2 = {g[worst]:.3g} at cell {worst}", where=worst
        )
    return w, dr, rprime, pbar, rp2, np.sqrt(g, out=g), mid, tmid, w2


def _flow_cells(h: float, field: PotentialField, r: np.ndarray, p: np.ndarray, t: np.ndarray):
    """Per-cell pieces of the flow: (grad-wbar part, tension vector, velocity half-sum).

    Each is an (n-1, 3) array that both nodes of its cell receive; the
    tension vector is lost by the cell's left node and gained by its right.
    """
    w, dr, _, pbar, rp2, hdens, mid, tmid, w2 = _cells(h, field, r, p, t)
    hcol = hdens[:, None]
    scale = w * rp2
    scale /= hdens
    scale *= 0.5
    grad = scale[:, None] * field.grad_wbar_many(mid, tmid)
    tension = w2[:, None] * dr
    tension /= h * h * hcol
    pbar *= 0.5
    pbar /= hcol
    return grad, tension, pbar


def _inner_rows(cells: np.ndarray, lead=np.add, out=None) -> np.ndarray:
    """Interior node rows lead(0, cells[j]) + cells[j-1] of a cell piece.

    This is the accumulation of the piece into a zeros array (lead is
    np.subtract for the tension), in the same order, so signed zeros
    come out as they would there.
    """
    rows = lead(0.0, cells[1:], out=out)
    rows += cells[:-1]
    return rows


def string_hamiltonian(state: StringState, field: PotentialField) -> float:
    """Energy functional: midpoint quadrature of [(wbar r')^2 - p^2]^(1/2)."""
    hdens = _cells(state.grid.h, field, state.r, state.p, state.t)[5]
    return float(state.grid.h * np.sum(hdens))


def string_hamiltonian_alt(state: StringState, field: PotentialField) -> float:
    """Alternative functional: quadrature of |wbar r' - p| on the same cells."""
    return float(state.grid.h * np.sum(cell_integrands(state, field)["alt"]))


def cell_integrands(state: StringState, field: PotentialField) -> dict:
    """Per-cell integrand values of both functionals, for gap diagnostics."""
    w, _, rprime, pbar, rp2, hdens, _, _, w2 = _cells(
        state.grid.h, field, state.r, state.p, state.t
    )
    diff = w[:, None] * rprime - pbar
    wrp2 = w2 * rp2
    p2 = np.einsum("ij,ij->i", pbar, pbar)
    cross = np.einsum("ij,ij->i", rprime, pbar)
    return {
        "energy": hdens,
        "alt": np.sqrt(np.einsum("ij,ij->i", diff, diff)),
        "wrprime_sq": wrp2,
        "pbar_sq": p2,
        "transversality": w * cross,
    }


def node_energy_density(state: StringState, field: PotentialField) -> np.ndarray:
    """Energy integrand averaged back to nodes (trajectory CSV column)."""
    hdens = _cells(state.grid.h, field, state.r, state.p, state.t)[5]
    out = np.zeros(state.grid.n)
    out[:-1] += 0.5 * hdens
    out[1:] += 0.5 * hdens
    out[0] *= 2.0
    out[-1] *= 2.0
    return out


def _rates(h: float, field: PotentialField, r, p, t, out: np.ndarray, q=0.0, u_f=None) -> None:
    """Write (dr/dtau, dp/dtau) of node rows r, p, t on spacing h into out, shape (2, n, 3).

    Without a source velocity u_f (an array) this is the canonical flow; with
    one, the law of charge density q: dr = v + u_f beta, beta = (1 + |v|^2)^(1/2),
    and dp gains q dr x curl A, -q grad<A, dr> and -q beta dA/dt, in that
    order.  The end rows are +0.0 (fixed endpoints), as in a sum into zeros.
    """
    grad, tension, velocity = _flow_cells(h, field, r, p, t)
    dr, dp = out
    dr[0] = dr[-1] = dp[0] = dp[-1] = 0.0
    rdot, force = dr[1:-1], dp[1:-1]
    _inner_rows(velocity, out=rdot)
    _inner_rows(grad, out=force)
    force += _inner_rows(tension, np.subtract)
    if u_f is None:
        return
    beta = np.sqrt(1.0 + np.einsum("ij,ij->i", rdot, rdot))
    rdot += beta[:, None] * u_f
    if q != 0.0:
        r, t = r[1:-1], t[1:-1]
        jac = field.grad_vecpot_many(r, t)
        curl = np.column_stack(
            [jac[:, 2, 1] - jac[:, 1, 2], jac[:, 0, 2] - jac[:, 2, 0], jac[:, 1, 0] - jac[:, 0, 1]]
        )
        force += q * np.cross(rdot, curl)
        force -= q * np.einsum("nij,ni->nj", jac, rdot)
        force -= (q * beta)[:, None] * field.dvecpot_dt_many(r, t)


def string_canonical_rhs(state: StringState, field: PotentialField):
    """(dr/dtau, dp/dtau) of the canonical flow with fixed endpoints.

    Equals the exact gradient of the discretized energy functional H via
    dr_j = -(1/h) dH/dp_j and dp_j = +(1/h) dH/dr_j (generator -H).
    """
    dr, dp = out = np.empty((2, state.grid.n, 3))
    _rates(state.grid.h, field, state.r, state.p, state.t, out)
    return dr, dp


def charged_string_rhs(state: StringState, field: PotentialField, q: float):
    """(dr/dtau, dp/dtau) of a string of charge density q in field, with fixed endpoints.

    The source velocity u_f is the field's own (zero for fields without
    one).  The state's momentum array is the generalized momentum P; the
    potential-gradient and tension pieces are those of the uncharged flow,
    and the electromagnetic terms are evaluated nodally from the field.
    """
    dr, dp = out = np.empty((2, state.grid.n, 3))
    u_f = getattr(field, "u_f", ZERO3).as_array()
    _rates(state.grid.h, field, state.r, state.p, state.t, out, q, u_f)
    return dr, dp


# --- nodal kernels --------------------------------------------------------------


def transversality_defect(state: StringState) -> float:
    """max over nodes of |<p, r'>| (nodal central derivative)."""
    rp = sigma_derivative(state.grid, state.r)
    return float(np.max(np.abs(np.einsum("ij,ij->i", rp, state.p))))


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
) -> StringState:
    """Straight string with a transverse Gaussian momentum pluck at mid-string.

    The profile is windowed by sin^2 of the normalized position so the
    momentum vanishes smoothly at the fixed ends; a hard cutoff would seed
    a kink whose broadband spectrum the elliptic-in-tau flow amplifies.
    """
    state = straight_string(grid, start, end)
    c = 0.5 * (grid.sigma[0] + grid.sigma[-1])
    frac = (grid.sigma - grid.sigma[0]) / (grid.sigma[-1] - grid.sigma[0])
    window = np.sin(math.pi * frac) ** 2
    try:
        spread = 2.0 * width**2
    except OverflowError:  # a pluck this wide is flat
        spread = math.inf
    bump = amplitude * np.exp(-((grid.sigma - c) ** 2) / spread) * window
    state.p = np.outer(bump, direction.as_array())
    return state
