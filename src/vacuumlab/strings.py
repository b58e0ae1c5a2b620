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

is the Lagrangian-consistent one for an uncharged string (the charged-string
law is not implemented here).  A StringState is one state or a block of
states (r and p of shape (..., n, 3)), and every kernel below is written
once for both: the energy functionals, the transversality defect, the
nodal density and the cell integrands of a block are those of its states,
bit for bit, computed along the contiguous last axis, and one state gives
a float.  One staggered kernel, ``_cells``, gives each
cell's pieces; one writer, ``bind_rates``, turns them into each cell's
grad(wbar) part, tension vector and velocity half-sum and accumulates each
cell into its two nodes in the order of a sum into zeros.  The writer is
bound once per run to the grid and the field: its buffers, their slices
and the kernel's temporaries are made at the bind, and a call allocates
only the copy of the rate it returns and the field's own arrays.
string_canonical_rhs(state, field) binds the writer and calls it once.
This module is the one owner of the flat (r, p, t) state a string run
steps: `flat` packs a state or a block, `view` reads one back as a
StringState of views, and `bind_step` gives the stepper the writer as its
rate and the check of a new state.  The alternative functional
|wbar r' - p| is provided for comparison: under the Euclidean reading
with <p, r'> = 0 it satisfies
|wbar r' - p|^2 = (wbar r')^2 + p^2, strictly above the energy integrand
whenever p != 0 - the claimed equivalence of the two forms fails, and the
gap is measured, not resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EnergyDomainError, PhysicsDomainError, ValidationError
from .geometry import Vec3, check_uniform_axis
from .potentials import PotentialField

# Energy-domain guard: abort when (wbar*r')^2 - p^2 < this
ENERGY_DOMAIN_GUARD = 1e-10


@dataclass(frozen=True)
class StringGrid:
    """Uniform sigma grid on [sigma_1, sigma_2] with at least 8 nodes."""

    sigma: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        if sig.ndim != 1 or sig.size < 8:
            raise ValidationError("string grid needs at least 8 nodes")
        check_uniform_axis(sig, "sigma grid")

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
    """Positions r(sigma_i), momentum density p(sigma_i), clocks tau and t(sigma_i).

    One state, or a block of states: r and p have shape (..., n, 3), t shape
    (..., n), and tau is a float or an array of the block's leading shape.
    """

    grid: StringGrid
    r: np.ndarray
    p: np.ndarray
    tau: float = 0.0
    t: Optional[np.ndarray] = None

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.r.shape[-2:] != (self.grid.n, 3) or self.p.shape != self.r.shape:
            raise ValidationError("r and p must have shape (n, 3)")
        if self.t is None:
            self.t = np.zeros(self.r.shape[:-1])
        else:
            self.t = np.asarray(self.t, dtype=float)
            if self.t.shape != self.r.shape[:-1]:
                raise ValidationError("t channel must have shape (n,)")

    def copy(self) -> "StringState":
        return StringState(self.grid, self.r.copy(), self.p.copy(), self.tau, self.t.copy())


def sigma_derivative(grid: StringGrid, values: np.ndarray) -> np.ndarray:
    """Nodal d/dsigma of node rows (..., n, k): central interior, one-sided second order at the ends."""
    h = grid.h
    out = np.empty_like(values)
    out[..., 1:-1, :] = (values[..., 2:, :] - values[..., :-2, :]) / (2.0 * h)
    out[..., 0, :] = (-3.0 * values[..., 0, :] + 4.0 * values[..., 1, :] - values[..., 2, :]) / (2.0 * h)
    out[..., -1, :] = (3.0 * values[..., -1, :] - 4.0 * values[..., -2, :] + values[..., -3, :]) / (2.0 * h)
    return out


# --- staggered cells ------------------------------------------------------------


def _cells(h: float, field: PotentialField, r: np.ndarray, p: np.ndarray, t: np.ndarray):
    """Bind the staggered cells of node rows r, p, t (one state or a block) on spacing h.

    r and p have shape (..., n, 3) and t shape (..., n).  Returns (evaluate,
    cells).  cells = (dr, rprime, pbar, rp2, hdens, mid, tmid, w2) are arrays
    of shape (..., n-1, 3) or (..., n-1) allocated here: dr = r_{c+1} - r_c,
    rprime = dr / h, the averaged momentum pbar, rp2 = |rprime|^2, the
    energy root hdens = [(w |r'|)^2 - |pbar|^2]^(1/2), the cell midpoints mid
    and times tmid, and w2 = w * w.  evaluate() fills them from the current
    values of r, p and t and returns w, wbar at the midpoints, flat: the
    field takes the flat views of mid and tmid made here, so a block costs
    one field call.  Only these arrays are written in place, never the one
    ``wbar_many`` returned.

    The root's argument is tested against the domain guard once, over all
    cells: one state raises EnergyDomainError naming its worst cell as
    ``where``.  Only when that test or the field call raises does a block
    evaluate its states one by one; it raises the error of the first state
    that raises on its own, with ``where`` that state's index in the block.
    As a NaN cell hides a state's low cells from the test, a NaN anywhere
    in a block hides the block's.
    """
    n = t.shape[-1]
    r1, r0, p1, p0 = r[..., 1:, :], r[..., :-1, :], p[..., 1:, :], p[..., :-1, :]
    t1, t0 = t[..., 1:], t[..., :-1]
    rows, sums = np.empty((4, *t0.shape, 3)), np.empty((5, *t0.shape))
    (dr, mid, rprime, pbar), (tmid, rp2, p2, w2, g) = rows, sums
    # the field and the products take flat views; rprime and pbar are adjacent,
    # and so are rp2 and p2: one einsum gives both row dots, bit for bit as two would
    points, pair, flat = mid.reshape(-1, 3), rows[2:].reshape(2, -1, 3), sums.reshape(5, -1)
    (times, rp2f, p2f, w2f, gf), dots = flat, flat[1:3]

    def evaluate():
        np.subtract(r1, r0, out=dr)
        np.add(r1, r0, out=mid)
        np.multiply(mid, 0.5, out=mid)
        np.add(t1, t0, out=tmid)
        np.multiply(tmid, 0.5, out=tmid)
        w = field.wbar_many(points, times)
        np.divide(dr, h, out=rprime)
        np.add(p1, p0, out=pbar)
        np.multiply(pbar, 0.5, out=pbar)
        np.einsum("kij,kij->ki", pair, pair, out=dots)
        np.multiply(w, w, out=w2f)
        np.multiply(w2f, rp2f, out=gf)
        np.subtract(gf, p2f, out=gf)
        if gf.min(initial=math.inf) < ENERGY_DOMAIN_GUARD:  # an empty block has no cell to test
            worst = int(np.argmin(gf))
            raise EnergyDomainError(f"(wbar r')^2 - p^2 = {gf[worst]:.3g} at cell {worst}", where=worst)
        np.sqrt(gf, out=gf)
        return w

    cells = (dr, rprime, pbar, rp2, g, mid, tmid, w2)
    if g.ndim == 1:
        return evaluate, cells

    def evaluate_block():
        try:
            return evaluate()
        except PhysicsDomainError:
            for k, state in enumerate(zip(r.reshape(-1, n, 3), p.reshape(-1, n, 3), t.reshape(-1, n))):
                try:
                    _cells(h, field, *state)[0]()
                except PhysicsDomainError as exc:
                    raise type(exc)(str(exc), where=k) from None
            raise

    return evaluate_block, cells


def _state_cells(state: StringState, field: PotentialField):
    """(w, dr, rprime, pbar, rp2, hdens, mid, tmid, w2) of a state's or a block's cells, on new arrays."""
    evaluate, cells = _cells(state.grid.h, field, state.r, state.p, state.t)
    return (evaluate(), *cells)


def string_hamiltonian(state: StringState, field: PotentialField):
    """Energy functional: midpoint quadrature of [(wbar r')^2 - p^2]^(1/2), per state of a block."""
    return state.grid.h * np.sum(_state_cells(state, field)[5], axis=-1)


def string_hamiltonian_alt(state: StringState, field: PotentialField):
    """Alternative functional: quadrature of |wbar r' - p| on the same cells."""
    return state.grid.h * np.sum(cell_integrands(state, field)["alt"], axis=-1)


def cell_integrands(state: StringState, field: PotentialField) -> dict:
    """Per-cell integrand values of both functionals, for gap diagnostics."""
    w, _, rprime, pbar, rp2, hdens, _, _, w2 = _state_cells(state, field)
    diff = w.reshape(w2.shape)[..., None] * rprime - pbar
    wrp2 = w2 * rp2
    p2 = np.einsum("...ij,...ij->...i", pbar, pbar)
    return {
        "energy": hdens,
        "alt": np.sqrt(np.einsum("...ij,...ij->...i", diff, diff)),
        "wrprime_sq": wrp2,
        "pbar_sq": p2,
    }


def node_energy_density(state: StringState, field: PotentialField) -> np.ndarray:
    """Energy integrand averaged back to nodes (trajectory CSV column)."""
    hdens = _state_cells(state, field)[5]
    out = np.zeros(state.t.shape)
    out[..., :-1] += 0.5 * hdens
    out[..., 1:] += 0.5 * hdens
    out[..., 0] *= 2.0
    out[..., -1] *= 2.0
    return out


def flat(state: StringState) -> np.ndarray:
    """The flat (r, p, t) layout of a state, or of a block: (..., 7n) floats, r and p row-major, then t."""
    lead = state.t.shape[:-1]
    return np.concatenate([state.r.reshape(*lead, -1), state.p.reshape(*lead, -1), state.t], axis=-1)


def view(grid: StringGrid, y: np.ndarray, tau) -> StringState:
    """The StringState at tau of flat states y of `flat`'s layout, one (7n,) or a block (..., 7n).

    r, p and t are views of y; tau is a float or an array of the block's leading shape.
    """
    m = grid.n
    r, p = (y[..., k * m : (k + 3) * m].reshape(*y.shape[:-1], m, 3) for k in (0, 3))
    return StringState(grid, r, p, tau, y[..., 6 * m :])


def bind_rates(grid: StringGrid, field: PotentialField):
    """Bind the canonical flow's writer to the grid and the field: rates(y) -> k.

    y is a flat state of `flat`'s layout.  k, of the same layout, holds
    dr/dtau, dp/dtau and the clock rate dt/dtau = (1 + |dr|^2)^(1/2).  The
    end rows of dr and dp are +0.0 (fixed endpoints), as in a sum into
    zeros.

    The binding holds one state buffer and one rate buffer, the views of
    their cell slices and node rows, and the cells' temporaries.  A call
    copies y in, writes the rate in the order of a sum of each cell into its
    two nodes, and returns a copy of the rate buffer, so no call sees
    another's values.
    """
    h, m = grid.h, grid.n
    y, k = np.empty(7 * m), np.zeros(7 * m)
    held, rate = view(grid, y, 0.0), view(grid, k, 0.0)  # the buffers' node rows and t channels
    r, p, t, dr, dp, dt = held.r, held.p, held.t, rate.r, rate.p, rate.t
    rdot, force = dr[1:-1], dp[1:-1]
    evaluate, (diff, _, velocity, rp2, hdens, mid, tmid, w2) = _cells(h, field, r, p, t)
    grad, tension = np.empty((m - 1, 3)), np.empty((m - 1, 3))
    scale, hh, rows = np.empty(m - 1), np.empty((m - 1, 1)), np.empty((m - 2, 3))
    hcol, scol, w2col, h2 = hdens[:, None], scale[:, None], w2[:, None], h * h
    v1, v0, g1, g0 = velocity[1:], velocity[:-1], grad[1:], grad[:-1]
    s1, s0 = tension[1:], tension[:-1]

    def rates(state):
        y[:] = state
        w = evaluate()
        np.multiply(w, rp2, out=scale)
        np.divide(scale, hdens, out=scale)
        np.multiply(scale, 0.5, out=scale)
        np.multiply(scol, field.grad_wbar_many(mid, tmid), out=grad)
        np.multiply(w2col, diff, out=tension)
        np.divide(tension, np.multiply(h2, hcol, out=hh), out=tension)
        np.multiply(velocity, 0.5, out=velocity)
        np.divide(velocity, hcol, out=velocity)
        # each interior node row is lead(0, cell[j]) + cell[j-1], lead being
        # np.subtract for the tension: signed zeros as in a sum into zeros
        np.add(0.0, v1, out=rdot)
        np.add(rdot, v0, out=rdot)
        np.add(0.0, g1, out=force)
        np.add(force, g0, out=force)
        np.subtract(0.0, s1, out=rows)
        np.add(rows, s0, out=rows)
        np.add(force, rows, out=force)
        np.einsum("ij,ij->i", dr, dr, out=dt)
        np.add(dt, 1.0, out=dt)
        np.sqrt(dt, out=dt)
        return k.copy()

    return rates


def bind_step(grid: StringGrid, field: PotentialField):
    """(rhs, check) of a string run's flat state, a one-array tuple: its rate, and the check of a new state.

    rhs is the writer ``bind_rates`` bound once.  The check evaluates no
    rate, so each step's k1 is a new one; it raises PhysicsDomainError at
    the first non-finite component of a new state, naming its node as
    ``where``.
    """
    rates, m = bind_rates(grid, field), grid.n

    def rhs(tau, y):
        return (rates(y[0]),)

    def check(tau, y):
        finite = np.isfinite(y[0])
        if not finite.all():
            k = int(np.argmin(finite))
            node = k - 6 * m if k >= 6 * m else k % (3 * m) // 3
            raise PhysicsDomainError(f"non-finite string state at node {node}", where=node)

    return rhs, check


def string_canonical_rhs(state: StringState, field: PotentialField):
    """(dr/dtau, dp/dtau) of the canonical flow with fixed endpoints: the bound writer, called once.

    Equals the exact gradient of the discretized energy functional H via
    dr_j = -(1/h) dH/dp_j and dp_j = +(1/h) dH/dr_j (generator -H).
    """
    rate = view(state.grid, bind_rates(state.grid, field)(flat(state)), state.tau)
    return rate.r, rate.p


# --- nodal kernels --------------------------------------------------------------


def transversality_defect(state: StringState):
    """max over nodes of |<p, r'>| (nodal central derivative), per state of a block."""
    rp = sigma_derivative(state.grid, state.r)
    return np.max(np.abs(np.einsum("...ij,...ij->...i", rp, state.p)), axis=-1)


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
