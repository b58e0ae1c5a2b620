"""Point-particle dynamics models.

Four force models share one state type:

* classical     dp/dt = qE + q u x B,             p = m0 u (1-u^2)^(-1/2)
* constrained   d(l u tdot)/dt = qE + q u x B,    d(l tdot)/dt = q<E,u>
                (multiplier form; l tdot (1-u^2)^(1/2) is the rest mass)
* vacuum-free   dp/dt = -grad(wbar),              p = -wbar u
* interacting   d(p + qA)/dt = -grad(wbar),       p = -wbar u

The interacting law is the Euler-Lagrange equation in the canonical
momentum P = p + qA.  Written for p it is the paper's Lorentz-type force
qE + q u x B - q grad<u,A>, because that force equals -grad(wbar) - q dA/dt
along the path; `interacting_rhs` keeps this form as a reference.  The laws
are `classical_rhs`, `constrained_rhs` and `vacuum_rhs` (both vacuum
models, qA = 0 for vacuum-free): functions of (model, r, p, t) returning
(dp/dt, u), or (dy1/dt, dy2/dt, u) for the constrained multiplier pair,
with p the canonical momentum for `vacuum_rhs`.  Each law is written once,
on the flat state that `pack` lays out, in `bind_law`: one body per model
(constrained, classical, and both vacuum models) gives a state's whole
stage rate, clock factors included, with u and p, so a stage is one Python
call plus the field's kernels.  Its entries are all floats (one particle)
or all 1-D arrays (rows of particles), and a row of the array form equals
the float form bit for bit.  `bind_law` binds the body to
``geometry.FLOATS``, once per run for the stepper, or to ``ROWS`` for the
rows of a run and the public laws, which call it on a packed lab state.
This module is the one owner of the flat state: `pack` lays out a launch
with its parameter, `bind_step` gives the stepper the rate and the check
of a new state, and `bind_rows` reads rows back as columns, so the
integrator steps and audits the tuples without indexing one.
The laws call the fields' component methods, the vacuum law through the
one entry point ``_potentials`` (``_point(binding)``), and use no Vec3.
The electromagnetic terms are assembled as q*E, u x (q*B) and
-grad<u, q*A> so that fields whose vector potential scales like 1/q stay
well defined for any nonzero charge.

The invariant kernels (`vacuum_free_hamiltonian`, `total_energy`,
`interacting_hamiltonian`, `interacting_energy`, `classical_energy`) are
written once in the same float-or-rows convention: wbar is a float or a 1-D
array, p and qA are (x, y, z) triples such as a Vec3 or the transpose of an
(m, 3) array, and a domain error on rows names the first failing row as
``where``.  `INVARIANTS` is the one table of audited quantities per model;
its entries call those kernels on rows of states held as arrays
(`ParticleColumns`).

The interacting Hamiltonian and energy implement the full expressions
with the <p+qA, qA> cross term.  Note (verified analytically and
numerically): along the interacting flow with a uniform-velocity source
the quantity (wbar^2 - |p+qA|^2)^(1/2) is an exact invariant, while the
cross term is constant only when the relative drift stays transverse to
the source velocity (e.g. co-drifting orbits).  Both quantities are
audited by the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Dict, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateMultiplierError,
    EnergyDomainError,
    NonpositiveMassError,
    PhysicsDomainError,
    SuperluminalVelocityError,
)
from .geometry import (
    FLOATS,
    ROWS,
    SUPERLUMINAL,
    Vec3,
    ZERO3,
    domain_error,
    proper_time_factor,
    root,
    violated,
)
from .potentials import (
    PotentialField,
    SourceKind,
    SourceSpec,
    build_potential,
)


class ModelKind(Enum):
    CLASSICAL = "classical"
    CONSTRAINED = "constrained"
    VACUUM_FREE = "vacuum-free"
    VACUUM_INTERACTING = "vacuum-interacting"


@dataclass
class ParticleState:
    """Snapshot (tau, t, r, u, p), and lam = l tdot for the constrained model (else None)."""

    tau: float
    t: float
    r: Vec3
    u: Vec3
    p: Vec3
    lam: Optional[float] = None

    def __post_init__(self):
        check_state(self.tau, self.r, self.u, self.p)


def check_state(tau: float, r, u, p) -> None:
    """The domain of a particle state: |u| < 1, then finite r, u and p (3-sequences of floats).

    Finiteness is one expression: x - x is 0.0 for a finite x and NaN for
    an infinite or NaN one, so the sum of the nine differences is 0.0
    exactly when every component is finite.
    """
    (rx, ry, rz), (ux, uy, uz), (px, py, pz) = r, u, p
    u2 = ux * ux + uy * uy + uz * uz
    if u2 >= 1.0:
        raise SuperluminalVelocityError(f"|u| = {math.sqrt(u2):.6g} >= 1 at tau={tau:.6g}")
    zero = (rx - rx) + (ry - ry) + (rz - rz) + (ux - ux) + (uy - uy) + (uz - uz)
    if zero + (px - px) + (py - py) + (pz - pz) != 0.0:
        raise PhysicsDomainError("non-finite particle state")


@dataclass
class ForceModel:
    """Model kind, its field, charge and (where needed) rest mass."""

    kind: ModelKind
    field: PotentialField
    charge: float = 1.0
    rest_mass: Optional[float] = None

    def __post_init__(self):
        if self.kind in (ModelKind.CLASSICAL, ModelKind.CONSTRAINED):
            if self.rest_mass is None or self.rest_mass <= 0:
                raise NonpositiveMassError(f"{self.kind.value} model needs m0 > 0")

    @property
    def source_velocity(self) -> Vec3:
        """Velocity of the field's source; zero for fields without one."""
        return getattr(self.field, "u_f", ZERO3)


# --- momentum / mass / energy kernels -------------------------------------


def classical_momentum(m0: float, u: Vec3) -> Vec3:
    """p = m0 u (1 - u^2)^(-1/2)."""
    if m0 <= 0:
        raise NonpositiveMassError("rest mass must be positive")
    return u * (m0 / proper_time_factor(u))


def dynamic_mass(wbar):
    """m = -wbar; requires wbar < 0 (a float, or a 1-D array of rows)."""
    bad = wbar >= 0.0
    if violated(bad):
        message = "wbar = {:.6g} >= 0 gives nonpositive mass"
        raise domain_error(NonpositiveMassError, bad, message, wbar)
    return -wbar


def vacuum_momentum(wbar: float, u: Vec3) -> Vec3:
    """p = -wbar u."""
    m = dynamic_mass(wbar)
    if u.norm2() >= 1.0:
        raise SuperluminalVelocityError("|u| >= 1")
    return u * m


def _energy_root(wbar, big_p, label: str):
    """(wbar^2 - |P|^2)^(1/2); EnergyDomainError naming |label| where it is not real."""
    px, py, pz = big_p
    n2 = (px * px + py * py) + pz * pz
    d2 = wbar * wbar - n2
    bad = d2 <= 0.0
    if violated(bad):
        message = f"|{label}| = {{:.6g}} exceeds |wbar| = {{:.6g}}"
        raise domain_error(EnergyDomainError, bad, message, root(n2), abs(wbar))
    return root(d2)


def vacuum_free_hamiltonian(wbar, p):
    """H = -(wbar^2 - p^2)^(1/2)."""
    return -_energy_root(wbar, p, "p")


def total_energy(wbar, p):
    """E = (wbar^2 - p^2)^(1/2); equals -wbar at rest (the dynamic mass)."""
    return _energy_root(wbar, p, "p")


def interacting_hamiltonian(wbar, p, qa):
    """H = -(wbar^2-|p+qA|^2)^(1/2) - <p+qA,qA> (wbar^2-|p+qA|^2)^(-1/2)."""
    (px, py, pz), (ax, ay, az) = p, qa
    bx, by, bz = px + ax, py + ay, pz + az
    d = _energy_root(wbar, (bx, by, bz), "p+qA")
    return -d - ((bx * ax + by * ay) + bz * az) / d


def interacting_energy(wbar, p, qa):
    """E = (wbar^2-|p+qA|^2)^(1/2) + <p+qA,qA> (wbar^2-|p+qA|^2)^(-1/2)."""
    return -interacting_hamiltonian(wbar, p, qa)


def classical_energy(m0: float, wbar, p):
    """E = (m0^2 + p^2)^(1/2) + wbar."""
    px, py, pz = p
    return root(m0**2 + ((px * px + py * py) + pz * pz)) + wbar


# --- force laws on the flat state ------------------------------------------------


def pack(model: ForceModel, state: ParticleState, axis: str):
    """(x, y): a state's parameter on the axis and its flat form, the one layout every law reads.

    x is t on the lab axis and tau on the proper axis.  y is (r, P, [t,]
    tau), or (r, l u tdot, l tdot, tau) for the constrained model, which
    steps y1 = l u tdot and y2 = l tdot in lab time.  P = p + qA for the
    interacting model and p otherwise.  t is a component on the proper axis
    only; on the lab axis it is the law's parameter x.  tau is the last
    component of every layout.
    """
    x, r, p = (state.t if axis == "lab" else state.tau), state.r, state.p
    if model.kind is ModelKind.CONSTRAINED:
        return x, (*r, *p, state.lam, state.tau)
    if model.kind is ModelKind.VACUUM_INTERACTING:
        p = p + qa_vector(model, r, state.t)
    if axis == "lab":
        return x, (*r, *p, state.tau)
    return x, (*r, *p, state.t, state.tau)


def bind_law(model: ForceModel, axis: Optional[str], binding):
    """law(x, y) -> (dy/dx, u, p): the model's stage rate at a flat state y of `pack`'s layout.

    x is the axis's parameter: lab time t, or on the proper axis the source
    frame's proper time, where dt/dx = (1 - |u - u_f|^2)^(-1/2) scales every
    rate.  dtau/dt = (1 - |u|^2)^(1/2) is taken from the |u|^2 the law has
    computed, behind the test |u| < 1 (for the vacuum models the law's own
    "|p| >= -wbar" test), and dt/dx likewise on |u - u_f|; each raises after
    the force terms.  p is the kinetic momentum.  The binding is
    geometry.FLOATS for the stepper, on one state of floats, or ROWS for the
    decoder and the public laws, on floats or on the columns of many rows.
    axis None is the public laws': the lab axis with no clock, so dtau/dt
    (the rate's last entry) is None for the classical and constrained
    models, and |u| >= 1 is not theirs to refuse.
    """
    sqrt, violated = binding
    field, q, clocked = model.field, model.charge, axis is not None
    if model.kind is ModelKind.CONSTRAINED:

        def law(t, y):
            rx, ry, rz, px, py, pz, y2, _ = y
            bad = y2 <= 0.0
            if violated(bad):
                raise domain_error(DegenerateMultiplierError, bad, "lambda*tdot = {:.6g} <= 0", y2)
            u = ux, uy, uz = px / y2, py / y2, pz / y2
            (ex, ey, ez), (mx, my, mz) = _em_terms(field, q, (rx, ry, rz), u, t)
            u2 = (ux * ux + uy * uy) + uz * uz
            bad = clocked and u2 >= 1.0
            if violated(bad):
                raise domain_error(SuperluminalVelocityError, bad, SUPERLUMINAL, sqrt(u2))
            d2 = (ex * ux + ey * uy) + ez * uz
            dtau = sqrt(1.0 - u2) if clocked else None
            return (ux, uy, uz, ex + mx, ey + my, ez + mz, d2, dtau), u, (px, py, pz)

        return law

    if model.kind is ModelKind.CLASSICAL:
        m0 = model.rest_mass

        def law(t, y):
            rx, ry, rz, px, py, pz, _ = y
            s = sqrt(m0 * m0 + ((px * px + py * py) + pz * pz))
            u = ux, uy, uz = px / s, py / s, pz / s
            (ex, ey, ez), (mx, my, mz) = _em_terms(field, q, (rx, ry, rz), u, t)
            u2 = (ux * ux + uy * uy) + uz * uz
            bad = clocked and u2 >= 1.0
            if violated(bad):
                raise domain_error(SuperluminalVelocityError, bad, SUPERLUMINAL, sqrt(u2))
            dtau = sqrt(1.0 - u2) if clocked else None
            return (ux, uy, uz, ex + mx, ey + my, ez + mz, dtau), u, (px, py, pz)

        return law

    # the vacuum models: p = P - qA (interacting) or P, u = p / (-wbar), dP/dt = -grad(wbar)
    point, lab = field._point(binding), axis != "proper"
    interacting = model.kind is ModelKind.VACUUM_INTERACTING
    ufx, ufy, ufz = model.source_velocity if interacting else ZERO3
    moving = (ufx, ufy, ufz) != ZERO3  # else u - u_f is u, and dt/dx is 1 / (dtau/dt)

    def law(x, y):
        if lab:
            rx, ry, rz, px, py, pz, _ = y
            t = x
        else:
            rx, ry, rz, px, py, pz, t, _ = y
        wbar, (gx, gy, gz), (ax, ay, az) = point(rx, ry, rz, t)
        if interacting:
            px, py, pz = px - ax * q, py - ay * q, pz - az * q
        if violated(wbar >= 0.0):
            dynamic_mass(wbar)  # raises its NonpositiveMassError
        m = -wbar
        u = ux, uy, uz = px / m, py / m, pz / m
        u2 = (ux * ux + uy * uy) + uz * uz
        bad = u2 >= 1.0
        if violated(bad):
            raise domain_error(SuperluminalVelocityError, bad, "|p| >= -wbar implies |u| >= 1")
        dtau = sqrt(1.0 - u2)
        if lab:
            return (ux, uy, uz, -gx, -gy, -gz, dtau), u, (px, py, pz)
        if moving:
            wx, wy, wz = ux - ufx, uy - ufy, uz - ufz
            w2 = (wx * wx + wy * wy) + wz * wz
            bad = w2 >= 1.0
            if violated(bad):
                raise domain_error(SuperluminalVelocityError, bad, SUPERLUMINAL, sqrt(w2))
            rate = 1.0 / sqrt(1.0 - w2)
        else:
            rate = 1.0 / dtau
        k = (ux * rate, uy * rate, uz * rate, -gx * rate, -gy * rate, -gz * rate, rate, dtau * rate)
        return k, u, (px, py, pz)

    return law


def bind_step(model: ForceModel, axis: str):
    """(rhs, check) of a particle's flat state: its rate, and the check of a new state.

    Both call the law bound to floats on the axis once; rhs returns only its
    rate.  The check evaluates the law at the new state, runs
    ``check_state`` on the u and p of that evaluation and returns its rate,
    the next step's k1; so every error of the law at the new state is
    raised by the check, with the new x, and every kept row is a state
    where the law evaluates.
    """
    law = bind_law(model, axis, FLOATS)

    def rhs(x, y):
        return law(x, y)[0]

    def check(x, y):
        k, u, p = law(x, y)
        check_state(y[-1], y[0:3], u, p)
        return k

    return rhs, check


def bind_rows(model: ForceModel, axis: str) -> Callable:
    """decode(x, y) -> (t, tau, r, u, p, l tdot) of flat states, the one reader of `pack`'s layout.

    y is the tuple of the columns of many rows (Y.T) and x their
    parameters; r, u and p come back as (x, y, z) triples of rows and l
    tdot is None except for the constrained model.  u and p are the ones
    the law bound to ROWS gives, so a row reads the state the step check
    passed, by the same law.
    """
    law = bind_law(model, axis, ROWS)
    constrained, lab = model.kind is ModelKind.CONSTRAINED, axis == "lab"

    def decode(x, y):
        _, u, p = law(x, y)
        # tau is the last component of every layout; t is x on the lab axis and y[6] off it
        return (x if lab else y[6]), y[-1], y[0:3], u, p, (y[6] if constrained else None)

    return decode


def _em_terms(field: PotentialField, q: float, r, u, t):
    """(qE, u x qB) at (r, t) for velocity u."""
    x, y, z = r
    ux, uy, uz = u
    gx, gy, gz = field._grad_wbar(x, y, z, t)
    ax, ay, az = field._dvecpot_dt(x, y, z, t)
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = field._grad_vecpot(x, y, z, t)
    cx, cy, cz = q * (j21 - j12), q * (j02 - j20), q * (j10 - j01)
    return (
        (-gx - ax * q, -gy - ay * q, -gz - az * q),
        (uy * cz - uz * cy, uz * cx - ux * cz, ux * cy - uy * cx),
    )


def interaction_extra_force(q: float, u, f: PotentialField, r, t):
    """F_c = -q grad<u, A> = -q (dA)^T u with u held fixed under the gradient, on components.

    It is the extra force only the interacting form adds.
    """
    x, y, z = r
    ux, uy, uz = u
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = f._grad_vecpot(x, y, z, t)
    return (
        -q * ((j00 * ux + j10 * uy) + j20 * uz),
        -q * ((j01 * ux + j11 * uy) + j21 * uz),
        -q * ((j02 * ux + j12 * uy) + j22 * uz),
    )


def qa_vector(model: ForceModel, r: Vec3, t: float) -> Vec3:
    """q A at (r, t); for comoving Coulomb sources this equals wbar * u_f."""
    return model.charge * model.field.vecpot(r, t)


def classical_rhs(model: ForceModel, r, p, t):
    """(dp/dt, u) for the classical Lorentz force; u recovered from p."""
    k, u, _ = bind_law(model, None, ROWS)(t, (*r, *p, 0.0))
    return k[3:6], u


def constrained_rhs(model: ForceModel, r, y1, y2, t):
    """(dy1/dt, dy2/dt, u) for the multiplier model.

    y1 = l u tdot and y2 = l tdot (a state keeps them in p and lam);
    u = y1/y2.
    """
    k, u, _ = bind_law(model, None, ROWS)(t, (*r, *y1, y2, 0.0))
    return k[3:6], k[6], u


def vacuum_rhs(model: ForceModel, r, big_p, t):
    """(dP/dt, u) of both vacuum models in the canonical momentum P = p + qA.

    dP/dt = -grad(wbar) and u = (P - qA)/(-wbar), with qA = 0 for
    vacuum-free; wbar, its gradient and A come from one field evaluation.
    """
    k, u, _ = bind_law(model, None, ROWS)(t, (*r, *big_p, 0.0))
    return k[3:6], u


def interacting_rhs(model: ForceModel, r, p, t):
    """(dp/dt, u) with the full force qE + q u x B - q grad<u,A>; u = p / (-wbar)."""
    u = bind_law(replace(model, kind=ModelKind.VACUUM_FREE), None, ROWS)(t, (*r, *p, 0.0))[1]
    (ex, ey, ez), (mx, my, mz) = _em_terms(model.field, model.charge, r, u, t)
    fx, fy, fz = interaction_extra_force(model.charge, u, model.field, r, t)
    return ((ex + mx) + fx, (ey + my) + fy, (ez + mz) + fz), u


# --- audited invariants -------------------------------------------------------


class ParticleColumns(NamedTuple):
    """Rows of particle states as arrays.

    t and tau have shape (m,), r, u and p shape (m, 3); lam is l tdot (m,)
    for the constrained model and None otherwise.
    """

    t: np.ndarray
    tau: np.ndarray
    r: np.ndarray
    u: np.ndarray
    p: np.ndarray
    lam: Optional[np.ndarray] = None


def _wbar_rows(c: ParticleColumns, m: ForceModel) -> np.ndarray:
    return m.field.wbar_many(c.r, c.t)


def _qa_rows(c: ParticleColumns, m: ForceModel) -> np.ndarray:
    """qA per row, transposed to an (x, y, z) triple of rows."""
    return (m.field.vecpot_many(c.r, c.t) * m.charge).T


# name -> fn(columns, model) per model kind; each entry is the kernel above on
# the rows of c, so a row's value equals the kernel's float value bit for bit.
# integrate_particle audits every entry, and the run CSV's energy column is
# the 'energy' entry ('rest_mass' for the constrained model).
INVARIANTS: Dict[ModelKind, Dict[str, Callable]] = {
    ModelKind.CLASSICAL: {
        "energy": lambda c, m: classical_energy(m.rest_mass, _wbar_rows(c, m), c.p.T),
    },
    ModelKind.CONSTRAINED: {
        "rest_mass": lambda c, m: c.lam * proper_time_factor(c.u.T),
    },
    ModelKind.VACUUM_FREE: {
        "hamiltonian": lambda c, m: vacuum_free_hamiltonian(_wbar_rows(c, m), c.p.T),
        "energy": lambda c, m: total_energy(_wbar_rows(c, m), c.p.T),
        "rest_mass": lambda c, m: -_wbar_rows(c, m) * proper_time_factor(c.u.T),
    },
    ModelKind.VACUUM_INTERACTING: {
        "hamiltonian": lambda c, m: interacting_hamiltonian(
            _wbar_rows(c, m), c.p.T, _qa_rows(c, m)
        ),
        "energy": lambda c, m: interacting_energy(_wbar_rows(c, m), c.p.T, _qa_rows(c, m)),
        "relative_invariant": lambda c, m: _energy_root(
            _wbar_rows(c, m), c.p.T + _qa_rows(c, m), "p+qA"
        ),
    },
}


# --- state constructors ------------------------------------------------------


def make_classical_state(r: Vec3, u: Vec3, m0: float) -> ParticleState:
    return ParticleState(0.0, 0.0, r, u, classical_momentum(m0, u))


def make_constrained_state(r: Vec3, u: Vec3, m0: float) -> ParticleState:
    """Initial multiplier set so that l tdot (1-u^2)^(1/2) = m0 at t = 0."""
    gamma = 1.0 / proper_time_factor(u)
    y2 = m0 * gamma
    return ParticleState(0.0, 0.0, r, u, u * y2, y2)


def make_vacuum_state(field: PotentialField, r: Vec3, u: Vec3) -> ParticleState:
    """State at tau = t = 0 with the vacuum momentum p = -wbar u."""
    wbar = field.wbar(r, 0.0)
    return ParticleState(0.0, 0.0, r, u, vacuum_momentum(wbar, u))


# --- two-particle scenario and the q -> 0 limit ------------------------------


@dataclass
class TwoParticleScenario:
    """Test charge q orbiting a uniformly moving source charge q_f."""

    q: float
    q_f: float
    r_f0: Vec3
    u_f: Vec3
    r0: Vec3
    u0: Vec3
    softening: float = 1e-3
    background: float = -1.0
    horizon: float = 2.0
    n_steps: int = 2000

    def __post_init__(self):
        if self.u_f.norm2() >= 1.0:
            raise SuperluminalVelocityError("|u_f| must be < 1")

    def source_spec(self) -> SourceSpec:
        kind = (
            SourceKind.COULOMB_COMOVING
            if self.u_f.norm2() > 0
            else SourceKind.COULOMB_STATIC
        )
        return SourceSpec(
            kind=kind,
            strength=self.q_f,
            r_f0=self.r_f0,
            u_f=self.u_f,
            softening=self.softening,
            background=self.background,
        )

    def model(self, q: Optional[float] = None) -> ForceModel:
        charge = self.q if q is None else q
        fld = build_potential(self.source_spec(), charge)
        return ForceModel(ModelKind.VACUUM_INTERACTING, fld, charge=charge)

    def initial_state(self, q: Optional[float] = None) -> ParticleState:
        charge = self.q if q is None else q
        fld = build_potential(self.source_spec(), charge)
        return make_vacuum_state(fld, self.r0, self.u0)


@dataclass
class RestMassLimitReport:
    """Deviation of -wbar (1-u^2)^(1/2) from its initial value, per test charge."""

    charges: list
    deviations: list

    @property
    def ratios(self) -> list:
        return [
            self.deviations[i + 1] / self.deviations[i]
            for i in range(len(self.deviations) - 1)
            if self.deviations[i] > 0
        ]


def rest_mass_limit_check(
    scenario: TwoParticleScenario, q_sequence: Sequence[float]
) -> RestMassLimitReport:
    """Integrate the interacting dynamics for each q and track the mass defect.

    The monitored quantity is |(-wbar)(1-u^2)^(1/2) - m0| with m0 its initial
    value; launching from rest makes m0 = -wbar|_{u=0}.  The max deviation
    shrinks at first order in q.
    """
    from .errors import ValidationError
    from .integrate import IntegrationParams, integrate_particle

    if not q_sequence or any(q <= 0 for q in q_sequence):
        raise ValidationError("q sequence must be positive")
    if any(b >= a for a, b in zip(q_sequence, list(q_sequence)[1:])):
        raise ValidationError("q sequence must be strictly decreasing")

    # -wbar (1-u^2)^(1/2) is the vacuum-free rest-mass invariant
    rest_mass = INVARIANTS[ModelKind.VACUUM_FREE]["rest_mass"]
    deviations = []
    for q in q_sequence:
        model = scenario.model(q=q)
        params = IntegrationParams(step=scenario.horizon / scenario.n_steps, n_steps=scenario.n_steps)
        traj = integrate_particle(model, scenario.initial_state(q=q), params)
        values = rest_mass(traj.columns(), model)
        deviations.append(float(np.max(np.abs(values - values[0]))))
    return RestMassLimitReport(list(q_sequence), deviations)
