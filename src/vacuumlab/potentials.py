"""Analytic vacuum potentials and derived electromagnetic fields.

The scalar vacuum potential ``wbar`` (= q * phi) carries the interaction
energy; the dynamic mass of the vacuum models is m = -wbar, so every
built potential keeps wbar < 0 on its evaluation domain.  A moving
source of uniform velocity u_f induces the vector potential through
q*A = wbar * u_f (instantaneous relation, no retardation), from which

    E = -grad(wbar)/q - dA/dt        B = curl(A)

Each concrete field provides exact first derivatives (gradients checked
against central differences in the test suite) and, where wave-equation
residual checking is supported, exact second derivatives as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidSourceError,
    SingularPointError,
    SuperluminalVelocityError,
    ZeroChargeError,
)
from .geometry import Vec3, ZERO3
from .tolerances import DEFAULT_SOFTENING, SINGULAR_GUARD

FOUR_PI = 4.0 * math.pi
_ON_SOURCE = "unsoftened point source evaluated at its own position (t={t:.9g})"


class SourceKind(Enum):
    UNIFORM = "uniform"
    COULOMB_STATIC = "coulomb-static"
    COULOMB_COMOVING = "coulomb-comoving"


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of the vacuum-potential source.

    strength: constant wbar value for UNIFORM (must be < 0); source charge
    q_f for the Coulomb kinds.  softening is the regularization length; the
    optional uniform background (<= 0) is added to Coulomb potentials so the
    rest mass -wbar|_{u=0} survives the test-charge -> 0 limit.
    """

    kind: SourceKind
    strength: float
    r_f0: Vec3 = ZERO3
    u_f: Vec3 = ZERO3
    softening: float = DEFAULT_SOFTENING
    background: float = 0.0

    def validate(self) -> None:
        if self.softening < 0:
            raise InvalidSourceError("softening must be >= 0")
        if self.background > 0:
            raise InvalidSourceError("background must be <= 0 for mass positivity")
        if self.kind is SourceKind.UNIFORM:
            if self.strength >= 0:
                raise InvalidSourceError("uniform wbar must be negative")
        else:
            if self.strength == 0:
                raise InvalidSourceError("Coulomb source charge must be nonzero")
        if self.kind is SourceKind.COULOMB_COMOVING:
            if self.u_f.norm2() >= 1.0:
                raise SuperluminalVelocityError("source velocity |u_f| must be < 1")
        elif self.kind is SourceKind.COULOMB_STATIC:
            if self.u_f.norm2() != 0.0:
                raise InvalidSourceError("static source must have u_f = 0")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "strength": self.strength,
            "r_f0": list(self.r_f0),
            "u_f": list(self.u_f),
            "softening": self.softening,
            "background": self.background,
        }


class PotentialField:
    """Interface: scalar potential wbar with exact derivatives plus vector potential.

    grad_vecpot returns the 3x3 Jacobian J[i, j] = dA_i / dr_j; kind names
    the field as scenario files do.
    Subclasses overriding the *_many methods get vectorized evaluation in
    string, conformal and least-action code; the defaults loop.  The
    least-action oracle needs wbar_many and vecpot_many to repeat the
    scalar forms' arithmetic exactly, so overrides keep their order.
    """

    kind = "custom"

    def wbar(self, r: Vec3, t: float) -> float:
        raise NotImplementedError

    def grad_wbar(self, r: Vec3, t: float) -> Vec3:
        raise NotImplementedError

    def dwbar_dt(self, r: Vec3, t: float) -> float:
        raise NotImplementedError

    def vecpot(self, r: Vec3, t: float) -> Vec3:
        raise NotImplementedError

    def grad_vecpot(self, r: Vec3, t: float) -> np.ndarray:
        raise NotImplementedError

    def dvecpot_dt(self, r: Vec3, t: float) -> Vec3:
        raise NotImplementedError

    # Second derivatives: needed only for wave-equation residual checking.
    def wbar_hessian(self, r: Vec3, t: float) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no second derivatives")

    def wbar_tt(self, r: Vec3, t: float) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no second derivatives")

    def wbar_laplacian(self, r: Vec3, t: float) -> float:
        return float(np.trace(self.wbar_hessian(r, t)))

    def rho(self, r: Vec3, t: float) -> float:
        """Charge density consistent with the static wave equation; 0 by default."""
        return 0.0

    def singular_distance(self, r: Vec3, t: float) -> Optional[float]:
        """Distance to the singular support of an unsoftened point source, else None."""
        return None

    # Vectorized helpers over arrays of points (n, 3) and times (n,).
    def wbar_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        return np.array(
            [self.wbar(Vec3(*pt), float(tt)) for pt, tt in zip(points, times)]
        )

    def grad_wbar_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        return np.array(
            [self.grad_wbar(Vec3(*pt), float(tt)) for pt, tt in zip(points, times)]
        )

    def dwbar_dt_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        return np.array(
            [self.dwbar_dt(Vec3(*pt), float(tt)) for pt, tt in zip(points, times)]
        )

    def vecpot_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        return np.array(
            [self.vecpot(Vec3(*pt), float(tt)) for pt, tt in zip(points, times)]
        )


class UniformField(PotentialField):
    """Constant wbar, zero gradients, zero vector potential."""

    kind = "uniform"

    def __init__(self, value: float):
        self.value = float(value)

    def wbar(self, r, t):
        return self.value

    def grad_wbar(self, r, t):
        return ZERO3

    def dwbar_dt(self, r, t):
        return 0.0

    def vecpot(self, r, t):
        return ZERO3

    def grad_vecpot(self, r, t):
        return np.zeros((3, 3))

    def dvecpot_dt(self, r, t):
        return ZERO3

    def wbar_hessian(self, r, t):
        return np.zeros((3, 3))

    def wbar_tt(self, r, t):
        return 0.0

    def wbar_many(self, points, times):
        return np.full(len(points), self.value)

    def grad_wbar_many(self, points, times):
        return np.zeros((len(points), 3))

    def dwbar_dt_many(self, points, times):
        return np.zeros(len(points))

    def vecpot_many(self, points, times):
        return np.zeros((len(points), 3))


class CoulombField(PotentialField):
    """Softened Coulomb vacuum potential of a point source, optionally comoving.

    wbar(r, t) = background - k / (4 pi (|d|^2 + eps^2)^(1/2)),
    d = r - r_f0 - u_f t,  k = |q * q_f| > 0  (attractive normalization).

    For a moving source the vector potential is A = wbar * u_f / q.
    """

    def __init__(self, spec: SourceSpec, test_charge: float):
        spec.validate()
        if test_charge == 0.0:
            raise ZeroChargeError("Coulomb potential needs a nonzero test charge")
        self.spec = spec
        self.q = float(test_charge)
        self.k = abs(test_charge * spec.strength)
        self.eps2 = spec.softening * spec.softening
        self.background = spec.background
        self.r_f0 = spec.r_f0
        self.u_f = spec.u_f
        self.kind = spec.kind.value

    def _displacement(self, r: Vec3, t: float) -> Vec3:
        # r - (r_f0 + u_f t), written out per component: one Vec3 instead of three
        f, u = self.r_f0, self.u_f
        return Vec3(r.x - (f.x + u.x * t), r.y - (f.y + u.y * t), r.z - (f.z + u.z * t))

    def wbar(self, r, t):
        d2 = self._displacement(r, t).norm2()
        try:
            return self.background - self.k / (FOUR_PI * math.sqrt(d2 + self.eps2))
        except ZeroDivisionError:
            raise SingularPointError(_ON_SOURCE.format(t=t)) from None

    def grad_wbar(self, r, t):
        d = self._displacement(r, t)
        d2e = d.norm2() + self.eps2
        s = d2e * math.sqrt(d2e)  # not ** 1.5: NumPy's power rounds differently
        try:
            return d * (self.k / (FOUR_PI * s))
        except ZeroDivisionError:
            raise SingularPointError(_ON_SOURCE.format(t=t)) from None

    def dwbar_dt(self, r, t):
        return -self.grad_wbar(r, t).dot(self.u_f)

    def vecpot(self, r, t):
        if self.u_f.norm2() == 0.0:
            return ZERO3
        return self.u_f * (self.wbar(r, t) / self.q)

    def grad_vecpot(self, r, t):
        if self.u_f.norm2() == 0.0:
            return np.zeros((3, 3))
        g = self.grad_wbar(r, t).as_array() / self.q
        return np.outer(self.u_f.as_array(), g)

    def dvecpot_dt(self, r, t):
        if self.u_f.norm2() == 0.0:
            return ZERO3
        return self.u_f * (self.dwbar_dt(r, t) / self.q)

    def wbar_hessian(self, r, t):
        d = self._displacement(r, t).as_array()
        d2e = float(d @ d) + self.eps2
        coef = self.k / FOUR_PI
        return coef * (np.eye(3) * d2e**-1.5 - 3.0 * np.outer(d, d) * d2e**-2.5)

    def wbar_tt(self, r, t):
        uf = self.u_f.as_array()
        return float(uf @ self.wbar_hessian(r, t) @ uf)

    def wbar_laplacian(self, r, t):
        d2e = self._displacement(r, t).norm2() + self.eps2
        return 3.0 * self.k * self.eps2 / (FOUR_PI * d2e**2.5)

    def rho(self, r, t):
        """Plummer density matching -laplacian(wbar) of the static softened source."""
        d2e = self._displacement(r, t).norm2() + self.eps2
        return -3.0 * self.k * self.eps2 / (FOUR_PI * d2e**2.5)

    def singular_distance(self, r, t):
        if self.eps2 > 0.0:
            return None
        return self._displacement(r, t).norm()

    def wbar_many(self, points, times):
        # (dx*dx + dy*dy) + dz*dz, the order of the scalar norm2
        d = points - self._source_positions(times)
        d2 = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
        root = np.sqrt(d2 + self.eps2)
        if self.eps2 == 0.0 and not np.all(root):
            t = float(np.asarray(times, dtype=float)[np.argmin(root)])
            raise SingularPointError(_ON_SOURCE.format(t=t))
        return self.background - self.k / (FOUR_PI * root)

    def grad_wbar_many(self, points, times):
        # the scalar grad_wbar's operation order, element by element
        d = points - self._source_positions(times)
        d2e = ((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]) + self.eps2
        s = d2e * np.sqrt(d2e)
        return d * (self.k / (FOUR_PI * s))[:, None]

    def dwbar_dt_many(self, points, times):
        # -((gx*ux + gy*uy) + gz*uz), the order of the scalar dot
        g = self.grad_wbar_many(points, times)
        ux, uy, uz = self.u_f
        return -((g[:, 0] * ux + g[:, 1] * uy) + g[:, 2] * uz)

    def vecpot_many(self, points, times):
        if self.u_f.norm2() == 0.0:
            return np.zeros((len(points), 3))
        return (self.wbar_many(points, times) / self.q)[:, None] * self.u_f.as_array()

    def _source_positions(self, times):
        return self.r_f0.as_array()[None, :] + np.outer(
            np.asarray(times, dtype=float), self.u_f.as_array()
        )


class LinearField(PotentialField):
    """wbar = w0 + <g, r>: uniform force field (uniform E at fixed test charge)."""

    kind = "linear"

    def __init__(self, w0: float, gradient: Vec3):
        self.w0 = float(w0)
        self.gradient = gradient

    def wbar(self, r, t):
        return self.w0 + self.gradient.dot(r)

    def grad_wbar(self, r, t):
        return self.gradient

    def dwbar_dt(self, r, t):
        return 0.0

    def vecpot(self, r, t):
        return ZERO3

    def grad_vecpot(self, r, t):
        return np.zeros((3, 3))

    def dvecpot_dt(self, r, t):
        return ZERO3

    def wbar_hessian(self, r, t):
        return np.zeros((3, 3))

    def wbar_tt(self, r, t):
        return 0.0

    def wbar_many(self, points, times):
        # w0 + ((gx*x + gy*y) + gz*z), the order of the scalar dot
        gx, gy, gz = self.gradient
        return self.w0 + ((points[:, 0] * gx + points[:, 1] * gy) + points[:, 2] * gz)

    def grad_wbar_many(self, points, times):
        return np.tile(self.gradient.as_array(), (len(points), 1))

    def dwbar_dt_many(self, points, times):
        return np.zeros(len(points))

    def vecpot_many(self, points, times):
        return np.zeros((len(points), 3))


class UniformMagneticField(PotentialField):
    """Constant B via the symmetric gauge A = (1/2) B x r; wbar constant."""

    kind = "uniform-b"

    def __init__(self, b: Vec3, wbar0: float = 0.0):
        self.b = b
        self.wbar0 = float(wbar0)

    def wbar(self, r, t):
        return self.wbar0

    def grad_wbar(self, r, t):
        return ZERO3

    def dwbar_dt(self, r, t):
        return 0.0

    def vecpot(self, r, t):
        return self.b.cross(r) * 0.5

    def grad_vecpot(self, r, t):
        bx, by, bz = self.b
        return 0.5 * np.array([[0.0, -bz, by], [bz, 0.0, -bx], [-by, bx, 0.0]])

    def dvecpot_dt(self, r, t):
        return ZERO3

    def wbar_hessian(self, r, t):
        return np.zeros((3, 3))

    def wbar_tt(self, r, t):
        return 0.0

    def wbar_many(self, points, times):
        return np.full(len(points), self.wbar0)

    def vecpot_many(self, points, times):
        # (b x r) * 0.5 component by component, as the scalar cross
        bx, by, bz = self.b
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        return np.stack(
            [(by * z - bz * y) * 0.5, (bz * x - bx * z) * 0.5, (bx * y - by * x) * 0.5],
            axis=1,
        )


@dataclass
class CallableField(PotentialField):
    """Ad-hoc analytic field assembled from callables (test/scenario helper)."""

    wbar_fn: Callable[[Vec3, float], float] = lambda r, t: -1.0
    grad_wbar_fn: Callable[[Vec3, float], Vec3] = lambda r, t: ZERO3
    dwbar_dt_fn: Callable[[Vec3, float], float] = lambda r, t: 0.0
    vecpot_fn: Callable[[Vec3, float], Vec3] = lambda r, t: ZERO3
    grad_vecpot_fn: Callable[[Vec3, float], np.ndarray] = lambda r, t: np.zeros((3, 3))
    dvecpot_dt_fn: Callable[[Vec3, float], Vec3] = lambda r, t: ZERO3
    wbar_hessian_fn: Optional[Callable[[Vec3, float], np.ndarray]] = None
    wbar_tt_fn: Optional[Callable[[Vec3, float], float]] = None

    def wbar(self, r, t):
        return self.wbar_fn(r, t)

    def grad_wbar(self, r, t):
        return self.grad_wbar_fn(r, t)

    def dwbar_dt(self, r, t):
        return self.dwbar_dt_fn(r, t)

    def vecpot(self, r, t):
        return self.vecpot_fn(r, t)

    def grad_vecpot(self, r, t):
        return self.grad_vecpot_fn(r, t)

    def dvecpot_dt(self, r, t):
        return self.dvecpot_dt_fn(r, t)

    def wbar_hessian(self, r, t):
        if self.wbar_hessian_fn is None:
            raise NotImplementedError("no hessian supplied")
        return self.wbar_hessian_fn(r, t)

    def wbar_tt(self, r, t):
        if self.wbar_tt_fn is None:
            raise NotImplementedError("no wbar_tt supplied")
        return self.wbar_tt_fn(r, t)


def build_potential(spec: SourceSpec, test_charge: float) -> PotentialField:
    """Construct the PotentialField for a SourceSpec and test charge."""
    spec.validate()
    if spec.kind is SourceKind.UNIFORM:
        return UniformField(spec.strength + spec.background)
    return CoulombField(spec, test_charge)


def electric_field(f: PotentialField, q: float, r: Vec3, t: float) -> Vec3:
    """E = -grad(wbar)/q - dA/dt."""
    if q == 0.0:
        raise ZeroChargeError("electric field needs a nonzero test charge")
    return (-1.0 / q) * f.grad_wbar(r, t) - f.dvecpot_dt(r, t)


def magnetic_field(f: PotentialField, r: Vec3, t: float) -> Vec3:
    """B = curl(A), taken from the antisymmetric part of the A-Jacobian."""
    j = f.grad_vecpot(r, t)
    return Vec3(j[2, 1] - j[1, 2], j[0, 2] - j[2, 0], j[1, 0] - j[0, 1])


def wave_residual(w, rho, r: Vec3, t: float) -> float:
    """d2(wbar)/dt2 - laplacian(wbar) - rho at (r, t).

    ``w`` must expose exact second derivatives (wbar_tt, wbar_laplacian);
    ``rho`` may be a callable rho(r, t), a constant, or None (meaning the
    field's own matching density).  Raises SingularPointError within the
    guard distance of an unsoftened point source.
    """
    dist = w.singular_distance(r, t) if hasattr(w, "singular_distance") else None
    if dist is not None and dist < SINGULAR_GUARD:
        raise SingularPointError(
            f"evaluation {dist:.3g} from an unsoftened point source"
        )
    if rho is None:
        rho_val = w.rho(r, t) if hasattr(w, "rho") else 0.0
    elif callable(rho):
        rho_val = rho(r, t)
    else:
        rho_val = float(rho)
    return w.wbar_tt(r, t) - w.wbar_laplacian(r, t) - rho_val
