"""Analytic vacuum potentials and derived electromagnetic fields.

The scalar vacuum potential ``wbar`` (= q * phi) carries the interaction
energy; the dynamic mass of the vacuum models is m = -wbar, so every
built potential keeps wbar < 0 on its evaluation domain.  A moving
source of uniform velocity u_f induces the vector potential through
q*A = wbar * u_f (instantaneous relation, no retardation), from which

    E = -grad(wbar)/q - dA/dt        B = curl(A)

Each concrete field provides exact first derivatives (gradients checked
against central differences in the test suite) and, where wave-equation
residual checking is supported, exact second derivatives as well.  A
built-in field writes wbar, grad(wbar), d(wbar)/dt and A once, on
components (x, y, z, t) that are floats or 1-D arrays, and so does the
A-Jacobian and dA/dt; ``PotentialField`` derives both the Vec3 forms and
the ``*_many`` array forms from them.  The canonical vacuum law reads
wbar, grad(wbar) and A at a point through one entry point,
``_potentials``, which a Coulomb source evaluates from one offset and one
square root, written once as a closure bound to floats for the stepper
(``_point``) and to floats or rows for every other method.
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
from .geometry import FLOATS, ROWS, Vec3, ZERO3, domain_error
from .tolerances import DEFAULT_SOFTENING, SINGULAR_GUARD

FOUR_PI = 4.0 * math.pi


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
        """Raise on a broken invariant; each message starts with the key it names."""
        if self.kind is SourceKind.UNIFORM:
            if self.strength >= 0:
                raise InvalidSourceError("strength must be negative for a uniform potential")
        elif self.strength == 0:
            raise InvalidSourceError("strength must be nonzero for a Coulomb source")
        if self.softening < 0:
            raise InvalidSourceError("softening must be >= 0")
        if self.background > 0:
            raise InvalidSourceError("background must be <= 0 for mass positivity")
        if self.kind is SourceKind.COULOMB_STATIC:
            if self.u_f.norm2() != 0.0:
                raise InvalidSourceError("u_f must be zero for coulomb-static")
        elif self.kind is SourceKind.COULOMB_COMOVING and self.u_f.norm2() >= 1.0:
            raise SuperluminalVelocityError("u_f: superluminal source velocity")


_ZERO_JAC = (ZERO3, ZERO3, ZERO3)


class PotentialField:
    """Interface: scalar potential wbar with exact derivatives plus vector potential.

    A field writes wbar, grad(wbar), d(wbar)/dt, A, the A-Jacobian
    J[i][j] = dA_i / dr_j and dA/dt once each, as the private component
    methods _wbar, _grad_wbar, _dwbar_dt, _vecpot, _grad_vecpot and
    _dvecpot_dt on (x, y, z, t).  They take floats or equal-length 1-D
    arrays and return a value, an (x, y, z) triple of values or, for the
    Jacobian, a triple of row triples; a constant may stay a float on
    arrays.  The last three default to zero, for fields without a vector
    potential.  The particle force laws call them directly, except that the
    canonical vacuum law reads (wbar, grad(wbar), A) at a point through the
    one entry point _potentials, which a field overrides to share the work
    of that point; its result equals the single methods' bit for bit, and
    _point(binding) is it under a binding of ``geometry`` (FLOATS for the
    stepper).  This class builds the Vec3 forms (wbar, grad_wbar, ..., with
    grad_vecpot a 3x3 array) and the (n, 3)-points forms of wbar, grad(wbar),
    d(wbar)/dt and A (wbar_many, grad_wbar_many, dwbar_dt_many and
    vecpot_many) from them, so each row of an array form equals the scalar
    form bit for bit, which the least-action oracle's array densities rely
    on.  kind names the field as scenario files do.
    """

    kind = "custom"

    def _wbar(self, x, y, z, t):
        raise NotImplementedError

    def _grad_wbar(self, x, y, z, t):
        raise NotImplementedError

    def _dwbar_dt(self, x, y, z, t):
        raise NotImplementedError

    def _vecpot(self, x, y, z, t):
        return ZERO3

    def _grad_vecpot(self, x, y, z, t):
        return _ZERO_JAC

    def _dvecpot_dt(self, x, y, z, t):
        return ZERO3

    def _potentials(self, x, y, z, t):
        """(wbar, grad(wbar), A) at one point."""
        return self._wbar(x, y, z, t), self._grad_wbar(x, y, z, t), self._vecpot(x, y, z, t)

    def _point(self, binding):
        """_potentials under a binding (geometry.FLOATS or ROWS)."""
        return self._potentials

    def wbar(self, r: Vec3, t: float) -> float:
        return self._wbar(r.x, r.y, r.z, t)

    def grad_wbar(self, r: Vec3, t: float) -> Vec3:
        return Vec3._make(self._grad_wbar(r.x, r.y, r.z, t))

    def dwbar_dt(self, r: Vec3, t: float) -> float:
        return self._dwbar_dt(r.x, r.y, r.z, t)

    def vecpot(self, r: Vec3, t: float) -> Vec3:
        return Vec3._make(self._vecpot(r.x, r.y, r.z, t))

    def grad_vecpot(self, r: Vec3, t: float) -> np.ndarray:
        return np.array(self._grad_vecpot(r.x, r.y, r.z, t), dtype=float)

    def dvecpot_dt(self, r: Vec3, t: float) -> Vec3:
        return Vec3._make(self._dvecpot_dt(r.x, r.y, r.z, t))

    # Over arrays of points (n, 3) and times (n,).
    def wbar_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        out = np.empty(len(points))
        out[...] = self._wbar(points[:, 0], points[:, 1], points[:, 2], times)
        return out

    def grad_wbar_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        return _rows(self._grad_wbar(points[:, 0], points[:, 1], points[:, 2], times), len(points))

    def dwbar_dt_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        out = np.empty(len(points))
        out[...] = self._dwbar_dt(points[:, 0], points[:, 1], points[:, 2], times)
        return out

    def vecpot_many(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        return _rows(self._vecpot(points[:, 0], points[:, 1], points[:, 2], times), len(points))

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


def _rows(components, n: int) -> np.ndarray:
    """(n, 3) array from an (x, y, z) triple of (n,) arrays or floats."""
    out = np.empty((n, 3))
    out[:, 0], out[:, 1], out[:, 2] = components
    return out


# an unsoftened source hit, as domain_error formats it: on arrays the first zero row's, as ``where``
_ON_SOURCE = "unsoftened point source evaluated at its own position (t={:.9g})"


_OFFSET, _WBAR, _WBAR_A, _ALL = range(4)


def _coulomb_point(spec: SourceSpec, q: float, sqrt, violated):
    """point(x, y, z, t, parts=_ALL) of a Coulomb source, bound to a square root and a domain test.

    parts _OFFSET gives (d, |d|^2 + eps^2), d = r - (r_f0 + u_f t) summed in
    Vec3.norm2's order; _WBAR wbar; _WBAR_A (wbar, None, A); _ALL (wbar,
    grad(wbar), A), with s3 = (|d|^2 + eps^2) * s since NumPy rounds ** 1.5 apart.
    """
    (fx, fy, fz), (ux, uy, uz) = spec.r_f0, spec.u_f
    eps2, background = spec.softening * spec.softening, spec.background
    k = abs(q * spec.strength)
    static = spec.u_f.norm2() == 0.0  # no vector potential

    def point(x, y, z, t, parts=_ALL):
        dx = x - (fx + ux * t)
        dy = y - (fy + uy * t)
        dz = z - (fz + uz * t)
        d2e = ((dx * dx + dy * dy) + dz * dz) + eps2
        if parts == _OFFSET:
            return dx, dy, dz, d2e
        s = sqrt(d2e)
        den = FOUR_PI * s
        if violated(den == 0.0):
            raise domain_error(SingularPointError, den == 0.0, _ON_SOURCE, t)
        wbar = background - k / den
        if parts == _WBAR:
            return wbar
        grad = None
        if parts == _ALL:
            den = FOUR_PI * (d2e * s)
            if violated(den == 0.0):
                raise domain_error(SingularPointError, den == 0.0, _ON_SOURCE, t)
            c = k / den
            grad = dx * c, dy * c, dz * c
        if static:
            return wbar, grad, ZERO3
        c = wbar / q
        return wbar, grad, (ux * c, uy * c, uz * c)

    return point


class UniformField(PotentialField):
    """Constant wbar, zero gradients, zero vector potential."""

    kind = "uniform"

    def __init__(self, value: float):
        self.value = float(value)

    def _wbar(self, x, y, z, t):
        return self.value

    def _grad_wbar(self, x, y, z, t):
        return ZERO3

    def _dwbar_dt(self, x, y, z, t):
        return 0.0

    def wbar_hessian(self, r, t):
        return np.zeros((3, 3))

    def wbar_tt(self, r, t):
        return 0.0

    # Zeros by shape alone: every string right-hand side calls this, and
    # filling the generic form's three columns costs about 5x as much.
    def grad_wbar_many(self, points, times):
        return np.zeros((len(points), 3))


class CoulombField(PotentialField):
    """Softened Coulomb vacuum potential of a point source, optionally comoving.

    wbar(r, t) = background - k / (4 pi (|d|^2 + eps^2)^(1/2)),
    d = r - r_f0 - u_f t,  k = |q * q_f| > 0  (attractive normalization).

    For a moving source the vector potential is A = wbar * u_f / q.  Every
    method evaluates `_coulomb_point`, bound to ROWS (FLOATS for the stepper).
    """

    def __init__(self, spec: SourceSpec, test_charge: float):
        spec.validate()
        if test_charge == 0.0:
            raise ZeroChargeError("Coulomb potential needs a nonzero test charge")
        self.q = float(test_charge)
        self.k = abs(test_charge * spec.strength)
        self.eps2 = spec.softening * spec.softening
        self.u_f = spec.u_f
        self._static = spec.u_f.norm2() == 0.0  # no vector potential
        self.kind = spec.kind.value
        self._kernels = {b: _coulomb_point(spec, self.q, *b) for b in (FLOATS, ROWS)}
        self._point, self._potentials = self._kernels.__getitem__, self._kernels[ROWS]

    def _wbar(self, x, y, z, t):
        return self._potentials(x, y, z, t, _WBAR)

    def _grad_wbar(self, x, y, z, t):
        return self._potentials(x, y, z, t)[1]

    def _dwbar_dt(self, x, y, z, t):
        gx, gy, gz = self._grad_wbar(x, y, z, t)
        u = self.u_f
        return -((gx * u.x + gy * u.y) + gz * u.z)

    def _vecpot(self, x, y, z, t):
        return ZERO3 if self._static else self._potentials(x, y, z, t, _WBAR_A)[2]

    def _grad_vecpot(self, x, y, z, t):
        if self._static:
            return _ZERO_JAC
        q = self.q
        gx, gy, gz = self._grad_wbar(x, y, z, t)
        gx, gy, gz = gx / q, gy / q, gz / q
        ux, uy, uz = self.u_f
        return (
            (ux * gx, ux * gy, ux * gz),
            (uy * gx, uy * gy, uy * gz),
            (uz * gx, uz * gy, uz * gz),
        )

    def _dvecpot_dt(self, x, y, z, t):
        if self._static:
            return ZERO3
        c = self._dwbar_dt(x, y, z, t) / self.q
        ux, uy, uz = self.u_f
        return ux * c, uy * c, uz * c

    def wbar_hessian(self, r, t):
        dx, dy, dz, d2e = self._potentials(r.x, r.y, r.z, t, _OFFSET)
        d = np.array([dx, dy, dz])
        coef = self.k / FOUR_PI
        return coef * (np.eye(3) * d2e**-1.5 - 3.0 * np.outer(d, d) * d2e**-2.5)

    def wbar_tt(self, r, t):
        uf = self.u_f.as_array()
        return float(uf @ self.wbar_hessian(r, t) @ uf)

    def wbar_laplacian(self, r, t):
        d2e = self._potentials(r.x, r.y, r.z, t, _OFFSET)[3]
        return 3.0 * self.k * self.eps2 / (FOUR_PI * d2e**2.5)

    def rho(self, r, t):
        """Plummer density matching -laplacian(wbar) of the static softened source."""
        d2e = self._potentials(r.x, r.y, r.z, t, _OFFSET)[3]
        return -3.0 * self.k * self.eps2 / (FOUR_PI * d2e**2.5)

    def singular_distance(self, r, t):
        if self.eps2 > 0.0:
            return None
        return math.sqrt(self._potentials(r.x, r.y, r.z, t, _OFFSET)[3])


class LinearField(PotentialField):
    """wbar = w0 + <g, r>: uniform force field (uniform E at fixed test charge)."""

    kind = "linear"

    def __init__(self, w0: float, gradient: Vec3):
        self.w0 = float(w0)
        self.gradient = gradient

    def _wbar(self, x, y, z, t):
        g = self.gradient
        return self.w0 + ((g.x * x + g.y * y) + g.z * z)

    def _grad_wbar(self, x, y, z, t):
        return self.gradient

    def _dwbar_dt(self, x, y, z, t):
        return 0.0

    def wbar_hessian(self, r, t):
        return np.zeros((3, 3))

    def wbar_tt(self, r, t):
        return 0.0


class UniformMagneticField(PotentialField):
    """Constant B via the symmetric gauge A = (1/2) B x r; wbar constant."""

    kind = "uniform-b"

    def __init__(self, b: Vec3, wbar0: float = 0.0):
        self.b = b
        self.wbar0 = float(wbar0)

    def _wbar(self, x, y, z, t):
        return self.wbar0

    def _grad_wbar(self, x, y, z, t):
        return ZERO3

    def _dwbar_dt(self, x, y, z, t):
        return 0.0

    def _vecpot(self, x, y, z, t):
        # (b x r) * 0.5, in the order of Vec3.cross
        bx, by, bz = self.b
        return (by * z - bz * y) * 0.5, (bz * x - bx * z) * 0.5, (bx * y - by * x) * 0.5

    def _grad_vecpot(self, x, y, z, t):
        bx, by, bz = self.b
        return (
            (0.0, -bz * 0.5, by * 0.5),
            (bz * 0.5, 0.0, -bx * 0.5),
            (-by * 0.5, bx * 0.5, 0.0),
        )

    def wbar_hessian(self, r, t):
        return np.zeros((3, 3))

    def wbar_tt(self, r, t):
        return 0.0


@dataclass
class CallableField(PotentialField):
    """Ad-hoc analytic field assembled from callables of a Vec3 point and a time.

    The component methods call them at a point of floats, and once per row
    on rows, so the base class's Vec3 and ``*_many`` forms serve this field
    as they serve the built-in ones.
    """

    wbar_fn: Callable[[Vec3, float], float] = lambda r, t: -1.0
    grad_wbar_fn: Callable[[Vec3, float], Vec3] = lambda r, t: ZERO3
    dwbar_dt_fn: Callable[[Vec3, float], float] = lambda r, t: 0.0
    vecpot_fn: Callable[[Vec3, float], Vec3] = lambda r, t: ZERO3
    grad_vecpot_fn: Callable[[Vec3, float], np.ndarray] = lambda r, t: np.zeros((3, 3))
    dvecpot_dt_fn: Callable[[Vec3, float], Vec3] = lambda r, t: ZERO3
    wbar_hessian_fn: Optional[Callable[[Vec3, float], np.ndarray]] = None
    wbar_tt_fn: Optional[Callable[[Vec3, float], float]] = None

    # The callables take Vec3 points: on rows, each component method calls
    # its callable once per row and returns the values per component.
    def _wbar(self, x, y, z, t):
        return _per_row(self.wbar_fn, (), x, y, z, t)

    def _grad_wbar(self, x, y, z, t):
        return _per_row(self.grad_wbar_fn, (3,), x, y, z, t)

    def _dwbar_dt(self, x, y, z, t):
        return _per_row(self.dwbar_dt_fn, (), x, y, z, t)

    def _vecpot(self, x, y, z, t):
        return _per_row(self.vecpot_fn, (3,), x, y, z, t)

    def _grad_vecpot(self, x, y, z, t):
        return _per_row(self.grad_vecpot_fn, (3, 3), x, y, z, t)

    def _dvecpot_dt(self, x, y, z, t):
        return _per_row(self.dvecpot_dt_fn, (3,), x, y, z, t)

    def wbar_hessian(self, r, t):
        if self.wbar_hessian_fn is None:
            raise NotImplementedError("no hessian supplied")
        return self.wbar_hessian_fn(r, t)

    def wbar_tt(self, r, t):
        if self.wbar_tt_fn is None:
            raise NotImplementedError("no wbar_tt supplied")
        return self.wbar_tt_fn(r, t)


def _per_row(fn, shape, x, y, z, t):
    """fn(Vec3(x, y, z), t) at a point of floats; on rows, fn at each row, as shape's components.

    Rows are equal-length 1-D arrays (t may be a float): the values of shape
    () come back as one array, those of shape (3,) or (3, 3) as arrays of
    rows on the last axis, so an empty block keeps its shape.
    """
    if not isinstance(x, np.ndarray):
        return fn(Vec3(x, y, z), t)
    x, y, z, t = (a.tolist() for a in np.broadcast_arrays(x, y, z, t))
    values = np.array([fn(Vec3(*point), tt) for *point, tt in zip(x, y, z, t)], dtype=float)
    return np.moveaxis(values.reshape((len(x),) + shape), 0, -1)


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


def wave_residual(w: PotentialField, r: Vec3, t: float) -> float:
    """d2(wbar)/dt2 - laplacian(wbar) - rho at (r, t), with rho the field's own density.

    ``w`` must expose exact second derivatives (wbar_tt, wbar_laplacian).
    Raises SingularPointError within the guard distance of an unsoftened
    point source.
    """
    dist = w.singular_distance(r, t)
    if dist is not None and dist < SINGULAR_GUARD:
        raise SingularPointError(
            f"evaluation {dist:.3g} from an unsoftened point source"
        )
    return w.wbar_tt(r, t) - w.wbar_laplacian(r, t) - w.rho(r, t)
