"""Three-vector algebra, spacetime events, time factors and projectors.

Light-speed units: velocities are dimensionless, the Minkowski inner
product is <x,x> = t^2 - <r,r>, the Euclidean one on (r, tau) events is
tau^2 + <r,r>.  Lab velocity u = dr/dt obeys |u| < 1; the proper-time
velocity rdot = dr/dtau is unbounded and the two clocks are related by

    dtau = dt * (1 - u^2)^(1/2)        dt = dtau * (1 + rdot^2)^(1/2)

which are exact inverses of each other under u = rdot / (1 + rdot^2)^(1/2).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SuperluminalVelocityError, ZeroDirectionError


class Vec3(NamedTuple):
    """Immutable Euclidean 3-vector with float components."""

    x: float
    y: float
    z: float

    def __add__(self, other):
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float):
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float):
        return Vec3(self.x / s, self.y / s, self.z / s)

    def dot(self, other) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other) -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)


ZERO3 = Vec3(0.0, 0.0, 0.0)


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a, b> of (..., 3) arrays, summed (x + y) + z like ``Vec3.dot``."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def norm2_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise |v|^2 in the order of ``Vec3.norm2``."""
    return dot_rows(v, v)


class MinkowskiEvent(NamedTuple):
    """Spacetime point x = (r, t) of the laboratory frame."""

    r: Vec3
    t: float


class EuclideanEvent(NamedTuple):
    """Rest-frame point xi = (r, tau); the time slot carries proper time."""

    r: Vec3
    tau: float


def minkowski_inner(x: MinkowskiEvent, y: MinkowskiEvent) -> float:
    """<x,y> = t_x t_y - <r_x, r_y>; symmetric and bilinear."""
    return x.t * y.t - x.r.dot(y.r)


def euclidean_inner(x: EuclideanEvent, y: EuclideanEvent) -> float:
    """<xi,eta> = tau_x tau_y + <r_x, r_y> on rest-frame events."""
    return x.tau * y.tau + x.r.dot(y.r)


def proper_time_factor(u: Vec3) -> float:
    """dtau/dt = (1 - |u|^2)^(1/2) for lab velocity u; in (0, 1].

    Raises SuperluminalVelocityError when |u| >= 1.
    """
    u2 = u.norm2()
    if u2 >= 1.0:
        raise SuperluminalVelocityError(f"|u| = {math.sqrt(u2):.6g} >= 1")
    return math.sqrt(1.0 - u2)


def lab_time_factor(rdot: Vec3) -> float:
    """dt/dtau = (1 + |rdot|^2)^(1/2) for proper-time velocity rdot; >= 1."""
    return math.sqrt(1.0 + rdot.norm2())


def lab_velocity(rdot: Vec3) -> Vec3:
    """Map proper-time velocity dr/dtau to lab velocity dr/dt."""
    return rdot / lab_time_factor(rdot)


class Projector3:
    """Symmetric idempotent rank-2 operator removing the component along one direction."""

    def __init__(self, m: np.ndarray):
        self.m = np.asarray(m, dtype=float)
        if self.m.shape != (3, 3):
            raise ValueError("Projector3 expects a 3x3 matrix")

    def apply(self, v: Vec3) -> Vec3:
        w = self.m @ v.as_array()
        return Vec3(w[0], w[1], w[2])

    def trace(self) -> float:
        return float(np.trace(self.m))


def orthogonal_projector(v: Vec3) -> Projector3:
    """P = 1 - v (x) v / |v|^2: kernel along v, identity on the plane normal to v.

    Raises ZeroDirectionError for |v| = 0; degenerate directions signal
    modeling mistakes upstream (the momentum kernels divide by |v|^2).
    """
    n2 = v.norm2()
    if n2 == 0.0:
        raise ZeroDirectionError("projector direction has zero norm")
    a = v.as_array()
    return Projector3(np.eye(3) - np.outer(a, a) / n2)
