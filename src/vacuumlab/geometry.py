"""Three-vector algebra, the proper-time factor and the uniform-axis rule.

Light-speed units: velocities are dimensionless.  Lab velocity u = dr/dt
obeys |u| < 1; the proper-time velocity rdot = dr/dtau is unbounded and
the two clocks are related by

    dtau = dt * (1 - u^2)^(1/2)        dt = dtau * (1 + rdot^2)^(1/2)

which are exact inverses of each other under u = rdot / (1 + rdot^2)^(1/2).

Code written once on components takes floats or equal-length 1-D arrays
alike.  A kernel that takes a square root or tests a domain guard is a
closure over the two, bound to ``FLOATS`` for the stepper and to ``ROWS``
(``root`` and ``violated``, on floats or arrays) for everything else;
``domain_error`` formats a failure of either.  ``proper_time_factor``,
which the stepper never calls, takes ``root`` and ``violated`` directly.

``check_uniform_axis`` is the one rule for the uniform grids of the string,
the conformal patch and the oracle's paths; each keeps its own minimum
node count, the one its stencil needs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SuperluminalVelocityError, ValidationError


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

    def norm2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)


ZERO3 = Vec3(0.0, 0.0, 0.0)


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a, b> of (..., 3) arrays, summed (x + y) + z like ``Vec3.dot``."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def norm2_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise |v|^2 in the order of ``Vec3.norm2``."""
    return dot_rows(v, v)


def root(v):
    """math.sqrt on a float, np.sqrt on an array: the same correctly rounded root."""
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


def violated(bad) -> bool:
    """Whether a domain check fails: bad is a bool on floats, a boolean array on rows.

    A Python bool is answered by identity; np.bool_ and arrays go through ``any``.
    """
    return bad is True or (bad is not False and bool(bad.any()))


# (sqrt, violated) pairs a kernel written once is bound to
FLOATS = (math.sqrt, bool)
ROWS = (root, violated)


def domain_error(error, bad, message: str, *values):
    """error(message) for the first row where bad holds, formatted with that row's values.

    On arrays the error names the row as ``where``; values may mix arrays and floats.
    """
    if isinstance(bad, np.ndarray):
        k = int(np.argmax(bad))
        values = [v[k] if isinstance(v, np.ndarray) else v for v in values]
        return error(message.format(*values), where=k)
    return error(message.format(*values))


# the message of |u| >= 1 where a clock factor (1 - |u|^2)^(1/2) is taken, formatted with |u|
SUPERLUMINAL = "|u| = {:.6g} >= 1"


def proper_time_factor(u):
    """dtau/dt = (1 - |u|^2)^(1/2) for lab velocity u; in (0, 1].

    u is an (x, y, z) triple of floats or of 1-D arrays (a Vec3, or the
    transpose of an (m, 3) array).  Raises SuperluminalVelocityError when
    |u| >= 1, for the first such row on arrays.
    """
    x, y, z = u
    u2 = (x * x + y * y) + z * z
    bad = u2 >= 1.0
    if violated(bad):
        raise domain_error(SuperluminalVelocityError, bad, SUPERLUMINAL, root(u2))
    return root(1.0 - u2)


def check_uniform_axis(values: np.ndarray, name: str) -> None:
    """ValidationError naming the axis unless it is strictly increasing and uniform.

    Uniform: every spacing is within 1e-12 max(1, max |node|) of the first.
    Rounding moves a node by ulps of its own size, so the bound scales with
    the nodes, not the spacing: an axis built by linspace, or by x += h over
    any number of steps, passes at any offset.  A non-finite node fails.
    The caller checks its own minimum node count (at least 2) first.
    """
    d = np.diff(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    if not (np.all(d > 0) and np.max(np.abs(d - d[0])) <= 1e-12 * scale):
        raise ValidationError(f"{name} must be uniform and increasing")
