import math

import numpy as np
import pytest

from vacuumlab.conformal import ConformalPatch
from vacuumlab.errors import SuperluminalVelocityError, ValidationError
from vacuumlab.geometry import Vec3, check_uniform_axis, proper_time_factor, violated
from vacuumlab.strings import StringGrid
from vacuumlab.variational import DiscretePath


def test_proper_time_factor_examples():
    assert proper_time_factor(Vec3(0, 0, 0)) == 1.0
    assert proper_time_factor(Vec3(0.6, 0, 0)) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(SuperluminalVelocityError):
        proper_time_factor(Vec3(1.0, 0, 0))


def test_clock_reciprocity_random():
    # dt/dtau = (1 + |rdot|^2)^(1/2) is the reciprocal of dtau/dt at u = rdot dtau/dt
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rdot = Vec3(*rng.normal(scale=3.0, size=3))
        dt_dtau = math.sqrt(1.0 + rdot.norm2())
        assert abs(dt_dtau * proper_time_factor(rdot / dt_dtau) - 1.0) < 1e-12


# each type behind the uniform-axis rule, built on an axis of 16 nodes
AXIS_OWNERS = {
    "string-grid": StringGrid,
    "conformal-patch": lambda axis: ConformalPatch(axis, [0.0, 0.5, 1.0], np.zeros((16, 3, 4))),
    "discrete-path": lambda axis: DiscretePath(axis, np.zeros((16, 3))),
}


@pytest.mark.parametrize("owner", sorted(AXIS_OWNERS))
def test_one_uniform_axis_rule_bounds_each_grid_type(owner):
    build = AXIS_OWNERS[owner]
    axis = np.linspace(0.0, 1.0, 16)
    inside, outside = axis.copy(), axis.copy()
    inside[8] += 0.5e-12  # two spacings move by the shift; the first stays
    outside[8] += 2e-12
    build(inside)
    with pytest.raises(ValidationError, match="must be uniform and increasing"):
        build(outside)


def test_the_uniform_axis_bound_scales_with_the_nodes():
    # 1e5 steps x += 0.37 move one spacing by 2.6e-12 of the step, but by far
    # less than 1e-12 of the largest node
    x, axis = 0.0, [0.0]
    for _ in range(100_000):
        x += 0.37
        axis.append(x)
    check_uniform_axis(np.array(axis), "t axis")
    check_uniform_axis(np.linspace(1e5, 1e5 + 1.0, 64), "offset axis")
    with pytest.raises(ValidationError, match="nan axis must be uniform and increasing"):
        check_uniform_axis(np.array([0.0, 1.0, float("nan"), 3.0]), "nan axis")


@pytest.mark.parametrize(
    "bad, expected",
    [
        (True, True),
        (False, False),
        (np.True_, True),
        (np.False_, False),
        (np.array([False, True, True]), True),
        (np.zeros(3, dtype=bool), False),
        (np.array([], dtype=bool), False),
    ],
    ids=["true", "false", "np-true", "np-false", "array-true", "array-false", "array-empty"],
)
def test_violated_answers_a_bool(bad, expected):
    got = violated(bad)
    assert type(got) is bool and got is expected


def test_array_guard_names_its_first_failing_row():
    u = np.array([[0.1, 0.0, 0.0], [0.2, 0.99, 0.3], [1.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(SuperluminalVelocityError) as err:
        proper_time_factor(u.T)
    assert err.value.where == 1
    assert str(err.value) == f"|u| = {math.sqrt((0.2 * 0.2 + 0.99 * 0.99) + 0.3 * 0.3):.6g} >= 1"
    with pytest.raises(SuperluminalVelocityError) as err:
        proper_time_factor(Vec3(*u[1]))
    assert err.value.where is None
