import math

import numpy as np
import pytest

from vacuumlab.errors import SuperluminalVelocityError, ZeroDirectionError
from vacuumlab.geometry import (
    Vec3,
    lab_time_factor,
    orthogonal_projector,
    proper_time_factor,
    violated,
)


def test_proper_time_factor_examples():
    assert proper_time_factor(Vec3(0, 0, 0)) == 1.0
    assert proper_time_factor(Vec3(0.6, 0, 0)) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(SuperluminalVelocityError):
        proper_time_factor(Vec3(1.0, 0, 0))


def test_lab_time_factor_examples():
    assert lab_time_factor(Vec3(0, 0, 0)) == 1.0
    assert lab_time_factor(Vec3(0.75, 0, 0)) == pytest.approx(1.25, abs=1e-15)
    rdot = Vec3(2, 1, 2)
    u = rdot / lab_time_factor(rdot)  # the lab velocity dr/dt
    assert lab_time_factor(rdot) * proper_time_factor(u) == pytest.approx(1.0, abs=1e-12)


def test_clock_reciprocity_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rdot = Vec3(*rng.normal(scale=3.0, size=3))
        u = rdot / lab_time_factor(rdot)
        assert abs(lab_time_factor(rdot) * proper_time_factor(u) - 1.0) < 1e-12


def test_projector_examples():
    p = orthogonal_projector(Vec3(1, 0, 0))
    assert np.allclose(p.m, np.diag([0.0, 1.0, 1.0]))
    v = Vec3(1, 1, 0)
    assert orthogonal_projector(v).apply(v).norm() < 1e-15
    q = orthogonal_projector(Vec3(3, 4, 0))
    w = q.apply(Vec3(0, 0, 5))
    assert (w - Vec3(0, 0, 5)).norm() < 1e-15


def test_projector_zero_direction():
    with pytest.raises(ZeroDirectionError):
        orthogonal_projector(Vec3(0, 0, 0))


def test_projector_invariants_random():
    rng = np.random.default_rng(13)
    for _ in range(300):
        v = Vec3(*rng.normal(size=3))
        if v.norm() < 1e-8:
            continue
        proj = orthogonal_projector(v)
        m = proj.m
        assert np.max(np.abs(m - m.T)) < 1e-12
        assert np.max(np.abs(m @ m - m)) < 1e-12
        assert abs(proj.trace() - 2.0) < 1e-12
        eig = np.linalg.eigvalsh(m)
        assert np.all(np.minimum(np.abs(eig), np.abs(eig - 1.0)) < 1e-9)
        # fixed on the orthogonal complement
        w = Vec3(*rng.normal(size=3))
        w_perp = w - v * (w.dot(v) / v.norm2())
        assert (proj.apply(w_perp) - w_perp).norm() < 1e-12 * max(1.0, w_perp.norm())


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
