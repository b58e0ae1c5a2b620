import math

import numpy as np
import pytest

from vacuumlab.errors import (
    InvalidSourceError,
    SingularPointError,
    SuperluminalVelocityError,
    ZeroChargeError,
)
from vacuumlab.geometry import FLOATS, ROWS, Vec3, ZERO3
from vacuumlab.potentials import (
    CallableField,
    LinearField,
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
    electric_field,
    magnetic_field,
    wave_residual,
)

FOUR_PI = 4.0 * math.pi


def coulomb(strength=1.0, q=1.0, eps=0.0, u_f=ZERO3, background=0.0):
    kind = SourceKind.COULOMB_COMOVING if u_f.norm2() > 0 else SourceKind.COULOMB_STATIC
    spec = SourceSpec(kind, strength, u_f=u_f, softening=eps, background=background)
    return build_potential(spec, q)


def test_uniform_field_example():
    f = build_potential(SourceSpec(SourceKind.UNIFORM, -1.0), 1.0)
    assert f.wbar(Vec3(3, 2, 1), 5.0) == -1.0
    assert f.grad_wbar(Vec3(3, 2, 1), 5.0) == ZERO3
    assert f.vecpot(Vec3(3, 2, 1), 5.0) == ZERO3


def test_coulomb_static_value():
    f = coulomb()
    assert f.wbar(Vec3(1, 0, 0), 0.0) == pytest.approx(-1.0 / FOUR_PI, rel=1e-15)


def test_comoving_vecpot_is_wbar_uf_over_q():
    u_f = Vec3(0.5, 0, 0)
    f = coulomb(u_f=u_f)
    r = Vec3(1, 0, 0)
    a = f.vecpot(r, 0.0)
    assert (a - u_f * f.wbar(r, 0.0)).norm() < 1e-15


def test_source_spec_invariants():
    with pytest.raises(InvalidSourceError):
        SourceSpec(SourceKind.UNIFORM, 1.0).validate()
    with pytest.raises(InvalidSourceError):
        SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=-1.0).validate()
    with pytest.raises(InvalidSourceError):
        SourceSpec(SourceKind.COULOMB_STATIC, 1.0, background=0.5).validate()
    with pytest.raises(SuperluminalVelocityError):
        SourceSpec(SourceKind.COULOMB_COMOVING, 1.0, u_f=Vec3(1.0, 0, 0)).validate()
    with pytest.raises(InvalidSourceError):
        SourceSpec(SourceKind.COULOMB_STATIC, 0.0).validate()


def test_electric_field_uniform_is_zero():
    f = build_potential(SourceSpec(SourceKind.UNIFORM, -2.0), 1.0)
    assert electric_field(f, 1.0, Vec3(1, 1, 1), 0.0) == ZERO3


def test_electric_field_coulomb_attractive_direction():
    # attractive normalization: E at +x points back toward the source
    f = coulomb()
    e = electric_field(f, 1.0, Vec3(1, 0, 0), 0.0)
    assert e.x == pytest.approx(-1.0 / FOUR_PI, rel=1e-12)
    assert abs(e.y) < 1e-15 and abs(e.z) < 1e-15


def test_electric_field_pure_induction():
    f = CallableField(
        wbar_fn=lambda r, t: -1.0,
        vecpot_fn=lambda r, t: Vec3(t, 0.0, 0.0),
        dvecpot_dt_fn=lambda r, t: Vec3(1.0, 0.0, 0.0),
    )
    e = electric_field(f, 1.0, Vec3(0, 0, 0), 0.3)
    assert (e - Vec3(-1.0, 0.0, 0.0)).norm() < 1e-15


def test_electric_field_zero_charge():
    f = coulomb()
    with pytest.raises(ZeroChargeError):
        electric_field(f, 0.0, Vec3(1, 0, 0), 0.0)


def test_magnetic_field_examples():
    f = build_potential(SourceSpec(SourceKind.UNIFORM, -1.0), 1.0)
    assert magnetic_field(f, Vec3(1, 2, 3), 0.0) == ZERO3
    b0 = 0.7
    fb = UniformMagneticField(Vec3(0, 0, b0))
    assert (magnetic_field(fb, Vec3(0.3, -0.2, 1.0), 0.0) - Vec3(0, 0, b0)).norm() < 1e-15
    # pure gauge A = grad(x*y) = (y, x, 0)
    gauge = CallableField(
        vecpot_fn=lambda r, t: Vec3(r.y, r.x, 0.0),
        grad_vecpot_fn=lambda r, t: np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        ),
    )
    assert magnetic_field(gauge, Vec3(1, 2, 3), 0.0).norm() < 1e-9


def test_wave_residual_harmonic():
    def w(r, t):
        return 1.0 / (FOUR_PI * r.norm())

    def hess(r, t):
        a = r.as_array()
        d = r.norm()
        return (3.0 * np.outer(a, a) / d**2 - np.eye(3)) / (FOUR_PI * d**3)

    f = CallableField(wbar_fn=w, wbar_hessian_fn=hess, wbar_tt_fn=lambda r, t: 0.0)
    assert abs(wave_residual(f, 0.0, Vec3(1, 1, 1), 0.0)) < 1e-9


def test_wave_residual_travelling_profile():
    # w = sin(t - x): d2/dt2 = -sin, laplacian = -sin; residual 0
    f = CallableField(
        wbar_fn=lambda r, t: math.sin(t - r.x),
        wbar_hessian_fn=lambda r, t: np.diag([-math.sin(t - r.x), 0.0, 0.0]),
        wbar_tt_fn=lambda r, t: -math.sin(t - r.x),
    )
    assert abs(wave_residual(f, 0.0, Vec3(0.3, 1.0, -2.0), 0.7)) < 1e-12


def test_wave_residual_quadratic():
    f = CallableField(
        wbar_fn=lambda r, t: r.x**2,
        wbar_hessian_fn=lambda r, t: np.diag([2.0, 0.0, 0.0]),
        wbar_tt_fn=lambda r, t: 0.0,
    )
    assert wave_residual(f, 0.0, Vec3(1, 2, 3), 0.0) == pytest.approx(-2.0)


def test_wave_residual_coulomb_static_offcenter():
    f = coulomb(eps=0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = Vec3(*rng.uniform(-1, 1, size=3))
        if r.norm() <= 0.01:
            continue
        assert abs(wave_residual(f, None, r, 0.0)) < 1e-8


def test_wave_residual_softened_matches_plummer_density():
    f = coulomb(eps=0.05)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = Vec3(*rng.uniform(-0.5, 0.5, size=3))
        assert abs(wave_residual(f, None, r, 0.0)) < 1e-12


def test_wave_residual_singular_guard():
    f = coulomb(eps=0.0)
    with pytest.raises(SingularPointError):
        wave_residual(f, None, Vec3(1e-4, 0, 0), 0.0)


BUILT_IN = [
    build_potential(SourceSpec(SourceKind.UNIFORM, -1.5), 1.0),
    coulomb(eps=0.05, background=-1.0),
    coulomb(strength=0.7, q=0.5, eps=0.08, u_f=Vec3(0.2, -0.1, 0.05), background=-2.0),
    LinearField(-2.0, Vec3(0.3, -0.1, 0.2)),
    UniformMagneticField(Vec3(0.1, 0.2, 0.9), -1.0),
]
BUILT_IN_IDS = ["uniform", "coulomb-static", "coulomb-comoving", "linear", "uniform-b"]


@pytest.mark.parametrize("field", BUILT_IN, ids=BUILT_IN_IDS)
def test_analytic_derivatives_match_central_differences(field):
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(100):
        r = Vec3(*rng.uniform(0.3, 1.2, size=3))
        t = float(rng.uniform(0.0, 1.0))
        g = field.grad_wbar(r, t)
        a_dot = field.dvecpot_dt(r, t)
        jac = field.grad_vecpot(r, t)
        for k in range(3):
            e = [0.0, 0.0, 0.0]
            e[k] = h
            dr = Vec3(*e)
            num = (field.wbar(r + dr, t) - field.wbar(r - dr, t)) / (2 * h)
            assert num == pytest.approx(g[k], rel=1e-6, abs=1e-9)
            da = [
                (field.vecpot(r + dr, t)[i] - field.vecpot(r - dr, t)[i]) / (2 * h)
                for i in range(3)
            ]
            for i in range(3):
                assert da[i] == pytest.approx(jac[i, k], rel=1e-6, abs=1e-9)
        num_t = (field.wbar(r, t + h) - field.wbar(r, t - h)) / (2 * h)
        assert num_t == pytest.approx(field.dwbar_dt(r, t), rel=1e-6, abs=1e-9)
        for i in range(3):
            num_at = (field.vecpot(r, t + h)[i] - field.vecpot(r, t - h)[i]) / (2 * h)
            assert num_at == pytest.approx(a_dot[i], rel=1e-6, abs=1e-9)


def test_vectorized_eval_matches_scalar():
    field = coulomb(strength=0.7, q=0.5, eps=0.08, u_f=Vec3(0.2, -0.1, 0.05), background=-2.0)
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.2, 1.0, size=(40, 3))
    times = rng.uniform(0.0, 1.0, size=40)
    w = field.wbar_many(pts, times)
    g = field.grad_wbar_many(pts, times)
    wt = field.dwbar_dt_many(pts, times)
    for i in range(40):
        r = Vec3(*pts[i])
        assert w[i] == pytest.approx(field.wbar(r, times[i]), rel=1e-14)
        assert np.allclose(g[i], field.grad_wbar(r, times[i]).as_array(), rtol=1e-14)
        assert wt[i] == pytest.approx(field.dwbar_dt(r, times[i]), rel=1e-14, abs=1e-16)

    # every *_many method repeats the scalar arithmetic bit for bit, which
    # the least-action oracle's array densities rely on
    fields = [
        field,
        UniformField(-1.5),
        coulomb(eps=0.05, background=-1.0),
        coulomb(strength=1.3, q=0.8, eps=0.05, u_f=Vec3(0.1, 0.0, 0.15), background=-1.0),
        LinearField(-2.0, Vec3(0.3, -0.1, 0.2)),
        UniformMagneticField(Vec3(0.1, 0.2, 0.9), -1.0),
        CallableField(vecpot_fn=lambda r, t: Vec3(r.y * t, -r.x, 0.5)),
    ]
    pts = rng.uniform(-1.5, 1.5, size=(500, 3))
    times = rng.uniform(-1.0, 2.0, size=500)
    for f in fields:
        w_scalar = [f.wbar(Vec3(*pt), float(tt)) for pt, tt in zip(pts, times)]
        a_scalar = [f.vecpot(Vec3(*pt), float(tt)) for pt, tt in zip(pts, times)]
        g_scalar = [f.grad_wbar(Vec3(*pt), float(tt)) for pt, tt in zip(pts, times)]
        wt_scalar = [f.dwbar_dt(Vec3(*pt), float(tt)) for pt, tt in zip(pts, times)]
        j_scalar = [f.grad_vecpot(Vec3(*pt), float(tt)) for pt, tt in zip(pts, times)]
        at_scalar = [f.dvecpot_dt(Vec3(*pt), float(tt)) for pt, tt in zip(pts, times)]
        assert np.array_equal(f.wbar_many(pts, times), np.array(w_scalar))
        assert np.array_equal(f.vecpot_many(pts, times), np.array(a_scalar))
        assert np.array_equal(f.grad_wbar_many(pts, times), np.array(g_scalar))
        assert np.array_equal(f.dwbar_dt_many(pts, times), np.array(wt_scalar))
        assert np.array_equal(f.grad_vecpot_many(pts, times), np.array(j_scalar))
        assert np.array_equal(f.dvecpot_dt_many(pts, times), np.array(at_scalar))


def _bits(value):
    """The bytes of a float, an array or a nested triple of them."""
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("field", BUILT_IN, ids=BUILT_IN_IDS)
def test_potentials_entry_point_equals_the_single_methods(field):
    # the vacuum law reads a point through _point(binding): the stepper's
    # float binding on one particle, _potentials (the row binding) otherwise;
    # both share one offset between quantities and must equal the single
    # methods bit for bit, on floats and on rows
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1.5, 1.5, size=(200, 3))
    times = rng.uniform(-1.0, 2.0, size=200)
    points = [(*pt, tt) for pt, tt in zip(pts.tolist(), times.tolist())]
    assert field._point(ROWS) == field._potentials
    for args in points + [(*pts.T, times)]:
        potentials = field._wbar(*args), field._grad_wbar(*args), field._vecpot(*args)
        assert _bits(field._potentials(*args)) == _bits(potentials)
        if isinstance(args[0], float):
            assert _bits(field._point(FLOATS)(*args)) == _bits(potentials)


def test_vectorized_wbar_on_unsoftened_source_raises():
    f = coulomb(u_f=Vec3(0.2, 0.0, 0.0))
    pts = np.array([[1.0, 0.0, 0.0], [0.4, 0.0, 0.0]])
    with pytest.raises(SingularPointError):
        f.wbar(Vec3(0.4, 0.0, 0.0), 2.0)
    for many in (
        f.wbar_many, f.grad_wbar_many, f.dwbar_dt_many, f.vecpot_many,
        f.grad_vecpot_many, f.dvecpot_dt_many,
    ):
        with pytest.raises(SingularPointError, match="t=2"):
            many(pts, np.array([0.0, 2.0]))
    with pytest.raises(SingularPointError, match="t=2"):
        f._potentials(*pts.T, np.array([0.0, 2.0]))


def test_wbar_negative_on_domain():
    f = coulomb(eps=0.05, background=-1.0)
    rng = np.random.default_rng(29)
    for _ in range(100):
        r = Vec3(*rng.uniform(-2, 2, size=3))
        assert f.wbar(r, 0.0) < 0.0
