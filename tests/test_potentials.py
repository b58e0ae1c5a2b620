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
from vacuumlab.integrate import IntegrationParams, integrate_particle
from vacuumlab.particle import (
    ForceModel,
    ModelKind,
    bind_law,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
)
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


def node_rows(components, n):
    """(n, 3) rows of an (x, y, z) triple of (n,) arrays or floats (a constant component broadcasts)."""
    out = np.empty((n, 3))
    out[:, 0], out[:, 1], out[:, 2] = components
    return out


def coulomb(strength=1.0, q=1.0, eps=0.0, u_f=ZERO3, background=0.0):
    kind = SourceKind.COULOMB_COMOVING if u_f.norm2() > 0 else SourceKind.COULOMB_STATIC
    spec = SourceSpec(kind, strength, u_f=u_f, softening=eps, background=background)
    return build_potential(spec, q)


def math_field():
    """A CallableField whose callables take floats only: math, not NumPy, evaluates them."""

    def s(r, t):
        return 0.3 * r.x + 0.2 * r.y * t

    def sech2(r, t):
        return 1.0 / math.cosh(s(r, t)) ** 2

    return CallableField(
        wbar_fn=lambda r, t: -2.0 + 0.5 * math.tanh(s(r, t)),
        grad_wbar_fn=lambda r, t: Vec3(0.15 * sech2(r, t), 0.1 * t * sech2(r, t), 0.0),
        dwbar_dt_fn=lambda r, t: 0.1 * r.y * sech2(r, t),
        vecpot_fn=lambda r, t: Vec3(0.1 * math.sin(r.y), -0.1 * math.sin(r.x), 0.05 * t),
        grad_vecpot_fn=lambda r, t: np.array(
            [[0.0, 0.1 * math.cos(r.y), 0.0], [-0.1 * math.cos(r.x), 0.0, 0.0], [0.0, 0.0, 0.0]]
        ),
        dvecpot_dt_fn=lambda r, t: Vec3(0.0, 0.0, 0.05),
    )


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
    assert abs(wave_residual(f, Vec3(1, 1, 1), 0.0)) < 1e-9


def test_wave_residual_travelling_profile():
    # w = sin(t - x): d2/dt2 = -sin, laplacian = -sin; residual 0
    f = CallableField(
        wbar_fn=lambda r, t: math.sin(t - r.x),
        wbar_hessian_fn=lambda r, t: np.diag([-math.sin(t - r.x), 0.0, 0.0]),
        wbar_tt_fn=lambda r, t: -math.sin(t - r.x),
    )
    assert abs(wave_residual(f, Vec3(0.3, 1.0, -2.0), 0.7)) < 1e-12


def test_wave_residual_quadratic():
    f = CallableField(
        wbar_fn=lambda r, t: r.x**2,
        wbar_hessian_fn=lambda r, t: np.diag([2.0, 0.0, 0.0]),
        wbar_tt_fn=lambda r, t: 0.0,
    )
    assert wave_residual(f, Vec3(1, 2, 3), 0.0) == pytest.approx(-2.0)


def test_wave_residual_coulomb_static_offcenter():
    f = coulomb(eps=0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = Vec3(*rng.uniform(-1, 1, size=3))
        if r.norm() <= 0.01:
            continue
        assert abs(wave_residual(f, r, 0.0)) < 1e-8


def test_wave_residual_softened_matches_plummer_density():
    f = coulomb(eps=0.05)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = Vec3(*rng.uniform(-0.5, 0.5, size=3))
        assert abs(wave_residual(f, r, 0.0)) < 1e-12


def test_wave_residual_singular_guard():
    f = coulomb(eps=0.0)
    with pytest.raises(SingularPointError):
        wave_residual(f, Vec3(1e-4, 0, 0), 0.0)


@pytest.mark.parametrize(
    "field",
    [UniformField(-1.5), LinearField(-2.0, Vec3(0.3, -0.1, 0.2)), UniformMagneticField(Vec3(0.1, 0.2, 0.9))],
    ids=["uniform", "linear", "uniform-b"],
)
def test_wave_residual_needs_second_derivatives(field):
    # only Coulomb fields (and callables that supply them) carry second derivatives
    with pytest.raises(NotImplementedError, match=f"^{type(field).__name__} has no second derivatives$"):
        wave_residual(field, Vec3(0.3, 1.0, -2.0), 0.0)


SECOND_DERIVATIVE_SOURCES = {
    "static-unsoftened": coulomb(eps=0.0),
    "static-softened": coulomb(eps=0.05, background=-1.0),
    "comoving-unsoftened": coulomb(strength=0.7, q=0.5, eps=0.0, u_f=Vec3(0.2, -0.1, 0.05)),
    "comoving-softened": coulomb(strength=0.7, q=0.5, eps=0.05, u_f=Vec3(0.2, -0.1, 0.05), background=-2.0),
}


def second_derivative_points(field):
    """(r, t) pairs at least 0.2 from the source, plus one inside a softened source's core."""
    rng = np.random.default_rng(23)
    points = []
    while len(points) < 20:
        r, t = Vec3(*rng.uniform(-1.0, 1.0, size=3)), float(rng.uniform(0.0, 1.0))
        if (r - t * field.u_f).norm() > 0.2:
            points.append((r, t))
    if field.eps2 > 0.0:
        points.append((Vec3(0.03, 0.02, -0.01), 0.0))
    return points


@pytest.mark.parametrize("field", SECOND_DERIVATIVE_SOURCES.values(), ids=SECOND_DERIVATIVE_SOURCES.keys())
def test_coulomb_second_derivatives_match_central_differences(field):
    # all nine Hessian entries against differences of grad(wbar); wbar_tt against wbar's in t
    h, ht = 1e-5, 5e-4
    for r, t in second_derivative_points(field):
        hess = field.wbar_hessian(r, t)
        scale = np.abs(hess).max()
        for k in range(3):
            e = Vec3(*np.eye(3)[k]) * h
            column = (field.grad_wbar(r + e, t) - field.grad_wbar(r - e, t)) * (0.5 / h)
            assert np.abs(column.as_array() - hess[:, k]).max() < 1e-6 * scale
        num = (field.wbar(r, t + ht) - 2.0 * field.wbar(r, t) + field.wbar(r, t - ht)) / ht**2
        assert abs(num - field.wbar_tt(r, t)) < 1e-6 * scale


@pytest.mark.parametrize("name", ["comoving-unsoftened", "comoving-softened"])
def test_wave_residual_of_a_moving_source_is_its_boost_term(name):
    # the comoving field is the static one un-retarded at r - u_f t: wbar_tt = u_f.H.u_f, and
    # trace(H) = -rho as for the static source, so the residual is u_f.H.u_f, not 0
    field = SECOND_DERIVATIVE_SOURCES[name]
    u = field.u_f.as_array()
    for r, t in [(Vec3(0.5, 0.3, -0.2), 0.0), *second_derivative_points(field)]:
        boost = float(u @ field.wbar_hessian(r, t) @ u)
        assert wave_residual(field, r, t) == pytest.approx(boost, rel=1e-12, abs=0.0)


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
    # the least-action oracle's array densities rely on; so do the A-Jacobian
    # and dA/dt components on rows, which compare's interaction force reads
    fields = [
        field,
        UniformField(-1.5),
        coulomb(eps=0.05, background=-1.0),
        coulomb(strength=1.3, q=0.8, eps=0.05, u_f=Vec3(0.1, 0.0, 0.15), background=-1.0),
        LinearField(-2.0, Vec3(0.3, -0.1, 0.2)),
        UniformMagneticField(Vec3(0.1, 0.2, 0.9), -1.0),
        CallableField(vecpot_fn=lambda r, t: Vec3(r.y * t, -r.x, 0.5)),
        math_field(),
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
        jac = f._grad_vecpot(*pts.T, times)
        assert np.array_equal(np.stack([node_rows(row, 500) for row in jac], axis=1), np.array(j_scalar))
        assert np.array_equal(node_rows(f._dvecpot_dt(*pts.T, times), 500), np.array(at_scalar))

    # a CallableField's component methods call its callables once per row, at
    # one time or at each row's; an empty block keeps each method's shape
    for f in fields[-2:]:
        w_scalar = [f.wbar(Vec3(*pt), 0.5) for pt in pts]
        assert np.array_equal(f._wbar(*pts.T, 0.5), np.array(w_scalar))
        methods = (f._wbar, f._grad_wbar, f._dwbar_dt, f._vecpot, f._grad_vecpot, f._dvecpot_dt)
        empty = np.empty(0)
        shapes = [np.shape(method(empty, empty, empty, empty)) for method in methods]
        assert shapes == [(0,), (3, 0), (0,), (3, 0), (3, 3, 0), (3, 0)]


@pytest.mark.parametrize("kind", list(ModelKind), ids=[k.value for k in ModelKind])
def test_every_model_runs_in_a_callable_field(kind):
    # a run's rows are decoded by the law on rows, which a CallableField of
    # float-only callables answers one row at a time: each later row's u and p
    # equal the float-bound law's at that row's flat state
    field = math_field()
    model = ForceModel(kind, field, charge=0.8, rest_mass=1.0)
    r0, u0 = Vec3(0.2, -0.1, 0.3), Vec3(0.1, 0.25, -0.05)
    if kind is ModelKind.CLASSICAL:
        state = make_classical_state(r0, u0, 1.0)
    elif kind is ModelKind.CONSTRAINED:
        state = make_constrained_state(r0, u0, 1.0)
    else:
        state = make_vacuum_state(field, r0, u0)
    traj = integrate_particle(model, state, IntegrationParams(step=1e-3, n_steps=20, audit_every=5))
    law = bind_law(model, traj.time_axis, FLOATS)
    c = traj.columns()
    for i in range(1, len(traj.x)):
        _, u, p = law(float(traj.x[i]), tuple(traj.Y[i].tolist()))
        assert np.array([u, p]).tobytes() == np.array([c.u[i], c.p[i]]).tobytes()


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
    for many in (f.wbar_many, f.grad_wbar_many, f.dwbar_dt_many, f.vecpot_many):
        with pytest.raises(SingularPointError, match="t=2"):
            many(pts, np.array([0.0, 2.0]))
    for component in (f._grad_vecpot, f._dvecpot_dt):
        with pytest.raises(SingularPointError, match="t=2"):
            component(*pts.T, np.array([0.0, 2.0]))
    with pytest.raises(SingularPointError, match="t=2"):
        f._potentials(*pts.T, np.array([0.0, 2.0]))


def test_wbar_raises_where_the_gradient_denominator_underflows():
    # within about 1e-108 of an unsoftened source |d|^2 |d| underflows to 0; wbar
    # alone is finite there (about -1e108), but the kernel's one singular test
    # guards its whole result, so wbar raises as the stepper's point does
    f = coulomb()
    with pytest.raises(SingularPointError, match="t=0"):
        f.wbar(Vec3(1e-110, 0.0, 0.0), 0.0)
    with pytest.raises(SingularPointError, match="t=0") as caught:
        f.wbar_many(np.array([[1.0, 0.0, 0.0], [1e-110, 0.0, 0.0]]), np.zeros(2))
    assert caught.value.where == 1


def test_wbar_negative_on_domain():
    f = coulomb(eps=0.05, background=-1.0)
    rng = np.random.default_rng(29)
    for _ in range(100):
        r = Vec3(*rng.uniform(-2, 2, size=3))
        assert f.wbar(r, 0.0) < 0.0
