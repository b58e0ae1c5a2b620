import math
import os
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import vacuumlab.integrate as integ
import vacuumlab.particle as particle
from vacuumlab.conformal import relax_elliptic
from vacuumlab.errors import (
    ConvergenceError,
    DegenerateMultiplierError,
    PhysicsDomainError,
    StepFailureError,
    SuperluminalVelocityError,
    ValidationError,
)
from vacuumlab.geometry import FLOATS, ROWS, Vec3, ZERO3, proper_time_factor
from vacuumlab.integrate import (
    IntegrationParams,
    integrate_particle,
    rkf45_step,
)
from vacuumlab.particle import (
    ForceModel,
    ModelKind,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
    qa_vector,
)
from vacuumlab.potentials import (
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
)


def gyro_setup(u=0.6, b0=1.0, m0=1.0, q=1.0):
    field = UniformMagneticField(Vec3(0, 0, b0))
    model = ForceModel(ModelKind.CLASSICAL, field, charge=q, rest_mass=m0)
    state = make_classical_state(ZERO3, Vec3(u, 0, 0), m0)
    gamma = 1.0 / math.sqrt(1.0 - u * u)
    period = 2.0 * math.pi * m0 * gamma / (q * b0)
    radius = m0 * gamma * u / (q * b0)
    return model, state, period, radius


def test_free_particle_straight_line_all_models():
    field = UniformField(-1.0)
    cases = [
        (ModelKind.CLASSICAL, make_classical_state(ZERO3, Vec3(0.3, 0.1, 0), 1.0)),
        (ModelKind.CONSTRAINED, make_constrained_state(ZERO3, Vec3(0.3, 0.1, 0), 1.0)),
        (ModelKind.VACUUM_FREE, make_vacuum_state(field, ZERO3, Vec3(0.3, 0.1, 0))),
        (ModelKind.VACUUM_INTERACTING, make_vacuum_state(field, ZERO3, Vec3(0.3, 0.1, 0))),
    ]
    for kind, state in cases:
        model = ForceModel(kind, field, charge=1.0, rest_mass=1.0)
        params = IntegrationParams(step=1e-2, n_steps=100, audit_every=10)
        traj = integrate_particle(model, state, params)
        expected = state.r + state.u * traj.final.t
        assert (traj.final.r - expected).norm() < 1e-12 * max(1.0, params.horizon)


def test_gyro_orbit_radius_and_period():
    model, state, period, radius = gyro_setup()
    n = 4000
    traj = integrate_particle(
        model, state, IntegrationParams(step=period / n, n_steps=n, audit_every=100)
    )
    # q u x B points toward -y at launch, so the center sits at (0, -radius, 0)
    center = Vec3(0.0, -radius, 0.0)
    radii = [(s.r - center).norm() for s in traj.samples]
    assert max(abs(rr - radius) for rr in radii) / radius < 1e-6
    assert (traj.final.r - state.r).norm() / radius < 1e-6


def test_rk4_global_error_order_on_gyro():
    model, state, period, radius = gyro_setup()
    errors, steps = [], []
    for n in (100, 200, 400, 800):
        traj = integrate_particle(
            model, state, IntegrationParams(step=period / n, n_steps=n, audit_every=n)
        )
        errors.append((traj.final.r - state.r).norm())
        steps.append(period / n)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_determinism_bit_identical():
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=1e-3, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)

    def run():
        state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.25, 0))
        traj = integrate_particle(
            model, state, IntegrationParams(step=1e-3, n_steps=1000, audit_every=10)
        )
        return [(s.tau, s.t, tuple(s.r), tuple(s.p)) for s in traj.samples]

    assert run() == run()


def test_tau_t_consistency():
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=1e-3, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.25, 0))
    traj = integrate_particle(
        model, state, IntegrationParams(step=1e-3, n_steps=2000, audit_every=100)
    )
    # proper-time run: t(tau) channel must match the quadrature of dt/dtau
    taus = np.array([s.tau for s in traj.samples])
    ts = np.array([s.t for s in traj.samples])
    rs = np.array([list(s.r) for s in traj.samples])
    rdot = np.gradient(rs, taus, axis=0)
    integrand = np.sqrt(1.0 + np.einsum("ij,ij->i", rdot, rdot))
    quad = np.concatenate([[ts[0]], ts[0] + np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(taus)
    )])
    assert np.max(np.abs(quad - ts)) < 5e-6  # trapezoid quadrature error floor


def test_parameterization_equivalence_vacuum_free():
    spec = SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=1e-3, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)

    def initial():
        return make_vacuum_state(field, Vec3(0.5, 0, 0), Vec3(0, 0.25, 0))

    tau_run = integrate_particle(
        model, initial(), IntegrationParams(step=5e-4, n_steps=4000, audit_every=100,
                                            time_axis="proper")
    )
    horizon_t = tau_run.final.t
    n_lab = 4000
    lab_run = integrate_particle(
        model, initial(), IntegrationParams(step=horizon_t / n_lab, n_steps=n_lab,
                                            audit_every=100, time_axis="lab")
    )
    lab_t = np.array([s.t for s in lab_run.samples])
    lab_r = np.array([list(s.r) for s in lab_run.samples])
    worst = 0.0
    for s in tau_run.samples[:: len(tau_run.samples) // 100]:
        if s.t > lab_t[-1] or s.t < lab_t[2] or s.t > lab_t[-3]:
            continue
        idx = int(np.searchsorted(lab_t, s.t))
        i0 = min(max(idx - 2, 0), len(lab_t) - 4)
        xs = lab_t[i0 : i0 + 4]
        acc = np.zeros(3)
        for a in range(4):
            w = 1.0
            for b in range(4):
                if a != b:
                    w *= (s.t - xs[b]) / (xs[a] - xs[b])
            acc += w * lab_r[i0 + a]
        worst = max(worst, float(np.linalg.norm(acc - np.array(list(s.r)))))
    assert worst < 1e-6


def test_adaptive_meets_tolerance_and_matches_rk4():
    model, state, period, radius = gyro_setup()
    fine = integrate_particle(
        model, state, IntegrationParams(step=period / 8000, n_steps=8000, audit_every=8000)
    )
    adaptive = integrate_particle(
        model,
        state,
        IntegrationParams(
            step=period / 50,
            n_steps=50,
            method="rk45",
            rel_tol=1e-9,
            abs_tol=1e-12,
            audit_every=10,
        ),
    )
    assert abs(adaptive.final.t - fine.final.t) < 1e-9
    assert (adaptive.final.r - fine.final.r).norm() < 1e-6 * radius


def test_rkf45_step_rejects_oversized_steps():
    def f(t, y):
        return (math.cos(40.0 * t) * 40.0,)

    accepted, _, ratio = rkf45_step(f, 0.0, (0.0,), 0.5, 1e-12, 1e-14, f(0.0, (0.0,)))
    assert not accepted and ratio > 1.0


def test_adaptive_never_accepts_above_tolerance(monkeypatch):
    import vacuumlab.integrate as integ

    ratios = []
    original = integ.rkf45_step

    def spy(f, x, y, h, rel_tol, abs_tol, k1):
        accepted, y5, ratio = original(f, x, y, h, rel_tol, abs_tol, k1)
        if accepted:
            ratios.append(ratio)
        return accepted, y5, ratio

    monkeypatch.setattr(integ, "rkf45_step", spy)
    model, state, period, _ = gyro_setup()
    integ.integrate_particle(
        model,
        state,
        IntegrationParams(
            step=period / 20, n_steps=20, method="rk45", rel_tol=1e-8, abs_tol=1e-12,
            audit_every=5,
        ),
    )
    assert ratios and max(ratios) <= 1.0


def test_integration_params_validation():
    with pytest.raises(ValidationError):
        IntegrationParams(step=0.0, n_steps=10)
    with pytest.raises(ValidationError):
        IntegrationParams(step=0.1, n_steps=10, method="euler")
    for key in ("step", "rel_tol", "abs_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                IntegrationParams(**{"step": 0.1, "n_steps": 10, key: bad})
    for method in ("rk4", "rk45"):  # refused when made, not by range() in the march or audit
        for key, bad in (("n_steps", 10.5), ("audit_every", 2.5), ("n_steps", 10.0), ("audit_every", "2")):
            with pytest.raises(ValidationError, match="n_steps and audit_every must be integers"):
                IntegrationParams(**{"step": 0.1, "n_steps": 10, "method": method, key: bad})
    assert IntegrationParams(step=0.1, n_steps=np.int64(10), audit_every=np.int32(2)).horizon == 1.0
    with pytest.raises(ValidationError):
        IntegrationParams(step=0.1, n_steps=10, time_axis="weird")
    with pytest.raises(ValidationError):
        params = IntegrationParams(step=0.1, n_steps=10, time_axis="proper")
        model = ForceModel(
            ModelKind.CLASSICAL, UniformField(-1.0), charge=1.0, rest_mass=1.0
        )
        integrate_particle(model, make_classical_state(ZERO3, ZERO3, 1.0), params)


LAB_ONLY = "integration.time_axis must be auto or lab for a {kind} model"
AUDIT_ON_OWN = "integration.time_axis must be auto or proper for audit of a {kind} model"
COMPARE_ON_LAB = "integration.time_axis must be auto or lab for compare of a {kind} model"
# the model's own clock and the verb -> the clock stepped, or the refusal, for a
# requested time_axis of auto, lab and proper
CLOCK_RULE = {
    ("lab", ""): ("lab", "lab", LAB_ONLY),
    ("lab", "audit"): ("lab", "lab", LAB_ONLY),
    ("lab", "compare"): ("lab", "lab", LAB_ONLY),
    ("proper", ""): ("proper", "lab", "proper"),
    ("proper", "audit"): ("proper", AUDIT_ON_OWN, "proper"),
    ("proper", "compare"): ("lab", "lab", COMPARE_ON_LAB),
}
OWN_CLOCK = {ModelKind.CLASSICAL: "lab", ModelKind.CONSTRAINED: "lab",
             ModelKind.VACUUM_FREE: "proper", ModelKind.VACUUM_INTERACTING: "proper"}


@pytest.mark.parametrize("requested", ["auto", "lab", "proper"])
@pytest.mark.parametrize("verb", ["", "audit", "compare"])
@pytest.mark.parametrize("kind", list(ModelKind), ids=[k.value for k in ModelKind])
def test_axis_for_follows_the_clock_table(kind, verb, requested):
    expected = CLOCK_RULE[OWN_CLOCK[kind], verb][("auto", "lab", "proper").index(requested)]
    if expected in ("lab", "proper"):
        assert integ.axis_for(kind, requested, verb) == expected
    else:
        with pytest.raises(ValidationError) as err:
            integ.axis_for(kind, requested, verb)
        assert str(err.value) == expected.format(kind=kind.value)


def test_integrate_particle_refuses_a_lab_model_on_proper_time_as_the_cli_does(tmp_path):
    from vacuumlab import cli

    model = ForceModel(ModelKind.CLASSICAL, UniformField(-1.0), charge=1.0, rest_mass=1.0)
    params = IntegrationParams(step=0.1, n_steps=10, time_axis="proper")
    with pytest.raises(ValidationError) as api:
        integrate_particle(model, make_classical_state(ZERO3, ZERO3, 1.0), params)
    scenario = {"name": "lab-on-proper", "kind": "particle", "model": "classical",
                "rest_mass": 1.0, "field": {"kind": "uniform"}, "integration": {"time_axis": "proper"}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(scenario))
    with pytest.raises(ValidationError) as parsed:
        cli.parse_config(str(path))
    assert str(api.value) == str(parsed.value) == LAB_ONLY.format(kind="classical")


def test_relax_elliptic_contract():
    # discrete Laplace problem: residual of a harmonic target
    n = 17
    x = np.linspace(0, 1, n)
    target = np.zeros((n, n, 1))
    xx, yy = np.meshgrid(x, x, indexing="ij")
    target[..., 0] = xx**2 - yy**2
    h2 = (x[1] - x[0]) ** 2

    def residual(grid):
        u = grid[..., 0]
        lap = (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4 * u[1:-1, 1:-1]
        ) / h2
        return lap[..., None]

    start = target.copy()
    start[1:-1, 1:-1, 0] = 0.0
    res1 = relax_elliptic(residual, start, tol=1e-6)
    res2 = relax_elliptic(residual, start, tol=1e-7)
    assert res1.final_residual < 1e-6
    assert res2.final_residual < 1e-7
    assert res2.iterations >= res1.iterations
    assert np.max(np.abs(res2.xi - target)) < 1e-8

    with pytest.raises(ConvergenceError) as err:
        relax_elliptic(residual, start, tol=1e-12, max_iters=3)
    assert err.value.residual_history


def test_step_failure_when_no_step_is_accepted(monkeypatch):
    import vacuumlab.integrate as integ
    from vacuumlab.errors import StepFailureError

    def always_reject(f, x, y, h, rel_tol, abs_tol, k1):
        return False, y, 10.0

    monkeypatch.setattr(integ, "rkf45_step", always_reject)
    model, state, period, _ = gyro_setup()
    with pytest.raises(StepFailureError, match=r"collapsed below .* \[t=0\]$"):
        integ.integrate_particle(
            model,
            state,
            IntegrationParams(
                step=period / 20, n_steps=20, method="rk45", audit_every=5
            ),
        )


def _comoving_setup():
    spec = SourceSpec(
        SourceKind.COULOMB_COMOVING, 1.0, u_f=Vec3(0.12, 0.0, 0.05), softening=1e-3,
        background=-1.0,
    )
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    return model, make_vacuum_state(field, Vec3(0.5, 0.0, 0.0), Vec3(0.0, 0.3, 0.0))


def _count_evaluations(monkeypatch, field):
    """(laws, offsets): one entry per stepped law call and per scalar offset of the Coulomb field.

    Counts through the binding: the law the run binds to floats (the rows'
    decode binds it to ROWS), and the field's bound point kernels, each of
    which computes one offset per call on floats.
    """
    laws, offsets = [], []
    bind = particle.bind_law

    def counted_bind(model, axis, binding):
        law = bind(model, axis, binding)
        if binding is not FLOATS:
            return law
        return lambda x, y: laws.append(x) or law(x, y)

    def counted(kernel):
        def point(x, y, z, t, *parts):
            if isinstance(x, float):
                offsets.append(t)
            return kernel(x, y, z, t, *parts)

        return point

    kernels = {b: counted(k) for b, k in field._kernels.items()}
    monkeypatch.setattr(particle, "bind_law", counted_bind)
    monkeypatch.setattr(field, "_point", kernels.__getitem__)
    monkeypatch.setattr(field, "_potentials", kernels[ROWS])
    return laws, offsets


def test_rk4_makes_one_law_evaluation_per_stage(monkeypatch):
    # each step's k1 is the evaluation its predecessor's step check made, so n
    # steps take 4n + 1 evaluations (the +1: the last state's check), and the
    # comoving field computes one offset for each, plus one for the launch's qA
    model, state = _comoving_setup()
    laws, offsets = _count_evaluations(monkeypatch, model.field)
    n = 50
    traj = integrate_particle(model, state, IntegrationParams(step=2e-4, n_steps=n))
    assert traj.time_axis == "proper"
    assert len(laws) == 4 * n + 1
    assert len(offsets) == len(laws) + 1


def _evaluations_with_one_rejection(monkeypatch, rejected):
    """(laws, attempts) of an RKF45 run whose attempt number ``rejected`` is rejected."""
    model, state = _comoving_setup()
    laws, _ = _count_evaluations(monkeypatch, model.field)
    attempts, step = [], integ.rkf45_step

    def reject_one(f, x, y, h, rel_tol, abs_tol, k1):
        accepted, y5, ratio = step(f, x, y, h, rel_tol, abs_tol, k1)
        attempts.append(accepted)
        if len(attempts) == rejected:
            attempts[-1] = False
            return False, y5, 2.0
        return accepted, y5, ratio

    monkeypatch.setattr(integ, "rkf45_step", reject_one)
    integrate_particle(model, state, IntegrationParams(step=1e-4, n_steps=100, method="rk45"))
    return laws, attempts


def test_rejected_rkf45_attempt_reuses_its_k1(monkeypatch):
    # the first attempt, from the launch state, or the third, from a checked one
    for rejected in (1, 3):
        with monkeypatch.context() as patch:
            laws, attempts = _evaluations_with_one_rejection(patch, rejected)
        assert attempts.count(False) == 1 and not attempts[rejected - 1]
        # k1 at the launch; every attempt, the rejected one and its retry
        # included, evaluates five more stages; one per check of an accepted state
        assert len(laws) == 1 + 5 * len(attempts) + attempts.count(True)


# Python-level calls per law evaluation of each shipped particle scenario,
# the evaluation itself included: the bound law and the field's kernels it
# calls (21, 17, 11 and 10 for the interacting, vacuum-free, classical and
# constrained Coulomb-or-uniform runs before the laws were bound once per
# run; 5, 4, 8 and 7 while a wrapper composed the law with per-stage clock
# factor calls).  classical_coulomb's Lorentz terms still read the field's
# row-bound component methods, whose root and guard it pays.
CALLS_PER_EVALUATION = {
    "classical_coulomb": 9,
    "classical_gyro": 5,
    "classical_uniform_e": 5,
    "compare_classical_uniform": 5,
    "compare_uniform_field": 5,
    "constrained_rk45": 5,
    "constrained_uniform_e": 5,
    "vacuum_free_coulomb": 2,
    "vacuum_interacting_codrift": 2,
    "vacuum_interacting_generic": 2,
}
ROW_BINDING_CALLS = {"root", "violated", "_off_source"}


@pytest.mark.parametrize("name", sorted(CALLS_PER_EVALUATION))
def test_a_law_evaluation_makes_its_budget_of_python_calls(name):
    from vacuumlab import cli

    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", name + ".yaml")
    model, state, params = cli.build_particle_model(cli.parse_config(path))
    axis = integ.axis_for(model.kind, params.time_axis)
    law = particle.bind_law(model, axis, FLOATS)
    x, y = particle.pack(model, state, axis)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        law(x, y)
    finally:
        sys.setprofile(None)
    assert len(calls) == CALLS_PER_EVALUATION[name], calls
    if name != "classical_coulomb":
        assert not ROW_BINDING_CALLS & set(calls), calls


def _frames_outside(run, evaluation):
    """Counter of the Python frames run() makes outside the calls named evaluation and their callees."""
    frames, inside = Counter(), 0

    def profile(frame, event, arg):
        nonlocal inside
        if event == "call":
            if inside or frame.f_code.co_name == evaluation:
                inside += 1
            else:
                frames[frame.f_code.co_name] += 1
        elif event == "return" and inside:
            inside -= 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return frames


def _frames_per_step(run, evaluation):
    """Python frames per RK4 step of run(n_steps) outside its evaluations: 10 more steps, over 10."""
    run(10)  # first-run work (the step's generation, bindings) is not a step's
    short, long = (_frames_outside(lambda: run(n), evaluation) for n in (20, 30))
    long.subtract(short)
    assert all(count % 10 == 0 for count in long.values()), long
    return sum(long.values()) // 10, +long


# Python frames per RK4 step outside its law or writer evaluations: the march's
# resume, the bound step, the rates the step evaluates (three for a particle,
# whose check hands the next step its k1; four for a string), the check with
# check_state (a string's: NumPy's all), and the audit's keep.  12 and 13 when
# the step was a function that looked up and called four generated combines.
FRAMES_PER_PARTICLE_STEP = 8
FRAMES_PER_STRING_STEP = 9


@pytest.mark.parametrize("name", sorted(CALLS_PER_EVALUATION))
def test_a_particle_step_makes_its_budget_of_python_frames(name):
    from vacuumlab import cli

    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", name + ".yaml")
    model, state, params = cli.build_particle_model(cli.parse_config(path))

    def run(n_steps):
        params_n = replace(params, method="rk4", n_steps=n_steps, audit_every=10)
        integrate_particle(model, state, params_n)

    per_step, frames = _frames_per_step(run, "law")  # the float-bound law
    assert per_step == FRAMES_PER_PARTICLE_STEP, frames


def test_a_string_step_makes_its_budget_of_python_frames():
    from vacuumlab import cli

    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "string_pluck.yaml")
    state, field, params = cli.build_string_state(cli.parse_config(path))

    def run(n_steps):
        integ.integrate_string(state, field, replace(params, n_steps=n_steps, audit_every=10))

    per_step, frames = _frames_per_step(run, "rates")  # the bound string writer
    assert per_step == FRAMES_PER_STRING_STEP, frames


def test_exact_rkf45_estimates_grow_the_step():
    # a constant rate: both embedded estimates are exact, so every ratio is 0
    params = IntegrationParams(step=1e-3, n_steps=1000, method="rk45")
    rows = list(integ._march(lambda x, y: (1.0,), lambda x, y: None, 0.0, (0.0,), params, "t"))
    assert [x for x, _ in rows] == [0.001, 0.006, 0.031, 0.156, 0.781, 1.0]
    assert all(y == (x,) for x, y in rows)


def _nan_after_first_call():
    calls = []

    def law(x, y):
        calls.append(x)
        return (1.0 if len(calls) == 1 else math.nan, 0.0)

    return law


def test_rkf45_rejects_a_nan_estimate():
    # max(ratio, nan) keeps ratio: the NaN state would be accepted with ratio 0
    law = _nan_after_first_call()
    accepted, y5, ratio = rkf45_step(law, 0.0, (0.0, 0.1), 0.1, 1e-9, 1e-12, law(0.0, (0.0, 0.1)))
    assert not accepted and ratio == math.inf
    assert math.isnan(y5[0])


def test_a_law_that_stays_nan_collapses_the_adaptive_step():
    params = IntegrationParams(step=0.1, n_steps=10, method="rk45")
    march = integ._march(_nan_after_first_call(), lambda x, y: None, 0.0, (0.0, 0.1), params, "t")
    with pytest.raises(StepFailureError, match=r"collapsed below .* \[t=0\]$"):
        next(march)


def test_a_law_nan_only_at_large_steps_is_stepped_past_at_a_smaller_one():
    # dy/dx = -y, outside its domain y >= 0.2: a step of 1 from y = 1 reaches
    # y = 0.04 in its fifth stage, a step of 0.2 never leaves the domain
    def law(x, y):
        return (-y[0] if y[0] >= 0.2 else math.nan,)

    params = IntegrationParams(step=1.0, n_steps=1, method="rk45", rel_tol=1e-4, abs_tol=1e-6)
    rows = list(integ._march(law, lambda x, y: None, 0.0, (1.0,), params, "t"))
    assert rows[0][0] == 0.2  # the NaN attempt at h = 1, then h = 0.2 accepted
    assert rows[-1][0] == 1.0 and all(math.isfinite(y) for _, (y,) in rows)
    assert rows[-1][1][0] == pytest.approx(math.exp(-1.0), rel=1e-4)


def test_vacuum_free_proper_axis_takes_no_float_bound_time_factor():
    # the law takes dtau/dt and dt/dx from the |u|^2 it has tested: no stage
    # calls a proper_time_factor on floats (4n + 1 calls when a wrapper did);
    # the audit's rest mass still calls the row-bound one on arrays
    field = build_potential(SourceSpec(SourceKind.COULOMB_STATIC, 1.0, softening=1e-3,
                                       background=-1.0), 1.0)
    model = ForceModel(ModelKind.VACUUM_FREE, field, charge=1.0)
    state = make_vacuum_state(field, Vec3(0.5, 0.0, 0.0), Vec3(0.0, 0.3, 0.0))
    factors, code = [], proper_time_factor.__code__  # the code of every bound factor

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            factors.append(isinstance(frame.f_locals["u"][0], float))

    sys.setprofile(profile)
    try:
        integrate_particle(model, state, IntegrationParams(step=2e-4, n_steps=20))
    finally:
        sys.setprofile(None)
    assert factors.count(True) == 0
    assert factors.count(False) > 0  # the probe sees the row-bound factor


def test_step_check_raises_every_law_error_at_the_new_state():
    spec = SourceSpec(SourceKind.COULOMB_COMOVING, 1.0, u_f=Vec3(0.6, 0.0, 0.0),
                      softening=0.05, background=-1.0)
    field = build_potential(spec, 1.0)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    rhs, check = particle.bind_step(model, "proper")
    r, t = Vec3(0.5, 0.0, 0.0), 0.3

    def flat(u):
        big_p = u * -field.wbar(r, t) + qa_vector(model, r, t)
        return (*r, *big_p, t, 0.0)

    # |u| < 1 but |u - u_f| >= 1: only the clock change fails, and the check
    # raises it, so the row is not kept
    with pytest.raises(SuperluminalVelocityError, match="1.1 >= 1"):
        check(1.0, flat(Vec3(-0.5, 0.0, 0.0)))
    # |u| >= 1: recovering u fails, in the check itself
    with pytest.raises(SuperluminalVelocityError, match="implies"):
        check(1.0, flat(Vec3(1.2, 0.0, 0.0)))
    # a state inside both domains: the check hands on the rate it evaluated
    y = flat(Vec3(0.3, 0.0, 0.0))
    assert check(1.0, y) == rhs(1.0, y)


def test_degenerate_multiplier_raised_by_the_integrated_law():
    field = UniformField(-1.0)
    model = ForceModel(ModelKind.CONSTRAINED, field, charge=1.0, rest_mass=1.0)
    state = make_constrained_state(ZERO3, Vec3(0.4, 0, 0), 1.0)
    state.lam = 0.0
    with pytest.raises(DegenerateMultiplierError, match=r"\[t=0\]"):
        integrate_particle(model, state, IntegrationParams(step=1e-3, n_steps=5))


def test_interacting_uniform_b_agrees_on_both_clocks():
    # the proper axis steps the same law as the lab axis, magnetic force included
    field = UniformMagneticField(Vec3(0, 0, 1), -1.0)
    model = ForceModel(ModelKind.VACUUM_INTERACTING, field, charge=1.0)
    state = make_vacuum_state(field, ZERO3, Vec3(0.3, 0, 0))
    proper = integrate_particle(
        model, state, IntegrationParams(step=1e-3, n_steps=2000, audit_every=100)
    )
    assert proper.time_axis == "proper"
    lab = integrate_particle(
        model, state, IntegrationParams(step=proper.final.t / 2000, n_steps=2000,
                                        audit_every=100, time_axis="lab")
    )
    assert (proper.final.r - lab.final.r).norm() < 1e-9
    assert max(abs(s.u.norm() - 0.3) for s in proper.samples) < 1e-12


unit = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    interacting=st.booleans(),
    moving=st.booleans(),
    relative=st.booleans(),
    direction=st.tuples(unit, unit, unit).filter(lambda v: sum(c * c for c in v) > 1e-6),
    scale=st.floats(1.0 - 1e-9, 1.0 + 1e-9) | st.floats(0.9, 1.1),
    r=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    t=st.floats(0.0, 1.0),
)
def test_vacuum_laws_near_the_domain_boundary(
    interacting, moving, relative, direction, scale, r, t
):
    # |P - qA| near -wbar (|u| near 1), or |u - u_f| near 1 for the clock change:
    # each right-hand side gives a finite result or a PhysicsDomainError, nothing else
    u_f = Vec3(0.5, 0.0, -0.3) if moving else ZERO3
    source = SourceKind.COULOMB_COMOVING if moving else SourceKind.COULOMB_STATIC
    field = build_potential(SourceSpec(source, 1.0, u_f=u_f, softening=0.05, background=-1.0), 0.7)
    kind = ModelKind.VACUUM_INTERACTING if interacting else ModelKind.VACUUM_FREE
    model = ForceModel(kind, field, charge=0.7)
    r = Vec3(*r)
    n = Vec3(*direction)
    v = n * (scale / n.norm()) + (u_f if relative else ZERO3)
    big_p = v * -field.wbar(r, t)
    if interacting:
        big_p = big_p + qa_vector(model, r, t)
    for axis, y in (("lab", (*r, *big_p, 0.0)), ("proper", (*r, *big_p, t, 0.0))):
        try:
            out = particle.bind_step(model, axis)[0](t if axis == "lab" else 0.0, y)
        except PhysicsDomainError:
            continue
        assert all(math.isfinite(c) for c in out)
