"""Time steppers, conservation auditing, and the elliptic relaxation engine.

Fixed-step RK4 is the default (uniform error behavior keeps drift
attribution simple); an embedded RKF45 pair is available for stiff
near-singularity passes.  No symplecticity is claimed anywhere: the
Hamiltonians here are non-separable, so conservation is verified by
audit rather than enforced by construction.

Every integration is sequential and deterministic: fixed evaluation
order, no parallel reductions, bit-identical reruns for identical
inputs.  Both clocks are always co-integrated: a lab-time run
accumulates tau through dtau = dt (1-u^2)^(1/2), and a proper-time run
of a vacuum model steps the same law on the source frame's proper time
x, accumulating t through dt = dx (1-|u-u_f|^2)^(-1/2) and tau through
dtau = dt (1-u^2)^(1/2) (u_f = 0, so x = tau, for vacuum-free).

Particle and string runs share one stepping loop, `_march`: it steps a
tuple state with the RK4 step it binds once per run, or with `rkf45_step`,
checks each new state, hands the rate the check evaluated there to the
next step as its k1, and annotates a physics-domain error with the t or
tau of its step.  Both keep its rows through one audit, `_audited_march`,
which audits the launch row first and then the later audited rows once,
as arrays.  Both audit their invariants by one rule, `_invariants`: a
table of array kernels over the audited rows (the particle model's
columns, or one block of string states), raising at the first offending
row.

A particle run steps the flat state y = (r, P, [t,] tau), or
(r, l u tdot, l tdot, tau) for the constrained model, by passing slices of
y straight to the model's law, composed with the axis's clock factors by
`_evaluator`, the one reader of a particle state.  The stepper binds it to
floats once per run.  The check of a new state evaluates the law there,
raises any of its errors, runs ``check_state`` on u and p of that
evaluation, and returns its rate as the next step's k1, so a step costs one
law evaluation per stage and the launch state one more, and every kept row
is a state where the law evaluates.  The decoder binds it to rows: on the
later rows of a `Trajectory`, which holds the parameter x and the flat
states Y as arrays, it gives the physical columns (t, tau, r, u, p) from
which `samples`, `final` and the invariants are derived.

Each method's whole step is one function that `_stepper` generates once
per method and state length: each stage expression is written once as a
module constant, and the step unpacks the state and each rate into locals
once and evaluates the stage expressions at every component inline, so a
step makes no call but its rates'.  RK4 takes h/2 and h/6 once per step
(``0.5 * h * b`` is ``(0.5 * h) * b``), so every product and sum is the
tableau's own, in its order.  RKF45's fifth- and fourth-order solutions
are stage expressions too: each sums all six weighted rates, zero weights
included, left to right from 0, so no builtin ``sum`` (which compensates
float sums from Python 3.12 on) decides their bits.

A string run steps the flat state (r, p, t) of its nodes as a one-array
tuple: each stage's rate is one new flat array, which the string flow's
writer fills with dr and dp from views of the state, and dt into its
tail.  A `StringTrajectory` holds tau and the flat states Y as arrays, and
its `StringState`s are views of the rows, built on demand: one row, or a
block of rows, which the string kernels take whole.

The checkerboard SOR solver evaluates the residual twice per sweep.  Its
color sweep, diagonal probe and convergence loop are private helpers that
the conformal solver's multigrid V-cycle reuses as its smoother, its
coarsest-grid solve and its cycle loop; the color sweep leaves the
residual after its last color to the callers that read it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, List

import numpy as np

from . import strings
from .errors import (
    ConvergenceError,
    PhysicsDomainError,
    StepFailureError,
    ValidationError,
)
from .geometry import FLOATS, ROWS, Vec3, ZERO3, _time_factor
from .particle import (
    INVARIANTS,
    ForceModel,
    ModelKind,
    ParticleColumns,
    ParticleState,
    bind_law,
    check_state,
    qa_vector,
)


@dataclass
class IntegrationParams:
    """Step control and audit cadence shared by particle and string runs."""

    step: float
    n_steps: int
    method: str = "rk4"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    audit_every: int = 10
    time_axis: str = "auto"  # auto | lab | proper

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.n_steps, self.audit_every)):
            raise ValidationError("n_steps and audit_every must be integers")
        if not (self.step > 0 and self.n_steps > 0):  # NaN is not positive either
            raise ValidationError("step and n_steps must be positive")
        if self.method not in ("rk4", "rk45"):
            raise ValidationError(f"unknown method '{self.method}' (rk4 | rk45)")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValidationError("tolerances must be positive")
        if math.inf in (self.step, self.rel_tol, self.abs_tol):
            raise ValidationError("step and tolerances must be finite")
        if self.audit_every < 1:
            raise ValidationError("audit_every must be >= 1")
        if self.time_axis not in ("auto", "lab", "proper"):
            raise ValidationError("time_axis must be auto, lab or proper")

    @property
    def horizon(self) -> float:
        return self.step * self.n_steps


@dataclass
class ConservationStat:
    initial: float
    max_drift: float
    samples: int

    @property
    def relative_drift(self) -> float:
        scale = abs(self.initial)
        return self.max_drift / scale if scale > 0 else self.max_drift

    def to_dict(self) -> dict:
        return {
            "initial": self.initial,
            "max_drift": self.max_drift,
            "relative_drift": self.relative_drift,
            "samples": self.samples,
        }


class ConservationReport(dict):
    """Per-invariant drift statistics: name -> ConservationStat."""

    def to_dict(self) -> dict:
        return {name: stat.to_dict() for name, stat in self.items()}


@dataclass
class Trajectory:
    """One particle run as columns, plus the conservation audit.

    x, shape (n+1,), is the integration parameter (lab time t, or the proper
    time of the clock-change axis) and Y, shape (n+1, k), the stepper's flat
    state per row: (r, P, tau) on the lab axis and (r, P, t, tau) on the
    proper axis, with P = p + qA for the interacting model and p otherwise;
    (r, l u tdot, l tdot, tau) for the constrained model.  Row 0 is
    ``initial``.  The physical columns, ``samples`` and ``final`` are built
    from x and Y on demand by the decoder; row 0 always reads ``initial``
    itself, whose p and u need not survive a round trip through the flat
    state.
    """

    x: np.ndarray
    Y: np.ndarray
    initial: ParticleState
    model: ForceModel
    time_axis: str
    report: ConservationReport = dc_field(default_factory=ConservationReport)

    def columns(self, rows=slice(None)) -> ParticleColumns:
        """t, tau, r, u, p (and l tdot) of the selected rows as arrays."""
        rows = np.arange(len(self.x))[rows]
        later = rows > 0  # rows the step check passed; row 0 is ``initial`` itself
        s = self.initial
        lam = s.lam if self.model.kind is ModelKind.CONSTRAINED else None
        decoded = firsts = (s.t, s.tau, s.r, s.u, s.p, lam)
        if later.any():  # a selection of row 0 alone evaluates no law
            decode = _decoder(self.model, self.time_axis)
            with np.errstate(all="ignore"):  # overflow stays silent, as on floats
                decoded = decode(self.x[rows[later]], tuple(self.Y[rows[later]].T))
        columns = []
        for value, first in zip(decoded, firsts):
            column = None
            if first is not None:  # an (x, y, z) triple of rows transposes to (m, 3)
                column = np.empty((len(rows),) + np.shape(first))
                column[later], column[~later] = np.transpose(value), first
            columns.append(column)
        return ParticleColumns(*columns)

    def _states(self, rows) -> List[ParticleState]:
        c = self.columns(rows)
        lams = c.lam.tolist() if c.lam is not None else [None] * len(c.t)
        return [
            ParticleState(tau, t, Vec3(*r), Vec3(*u), Vec3(*p), lam)
            for tau, t, r, u, p, lam in zip(
                c.tau.tolist(), c.t.tolist(), c.r.tolist(), c.u.tolist(), c.p.tolist(), lams
            )
        ]

    @property
    def samples(self) -> List[ParticleState]:
        """Every row as a ParticleState, built on demand; samples[0] is ``initial``."""
        return [self.initial] + self._states(slice(1, None))

    @property
    def final(self) -> ParticleState:
        return self._states(slice(-1, None))[0]

    def annotate(self, exc: PhysicsDomainError, row: int) -> PhysicsDomainError:
        """exc annotated with a row's parameter value, as step errors are; ``where`` is the row."""
        label = "t" if self.time_axis == "lab" else "tau"
        return _annotate(exc, label, self.x[row], where=int(row))

    def invariants(self, rows=slice(None), names=None) -> dict:
        """The model's array INVARIANTS over the selected rows, by name, through `_invariants`."""
        return _invariants(
            INVARIANTS[self.model.kind], (self.columns(rows), self.model), names,
            lambda exc, k: self.annotate(exc, np.arange(len(self.x))[rows][k]),
        )


def _invariants(table, args, names, annotate) -> dict:
    """table[name](*args) for each name (all of table's by default): the audit rule of both run kinds.

    Each entry returns its invariant's values over a run's selected rows as
    an array.  A domain error naming a row as ``where`` or a non-finite value
    raises at the first offending row of any invariant (ties: the first
    invariant), through annotate(exc, k) with k its position in the rows; a
    kernel's domain error hides its non-finite values before that row.
    """
    values, failures = {}, []
    with np.errstate(all="ignore"):  # non-finite values are raised below
        for name in names or table:
            try:
                values[name] = v = table[name](*args)
            except PhysicsDomainError as exc:
                if exc.where is None:
                    raise
                failures.append((exc.where, exc))
                continue
            bad = ~np.isfinite(v)
            if bad.any():
                k = int(np.argmax(bad))
                failures.append((k, PhysicsDomainError(f"non-finite {name} {v[k]}")))
    if failures:
        k, exc = min(failures, key=lambda f: f[0])  # ties: the first invariant
        raise annotate(exc, k)
    return values


def _annotate(exc: PhysicsDomainError, label: str, x: float, where=None) -> PhysicsDomainError:
    """exc with ``[label=x]`` appended; it keeps its ``where`` unless one is given."""
    return type(exc)(f"{exc} [{label}={x:.9g}]", where=exc.where if where is None else where)


# --- generic steppers on flat tuple states ----------------------------------


# the steps' stage expressions, in the state a, the step h and the rates b1, b2, ...
_RK4_STAGE = "a + h * b1"
_RK4_FINAL = "a + h * (b1 + 2.0 * (b2 + b3) + b4)"
_RKF_K2 = "a + h * (b1 / 4.0)"
_RKF_K3 = "a + h * (3.0 * b1 / 32.0 + 9.0 * b2 / 32.0)"
_RKF_K4 = "a + h * (1932.0 * b1 - 7200.0 * b2 + 7296.0 * b3) / 2197.0"
_RKF_K5 = "a + h * (439.0 * b1 / 216.0 - 8.0 * b2 + 3680.0 * b3 / 513.0 - 845.0 * b4 / 4104.0)"
_RKF_K6 = (
    "a + h * (-8.0 * b1 / 27.0 + 2.0 * b2 - 3544.0 * b3 / 2565.0 + 1859.0 * b4 / 4104.0"
    " - 11.0 * b5 / 40.0)"
)
# the embedded pair's solutions: every rate's term, zero weights included, summed from 0
_RKF_Y5 = (
    "a + h * (0 + 16.0 / 135.0 * b1 + 0.0 * b2 + 6656.0 / 12825.0 * b3"
    " + 28561.0 / 56430.0 * b4 + -9.0 / 50.0 * b5 + 2.0 / 55.0 * b6)"
)
_RKF_Y4 = (
    "a + h * (0 + 25.0 / 216.0 * b1 + 0.0 * b2 + 1408.0 / 2565.0 * b3"
    " + 2197.0 / 4104.0 * b4 + -1.0 / 5.0 * b5 + 0.0 * b6)"
)


# the methods, as IntegrationParams.method names them
_RK4 = "rk4"
_RKF45 = "rk45"


@functools.lru_cache(maxsize=None)
def _stepper(method: str, arity: int) -> Callable:
    """The whole step of a method on states of arity components, generated once per (method, arity).

    The step is straight-line source, generated as ``collections.namedtuple``
    generates its methods: it unpacks y and each rate into locals once and
    builds each stage's state inline, at every component, by the module's
    stage expressions above (never input), with the same operands in the
    same order.  RK4's step(f, x, y, h, k1) returns the new state, taking
    h/2 and h/6 once (``0.5 * h * b`` is ``(0.5 * h) * b``); RKF45's returns
    the six rates, y5 and y4 of one attempt.
    """

    rates = tuple(f"b{j}" for j in range(1, 7))

    def lanes(expr, h="h", named=rates):  # expr at each component, its h and rates b1, b2, ... renamed
        names = {"a": "a_{i}", "h": h, **{f"b{j}": f"{rate}_{{i}}" for j, rate in enumerate(named, 1)}}
        lane = re.sub(r"\b(a|h|b\d)\b", lambda m: names[m[1]], expr)
        return "(" + "".join(lane.format(i=i) + ", " for i in range(arity)) + ")"

    def stage(j, x, expr, h="h", named=rates):
        return f"    {lanes(f'b{j}')} = f({x}, {lanes(expr, h, named)})\n"

    source = f"def step(f, x, y, h, k1):\n    {lanes('a')} = y\n    {lanes('b1')} = k1\n"
    if method == _RK4:
        source += "    half, sixth = 0.5 * h, h / 6.0\n" + stage(2, "x + half", _RK4_STAGE, "half", ["b1"])
        source += stage(3, "x + half", _RK4_STAGE, "half", ["b2"]) + stage(4, "x + h", _RK4_STAGE, "h", ["b3"])
        source += f"    return {lanes(_RK4_FINAL, 'sixth')}\n"
    else:
        abscissae = ("x + h / 4.0", "x + 3.0 * h / 8.0", "x + 12.0 * h / 13.0", "x + h", "x + h / 2.0")
        for j, (x, expr) in enumerate(zip(abscissae, (_RKF_K2, _RKF_K3, _RKF_K4, _RKF_K5, _RKF_K6)), 2):
            source += stage(j, x, expr)
        ks = ", ".join(map(lanes, rates))
        source += f"    return ({ks}), {lanes(_RKF_Y5)}, {lanes(_RKF_Y4)}\n"
    namespace = {"__builtins__": {}}
    exec(source, namespace)
    return namespace["step"]


def rkf45_step(f, x, y, h, rel_tol, abs_tol, k1):
    """One embedded 4(5) attempt from y, k1 = f(x, y): (accepted, y5, error_ratio), a NaN error as inf."""
    _, y5, y4 = _stepper(_RKF45, len(y))(f, x, y, h, k1)
    ratio = 0.0
    for a, b, y0 in zip(y5, y4, y):
        e = abs(a - b) / (abs_tol + rel_tol * abs(y0))
        ratio = max(ratio, e if e == e else math.inf)  # so a non-finite estimate is rejected
    return ratio <= 1.0, y5, ratio


def _march(rhs, check, x, y, params: IntegrationParams, label: str):
    """Yield (x, y) of each new state of dy/dx = rhs(x, y), once check(x, y) has passed.

    check(x, y) returns rhs(x, y) of the new state, or None; the next step
    takes it as k1 and evaluates rhs itself only for a None (and at the
    launch), after the row is yielded.  A rejected RKF45 attempt keeps its k1.

    RK4 makes n_steps steps of params.step by the generated step it binds
    before the first, so a step looks nothing up.  RKF45 calls
    `rkf45_step` through the module once per attempt, adapts its step over
    the horizon (at most 5x per attempt, also when the error estimate is
    exactly 0) and raises StepFailureError when the step collapses.  A
    non-finite estimate rejects its attempt and shrinks the step 5x, so a
    law that is non-finite only at large steps is stepped past at a smaller
    one, and one that stays non-finite ends in StepFailureError.  A
    physics-domain error is re-raised with ``[label=x]`` appended: the x of
    its step's start when a stage raised it, the new x when check did.
    """
    h, k1 = params.step, None
    try:
        if params.method == _RK4:
            step = _stepper(_RK4, len(y))
            for _ in range(params.n_steps):
                y = step(rhs, x, y, h, rhs(x, y) if k1 is None else k1)
                x += h
                k1 = check(x, y)
                yield x, y
            return
        horizon = params.horizon
        x_end = x + horizon
        h_min = horizon * 1e-12
        while x < x_end - 1e-15 * horizon:
            h = min(h, x_end - x)
            if k1 is None:
                k1 = rhs(x, y)
            accepted, y_new, ratio = rkf45_step(rhs, x, y, h, params.rel_tol, params.abs_tol, k1)
            if accepted:
                y = y_new
                x += h
                k1 = check(x, y)
                yield x, y
            if ratio > 0:
                h = min(max(0.9 * h * ratio ** -0.2, 0.2 * h), 5.0 * h)
            else:  # an exact estimate: the largest growth, the formula's limit at ratio 0
                h = 5.0 * h
            if h < h_min:
                message = f"adaptive step collapsed below {h_min:.3g} [{label}={x:.9g}]"
                raise StepFailureError(message)
    except PhysicsDomainError as exc:
        raise _annotate(exc, label, x) from None


def _audited_march(march, keep, invariants, audit_every: int) -> ConservationReport:
    """keep(n, x, y) each row n >= 1 of a march; the report of invariants(rows) on its audit.

    invariants(rows) gives each invariant's values over the rows as arrays
    by name and raises at the first offending row.  The launch row is
    audited before the first step, and its values are kept; the audit then
    evaluates the later rows only, once the march ends.  When the march
    fails, the rows reached are audited first, so an earlier invariant
    error wins.  The audited rows are every audit_every-th and the last,
    each once.
    """
    launch = invariants([0])
    n = 0
    try:
        for n, (x, y) in enumerate(march, 1):
            keep(n, x, y)
    except (PhysicsDomainError, StepFailureError):
        invariants(range(audit_every, n + 1, audit_every))
        raise
    rows = list(range(audit_every, n + 1, audit_every)) + ([n] if n % audit_every else [])
    stats = {}
    for name, v in invariants(rows).items():
        v = np.concatenate((launch[name], v))
        stats[name] = ConservationStat(float(v[0]), float(np.max(np.abs(v - v[0]))), len(v))
    return ConservationReport(stats)


# --- particle integration -----------------------------------------------------


def _axis_for(model: ForceModel, params: IntegrationParams) -> str:
    if params.time_axis != "auto":
        axis = params.time_axis
        if axis == "proper" and model.kind in (ModelKind.CLASSICAL, ModelKind.CONSTRAINED):
            raise ValidationError(f"{model.kind.value} model integrates in lab time")
        return axis
    if model.kind in (ModelKind.VACUUM_FREE, ModelKind.VACUUM_INTERACTING):
        return "proper"
    return "lab"


def _pack(model: ForceModel, state: ParticleState, axis: str):
    # (r, P, [t,] tau) with P = p + qA for the interacting model, else p
    r, p = state.r, state.p
    if model.kind is ModelKind.CONSTRAINED:
        return (*r, *p, state.lam, state.tau)
    if model.kind is ModelKind.VACUUM_INTERACTING:
        p = p + qa_vector(model, r, state.t)
    if axis == "lab":
        return (*r, *p, state.tau)
    return (*r, *p, state.t, state.tau)


def _decoder(model: ForceModel, axis: str) -> Callable:
    """decode(x, y) -> (t, tau, r, u, p, l tdot) of flat states, the one reader of _pack's layout.

    y is the tuple of the columns of many rows (Y.T) and x their
    parameters; r, u and p come back as (x, y, z) triples of rows and l
    tdot is None except for the constrained model.  u and p are the ones
    the row-bound `_evaluator` gives, so a row reads the state the step
    check passed, by the same law.
    """
    evaluate = _evaluator(model, axis, ROWS)
    constrained, lab = model.kind is ModelKind.CONSTRAINED, axis == "lab"

    def decode(x, y):
        _, u, p = evaluate(x, y)
        if constrained:
            return x, y[7], y[0:3], u, p, y[6]
        t, tau = (x, y[6]) if lab else (y[6], y[7])
        return t, tau, y[0:3], u, p, None

    return decode


def _evaluator(model: ForceModel, axis: str, binding) -> Callable:
    """evaluate(x, y) -> (dy/dx, u, p): the model's law once at a flat state, under a binding.

    bind_law's binding: geometry.FLOATS for the stepper, on one state of
    floats, where a stage makes one law call, the law's field calls and one
    call per clock factor; ROWS for the decoder, on the columns of many rows.
    """
    law, clock = bind_law(model, binding), _time_factor(*binding)
    if model.kind is ModelKind.CONSTRAINED:

        def evaluate(t, y):
            p = y[3:6]
            (d1x, d1y, d1z), d2, u = law(y[0:3], p, y[6], t)
            return (*u, d1x, d1y, d1z, d2, clock(u)), u, p

        return evaluate

    if axis == "lab":

        def evaluate(t, y):
            (dpx, dpy, dpz), u, p = law(y[0:3], y[3:6], t)
            return (*u, dpx, dpy, dpz, clock(u)), u, p

        return evaluate

    # the same law on the source frame's proper time x: dt/dx = (1 - |u - u_f|^2)^(-1/2)
    ufx, ufy, ufz = model.source_velocity if model.kind is ModelKind.VACUUM_INTERACTING else ZERO3
    moving = (ufx, ufy, ufz) != ZERO3

    def evaluate(x, y):
        (dpx, dpy, dpz), u, p = law(y[0:3], y[3:6], y[6])
        ux, uy, uz = u
        if moving:
            rate = 1.0 / clock((ux - ufx, uy - ufy, uz - ufz))
            dtau = clock(u) * rate
        else:  # u - 0.0 == u: dt/dx and dtau/dx share one factor
            factor = clock(u)
            rate = 1.0 / factor
            dtau = factor * rate
        k = (ux * rate, uy * rate, uz * rate, dpx * rate, dpy * rate, dpz * rate, rate, dtau)
        return k, u, p

    return evaluate


def _flat_rhs(model: ForceModel, axis: str):
    """(rhs, check) of a particle's flat state: its rate, and the check of a new state.

    The check evaluates the law at the new state, runs ``check_state`` on
    the u and p of that evaluation and returns its rate, the next step's k1;
    so every error of the law at the new state is raised by the check, with
    the new x, and every kept row is a state where the law evaluates.
    """
    evaluate = _evaluator(model, axis, FLOATS)

    def rhs(x, y):
        return evaluate(x, y)[0]

    def check(x, y):
        k, u, p = evaluate(x, y)
        check_state(y[-1], y[0:3], u, p)
        return k

    return rhs, check


def integrate_particle(
    model: ForceModel, initial: ParticleState, params: IntegrationParams
) -> Trajectory:
    """Advance one particle, auditing its model's conserved quantities.

    Deterministic: identical inputs give bit-identical trajectories.
    ``_march`` checks every new state where it is made and annotates
    physics-domain errors with the parameter value at which the step
    failed.  ``_audited_march`` keeps the rows, as the stepper's tuples, and
    evaluates the array invariants over the audited rows, the launch row
    first, on a trajectory whose Y is read from the tuples in one pass; an
    invariant error, a field's included, is annotated with its first
    offending row.
    """
    axis = _axis_for(model, params)
    x = initial.t if axis == "lab" else initial.tau
    y = _pack(model, initial, axis)
    xs, ys = [x], [y]
    traj = None

    def keep(n, x, y):
        xs.append(x)
        ys.append(y)

    def invariants(rows):
        nonlocal traj  # the last call, over the finished run, leaves the run's trajectory
        Y = np.fromiter(itertools.chain.from_iterable(ys), float, count=len(ys) * len(y))
        traj = Trajectory(np.array(xs), Y.reshape(len(ys), len(y)), initial, model, axis)
        return traj.invariants(rows)

    label = "t" if axis == "lab" else "tau"
    march = _march(*_flat_rhs(model, axis), x, y, params, label)
    report = _audited_march(march, keep, invariants, params.audit_every)
    traj.report = report
    return traj


# --- string integration ---------------------------------------------------------


@dataclass
class StringTrajectory:
    """One string run as columns, plus the conservation audit.

    tau, shape (n+1,), is the proper-time parameter and Y, shape (n+1, 7m),
    the stepper's flat state (r, p, t) of the m grid nodes per row: r and p
    row-major, then the t channel.  Row 0 is the initial state.
    ``state(i)``, ``samples`` and ``final`` are StringState views of the rows,
    built on demand; ``state(rows)`` of a sequence of rows is one block, whose
    r is the (len(rows), m, 3) world sheet of those rows.
    """

    tau: np.ndarray
    Y: np.ndarray
    grid: strings.StringGrid
    report: ConservationReport = dc_field(default_factory=ConservationReport)

    def state(self, i) -> strings.StringState:
        """Row i as a StringState of views of Y; a sequence of rows gives one block, of a copy of them."""
        y, m = self.Y[i], self.grid.n
        r, p = (y[..., k * m : (k + 3) * m].reshape(*y.shape[:-1], m, 3) for k in (0, 3))
        return strings.StringState(self.grid, r, p, self.tau[i], y[..., 6 * m :])

    @property
    def samples(self) -> List[strings.StringState]:
        return [self.state(i) for i in range(len(self.tau))]

    @property
    def final(self) -> strings.StringState:
        return self.state(-1)

    def annotate(self, exc: PhysicsDomainError, row: int) -> PhysicsDomainError:
        """exc annotated with a row's tau, as step errors are; ``where`` is the row."""
        return _annotate(exc, "tau", self.tau[row], where=int(row))


# the audited string invariants of a block of states, called through the module
_STRING_INVARIANTS = {
    "hamiltonian": lambda state, field: strings.string_hamiltonian(state, field),
    "transversality": lambda state, field: strings.transversality_defect(state),
}


def integrate_string(state, field, params: IntegrationParams) -> StringTrajectory:
    """Advance a string state under the canonical flow with fixed endpoints.

    ``_march`` steps the flat state (r, p, t) as a one-array tuple.  Its rate
    is the string writer ``strings.bind_rates``, bound once per run (the
    uncharged flow, in a comoving field too): each stage copies the state
    into the writer's buffer, which fills dr, dp and dt = (1 + |dr|^2)^(1/2),
    co-integrating the t channel, and takes a new copy of the rate, so RK4's
    four stages keep four rates.  Each new state is
    written into its row of the trajectory.  ``_audited_march`` audits the
    energy functional and the transversality defect, the launch row first,
    each audit one block of rows through ``_invariants``, as a particle
    run's.  A domain error in a stage is annotated with the tau of its
    step's start (an EnergyDomainError keeps its offending cell as
    ``where``); a non-finite new state with the tau of its row; a domain
    error or non-finite value in an audit with the tau of its row, which is
    also its ``where``.  The run steps tau, so a lab time axis is refused.
    """
    if params.method != "rk4":
        raise ValidationError("string integration uses fixed-step rk4")
    if params.time_axis == "lab":
        raise ValidationError("string integration steps proper time tau: time_axis must be auto or proper")

    grid, m = state.grid, state.grid.n
    rows = params.n_steps + 1
    traj = StringTrajectory(np.empty(rows), np.empty((rows, 7 * m)), grid)
    traj.tau[0] = state.tau
    y = traj.Y[0]
    y[: 3 * m], y[3 * m : 6 * m], y[6 * m :] = state.r.ravel(), state.p.ravel(), state.t

    rates = strings.bind_rates(grid.h, field, m)

    def rhs(tau, y):
        return (rates(y[0]),)

    def check(tau, y):  # evaluates no rate, so each step's k1 is a new one
        finite = np.isfinite(y[0])
        if not finite.all():
            k = int(np.argmin(finite))
            node = k - 6 * m if k >= 6 * m else k % (3 * m) // 3
            raise PhysicsDomainError(f"non-finite string state at node {node}", where=node)

    def keep(i, tau, y):
        traj.tau[i], traj.Y[i] = tau, y[0]

    def invariants(rows):
        block = traj.state(rows)
        return _invariants(_STRING_INVARIANTS, (block, field), None, lambda exc, k: traj.annotate(exc, rows[k]))

    march = _march(rhs, check, state.tau, (y,), params, "tau")
    traj.report = _audited_march(march, keep, invariants, params.audit_every)
    return traj


# --- elliptic relaxation ----------------------------------------------------------


@dataclass
class RelaxationResult:
    xi: np.ndarray
    iterations: int
    final_residual: float
    history: List[float] = dc_field(default_factory=list)


# sweeps of residual history kept in RelaxationResult and ConvergenceError
_HISTORY_TAIL = 25


def relax_elliptic(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    xi0: np.ndarray,
    tol: float,
    max_iters: int = 20000,
) -> RelaxationResult:
    """Checkerboard SOR sweeps driving max |residual| below tol.

    residual_fn maps the full grid (n1, n2, c) to the interior residual
    (n1-2, n2-2, c), a new array on each call.  The local diagonal
    d(R_ij)/d(xi_ij) is probed numerically per checkerboard color (5-point
    couplings never connect same-color interior nodes, so one vectorized
    probe per color and component is exact) at the first sweep and every
    200th.  Boundary values are never touched.  The over-relaxation factor
    is 2 / (1 + sin(pi / (n - 1))) for the longer grid side n.

    A sweep updates each color, all components at once, from a residual of
    the current grid.  The residual after a sweep gives the convergence
    test and, the grid being unchanged, also serves as the next sweep's
    first-color residual and as the base of a diagonal probe.  So a solve
    evaluates residual_fn once, plus twice per sweep and 2c times per probe.

    This is the whole solve on a grid the conformal solver cannot halve;
    its color sweep, diagonal probe and convergence loop are the private
    helpers below, which the multigrid cycle of `conformal.solve_conformal`
    also uses.
    """
    xi = _relaxation_grid(xi0, tol, max_iters)
    board = _checkerboard(xi)
    diagonals = None

    def sweep(iteration, res):
        nonlocal diagonals
        if iteration == 1 or iteration % 200 == 0:
            diagonals = _color_diagonals(residual_fn, xi, res, board)
        _color_sweep(residual_fn, xi, res, board.colors, diagonals, board.omega)
        return residual_fn(xi)

    return _iterate(sweep, xi, residual_fn(xi), tol, max_iters, "sweeps")


def _relaxation_grid(xi0: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """A fresh C-ordered copy of the start grid, once tol, max_iters and the grid are checked."""
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    xi = np.array(xi0, dtype=float, copy=True)
    n1, n2, _ = xi.shape
    if n1 < 3 or n2 < 3:
        raise ValidationError("grid too small for interior relaxation")
    if not np.all(np.isfinite(xi)):
        raise ValidationError("initial patch contains non-finite values")
    return xi


@dataclass
class _Checkerboard:
    """A grid's red-black layout and the constants a solve takes from its start grid.

    colors holds, per color, the flat element indices of its nodes'
    components in the interior residual and in the full grid; probe is the
    diagonal probe's step and omega the SOR factor for the grid's sides.
    """

    colors: list
    probe: float
    omega: float


def _checkerboard(xi: np.ndarray) -> _Checkerboard:
    n1, n2, ncomp = xi.shape
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    colors = []
    for parity in (0, 1):
        mask = (ii + jj) % 2 == parity
        nodes = (np.flatnonzero(mask), (ii * n2 + jj)[mask])
        colors.append(tuple((idx[:, None] * ncomp + np.arange(ncomp)).ravel() for idx in nodes))
    probe = 1e-7 * max(1.0, float(np.max(np.abs(xi))))
    omega = 2.0 / (1.0 + math.sin(math.pi / max(n1 - 1, n2 - 1)))
    return _Checkerboard(colors, probe, omega)


def _color_diagonals(residual_fn, xi: np.ndarray, base: np.ndarray, board: _Checkerboard) -> list:
    """Per color, d(R)/d(xi) at its elements, probed at the grid xi (residual base)."""
    ncomp = xi.shape[2]
    diagonals = []
    for inner, full in board.colors:
        d = np.empty(len(inner))
        for k in range(ncomp):
            trial = xi.copy()
            trial.reshape(-1)[full[k::ncomp]] += board.probe
            shifted = residual_fn(trial).reshape(-1)
            d[k::ncomp] = (shifted[inner[k::ncomp]] - base.reshape(-1)[inner[k::ncomp]]) / board.probe
        diagonals.append(d)
    if min(np.min(np.abs(d)) for d in diagonals) < 1e-300:
        raise ConvergenceError("degenerate relaxation diagonal")
    return diagonals


def _color_sweep(residual_fn, xi: np.ndarray, res: np.ndarray, colors, diagonals, omega: float) -> None:
    """One checkerboard sweep of the C-ordered grid xi in place, from its residual res.

    Each later color is updated from a new residual of the grid; a caller
    that reads the residual after the sweep evaluates it itself.
    """
    flat = xi.reshape(-1)
    for k, ((inner, full), diagonal) in enumerate(zip(colors, diagonals)):
        if k:
            res = residual_fn(xi)
        flat[full] -= omega * res.reshape(-1).take(inner) / diagonal


def _iterate(step, xi: np.ndarray, res: np.ndarray, tol: float, max_iters: int, unit: str) -> RelaxationResult:
    """Apply res = step(iteration, res) until max |res| < tol, keeping the history tail.

    Raises ConvergenceError when the residual turns non-finite or grows
    1e8-fold over the first iteration's, or when max_iters pass without
    convergence; `unit` names the iterations in that message.
    """
    history: List[float] = []
    initial_res = None
    for iteration in range(1, max_iters + 1):
        res = step(iteration, res)
        max_res = float(np.max(np.abs(res)))
        history.append(max_res)
        if len(history) > _HISTORY_TAIL:
            history.pop(0)
        if initial_res is None:
            initial_res = max_res if max_res > 0 else 1.0
        if not math.isfinite(max_res) or max_res > 1e8 * initial_res:
            raise ConvergenceError(
                f"relaxation diverged at iteration {iteration}", residual_history=history
            )
        if max_res < tol:
            return RelaxationResult(xi, iteration, max_res, history)
    raise ConvergenceError(
        f"no convergence after {max_iters} {unit} (residual {history[-1]:.3g})",
        residual_history=history,
    )
