"""Time steppers and conservation auditing.

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
dtau = dt (1-u^2)^(1/2) (u_f = 0, so x = tau, for vacuum-free).  Which
clock a particle run steps is decided in one place, `axis_for`, for a run,
an audit and a compare alike.

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

The flat states are not this module's: each is laid out, checked and read
by the module that defines it, and this module steps and audits the
tuples they give without indexing one.  A particle run takes its launch
parameter and flat state from ``particle.pack``, its rate and the check of
a new state from ``particle.bind_step`` (the model's law bound to floats
once per run, so a stage is one Python call plus the field's kernels, and
every kept row is a state where the law evaluates), and the physical
columns (t, tau, r, u, p) of the later rows of a `Trajectory`, which holds
the parameter x and the flat states Y as arrays, from
``particle.bind_rows``; `samples`, `final` and the invariants are derived
from those columns.

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

A string run steps the flat state (r, p, t) of its nodes, ``strings.flat``,
as a one-array tuple, by the rate and check of ``strings.bind_step``: each
stage's rate is one new flat array.  A `StringTrajectory` holds tau and
the flat states Y as arrays, and its `StringState`s are ``strings.view``s
of the rows, built on demand: one row, or a block of rows, which the
string kernels take whole.
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

from . import particle, strings
# bench/tracing.py (INTEGRATE_SPANS) and its contract test look relax_elliptic up here
from .conformal import relax_elliptic  # noqa: F401
from .errors import PhysicsDomainError, StepFailureError, ValidationError
from .geometry import Vec3
from .particle import INVARIANTS, ForceModel, ModelKind, ParticleColumns, ParticleState


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
    state per row, of ``particle.pack``'s layout.  Row 0 is ``initial``.
    The physical columns, ``samples`` and ``final`` are built from x and Y
    on demand by ``particle.bind_rows``; row 0 always reads ``initial``
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
            decode = particle.bind_rows(self.model, self.time_axis)
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

    y is a tuple state, which the march never indexes: rhs(x, y) returns
    the rate tuple of the same length, and check(x, y) raises at a new
    state outside its owner's domain and returns rhs(x, y) there, or None.
    The next step takes that as k1 and evaluates rhs itself only for a None
    (and at the launch), after the row is yielded.  A rejected RKF45
    attempt keeps its k1.

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


def axis_for(kind: ModelKind, requested: str, verb: str = "") -> str:
    """The clock ("lab" or "proper") a `kind` model's particle run steps for time_axis `requested`.

    auto is the model's own clock: lab time for the classical and
    constrained models, the source frame's proper time for the vacuum
    models.  A run ("") steps the clock requested; an audit steps the
    model's own clock, whose time the oracle's densities assume, and a
    compare steps lab time.  A classical or constrained model is refused
    the proper clock, and an audit or compare the other clock, by the key.
    """
    own = "lab" if kind in (ModelKind.CLASSICAL, ModelKind.CONSTRAINED) else "proper"
    if own == "lab" and requested == "proper":
        raise ValidationError(f"integration.time_axis must be auto or lab for a {kind.value} model")
    axis = {"": own if requested == "auto" else requested, "audit": own, "compare": "lab"}[verb]
    if requested not in ("auto", axis):
        raise ValidationError(f"integration.time_axis must be auto or {axis} for {verb} of a "
                              f"{kind.value} model")
    return axis


def integrate_particle(
    model: ForceModel, initial: ParticleState, params: IntegrationParams
) -> Trajectory:
    """Advance one particle, auditing its model's conserved quantities.

    Deterministic: identical inputs give bit-identical trajectories.
    ``particle.pack`` gives the launch's parameter and flat state, and
    ``particle.bind_step`` the rate and the check that ``_march`` steps
    them with; ``_march`` checks every new state where it is made and
    annotates physics-domain errors with the parameter value at which the
    step failed.  ``_audited_march`` keeps the rows, as the stepper's
    tuples, and evaluates the array invariants over the audited rows, the
    launch row first, on a trajectory whose Y is read from the tuples in one
    pass; an invariant error, a field's included, is annotated with its
    first offending row.  An RK4 run knows its row count, so it allocates Y
    before the launch audit, and a step count too large to keep is refused
    before the first step; an RKF45 run's Y is allocated at each audit.
    """
    axis = axis_for(model.kind, params.time_axis)
    x, y = particle.pack(model, initial, axis)
    xs, ys, size = [x], [y], len(y)
    Y = np.empty((params.n_steps + 1, size)) if params.method == _RK4 else None
    traj = None

    def keep(n, x, y):
        xs.append(x)
        ys.append(y)

    def invariants(rows):
        nonlocal traj  # the last call, over the finished run, leaves the run's trajectory
        n = len(ys)
        kept = np.fromiter(itertools.chain.from_iterable(ys), float, count=n * size).reshape(n, size)
        if Y is not None:
            Y[:n] = kept
            kept = Y[:n]
        traj = Trajectory(np.array(xs), kept, initial, model, axis)
        return traj.invariants(rows)

    march = _march(*particle.bind_step(model, axis), x, y, params, "t" if axis == "lab" else "tau")
    report = _audited_march(march, keep, invariants, params.audit_every)
    traj.report = report
    return traj


# --- string integration ---------------------------------------------------------


@dataclass
class StringTrajectory:
    """One string run as columns, plus the conservation audit.

    tau, shape (n+1,), is the proper-time parameter and Y, shape (n+1, 7m),
    the stepper's flat state (r, p, t) of the m grid nodes per row, of
    ``strings.flat``'s layout.  Row 0 is the initial state.  ``state(i)``
    and ``samples`` are StringState views of the rows (``strings.view``),
    built on demand; ``state(rows)`` of a sequence of rows is one block, whose
    r is the (len(rows), m, 3) world sheet of those rows.
    """

    tau: np.ndarray
    Y: np.ndarray
    grid: strings.StringGrid
    report: ConservationReport = dc_field(default_factory=ConservationReport)

    def state(self, i) -> strings.StringState:
        """Row i as a StringState of views of Y; a sequence of rows gives one block, of a copy of them."""
        return strings.view(self.grid, self.Y[i], self.tau[i])

    @property
    def samples(self) -> List[strings.StringState]:
        return [self.state(i) for i in range(len(self.tau))]

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

    ``_march`` steps the flat state (r, p, t) as a one-array tuple, by the
    rate and the check of ``strings.bind_step``.  The rate is the string
    writer ``strings.bind_rates``, bound once per run (the uncharged flow,
    in a comoving field too): each stage copies the state
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

    rows, y = params.n_steps + 1, strings.flat(state)
    traj = StringTrajectory(np.empty(rows), np.empty((rows, y.size)), state.grid)
    traj.tau[0], traj.Y[0] = state.tau, y

    def keep(i, tau, y):
        traj.tau[i], traj.Y[i] = tau, y[0]

    def invariants(rows):
        block = traj.state(rows)
        return _invariants(_STRING_INVARIANTS, (block, field), None, lambda exc, k: traj.annotate(exc, rows[k]))

    march = _march(*strings.bind_step(state.grid, field), state.tau, (y,), params, "tau")
    traj.report = _audited_march(march, keep, invariants, params.audit_every)
    return traj
