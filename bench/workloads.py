"""Seeded inputs, member jobs and correctness gates of the vacuumlab benchmark.

A workload is an ordered list of member jobs.  The generator draws every
input from ``random.Random(f"{workload}:{seed}")`` and writes the scenario
YAML files the program reads, so the same seed gives the same inputs.  It
jitters only parameters that keep each member's audited property:

* orbit radius and transverse speed of the particle runs.  On the codrift
  run the velocity component along ``u_f`` stays equal to ``u_f``; jitter
  there breaks the co-drift invariant (Hamiltonian drift 1.2e-15 -> 8.4e-4).
  The gyro step is re-derived so that 4000 steps still make one period;
* pluck amplitude and width of the string runs;
* the charge values of the rest-mass limit sweep.

Conformal members and the ``compare`` pair are fixed: their checks are
exact identities or convergence orders of fixed grids.

Every job has a gate.  A gate reads what the program wrote (CSV and
manifest) or returned, raises ``GateFailure`` when a check fails and
otherwise returns the observed values, which the report records.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import yaml

# Relative jitter of each seeded parameter (uniform in [-J, +J]).
ORBIT_JITTER = 0.02
PLUCK_JITTER = 0.10
CHARGE_JITTER = 0.10

# Budgets stated by the tier-1 tests (tests/test_acceptance.py,
# tests/test_particle.py) and reused here as per-job gates.
FREE_DRIFT = 1e-6          # AC1/AC2: vacuum-free invariants
CODRIFT_DRIFT = 1e-5       # AC2: codrift Hamiltonian
RELATIVE_INVARIANT = 1e-10  # relative invariant of the interacting flow
CONSTRAINED_DRIFT = 1e-7   # AC5: constrained rest-mass combination
GYRO_CLOSURE = 1e-6        # AC7: gyro orbit closes after one period
STRING_H_DRIFT = 1e-5      # AC8
STRING_GROWTH = 1e-6       # AC8: transversality growth per unit tau
STATIC_MOVE = 1e-12        # AC8: static string stays put
CONFORMAL_ORDER = (2.0, 0.3)
SWEEP_SLOPE = (1.0, 0.2)   # AC3
COMPARE_GAP = 1e-12
# Classical energy drift: no tier-1 budget; about 1e-13 at the seed commit.
CLASSICAL_DRIFT = 1e-10

# Largest EL residual norm per audit member (half-length runs): about 3x the
# seed-commit value (seed 9: 7.7e-6, 4.1e-6, 3.2e-8, 7.9e-6; the full-length
# shipped scenarios reach about 1.6e-5).  bench/baseline.json has the range
# over seeds.
AUDIT_BOUND = {
    "vacuum_free_coulomb": 2.5e-5,
    "classical_uniform_e": 1.5e-5,
    "constrained_uniform_e": 1e-7,
    "vacuum_interacting_codrift": 2.5e-5,
}


class GateFailure(Exception):
    """A job ran but its output failed a correctness check."""


@dataclass
class Job:
    """One member run: a vacuumlab CLI call (``argv``) or a direct API call."""

    name: str
    gate: Callable
    work: float = 0.0            # work units toward work_per_s (0: not counted)
    argv: Optional[List[str]] = None
    call: Optional[Callable] = None
    scenario: Optional[str] = None   # scenario ``name`` (output file stem)
    group: str = ""              # report group, e.g. "conformal"


@dataclass
class Workload:
    name: str
    work_unit: str
    jobs: List[Job]
    scenario_files: List[str]    # every YAML input, parsed by the set-up probe
    generated: Dict[str, dict] = field(default_factory=dict)


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


# --- scenario templates (the shipped scenarios/ files) --------------------------

_COULOMB = {"strength": 1.0, "background": -1.0, "softening": 1.0e-3, "r_f0": [0.0, 0.0, 0.0]}
_LINEAR = {"kind": "linear", "w0": -2.0, "gradient": [-0.5, 0.0, 0.0]}


def _particle(name, model, fld, r, u, step, n_steps, audit_every, **extra):
    data = {
        "name": name,
        "kind": "particle",
        "model": model,
        "charge": 1.0,
        "field": fld,
        "initial": {"r": list(r), "u": list(u)},
        "integration": {
            "step": step,
            "n_steps": n_steps,
            "method": "rk4",
            "audit_every": audit_every,
        },
    }
    data["integration"].update(extra.pop("integration", {}))
    data.update(extra)
    return data


def _particle_member(member: str, rng: random.Random):
    """(scenario dict, generated values) of one particle member except the twins."""
    if member == "classical_gyro":
        speed = _jitter(rng, 0.6, ORBIT_JITTER)
        gamma = 1.0 / math.sqrt(1.0 - speed * speed)
        step = 2.0 * math.pi * gamma / 4000  # one period over 4000 steps (q = B = m0 = 1)
        data = _particle(
            "classical-gyro", "classical",
            {"kind": "uniform-b", "b": [0.0, 0.0, 1.0], "wbar0": 0.0},
            [0.0, 0.0, 0.0], [speed, 0.0, 0.0], step, 4000, 10, rest_mass=1.0,
        )
        return data, {"speed": speed, "step": step}
    radius = _jitter(rng, 0.5, ORBIT_JITTER)
    speed = _jitter(rng, 0.3, ORBIT_JITTER)
    if member == "vacuum_free_coulomb":
        fld = dict(_COULOMB, kind="coulomb-static")
        data = _particle(
            "vacuum-free-coulomb", "vacuum-free", fld, [radius, 0.0, 0.0],
            [0.0, speed, 0.0], 2.0e-4, 10000, 5, integration={"time_axis": "proper"},
        )
    elif member == "vacuum_interacting_codrift":
        u_f = [0.0, 0.0, 0.15]
        fld = dict(_COULOMB, kind="coulomb-comoving", u_f=u_f)
        # the component along u_f must equal u_f: only the transverse speed varies
        data = _particle(
            "vacuum-interacting-codrift", "vacuum-interacting", fld,
            [radius, 0.0, 0.0], [0.0, speed, u_f[2]], 2.0e-4, 10000, 5,
        )
    elif member == "vacuum_interacting_generic":
        fld = dict(_COULOMB, kind="coulomb-comoving", u_f=[0.12, 0.0, 0.05])
        data = _particle(
            "vacuum-interacting-generic", "vacuum-interacting", fld,
            [radius, 0.0, 0.0], [0.0, speed, 0.0], 2.0e-4, 10000, 5,
        )
    else:
        raise ValueError(f"unknown particle member {member}")
    return data, {"radius": radius, "speed": speed}


def _uniform_e_twins(rng: random.Random):
    """Classical and constrained runs sharing one launch (the shipped twins)."""
    speed = _jitter(rng, 0.3, ORBIT_JITTER)
    u = [0.1, speed, 0.0]
    classical = _particle(
        "classical-uniform-e", "classical", dict(_LINEAR), [0.0, 0.0, 0.0], u,
        5.0e-4, 4000, 5, rest_mass=1.0,
    )
    constrained = _particle(
        "constrained-uniform-e", "constrained", dict(_LINEAR), [0.0, 0.0, 0.0], u,
        5.0e-4, 4000, 5, rest_mass=1.0,
    )
    return classical, constrained, {"speed": speed}


def _pluck(name, amplitude, width):
    return {
        "name": name,
        "kind": "string",
        "field": {"kind": "uniform", "strength": -1.0},
        "grid": {"n": 64, "sigma_min": 0.0, "sigma_max": 1.0},
        "initial": {
            "kind": "pluck",
            "start": [0.0, 0.0, 0.0],
            "end": [1.0, 0.0, 0.0],
            "amplitude": amplitude,
            "width": width,
            "direction": [0.0, 1.0, 0.0],
        },
        "integration": {"step": 1.0e-4, "n_steps": 1000, "method": "rk4", "audit_every": 10},
    }


_STRING_STATIC = {
    "name": "string-static",
    "kind": "string",
    "field": {"kind": "uniform", "strength": -1.0},
    "grid": {"n": 64},
    "initial": {"kind": "line", "start": [0.0, 0.0, 0.0], "end": [1.0, 0.0, 0.0]},
    "integration": {"step": 1.0e-3, "n_steps": 500, "audit_every": 10},
}


def _conformal(name, problem, n):
    return {
        "name": name,
        "kind": "conformal",
        "problem": problem,
        "grid": {"n_sigma": n, "n_s": n},
        "tol": 1.0e-9,
        "max_iters": 40000,
    }


_COMPARE_PAIR = [
    {
        "name": "compare-interacting-uniform",
        "kind": "particle",
        "model": "vacuum-interacting",
        "charge": 1.0,
        "field": {"kind": "uniform", "strength": -1.0540925533894598},
        "initial": {"r": [0.0, 0.0, 0.0], "u": [0.3, 0.1, 0.0]},
        "integration": {"step": 1.0e-3, "n_steps": 1000, "method": "rk4", "audit_every": 10},
    },
    {
        "name": "compare-classical-uniform",
        "kind": "particle",
        "model": "classical",
        "charge": 1.0,
        "rest_mass": 1.0,
        "field": {"kind": "uniform", "strength": -1.0540925533894598},
        "initial": {"r": [0.0, 0.0, 0.0], "u": [0.3, 0.1, 0.0]},
        "integration": {"step": 1.0e-3, "n_steps": 1000, "method": "rk4", "audit_every": 10},
    },
]

# Known-bad input for the harness self-test: an unsoftened static Coulomb
# source with the particle placed on it.  Never part of a measured workload.
BAD_INPUT = _particle(
    "selftest-singular", "vacuum-free",
    dict(_COULOMB, kind="coulomb-static", softening=0.0),
    [0.0, 0.0, 0.0], [0.0, 0.1, 0.0], 1.0e-3, 10, 5,
)


# --- reading what the program wrote ------------------------------------------


def _conservation(out_dir: str, scenario: str) -> dict:
    with open(os.path.join(out_dir, f"{scenario}.manifest.json")) as fh:
        return json.load(fh)["conservation"]


def _read_csv(path: str) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _expect_rows(rows: list, expected: int, what: str) -> None:
    if len(rows) != expected:
        raise GateFailure(f"{what}: {len(rows)} rows, expected {expected}")


def _below(observed: dict, limits: dict) -> None:
    for key, bound in limits.items():
        value = observed[key]
        if not value < bound:  # also rejects NaN
            raise GateFailure(f"{key} = {value:.3e}, bound {bound:.0e}")


# --- gates ------------------------------------------------------------------------


def particle_run_gate(n_steps: int, limits: dict, reported=()):
    """Relative drifts of the audited invariants, plus the trajectory row count."""

    def gate(job: Job, out_dir: str, result, ctx: dict) -> dict:
        rows = _read_csv(os.path.join(out_dir, f"{job.scenario}.csv"))
        _expect_rows(rows, n_steps + 1, "trajectory CSV")
        cons = _conservation(out_dir, job.scenario)
        observed = {k: cons[k]["relative_drift"] for k in (*limits, *reported)}
        _below(observed, limits)
        return observed

    return gate


def gyro_gate(n_steps: int, speed: float):
    """Energy drift, and closure of the one-period orbit (AC7 budget)."""
    energy_gate = particle_run_gate(n_steps, {"energy": CLASSICAL_DRIFT})

    def gate(job, out_dir, result, ctx):
        observed = energy_gate(job, out_dir, result, ctx)
        rows = _read_csv(os.path.join(out_dir, f"{job.scenario}.csv"))
        first, last = rows[0], rows[-1]
        gap = math.sqrt(sum((float(last[k]) - float(first[k])) ** 2 for k in ("rx", "ry", "rz")))
        radius = speed / math.sqrt(1.0 - speed * speed)  # gamma m0 v / (q B)
        observed["closure"] = gap / radius
        _below(observed, {"closure": GYRO_CLOSURE})
        return observed

    return gate


def audit_gate(member: str, nodes: int):
    """Every EL residual finite and the largest below the recorded bound."""

    def gate(job, out_dir, result, ctx):
        rows = _read_csv(os.path.join(out_dir, f"{job.scenario}_audit.csv"))
        _expect_rows(rows, nodes, "audit CSV")
        norms = [float(row["res_norm"]) for row in rows]
        if not all(math.isfinite(v) for v in norms):
            raise GateFailure("non-finite EL residual")
        observed = {"max_residual": max(norms)}
        _below(observed, {"max_residual": AUDIT_BOUND[member]})
        return observed

    return gate


def string_gate(n_steps: int, step: float, nodes: int):
    """AC8: Hamiltonian drift and transversality growth per unit tau."""

    def gate(job, out_dir, result, ctx):
        rows = _read_csv(os.path.join(out_dir, f"{job.scenario}.csv"))
        samples = len(range(0, n_steps + 1, max(1, n_steps // 50)))
        _expect_rows(rows, nodes * samples, "string CSV")
        cons = _conservation(out_dir, job.scenario)
        observed = {
            "hamiltonian": cons["hamiltonian"]["relative_drift"],
            "transversality_growth": cons["transversality"]["max_drift"] / (n_steps * step),
        }
        _below(observed, {"hamiltonian": STRING_H_DRIFT, "transversality_growth": STRING_GROWTH})
        return observed

    return gate


def static_string_gate(n_steps: int, nodes: int):
    """The straight string stays within 1e-12 of where it started."""

    def gate(job, out_dir, result, ctx):
        rows = _read_csv(os.path.join(out_dir, f"{job.scenario}.csv"))
        first, last = rows[:nodes], rows[-nodes:]
        if last[0]["step"] != str(n_steps):
            raise GateFailure(f"last sampled step {last[0]['step']}, expected {n_steps}")
        moved = max(
            abs(float(a[k]) - float(b[k])) for a, b in zip(first, last) for k in ("rx", "ry", "rz")
        )
        observed = {"moved": moved}
        _below(observed, {"moved": STATIC_MOVE})
        return observed

    return gate


def conformal_gate(n: int, tol: float, order_against: Optional[str] = None):
    """final_residual below tol; for the fine manufactured grid, order 2 +- 0.3."""

    def gate(job, out_dir, result, ctx):
        rows = _read_csv(os.path.join(out_dir, f"{job.scenario}.csv"))
        _expect_rows(rows, n * n, "conformal CSV")
        cons = _conservation(out_dir, job.scenario)
        observed = {
            "final_residual": cons["final_residual"]["initial"],
            "iterations": cons["iterations"]["initial"],
            "max_error_vs_exact": cons["max_error_vs_exact"]["initial"],
        }
        _below(observed, {"final_residual": tol})
        if order_against is not None:
            coarse = ctx[order_against]["max_error_vs_exact"]
            observed["order"] = math.log(coarse / observed["max_error_vs_exact"]) / math.log(2.0)
            target, width = CONFORMAL_ORDER
            if not abs(observed["order"] - target) < width:
                raise GateFailure(f"manufactured order {observed['order']:.3f}, expected 2 +- 0.3")
        return observed

    return gate


def sweep_gate(charges: List[float]):
    """AC3-style: log-log slope of the rest-mass deviation against q is 1 +- 0.2."""

    def gate(job, out_dir, report, ctx):
        devs = list(report.deviations)
        if len(devs) != len(charges) or not all(d > 0 and math.isfinite(d) for d in devs):
            raise GateFailure(f"deviations {devs}")
        xs = [math.log(q) for q in charges]
        ys = [math.log(d) for d in devs]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        target, width = SWEEP_SLOPE
        if not abs(slope - target) < width:
            raise GateFailure(f"log-log slope {slope:.3f}, expected 1 +- 0.2")
        return {"slope": slope}

    return gate


def compare_gate(n_steps: int):
    """Matched pair: every distance and momentum gap at most 1e-12."""

    def gate(job, out_dir, result, ctx):
        rows = _read_csv(os.path.join(out_dir, "compare.csv"))
        _expect_rows(rows, n_steps + 1, "compare CSV")
        observed = {
            "max_distance": max(float(r["distance"]) for r in rows),
            "max_momentum_gap": max(float(r["momentum_gap"]) for r in rows),
        }
        if not (observed["max_distance"] <= COMPARE_GAP and observed["max_momentum_gap"] <= COMPARE_GAP):
            raise GateFailure(f"compare gaps {observed}")
        return observed

    return gate


# --- workloads --------------------------------------------------------------------


def _write(work_dir: str, stem: str, data: dict) -> str:
    path = os.path.join(work_dir, f"{stem}.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


def _run_job(name, path, data, gate, work, group=""):
    return Job(name, gate, work, argv=["run", path], scenario=data["name"], group=group)


def _particle_runs(rng, work_dir, members, step_divisor=1):
    """Particle scenarios for ``members``, in order: (name, path, data, generated).

    ``step_divisor`` shortens every run at the same step size.
    """
    twins = None
    out = []
    for member in members:
        if member in ("classical_uniform_e", "constrained_uniform_e"):
            if twins is None:
                twins = _uniform_e_twins(rng)
            data = twins[0] if member == "classical_uniform_e" else twins[1]
            generated = twins[2]
        else:
            data, generated = _particle_member(member, rng)
        data["integration"]["n_steps"] //= step_divisor
        out.append((member, _write(work_dir, member, data), data, generated))
    return out


def _particle_run_gate(member, data, generated):
    n = data["integration"]["n_steps"]
    if member == "vacuum_free_coulomb":
        return particle_run_gate(n, {k: FREE_DRIFT for k in ("hamiltonian", "energy", "rest_mass")})
    if member == "vacuum_interacting_codrift":
        return particle_run_gate(
            n, {"hamiltonian": CODRIFT_DRIFT, "relative_invariant": RELATIVE_INVARIANT}
        )
    if member == "vacuum_interacting_generic":
        return particle_run_gate(n, {"relative_invariant": RELATIVE_INVARIANT}, reported=("hamiltonian",))
    if member == "classical_gyro":
        return gyro_gate(n, generated["speed"])
    if member == "classical_uniform_e":
        return particle_run_gate(n, {"energy": CLASSICAL_DRIFT})
    return particle_run_gate(n, {"rest_mass": CONSTRAINED_DRIFT})


def _orbit(rng, work_dir):
    members = [
        "vacuum_free_coulomb",
        "vacuum_interacting_codrift",
        "vacuum_interacting_generic",
        "classical_gyro",
        "classical_uniform_e",
        "constrained_uniform_e",
    ]
    jobs, files, generated = [], [], {}
    for member, path, data, gen in _particle_runs(rng, work_dir, members):
        n = data["integration"]["n_steps"]
        jobs.append(_run_job(member, path, data, _particle_run_gate(member, data, gen), n))
        files.append(path)
        generated[member] = gen
    return Workload("orbit", "integrator steps", jobs, files, generated)


def _audit(rng, work_dir):
    members = [
        "vacuum_free_coulomb",
        "classical_uniform_e",
        "constrained_uniform_e",
        "vacuum_interacting_codrift",
    ]
    jobs, files, generated = [], [], {}
    # Half the shipped lengths: a pass of about 3 s gives several passes per
    # run.  The residual bounds hold, since they depend on the step size.
    for member, path, data, gen in _particle_runs(rng, work_dir, members, step_divisor=2):
        n = data["integration"]["n_steps"]
        # audit_scenario: every step is a path node, except the constrained
        # model, which is resampled onto min(400, n_steps) proper-time nodes
        path_nodes = min(400, n) if member == "constrained_uniform_e" else n + 1
        nodes = path_nodes - 2
        jobs.append(
            Job(member, audit_gate(member, nodes), nodes, argv=["audit", path], scenario=data["name"])
        )
        files.append(path)
        generated[member] = gen
    return Workload("audit", "EL residual nodes", jobs, files, generated)


def _sheet(rng, work_dir):
    jobs, files, generated = [], [], {}
    for k in range(3):
        amplitude = _jitter(rng, 0.002, PLUCK_JITTER)
        width = _jitter(rng, 0.12, PLUCK_JITTER)
        name = f"string_pluck_{k}"
        data = _pluck(f"string-pluck-{k}", amplitude, width)
        path = _write(work_dir, name, data)
        integ = data["integration"]
        gate = string_gate(integ["n_steps"], integ["step"], 64)
        jobs.append(_run_job(name, path, data, gate, 64 * integ["n_steps"], group="string"))
        files.append(path)
        generated[name] = {"amplitude": amplitude, "width": width}
    path = _write(work_dir, "string_static", _STRING_STATIC)
    jobs.append(
        _run_job("string_static", path, _STRING_STATIC, static_string_gate(500, 64), 64 * 500, "string")
    )
    files.append(path)
    for name, problem, n, against in (
        ("conformal_manufactured_33", "manufactured", 33, None),
        ("conformal_manufactured_65", "manufactured", 65, "conformal_manufactured_33"),
        ("conformal_laplace_33", "laplace-harmonic", 33, None),
    ):
        data = _conformal(name.replace("_", "-"), problem, n)
        path = _write(work_dir, name, data)
        jobs.append(_run_job(name, path, data, conformal_gate(n, data["tol"], against), 0, "conformal"))
        files.append(path)
    return Workload("sheet", "string node-steps", jobs, files, generated)


def _sweep(rng, work_dir):
    from vacuumlab import particle
    from vacuumlab.geometry import Vec3, ZERO3

    charges = [_jitter(rng, 1e-2 * 0.5**k, CHARGE_JITTER) for k in range(6)]
    scenario = particle.TwoParticleScenario(
        q=1.0, q_f=1.0, r_f0=ZERO3, u_f=Vec3(0.2, 0.0, 0.1), r0=Vec3(0.6, 0.0, 0.0),
        u0=ZERO3, softening=0.05, background=-1.0, horizon=2.0, n_steps=2000,
    )

    def charge_sweep():
        # looked up on the module at call time, so a traced run sees its wrapper
        return particle.rest_mass_limit_check(scenario, charges)

    jobs = [Job("charge_sweep", sweep_gate(charges), 6 * 2000, call=charge_sweep)]
    files = []
    for data in _COMPARE_PAIR:
        files.append(_write(work_dir, data["name"].replace("-", "_"), data))
    jobs.append(Job("compare", compare_gate(1000), 2 * 1000, argv=["compare", *files]))
    return Workload("sweep", "integrator steps", jobs, files, {"charge_sweep": {"charges": charges}})


GENERATORS = {"orbit": _orbit, "audit": _audit, "sheet": _sheet, "sweep": _sweep}


def generate(name: str, seed: int, work_dir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``work_dir``."""
    os.makedirs(work_dir, exist_ok=True)
    return GENERATORS[name](random.Random(f"{name}:{seed}"), work_dir)


def selftest_job(work_dir: str) -> Job:
    """The known-bad run that the harness must count as failed."""
    os.makedirs(work_dir, exist_ok=True)
    path = _write(work_dir, "selftest_singular", BAD_INPUT)
    return Job("selftest_singular", particle_run_gate(10, {}), 0, argv=["run", path],
               scenario=BAD_INPUT["name"])
