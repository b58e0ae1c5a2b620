"""Scenario ingestion, run orchestration, model comparison and reporting.

Scenario files are YAML (one structured file per run); each mapping's keys
and defaults are declared once, in one table.  Every run emits plain CSV
(exact headers, 17-significant-digit floats) plus a JSON manifest carrying
the config hash, tool version, echoed defaults and the conservation report;
one writer writes every file atomically.  Reruns of the same config produce
bit-identical CSV and the same config hash.  A key nothing reads is
refused by name: rest_mass on a vacuum model, and a pluck's shape keys on a
line string, among them.

The clock a particle run steps is `integrate.axis_for`'s to decide: the
parser asks it when it reads a scenario, so every verb refuses a classical
or constrained model on proper time, and `audit` and `compare` ask it for
their own clock, so each refuses a scenario that sets the other one.

Exit codes: 0 success, 1 usage/validation (such as a negative --nodes, an
audit path of fewer than 5 nodes, a classical or constrained model without
a positive rest_mass, a classical rest_mass whose square leaves the float
range, a zero charge in a Coulomb field, a string run on a lab time axis,
a pluck whose width squares to zero, an rk45 step below its adaptive
step's floor, a vacuum-interacting model in a field kind where qA is not
wbar u_f, or a grid or step count too large to allocate), 2
physics-domain abort (among them a non-finite value in a run CSV or an
audit residual, named by its row or node), 3 solver failure
(non-convergence or adaptive step collapse).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import List, Optional

import numpy as np
import yaml

from . import __version__
from . import conformal as conformal_mod
from . import strings as strings_mod
from .errors import (
    ConvergenceError,
    InvalidSourceError,
    MisalignedScenariosError,
    ParseError,
    PhysicsDomainError,
    StepFailureError,
    SuperluminalVelocityError,
    ValidationError,
)
from .geometry import Vec3, norm2_rows
from .integrate import (
    IntegrationParams,
    axis_for,
    integrate_particle,
    integrate_string,
)
from .particle import (
    ForceModel,
    ModelKind,
    INVARIANTS,
    interaction_extra_force,
    make_classical_state,
    make_constrained_state,
    make_vacuum_state,
)
from .potentials import (
    QA_IS_WBAR_UF,
    LinearField,
    PotentialField,
    SourceKind,
    SourceSpec,
    UniformMagneticField,
    build_potential,
)
from .variational import (
    LagrangianKind,
    LagrangianSpec,
    euler_lagrange_residual,
    path_from_trajectory,
    uniform_proper_path,
)

PARTICLE_HEADER = "step,tau,t,rx,ry,rz,px,py,pz,wbar,energy"
STRING_HEADER = "step,tau,sigma,rx,ry,rz,px,py,pz,h_density"
COMPARE_HEADER = "step,align,distance,momentum_gap,fc_magnitude"
AUDIT_HEADER = "node,s,res_x,res_y,res_z,res_norm"

_MODEL_KINDS = {k.value: k for k in ModelKind}
_SCENARIO_KINDS = ("particle", "string", "conformal")

# Each mapping's keys with their defaults.  A key takes its default's type: a
# float, an int, a 3-vector (a tuple here, a list of floats once filled) or a
# string, which is checked where it is used.
_ZERO = (0.0, 0.0, 0.0)
# step and n_steps, then IntegrationParams's own defaults in its field order
_INTEGRATION = {"step": 1e-3, "n_steps": 1000, **{
    f.name: f.default for f in fields(IntegrationParams) if f.default is not MISSING}}
_PARTICLE_INITIAL = {"r": _ZERO, "u": _ZERO}
_STRING_GRID = {"n": 64, "sigma_min": 0.0, "sigma_max": 1.0}
_STRING_INITIAL = {"kind": "line", "start": _ZERO, "end": (1.0, 0.0, 0.0), "amplitude": 0.01,
                   "width": 0.08, "direction": (0.0, 1.0, 0.0)}
_CONFORMAL = {"problem": "laplace-harmonic", "tol": 1e-8, "max_iters": 40000}
_CONFORMAL_GRID = {"n_sigma": 33, "n_s": 33}
_COULOMB = {"strength": 1.0, "softening": 1e-3, "background": 0.0, "r_f0": _ZERO, "u_f": _ZERO}
# the top-level keys of each scenario kind; a classical or constrained particle adds rest_mass
_TOP_LEVEL = {
    "particle": ("name", "kind", "output", "model", "charge", "field", "initial", "integration"),
    "string": ("name", "kind", "output", "field", "grid", "initial", "integration"),
    "conformal": ("name", "kind", "output", "grid", *_CONFORMAL),
}


def _source(f: dict) -> SourceSpec:
    """The SourceSpec of a filled source field mapping: its keys are the spec's fields."""
    keys = {k: Vec3(*v) if isinstance(v, list) else v for k, v in f.items() if k != "kind"}
    return SourceSpec(SourceKind(f["kind"]), **keys)


def _source_field(f: dict, charge: float) -> PotentialField:
    return build_potential(_source(f), charge)


# each field kind: its keys with their defaults, and its constructor (filled keys, charge)
_FIELDS = {
    "uniform": ({"strength": -1.0}, _source_field),
    "coulomb-static": (_COULOMB, _source_field),
    "coulomb-comoving": (_COULOMB, _source_field),
    "linear": ({"w0": -1.0, "gradient": _ZERO},
               lambda f, q: LinearField(f["w0"], Vec3(*f["gradient"]))),
    "uniform-b": ({"b": (0.0, 0.0, 1.0), "wbar0": 0.0},
                  lambda f, q: UniformMagneticField(Vec3(*f["b"]), f["wbar0"])),
}


def _number(raw, name: str, cast=float):
    """raw as a finite float, or as an int for cast=int; ValidationError names the key.

    An int key takes any integral value, such as 1.0e+4 or the YAML string '1.0e4'.
    """
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if math.isfinite(value) and not isinstance(raw, bool) and (cast is float or value.is_integer()):
        return cast(value)
    kind = "an integer" if cast is int else "a finite number"
    raise ValidationError(f"{name} must be {kind}, got {raw!r}")


def _known(raw: dict, keys, prefix: str) -> None:
    """Refuse a key of raw outside keys: nothing would read it."""
    for key in raw:
        if key not in keys:
            raise ValidationError(f"unknown config key '{prefix}{key}'")


def _fill(raw: dict, defaults: dict, prefix: str, known=()) -> dict:
    """Each key of defaults read from raw (or defaulted) as its default's type.

    A ValidationError names the key as prefix + key, for a bad value first,
    then for a key of raw that is neither in defaults nor in known.
    """
    out = {}
    for key, default in defaults.items():
        value, name = raw.get(key, default), prefix + key
        if isinstance(default, str):
            out[key] = value
        elif not isinstance(default, tuple):
            out[key] = _number(value, name, type(default))
        elif isinstance(value, (list, tuple)) and len(value) == 3:
            out[key] = [_number(v, name) for v in value]
        else:
            raise ValidationError(f"{name} must be a 3-component list")
    _known(raw, (*defaults, *known), prefix)
    return out


def _section(data: dict, key: str) -> dict:
    """The mapping under key, {} when absent or empty; ValidationError names the key."""
    raw = data.get(key)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValidationError(f"config key '{key}' must be a mapping, got {raw!r}")
    return raw


@dataclass
class ScenarioConfig:
    name: str
    kind: str
    data: dict
    config_hash: str


@dataclass
class RunManifest:
    name: str
    config_hash: str
    tool_version: str
    timestamp: str
    outputs: List[str]
    conservation: dict
    parameters: dict
    exit_status: int = 0


def _canonical_hash(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _write(out_dir: str, filename: str, lines: List[str]) -> str:
    """Write lines to out_dir/filename atomically (through a .tmp file); returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path + ".tmp", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(path + ".tmp", path)
    return path


# --- config parsing -----------------------------------------------------------


def parse_config(path: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Load, validate and normalize one scenario file.

    Raises ParseError for unreadable/malformed files and ValidationError
    (naming the offending key) for schema or physics violations.
    """
    if not os.path.exists(path):
        raise ParseError(f"no such scenario file: {path}")
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed YAML in {path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path} does not contain a mapping")
    data = dict(raw)
    name = data.get("name")
    if not name or not isinstance(name, str):
        raise ValidationError("config key 'name' must be a nonempty string")
    kind = data.get("kind")
    if kind not in _SCENARIO_KINDS:
        raise ValidationError(
            f"config key 'kind' must be one of {list(_SCENARIO_KINDS)}, got {kind!r}"
        )
    if overrides:
        # the step overrides apply to the kinds that integrate; conformal solves ignore them
        if "integration" in _TOP_LEVEL[kind]:
            integration = dict(_section(data, "integration"))
            for key in ("step", "n_steps", "rel_tol"):
                if overrides.get(key) is not None:
                    integration[key] = overrides[key]
            data["integration"] = integration
        if overrides.get("out") is not None:
            data["output"] = dict(_section(data, "output"), directory=overrides["out"])
    normalized = _normalize(data)
    # the hash identifies the run content; the output destination is excluded
    hashed = {k: v for k, v in normalized.items() if k != "output"}
    return ScenarioConfig(name, kind, normalized, _canonical_hash(hashed))


def _normalize(data: dict) -> dict:
    """Fill defaults and validate; returns the dict that is hashed and echoed."""
    kind = data["kind"]
    directory = _section(data, "output").get("directory", "out")
    if not isinstance(directory, str) or not directory or "\0" in directory:
        raise ValidationError("output.directory must be a nonempty string without NUL")
    _known(_section(data, "output"), ("directory",), "output.")
    if any(c in data["name"] for c in "/\\\0"):
        # the name is the stem of every output file, which must stay in the directory
        raise ValidationError(
            f"config key 'name' must not contain '/', '\\' or NUL, got {data['name']!r}"
        )
    out = {"name": data["name"], "kind": kind, "output": {"directory": directory}}
    keys = _TOP_LEVEL[kind]
    if kind == "particle":
        model = data.get("model")
        if not isinstance(model, str) or model not in _MODEL_KINDS:
            raise ValidationError(
                f"config key 'model' must be one of {sorted(_MODEL_KINDS)}, got {model!r}"
            )
        out["model"] = model
        out["charge"] = _number(data.get("charge", 1.0), "charge")
        if model in ("classical", "constrained"):
            keys += ("rest_mass",)  # a vacuum model's mass is -wbar: nothing reads rest_mass
            if data.get("rest_mass") is not None:
                out["rest_mass"] = _number(data["rest_mass"], "rest_mass")
            if not out.get("rest_mass", 0.0) > 0:
                raise ValidationError(
                    f"rest_mass must be positive for a {model} model, got {data.get('rest_mass')!r}"
                )
        if model == "classical" and not 0.0 < out["rest_mass"] * out["rest_mass"] < math.inf:
            # the classical law divides by (m0^2 + p^2)^(1/2) and its energy squares m0
            raise ValidationError(
                f"rest_mass must have a positive finite square for a classical model, "
                f"got {data['rest_mass']!r}"
            )
        out["field"] = _normalize_field(data.get("field"))
        if out["charge"] == 0.0 and out["field"]["kind"].startswith("coulomb"):
            raise ValidationError("charge must be nonzero in a Coulomb field, got 0")
        out["initial"] = _fill(_section(data, "initial"), _PARTICLE_INITIAL, "initial.")
        if Vec3(*out["initial"]["u"]).norm2() >= 1.0:
            raise ValidationError("initial.u: superluminal initial velocity")
        out["integration"] = _normalize_integration(_section(data, "integration"))
        axis_for(_MODEL_KINDS[model], out["integration"]["time_axis"])  # refused when read
        if model == "vacuum-interacting" and out["field"]["kind"] not in QA_IS_WBAR_UF:
            # elsewhere its force depends on the gauge of A (README, model notes)
            raise ValidationError(
                f"field.kind '{out['field']['kind']}' is not covered by the vacuum-interacting "
                f"model, which assumes qA = wbar u_f (covered: {', '.join(QA_IS_WBAR_UF)})"
            )
    elif kind == "string":
        out["field"] = _normalize_field(data.get("field"))
        grid = out["grid"] = _fill(_section(data, "grid"), _STRING_GRID, "grid.")
        if grid["n"] < 8:
            raise ValidationError("grid.n must be >= 8")
        if grid["sigma_max"] <= grid["sigma_min"]:
            raise ValidationError("grid.sigma_max must exceed grid.sigma_min")
        initial = out["initial"] = _fill(_section(data, "initial"), _STRING_INITIAL, "initial.")
        if initial["kind"] not in ("line", "pluck"):
            raise ValidationError("initial.kind must be 'line' or 'pluck'")
        if initial["kind"] == "line":  # the pluck's keys are echoed with their defaults, unread
            _known(_section(data, "initial"), ("kind", "start", "end"), "initial.")
        if initial["width"] <= 0:
            raise ValidationError("initial.width must be positive")
        if initial["kind"] == "pluck" and not initial["width"] * initial["width"] > 0:
            # the pluck's Gaussian divides by 2 width^2
            raise ValidationError(
                f"initial.width must have a positive square for a pluck, got {initial['width']!r}"
            )
        out["integration"] = _normalize_integration(_section(data, "integration"))
    else:  # conformal
        out.update(_fill(data, _CONFORMAL, "", _TOP_LEVEL[kind]))
        if out["problem"] not in ("laplace-harmonic", "manufactured"):
            raise ValidationError("problem must be 'laplace-harmonic' or 'manufactured'")
        out["grid"] = _fill(_section(data, "grid"), _CONFORMAL_GRID, "grid.")
        if min(out["grid"]["n_sigma"], out["grid"]["n_s"]) < 5:
            raise ValidationError("conformal grids need at least 5 nodes per axis")
        if out["tol"] <= 0:
            raise ValidationError("tol must be positive")
        if out["max_iters"] < 1:
            raise ValidationError("max_iters must be >= 1")
    _known(data, keys, "")
    return out


def _normalize_field(raw) -> dict:
    if not isinstance(raw, dict):
        raise ValidationError("config key 'field' must be a mapping")
    fkind = raw.get("kind")
    if not isinstance(fkind, str) or fkind not in _FIELDS:
        raise ValidationError(f"field.kind must be one of {list(_FIELDS)}, got {fkind!r}")
    out = {"kind": fkind, **_fill(raw, _FIELDS[fkind][0], "field.", ("kind",))}
    if _FIELDS[fkind][1] is _source_field:
        try:
            _source(out).validate()
        except (InvalidSourceError, SuperluminalVelocityError) as exc:
            raise ValidationError(f"field.{exc}") from None
    return out


def _normalize_integration(raw: dict) -> dict:
    out = _fill(raw, _INTEGRATION, "integration.")
    IntegrationParams(**out)  # validates
    return out


# --- builders ------------------------------------------------------------------


def build_field(fdata: dict, charge: float) -> PotentialField:
    return _FIELDS[fdata["kind"]][1](fdata, charge)


def build_particle_model(config: ScenarioConfig):
    data = config.data
    kind = _MODEL_KINDS[data["model"]]
    charge = data["charge"]
    field = build_field(data["field"], charge)
    model = ForceModel(kind, field, charge=charge, rest_mass=data.get("rest_mass"))
    r0, u0 = Vec3(*data["initial"]["r"]), Vec3(*data["initial"]["u"])
    if kind is ModelKind.CLASSICAL:
        state = make_classical_state(r0, u0, model.rest_mass)
    elif kind is ModelKind.CONSTRAINED:
        state = make_constrained_state(r0, u0, model.rest_mass)
    else:
        wbar0 = field.wbar(r0, 0.0)
        if wbar0 >= 0:
            raise ValidationError("field: wbar must be negative at the initial position")
        state = make_vacuum_state(field, r0, u0)
    params = IntegrationParams(**data["integration"])
    return model, state, params


# --- runners ---------------------------------------------------------------------


def run_scenario(config: ScenarioConfig, quiet: bool = False) -> RunManifest:
    out_dir = config.data["output"]["directory"]
    if config.kind == "particle":
        conservation, outputs = _run_particle(config, out_dir)
    elif config.kind == "string":
        conservation, outputs = _run_string(config, out_dir)
    else:
        conservation, outputs = _run_conformal(config, out_dir)
    manifest = RunManifest(
        name=config.name,
        config_hash=config.config_hash,
        tool_version=__version__,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=outputs,
        conservation=conservation,
        parameters=config.data,
    )
    text = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    mpath = _write(out_dir, f"{config.name}.manifest.json", [text])
    if not quiet:
        print(f"wrote {mpath}")
        for name, stat in conservation.items():
            if "relative_drift" in stat:
                print(f"  {name}: relative drift {stat['relative_drift']:.3e}")
            else:
                print(f"  {name}: {stat['initial']:.6g}")
    return manifest


def _csv_rows(header: str, table, index) -> List[str]:
    """CSV lines: the header, then per row of table its index label and its values.

    table is an (n, k) float array; each value is written with 17 significant
    digits, so it reads back as the same float.
    """
    line = "%s" + ",%.17g" * table.shape[1]
    return [header] + [line % (i, *row) for i, row in zip(index, table.tolist())]


def _run_particle(config: ScenarioConfig, out_dir: str):
    model, state, params = build_particle_model(config)
    traj = integrate_particle(model, state, params)
    energy_name = "energy" if "energy" in INVARIANTS[model.kind] else "rest_mass"
    c = traj.columns()
    wbar = model.field.wbar_many(c.r, c.t)
    energy = traj.invariants(names=[energy_name])[energy_name]
    table = np.column_stack([c.tau, c.t, c.r, c.p, wbar, energy])
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise traj.annotate(PhysicsDomainError("non-finite run CSV value"), int(np.argmax(bad)))
    rows = _csv_rows(PARTICLE_HEADER, table, range(len(table)))
    csv_path = _write(out_dir, f"{config.name}.csv", rows)
    # the long companion: rows (step, axis, series, value), wbar then energy per step,
    # cut from the run CSV's cells (step, tau, t, ..., wbar, energy) as they are written
    axis = 2 if traj.time_axis == "lab" else 1
    cells = (row.split(",") for row in rows[1:])
    long_rows = ["step,axis,series,value"] + [
        f"{c[0]},{c[axis]},{name},{c[k]}" for c in cells for name, k in (("wbar", 9), ("energy", 10))
    ]
    return traj.report.to_dict(), [csv_path, _write(out_dir, f"{config.name}_long.csv", long_rows)]


def build_string_state(config: ScenarioConfig):
    data = config.data
    grid = strings_mod.StringGrid.uniform(
        data["grid"]["sigma_min"], data["grid"]["sigma_max"], data["grid"]["n"]
    )
    init = data["initial"]
    start, end = Vec3(*init["start"]), Vec3(*init["end"])
    if init["kind"] == "line":
        state = strings_mod.straight_string(grid, start, end)
    else:
        state = strings_mod.plucked_string(
            grid,
            start,
            end,
            amplitude=init["amplitude"],
            width=init["width"],
            direction=Vec3(*init["direction"]),
        )
    field = build_field(data["field"], 1.0)
    params = IntegrationParams(**data["integration"])
    return state, field, params


def _run_string(config: ScenarioConfig, out_dir: str):
    state, field, params = build_string_state(config)
    traj = integrate_string(state, field, params)
    last, n = len(traj.tau) - 1, state.grid.n
    written = [*range(0, last, max(1, params.n_steps // 50)), last]
    block = traj.state(written)
    dens = strings_mod.node_energy_density(block, field)
    table = np.column_stack([np.repeat(block.tau, n), np.tile(state.grid.sigma, len(written)),
                             block.r.reshape(-1, 3), block.p.reshape(-1, 3), dens.reshape(-1)])
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise traj.annotate(PhysicsDomainError("non-finite string CSV value"), written[np.argmax(bad) // n])
    rows = _csv_rows(STRING_HEADER, table, np.repeat(written, n).tolist())
    return traj.report.to_dict(), [_write(out_dir, f"{config.name}.csv", rows)]


def _run_conformal(config: ScenarioConfig, out_dir: str):
    from .conformal_cases import harmonic_case, manufactured_case

    data = config.data
    n_sigma, n_s = data["grid"]["n_sigma"], data["grid"]["n_s"]
    if data["problem"] == "laplace-harmonic":
        case = harmonic_case(n_sigma, n_s)
    else:
        case = manufactured_case(n_sigma, n_s)
    solved, result = conformal_mod.solve_conformal(
        case.boundary, case.field, tol=data["tol"], max_iters=data["max_iters"],
        forcing=case.forcing,
    )
    err = float(np.max(np.abs(solved.xi - case.exact.xi)))
    # solver outcomes are single values, not drifts: each is kept as <name>.initial
    outcomes = {
        "iterations": float(result.iterations),
        "final_residual": result.final_residual,
        "max_error_vs_exact": err,
        "max_gauge_defect": solved.max_gauge_defect(),
    }
    report = {name: {"initial": value} for name, value in outcomes.items()}
    sigma, s = np.meshgrid(solved.sigma, solved.s, indexing="ij")
    table = np.column_stack([sigma.ravel(), s.ravel(), solved.xi.reshape(-1, 4)])
    index = [f"{i},{j}" for i in range(n_sigma) for j in range(n_s)]
    rows = _csv_rows("i,j,sigma,s,xi0,xi1,xi2,xi3", table, index)
    return report, [_write(out_dir, f"{config.name}.csv", rows)]


# --- compare -----------------------------------------------------------------------


def compare_models(configs: List[ScenarioConfig], alignment: str = "by_t"):
    """Integrate two particle scenarios with shared initial kinematics and diff them."""
    if alignment not in ("by_t", "by_tau"):
        raise ValidationError("alignment must be by_t or by_tau")
    if len(configs) != 2:
        raise ValidationError(f"compare needs exactly two particle configs, got {len(configs)}")
    built = []
    for cfg in configs:
        if cfg.kind != "particle":
            raise ValidationError("compare supports particle scenarios only")
        model, state, params = build_particle_model(cfg)
        params = replace(params, time_axis=axis_for(model.kind, params.time_axis, "compare"))
        built.append((cfg, model, state, params))
    ref, other = built
    if list(other[2].r) != list(ref[2].r) or list(other[2].u) != list(ref[2].u):
        raise MisalignedScenariosError("initial kinematics differ between configs")
    if other[3].step != ref[3].step or other[3].n_steps != ref[3].n_steps:
        raise MisalignedScenariosError("integration grids differ between configs")

    trajectories = []
    for cfg, model, state, params in built:
        trajectories.append((model, integrate_particle(model, state, params)))

    (ref_model, ref_traj), (_, other_traj) = trajectories
    a, b = ref_traj.columns(), other_traj.columns()
    axis_a = a.t if alignment == "by_t" else a.tau
    axis_b = b.t if alignment == "by_t" else b.tau
    fx, fy, fz = interaction_extra_force(ref_model.charge, a.u.T, ref_model.field, a.r.T, a.t)
    fc = np.sqrt((fx * fx + fy * fy) + fz * fz)  # in the order of Vec3.norm
    # the other run at the reference's t or tau: its own rows where the grids agree
    # (np.interp returns fp[j] at xp[j]), interpolated where adaptive grids differ
    rb = np.column_stack([np.interp(axis_a, axis_b, b.r[:, k]) for k in range(3)])
    pb = np.column_stack([np.interp(axis_a, axis_b, b.p[:, k]) for k in range(3)])
    dist = np.sqrt(norm2_rows(a.r - rb))
    pgap = np.sqrt(norm2_rows(a.p - pb))
    table = np.column_stack([axis_a, dist, pgap, fc])
    return _csv_rows(COMPARE_HEADER, table, range(len(table))), trajectories


# --- audit -------------------------------------------------------------------------


_AUDIT_KINDS = {
    ModelKind.CLASSICAL: LagrangianKind.CLASSICAL_POINT,
    ModelKind.CONSTRAINED: LagrangianKind.CONSTRAINED_POINT,
    ModelKind.VACUUM_FREE: LagrangianKind.VACUUM_FREE_POINT,
    ModelKind.VACUUM_INTERACTING: LagrangianKind.VACUUM_INTERACTING_POINT,
}


def _audit_path(config: ScenarioConfig, nodes: int = 0):
    """(spec, path): a particle scenario's Lagrangian and its integrated path."""
    if nodes < 0:
        raise ValidationError(f"--nodes must be >= 0 (0 = every step), got {nodes}")
    if config.kind != "particle":
        raise ValidationError("audit supports particle scenarios only")
    model, state, params = build_particle_model(config)
    if params.method == "rk45" and model.kind is not ModelKind.CONSTRAINED:
        # only the constrained model resamples adaptive rows onto a uniform path
        raise ValidationError(
            f"audit of a {model.kind.value} model needs method rk4: "
            "rk45 rows are not a uniform path"
        )
    params = replace(params, time_axis=axis_for(model.kind, params.time_axis, "audit"))
    if model.kind is ModelKind.CONSTRAINED:
        m = nodes or min(400, params.n_steps)
    else:
        stride = max(1, params.n_steps // nodes) if nodes else 1
        m = len(range(0, params.n_steps + 1, stride))
    if m < 5:
        raise ValidationError(f"audit needs at least 5 path nodes; --nodes {nodes} and "
                              f"integration.n_steps {params.n_steps} give {m}")
    spec = LagrangianSpec(
        kind=_AUDIT_KINDS[model.kind],
        field=model.field,
        m0=model.rest_mass,
        charge=model.charge,
    )
    traj = integrate_particle(model, state, params)
    if model.kind is ModelKind.CONSTRAINED:
        # the resampling's cubic stencil needs 4 rows, and an rk45 run keeps only those it accepts
        if len(traj.x) < 4:
            raise ValidationError(f"audit of an {params.method} run needs at least 4 accepted rows; "
                                  f"integration.step {params.step} and n_steps {params.n_steps} "
                                  f"gave {len(traj.x)}")
        return spec, uniform_proper_path(traj, m)
    return spec, path_from_trajectory(traj, stride=stride)


def audit_scenario(config: ScenarioConfig, nodes: int = 0):
    """(rows, worst): a particle scenario's audit CSV rows and its largest residual norm.

    Integrates the scenario and measures its discrete action stationarity.
    """
    spec, path = _audit_path(config, nodes)
    residuals = euler_lagrange_residual(spec, path)
    norms = np.sqrt(np.einsum("ij,ij->i", residuals, residuals))
    table = np.column_stack([path.s[1:-1], residuals, norms])
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():  # a non-finite residual measures nothing: a domain abort, as in the run CSV
        node = int(np.argmax(bad)) + 1
        raise PhysicsDomainError(f"non-finite audit residual at node {node} [s={path.s[node]:.9g}]",
                                 where=node)
    return _csv_rows(AUDIT_HEADER, table, range(1, path.m - 1)), float(np.max(norms))


# --- self-check battery ---------------------------------------------------------------


def check_battery(quiet: bool = False) -> List[tuple]:
    """Fast invariant suite: (name, passed, detail) per check."""
    from . import checks

    results = checks.run_all()
    if not quiet:
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return results


# --- entry point ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _add_overrides(p):
    p.add_argument("--out", help="output directory override")
    p.add_argument("--steps", type=int, help="override integration.n_steps")
    p.add_argument("--step", type=float, help="override integration.step")
    p.add_argument("--tol", type=float, help="override integration.rel_tol")
    p.add_argument("--quiet", action="store_true")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _Parser(prog="vacuumlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config")
    _add_overrides(p_run)

    p_cmp = sub.add_parser("compare", help="compare two particle scenarios")
    p_cmp.add_argument("configs", nargs="+")
    p_cmp.add_argument("--alignment", choices=("by_t", "by_tau"), default="by_t")
    _add_overrides(p_cmp)

    p_aud = sub.add_parser("audit", help="variational residual pass over a scenario")
    p_aud.add_argument("config")
    p_aud.add_argument("--nodes", type=int, default=0, help="path nodes (0 = every step)")
    _add_overrides(p_aud)

    p_chk = sub.add_parser("check", help="run the self-test invariant suite")
    p_chk.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    overrides = {
        "out": getattr(args, "out", None),
        "n_steps": getattr(args, "steps", None),
        "step": getattr(args, "step", None),
        "rel_tol": getattr(args, "tol", None),
    }

    # non-finite numbers are caught by explicit checks and exit 2; NumPy's
    # floating-point warnings would only add stderr lines to that one error
    with np.errstate(all="ignore"):
        try:
            if args.command == "run":
                config = parse_config(args.config, overrides)
                run_scenario(config, quiet=args.quiet)
            elif args.command in ("compare", "audit"):
                if args.command == "compare":
                    configs = [parse_config(c, overrides) for c in args.configs]
                    rows, _ = compare_models(configs, alignment=args.alignment)
                    filename, note = "compare.csv", ""
                else:
                    configs = [parse_config(args.config, overrides)]
                    rows, worst = audit_scenario(configs[0], nodes=args.nodes)
                    filename = f"{configs[0].name}_audit.csv"
                    note = f" (max residual {worst:.3e})"
                path = _write(configs[0].data["output"]["directory"], filename, rows)
                if not args.quiet:
                    print(f"wrote {path}{note}")
            else:
                results = check_battery(quiet=args.quiet)
                if not all(ok for _, ok, _ in results):
                    return 2
            return 0
        except (ParseError, ValidationError, MisalignedScenariosError, InvalidSourceError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        except OSError as exc:
            # parse_config reports unreadable scenarios itself: this is an output write
            sys.stderr.write(f"error: cannot write outputs: {exc}\n")
            return 1
        except MemoryError as exc:
            # a grid or a step count too large to allocate is an input error
            sys.stderr.write(f"error: input too large: {exc}\n")
            return 1
        except PhysicsDomainError as exc:
            sys.stderr.write(f"physics abort: {exc}\n")
            return 2
        except (ConvergenceError, StepFailureError) as exc:
            sys.stderr.write(f"no convergence: {exc}\n")
            return 3


if __name__ == "__main__":
    sys.exit(main())
