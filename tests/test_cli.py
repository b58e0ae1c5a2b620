import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from vacuumlab import cli
from vacuumlab.errors import (
    MisalignedScenariosError,
    ParseError,
    SuperluminalVelocityError,
    ValidationError,
)
from vacuumlab.geometry import FLOATS
from vacuumlab.integrate import IntegrationParams
from vacuumlab.particle import INVARIANTS, ModelKind

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario(name):
    return os.path.join(SCENARIOS, name)


def load_scenario(name):
    with open(scenario(name)) as fh:
        return yaml.safe_load(fh)


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def minimal_particle(out_dir):
    return {
        "name": "mini",
        "kind": "particle",
        "model": "vacuum-free",
        "charge": 1.0,
        "field": {"kind": "uniform", "strength": -1.0},
        "initial": {"r": [0, 0, 0], "u": [0.2, 0, 0]},
        "integration": {"step": 1e-3, "n_steps": 50},
        "output": {"directory": out_dir},
    }


def test_parse_minimal_fills_defaults(tmp_path):
    path = write_config(tmp_path, minimal_particle(str(tmp_path / "out")))
    cfg = cli.parse_config(path)
    assert cfg.data["integration"]["method"] == "rk4"
    assert cfg.data["integration"]["audit_every"] == 10
    assert cfg.config_hash


def test_parse_superluminal_rejected(tmp_path):
    data = minimal_particle(str(tmp_path / "out"))
    data["initial"]["u"] = [1.2, 0, 0]
    with pytest.raises(ValidationError, match="superluminal"):
        cli.parse_config(write_config(tmp_path, data))


def test_parse_unknown_model_lists_kinds(tmp_path):
    data = minimal_particle(str(tmp_path / "out"))
    data["model"] = "warp-drive"
    with pytest.raises(ValidationError) as err:
        cli.parse_config(write_config(tmp_path, data))
    assert "classical" in str(err.value) and "vacuum-free" in str(err.value)


def test_parse_missing_file():
    with pytest.raises(ParseError):
        cli.parse_config("/nonexistent/path.yaml")


def test_hash_stable_across_reformatting(tmp_path):
    data = minimal_particle(str(tmp_path / "out"))
    p1 = write_config(tmp_path, data, "a.yaml")
    text = yaml.safe_dump(data, default_flow_style=True, indent=4)
    p2 = tmp_path / "b.yaml"
    p2.write_text(text)
    assert cli.parse_config(p1).config_hash == cli.parse_config(str(p2)).config_hash


def test_run_writes_csv_and_manifest(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, minimal_particle(out))
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 0
    csv_path = os.path.join(out, "mini.csv")
    with open(csv_path) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == cli.PARTICLE_HEADER
    assert len(first) == 11
    manifest = json.loads(pathlib.Path(out, "mini.manifest.json").read_text())
    assert manifest["exit_status"] == 0
    assert manifest["config_hash"]
    assert "hamiltonian" in manifest["conservation"]


def test_rerun_bit_identical(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, minimal_particle(out))
    assert cli.main(["run", path, "--quiet"]) == 0
    csv_path = os.path.join(out, "mini.csv")
    manifest_path = pathlib.Path(out, "mini.manifest.json")
    first = pathlib.Path(csv_path).read_bytes()
    manifest1 = json.loads(manifest_path.read_text())
    assert cli.main(["run", path, "--quiet"]) == 0
    second = pathlib.Path(csv_path).read_bytes()
    manifest2 = json.loads(manifest_path.read_text())
    assert first == second
    assert manifest1["config_hash"] == manifest2["config_hash"]


def test_run_shipped_string_scenario(tmp_path):
    rc = cli.main(
        ["run", scenario("string_static.yaml"), "--out", str(tmp_path), "--steps", "50",
         "--quiet"]
    )
    assert rc == 0
    with open(tmp_path / "string-static.csv") as fh:
        assert fh.readline().strip() == cli.STRING_HEADER


def test_run_conformal_scenario(tmp_path):
    rc = cli.main(["run", scenario("conformal_laplace.yaml"), "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    manifest = json.loads((tmp_path / "conformal-laplace.manifest.json").read_text())
    assert manifest["conservation"]["max_error_vs_exact"]["initial"] < 1e-7


def test_compare_zero_gap_for_matched_uniform_field(tmp_path):
    rc = cli.main(
        [
            "compare",
            scenario("compare_uniform_field.yaml"),
            scenario("compare_classical_uniform.yaml"),
            "--out",
            str(tmp_path),
            "--quiet",
        ]
    )
    assert rc == 0
    with open(tmp_path / "compare.csv") as fh:
        header = fh.readline().strip()
        assert header == cli.COMPARE_HEADER
        for line in fh:
            _, _, dist, pgap, fc = line.strip().split(",")
            assert abs(float(dist)) < 1e-12
            assert abs(float(pgap)) < 1e-12
            assert abs(float(fc)) < 1e-15


def test_compare_rejects_three_configs(tmp_path, capsys):
    pair = [scenario("compare_uniform_field.yaml"), scenario("compare_classical_uniform.yaml")]
    rc = cli.main(["compare", *pair, pair[0], "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    assert "exactly two" in capsys.readouterr().err
    assert not (tmp_path / "compare.csv").exists()


def test_compare_rejects_mismatched_initials(tmp_path):
    cfg_a = cli.parse_config(scenario("compare_uniform_field.yaml"))
    data = load_scenario("compare_classical_uniform.yaml")
    data["initial"]["u"] = [0.25, 0.1, 0.0]
    cfg_b = cli.parse_config(write_config(tmp_path, data))
    with pytest.raises(MisalignedScenariosError):
        cli.compare_models([cfg_a, cfg_b])


def test_compare_by_t_interpolates_differing_adaptive_grids(tmp_path, capsys):
    # one launch on rk45 in two fields: the adaptive steps differ, 7 and 16 rows
    ref = load_scenario("compare_uniform_field.yaml")
    other = load_scenario("compare_classical_uniform.yaml")
    other["field"] = {"kind": "linear", "w0": ref["field"]["strength"], "gradient": [0.5, 0, 0]}
    for data in (ref, other):
        data["integration"]["method"] = "rk45"
    pair = [write_config(tmp_path, ref, "a.yaml"), write_config(tmp_path, other, "b.yaml")]
    rc = cli.main(["compare", *pair, "--out", str(tmp_path), "--quiet"])
    assert (rc, capsys.readouterr().err) == (0, "")
    _, ((_, a), (_, b)) = cli.compare_models([cli.parse_config(p) for p in pair])
    assert (len(a.x), len(b.x)) == (7, 16)
    with open(tmp_path / "compare.csv") as fh:
        aligned = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
    assert aligned == a.x.tolist()  # one row per reference t


def test_audit_verb(tmp_path):
    rc = cli.main(
        [
            "audit",
            scenario("vacuum_free_coulomb.yaml"),
            "--out",
            str(tmp_path),
            "--steps",
            "2000",
            "--nodes",
            "200",
            "--quiet",
        ]
    )
    assert rc == 0
    with open(tmp_path / "vacuum-free-coulomb_audit.csv") as fh:
        assert fh.readline().strip() == cli.AUDIT_HEADER
        rows = fh.readlines()
    assert rows
    worst = max(float(row.split(",")[-1]) for row in rows)
    assert worst < 1e-3


def test_exit_code_usage_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unterminated")
    assert cli.main(["run", str(bad), "--quiet"]) == 1
    data = minimal_particle(str(tmp_path))
    data["kind"] = "plasma"
    assert cli.main(["run", write_config(tmp_path, data), "--quiet"]) == 1


def test_exit_code_physics_abort(tmp_path):
    data = {
        "name": "blowup",
        "kind": "string",
        "field": {"kind": "uniform", "strength": -1.0},
        "grid": {"n": 32},
        "initial": {
            "kind": "pluck",
            "start": [0, 0, 0],
            "end": [1, 0, 0],
            "amplitude": 0.9,
            "width": 0.05,
            "direction": [0, 1, 0],
        },
        "integration": {"step": 5e-3, "n_steps": 5000},
        "output": {"directory": str(tmp_path / "out")},
    }
    assert cli.main(["run", write_config(tmp_path, data), "--quiet"]) == 2


def test_exit_code_no_convergence(tmp_path):
    data = {
        "name": "stuck",
        "kind": "conformal",
        "problem": "laplace-harmonic",
        "grid": {"n_sigma": 17, "n_s": 17},
        "tol": 1e-30,
        "max_iters": 2,
        "output": {"directory": str(tmp_path / "out")},
    }
    assert cli.main(["run", write_config(tmp_path, data), "--quiet"]) == 3


def test_full_precision_floats(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, minimal_particle(out))
    cli.main(["run", path, "--quiet"])
    with open(os.path.join(out, "mini.csv")) as fh:
        fh.readline()
        row = fh.readline().strip().split(",")
    # a third of the numbers should round-trip exactly through repr
    val = float(row[2])
    assert format(val, ".17g") == row[2]


def test_csv_rows_equal_the_format_method_row_for_row():
    tiny = 2.2250738585072014e-308
    values = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny, 1e16, 1e17, -1e17, 1e16 + 2.0,
              123456789012345678.0, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
              1.0 / 3.0, math.pi * 1e-5, math.inf, -math.inf, math.nan, 7.0, -2.5]
    table = np.array(values).reshape(-1, 3)
    k = table.shape[1]
    for index in (range(len(table)), [f"{i},{i + 1}" for i in range(len(table))],
                  np.repeat([0, 5, 9, 12], 2)[: len(table)].tolist()):
        expected = ["h"] + [("{}" + ",{:.17g}" * k).format(i, *row)
                            for i, row in zip(index, table.tolist())]
        assert cli._csv_rows("h", table, index) == expected
    assert cli._csv_rows("h", table, ["3,4"])[1] == "3,4,0,-0,4.9406564584124654e-324"


def test_integration_defaults_are_the_dataclass_defaults(tmp_path):
    names = [f.name for f in dataclasses.fields(IntegrationParams)]
    assert list(cli._INTEGRATION) == names
    defaults = {"step": 1e-3, "n_steps": 1000}
    assert IntegrationParams(**cli._INTEGRATION) == IntegrationParams(**defaults)
    data = minimal_particle(str(tmp_path / "out"))
    del data["integration"]
    _, _, params = cli.build_particle_model(cli.parse_config(write_config(tmp_path, data)))
    assert params == IntegrationParams(**defaults)


def test_usage_error_exit_code_for_bad_flags():
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--no-such-flag"])
    assert err.value.code == 1


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vacuumlab", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: vacuumlab" in proc.stdout


def test_compare_nonuniform_vecpot_fc_column(tmp_path):
    base = load_scenario("vacuum_interacting_codrift.yaml")
    base["integration"]["n_steps"] = 200
    twin = dict(base, name="codrift-classical", model="classical", rest_mass=1.0)
    cfg_a = cli.parse_config(write_config(tmp_path, base, "a.yaml"))
    cfg_b = cli.parse_config(write_config(tmp_path, twin, "b.yaml"))
    rows, trajectories = cli.compare_models([cfg_a, cfg_b])
    fc_vals = [float(r.split(",")[4]) for r in rows[1:]]
    assert max(fc_vals) > 1e-6  # the extra force is alive in this field
    # spot-check one row against a hand-assembled gradient of <u, qA>
    from vacuumlab.geometry import Vec3
    import numpy as np

    model, traj = trajectories[0]
    s = traj.samples[100]
    jac = model.field.grad_vecpot(s.r, s.t)
    expected = np.linalg.norm(model.charge * (jac.T @ np.array(list(s.u))))
    assert fc_vals[100] == pytest.approx(expected, rel=1e-12)


def _always_reject(f, x, y, h, rel_tol, abs_tol, k1):
    return False, y, 10.0


def _huge_gradient(data):
    # the energy overflows at step 1 and is audited first at step 5
    shipped = load_scenario("classical_uniform_e.yaml")
    shipped["field"]["gradient"] = [1e300, 0, 0]
    shipped["integration"]["n_steps"] = 50
    data.update({k: v for k, v in shipped.items() if k != "output"})


def _string_cell_on_source(data):
    # the shipped pluck on 8 nodes from x = -3.5 to 3.5: cell 3's midpoint is the
    # unsoftened source at the origin
    _shipped_with("string_pluck.yaml", "grid", "n", 8)(data)
    data["initial"].update(start=[-3.5, 0.0, 0.0], end=[3.5, 0.0, 0.0])
    data["field"] = {"kind": "coulomb-static", "softening": 0.0, "background": -1.0}


def _shipped_with(name, section, key, value):
    # the shipped scenario with one key of one section set to value
    def edit(data):
        shipped = load_scenario(name)
        shipped[section][key] = value
        shipped["output"] = data["output"]
        data.clear()
        data.update(shipped)

    return edit


def _pluck_of_width_1e_300_on(n):
    # a width whose square underflows: the Gaussian reads 0/0 at the middle node of an
    # odd grid (a physics abort) and exp(-inf) = 0 at every node of an even one (p = 0)
    def edit(data):
        _shipped_with("string_pluck.yaml", "grid", "n", n)(data)
        data["initial"]["width"] = 1.0e-300

    return edit


def _lab_model_on_the_proper_axis(data):
    data.update(model="classical", rest_mass=1.0)
    data["integration"]["time_axis"] = "proper"


# a lab-time model on the proper axis: every verb refuses it when it reads the file
LAB_MODEL_ON_THE_PROPER_AXIS = [
    (verb, _lab_model_on_the_proper_axis, 1,
     "error: integration.time_axis must be auto or lab for a classical model\n")
    for verb in ("run", "audit", "compare")
]
# a particle step count too large to keep: every verb refuses the run's rows before
# the first step, which the contract's stepper refuses to take; the vacuum-free state
# has 8 components on its own proper axis and 7 on the lab axis compare steps
PARTICLE_STEPS_TOO_LARGE = [
    (verb, lambda d: d["integration"].update(n_steps=10**15), 1,
     f"for an array with shape (1000000000000001, {k})")
    for verb, k in (("run", 8), ("audit", 8), ("compare", 7))
]
# an rk45 step below the adaptive step's floor, 1e-12 of the horizon: every verb
# refuses it when it reads the file, before the first step (which collapsed at once)
RK45_STEP_BELOW_ITS_FLOOR = [
    (verb, lambda d: d["integration"].update(method="rk45", n_steps=10**15), 1,
     "error: integration.step 0.001 lies below rk45's smallest step 1, 1e-12 of the horizon "
     "of integration.n_steps 1000000000000000\n")
    for verb in ("run", "audit", "compare")
]
# a vacuum model on the axis the verb does not step: audit steps its own
# (proper) clock and compare lab time, and neither overrides the scenario
VACUUM_MODEL_ON_THE_OTHER_AXIS = [
    ("audit", lambda d: d["integration"].update(time_axis="lab"), 1,
     "error: integration.time_axis must be auto or proper for audit of a vacuum-free model\n"),
    ("compare", lambda d: d["integration"].update(time_axis="proper"), 1,
     "error: integration.time_axis must be auto or lab for compare of a vacuum-free model\n"),
]


def _far_launch(data):
    # the run is finite, but the oracle perturbs by 1e-6 max|r| = 1e194, whose
    # difference velocity squares to inf: every residual is NaN
    data["initial"].update(r=[1.0e200, 0, 0], u=[0.1, 0, 0])
    data["integration"]["n_steps"] = 20


def _interacting_in_uniform_b(data):
    data.update(model="vacuum-interacting", field={"kind": "uniform-b", "b": [0, 0, 1], "wbar0": -1})
    data["initial"]["u"] = [0.3, 0, 0]


# a non-finite audit residual is a physics abort naming its node, as a run CSV's value is
NON_FINITE_AUDIT = [
    ("audit", _far_launch, 2, "physics abort: non-finite audit residual at node 1 [s=0.001]\n"),
]
# the interacting force is gauge-dependent outside qA = wbar u_f: every verb refuses
# such a field when it reads the file (audit's refusal has its own test)
INTERACTING_OUTSIDE_ITS_FIELDS = [
    (verb, _interacting_in_uniform_b, 1,
     "error: field.kind 'uniform-b' is not covered by the vacuum-interacting model")
    for verb in ("run", "compare")
]


@pytest.mark.parametrize(
    "verb, edit, code, message",
    [("run", *case) for case in [
        (
            lambda d: d.update(field={"kind": "coulomb-static", "softening": 0.0,
                                      "background": -1.0}),
            2,
            "point source",
        ),
        # the launch audit evaluates the field first and names the launch row
        (
            lambda d: d.update(model="classical", rest_mass=1.0,
                               field={"kind": "coulomb-static", "softening": 0.0,
                                      "background": -1.0}),
            2,
            "physics abort: unsoftened point source evaluated at its own position (t=0) [t=0]\n",
        ),
        (
            _string_cell_on_source,
            2,
            "physics abort: unsoftened point source evaluated at its own position (t=0) [tau=0]\n",
        ),
        (lambda d: d.update(field={"kind": "linear", "w0": math.nan}), 1, "field.w0"),
        (lambda d: d["integration"].update(step=math.inf), 1, "integration.step"),
        (lambda d: d.update(kind="string", grid={"n": "abc"}), 1, "grid.n"),
        (lambda d: d["integration"].update(method="rk45"), 3, "step collapsed"),
        (_huge_gradient, 2, "non-finite energy inf [t=0.0025]"),
        (lambda d: d["integration"].update(n_steps=100.5), 1, "integration.n_steps"),
        # r0 for r_f0: read by nothing, it left the source at the origin, under the particle
        (
            lambda d: d.update(field={"kind": "coulomb-static", "softening": 0.0,
                                      "r0": [0.5, 0, 0]}),
            1,
            "unknown config key 'field.r0'",
        ),
        # the name is the stem of each output file, so a path in it is refused
        (lambda d: d.update(name="sub/pluck"), 1, "config key 'name'"),
        (lambda d: d.update(name="../escaped"), 1, "config key 'name'"),
        (lambda d: d.update(name="sub\\pluck"), 1, "config key 'name'"),
        (lambda d: d.update(name="a\0b"), 1, "config key 'name'"),
        (lambda d: d["output"].update(directory="a\0b"), 1, "output.directory"),
        # the output directory's path is taken by a regular file
        (lambda d: pathlib.Path(d["output"]["directory"]).write_text(""), 1,
         "cannot write outputs"),
        # sizes too large to allocate: NumPy refuses their arrays (7 PiB) at once, so
        # the cases allocate nothing
        (_shipped_with("string_pluck.yaml", "grid", "n", 1.0e15), 1, "input too large"),
        (_shipped_with("conformal_laplace.yaml", "grid", "n_sigma", 1.0e15), 1, "input too large"),
        (_shipped_with("string_pluck.yaml", "integration", "n_steps", 10**15), 1, "input too large"),
        # a zero test charge in a Coulomb field is an input error, as strength 0 is
        (
            lambda d: d.update(charge=0, field={"kind": "coulomb-static", "softening": 0.1,
                                                "background": -1.0}),
            1,
            "charge must be nonzero",
        ),
        # a string run steps its proper time tau: a lab axis would be silently ignored
        (_shipped_with("string_pluck.yaml", "integration", "time_axis", "lab"), 1, "time_axis"),
        *[(_pluck_of_width_1e_300_on(n), 1,
           "error: initial.width must have a positive square for a pluck, got 1e-300\n")
          for n in (9, 64)],
    ]] + PARTICLE_STEPS_TOO_LARGE + RK45_STEP_BELOW_ITS_FLOOR + LAB_MODEL_ON_THE_PROPER_AXIS
    + VACUUM_MODEL_ON_THE_OTHER_AXIS + NON_FINITE_AUDIT + INTERACTING_OUTSIDE_ITS_FIELDS,
    ids=["singular-source", "classical-on-source", "string-cell-on-source", "nan-w0", "inf-step",
         "non-integer-grid", "step-collapse", "non-finite-energy", "fractional-steps",
         "misspelled-source-key", "name-with-slash", "name-climbing-out", "name-with-backslash",
         "name-with-nul", "directory-with-nul", "out-is-a-file", "string-grid-too-large",
         "conformal-grid-too-large", "string-steps-too-large", "coulomb-zero-charge",
         "string-lab-axis", "pluck-width-square-underflows-odd-grid",
         "pluck-width-square-underflows-even-grid", "run-particle-steps-too-large", "audit-particle-steps-too-large",
         "compare-particle-steps-too-large", "run-rk45-step-below-floor", "audit-rk45-step-below-floor",
         "compare-rk45-step-below-floor", "run-lab-model-proper-axis", "audit-lab-model-proper-axis",
         "compare-lab-model-proper-axis", "audit-vacuum-model-lab-axis",
         "compare-vacuum-model-proper-axis", "audit-non-finite-residual",
         "run-interacting-in-uniform-b", "compare-interacting-in-uniform-b"],
)
def test_exit_code_contract(tmp_path, capsys, monkeypatch, verb, edit, code, message):
    import vacuumlab.integrate as integ

    # only the rk45 case reaches the adaptive stepper, which then never accepts
    monkeypatch.setattr(integ, "rkf45_step", _always_reject)
    march = integ._march

    def bounded_march(rhs, check, x, y, params, label):  # a missing refusal fails, not hangs
        if params.n_steps >= 10**15:
            pytest.fail(f"a run of {params.n_steps} steps was stepped")
        return march(rhs, check, x, y, params, label)

    monkeypatch.setattr(integ, "_march", bounded_march)
    data = minimal_particle(str(tmp_path / "out"))
    edit(data)
    configs = [write_config(tmp_path, data)] * (2 if verb == "compare" else 1)
    assert cli.main([verb, *configs, "--quiet"]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.yaml", "out"}


@pytest.mark.parametrize("verb", ["run", "audit"])
def test_scenario_files_that_cannot_be_read_or_written_exit_1(tmp_path, capsys, verb):
    (tmp_path / "latin1.yaml").write_bytes(b"name: caf\xe9\n")
    (tmp_path / "taken").write_text("")
    inner = tmp_path / "X" / "inner"
    escaping = minimal_particle(str(inner))
    escaping["name"] = "../escaped"
    cases = [
        ([verb, SCENARIOS], "cannot read scenario file"),  # a directory
        ([verb, str(tmp_path / "latin1.yaml")], "cannot read scenario file"),
        ([verb, scenario("classical_gyro.yaml"), "--out", str(tmp_path / "taken")],
         "cannot write outputs"),
        ([verb, write_config(tmp_path, escaping), "--out", str(inner)], "config key 'name'"),
    ]
    for argv, message in cases:
        assert cli.main([*argv, "--steps", "5", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and message in err, argv
    assert not (tmp_path / "X").exists()
    assert (tmp_path / "taken").read_text() == ""


# the `vacuumlab check` battery in its order; removing or renaming a check changes this list
BATTERY = [
    "field-gradient-fd", "wave-residual-static-coulomb", "gyro-orbit-closure",
    "extra-force-fd-oracle", "vacuum-free-energy-drift", "interacting-hamiltonian-drift",
    "constrained-vs-classical", "string-static-equilibrium", "string-pluck-drift",
    "string-gradient-fd", "conformal-laplace-17", "alt-hamiltonian-gap", "determinism",
]


def test_check_quiet_passes_the_pinned_battery_silently(capsys):
    from vacuumlab import checks

    assert [name for name, _ in checks._ALL] == BATTERY
    assert cli.main(["check", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")


def _raises():
    raise ArithmeticError("no number")


@pytest.mark.parametrize(
    "bad, line",
    [(lambda: (False, "defect 1.0"), "FAIL  bad: defect 1.0"),
     (_raises, "FAIL  bad: raised ArithmeticError: no number")],
    ids=["fails", "raises"],
)
def test_a_failing_check_exits_2(capsys, monkeypatch, bad, line):
    from vacuumlab import checks

    monkeypatch.setattr(checks, "_ALL", [("good", lambda: (True, "fine")), ("bad", bad)])
    assert cli.main(["check"]) == 2
    assert capsys.readouterr() == (f"PASS  good: fine\n{line}\n", "")
    assert cli.main(["check", "--quiet"]) == 2
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "shipped, edit, key",
    [
        ("vacuum_free_coulomb.yaml", lambda d: d.update(bogus=1), "bogus"),
        ("vacuum_free_coulomb.yaml", lambda d: d["field"].update(r0=[0.5, 0, 0]), "field.r0"),
        ("vacuum_free_coulomb.yaml", lambda d: d["initial"].update(p=[0, 0, 0]), "initial.p"),
        ("vacuum_free_coulomb.yaml", lambda d: d["integration"].update(steps=10),
         "integration.steps"),
        # a vacuum model's mass is -wbar, and a line reads no pluck shape
        ("vacuum_free_coulomb.yaml", lambda d: d.update(rest_mass=1.0), "rest_mass"),
        ("string_static.yaml", lambda d: d["initial"].update(amplitude=0.02), "initial.amplitude"),
        ("string_static.yaml", lambda d: d["initial"].update(width=0.1), "initial.width"),
        ("string_static.yaml", lambda d: d["initial"].update(direction=[0, 0, 1]),
         "initial.direction"),
        ("string_pluck.yaml", lambda d: d.update(bogus=1), "bogus"),
        ("string_pluck.yaml", lambda d: d["grid"].update(nodes=16), "grid.nodes"),
        ("string_pluck.yaml", lambda d: d["output"].update(dir="x"), "output.dir"),
        ("conformal_laplace.yaml", lambda d: d.update(n_steps=10), "n_steps"),
        ("conformal_laplace.yaml", lambda d: d["grid"].update(n=9), "grid.n"),
    ],
)
def test_a_key_nothing_reads_is_refused_by_name(tmp_path, shipped, edit, key):
    data = load_scenario(shipped)
    cli.parse_config(write_config(tmp_path, data))
    edit(data)
    with pytest.raises(ValidationError) as err:
        cli.parse_config(write_config(tmp_path, data))
    assert str(err.value) == f"unknown config key '{key}'"


def test_a_law_that_turns_nan_exits_3_on_rk45(tmp_path, capsys, monkeypatch):
    from vacuumlab import particle

    # every force after the first is NaN: each attempt's estimate is NaN, so
    # none is accepted and the step collapses, where accepting the NaN state
    # would end in a domain error (exit 2)
    calls, bind = [], particle.bind_law

    def turns_nan(model, axis, binding):
        law = bind(model, axis, binding)

        def nan_law(x, y):
            k, u, p = law(x, y)
            calls.append(x)
            return (k if len(calls) == 1 else k[:3] + (math.nan,) * 3 + k[6:]), u, p

        return nan_law

    monkeypatch.setattr(particle, "bind_law", turns_nan)
    data = minimal_particle(str(tmp_path / "out"))
    data["integration"]["method"] = "rk45"
    assert cli.main(["run", write_config(tmp_path, data), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("no convergence: adaptive step collapsed") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_a_last_state_whose_force_terms_fail_exits_2(tmp_path, capsys, monkeypatch):
    from vacuumlab import particle

    # the clock change of the proper axis is a force term, which fails where
    # |u - u_f| >= 1 while u is fine: a stubbed float-bound law fails so at
    # the last state only (the 4n + 1-th evaluation), and the check of that
    # state refuses it with its tau, where the run used to finish on it
    laws, bind = [], particle.bind_law

    def fails_last(model, axis, binding):
        law = bind(model, axis, binding)

        def stub(x, y):
            laws.append(x)
            if len(laws) == 4 * 50 + 1:
                raise SuperluminalVelocityError("|u - u_f| = 1.1 >= 1")
            return law(x, y)

        return stub if binding == FLOATS else law

    monkeypatch.setattr(particle, "bind_law", fails_last)
    data = minimal_particle(str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, data), "--quiet"]) == 2
    assert capsys.readouterr().err == "physics abort: |u - u_f| = 1.1 >= 1 [tau=0.05]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d.update(model="classical"), "rest_mass"),
        (lambda d: d.update(model="constrained", rest_mass=0.0), "rest_mass"),
        (lambda d: d.update(model="classical", rest_mass=-1.0), "rest_mass"),
        (lambda d: d.update(field={"kind": "coulomb-static", "softening": -1e-3}),
         "field.softening"),
        (lambda d: d.update(field={"kind": "coulomb-comoving", "background": 0.5}),
         "field.background"),
        (lambda d: d.update(field={"kind": "coulomb-static", "strength": 0.0}), "field.strength"),
        (lambda d: d.update(model="classical", rest_mass=1e-300), "rest_mass"),
        (lambda d: d.update(model="classical", rest_mass=1e300), "rest_mass"),
        (lambda d: d.update(field={"kind": "uniform", "strength": 0.0}), "field.strength"),
        (lambda d: d.update(field={"kind": "coulomb-static", "u_f": [0.1, 0.0, 0.0]}),
         "field.u_f"),
        (lambda d: d.update(field={"kind": "coulomb-comoving", "u_f": [1.0, 0.0, 0.0]}),
         "field.u_f:"),
    ],
    ids=["classical-no-mass", "constrained-zero-mass", "classical-negative-mass",
         "negative-softening", "positive-background", "zero-source-charge",
         "classical-mass-square-underflows", "classical-mass-square-overflows",
         "non-negative-uniform-strength", "moving-static-source", "superluminal-source"],
)
def test_config_values_are_refused_when_parsed(tmp_path, capsys, edit, key):
    data = minimal_particle(str(tmp_path / "out"))
    edit(data)
    path = write_config(tmp_path, data)
    with pytest.raises(ValidationError, match=key):
        cli.parse_config(path)
    assert cli.main(["run", path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {key} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "nodes, steps, message",
    [
        ("-5", "5", "--nodes must be >= 0"),
        ("3", "50", "audit needs at least 5 path nodes; --nodes 3 and integration.n_steps 50 give "),
        ("0", "2", "audit needs at least 5 path nodes; --nodes 0 and integration.n_steps 2 give "),
    ],
    ids=["negative-nodes", "too-few-nodes", "too-few-steps"],
)
@pytest.mark.parametrize("name", ["constrained_uniform_e", "vacuum_free_coulomb"])
def test_audit_refuses_negative_or_too_few_nodes(tmp_path, capsys, monkeypatch, name, nodes, steps, message):
    # a path too short for the oracle is refused by its flag and key, before integrating
    monkeypatch.setattr(cli, "integrate_particle", None)
    argv = ["audit", scenario(f"{name}.yaml"), "--nodes", nodes, "--out", str(tmp_path / "out")]
    assert cli.main([*argv, "--steps", steps, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "name, argv, message",
    [
        # the adaptive steps of the shipped run grow, so 5 steps' horizon takes 2 accepted steps
        ("constrained_rk45", ["--steps", "5"],
         "audit of an rk45 run needs at least 4 accepted rows; integration.step 0.0005 and n_steps 5 gave 3"),
        ("constrained_uniform_e", ["--steps", "2", "--nodes", "10"],
         "audit of an rk4 run needs at least 4 accepted rows; integration.step 0.0005 and n_steps 2 gave 3"),
    ],
    ids=["rk45", "rk4-with-nodes"],
)
def test_audit_refuses_a_constrained_run_too_short_to_resample(tmp_path, capsys, name, argv, message):
    # the real steppers decide the row count, which the cubic resampling needs 4 of
    out = tmp_path / "out"
    assert cli.main(["audit", scenario(f"{name}.yaml"), *argv, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("time_axis", ["lab", "proper"])
def test_long_companion_cells_equal_the_run_csv_cells(tmp_path, time_axis):
    data = load_scenario("vacuum_free_coulomb.yaml")
    data["integration"]["time_axis"] = time_axis
    out = tmp_path / "out"
    argv = ["run", write_config(tmp_path, data), "--out", str(out), "--steps", "20", "--quiet"]
    assert cli.main(argv) == 0
    name = data["name"]
    run = (out / f"{name}.csv").read_text().splitlines()
    long = (out / f"{name}_long.csv").read_text().splitlines()
    assert run[0] == cli.PARTICLE_HEADER  # wbar and energy are cells 9 and 10
    assert long[0] == "step,axis,series,value"
    assert len(long) - 1 == 2 * (len(run) - 1) == 42
    axis = run[0].split(",").index("t" if time_axis == "lab" else "tau")
    rows = [row.split(",") for row in run[1:]]
    assert all(cells[1] != cells[2] for cells in rows[1:])  # so the axis column is told apart
    for i, cells in enumerate(rows):
        assert long[1 + 2 * i] == f"{cells[0]},{cells[axis]},wbar,{cells[9]}"
        assert long[2 + 2 * i] == f"{cells[0]},{cells[axis]},energy,{cells[10]}"


@pytest.mark.parametrize(
    "name, invariant",
    [
        ("classical_gyro", "energy"),
        ("constrained_uniform_e", "rest_mass"),
        ("vacuum_free_coulomb", "energy"),
        ("vacuum_interacting_codrift", "energy"),
    ],
)
def test_csv_energy_is_the_audited_invariant(tmp_path, name, invariant):
    rc = cli.main(["run", scenario(f"{name}.yaml"), "--out", str(tmp_path), "--steps", "20",
                   "--quiet"])
    assert rc == 0
    stem = name.replace("_", "-")
    with open(tmp_path / f"{stem}.csv") as fh:
        fh.readline()
        row0 = fh.readline().strip().split(",")
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    assert float(row0[-1]) == manifest["conservation"][invariant]["initial"]


def test_audit_integrates_on_the_models_own_clock(tmp_path, capsys):
    # the vacuum densities assume the proper-time parameter: the shipped run
    # sets it, and a copy that sets the lab axis is refused, not overridden
    data = load_scenario("vacuum_free_coulomb.yaml")
    data["integration"]["time_axis"] = "lab"
    lab_copy = write_config(tmp_path, data)
    codes = []
    for path, out in ((scenario("vacuum_free_coulomb.yaml"), "shipped"), (lab_copy, "lab")):
        codes.append(cli.main(["audit", path, "--out", str(tmp_path / out), "--steps", "2000", "--quiet"]))
    assert codes == [0, 1]
    assert (tmp_path / "shipped" / "vacuum-free-coulomb_audit.csv").exists()
    assert not (tmp_path / "lab").exists()
    err = capsys.readouterr().err
    assert err == "error: integration.time_axis must be auto or proper for audit of a vacuum-free model\n"


def test_audit_refuses_a_field_the_interacting_oracle_does_not_cover(tmp_path, capsys):
    # qA = (1/2) B x r is not wbar u_f: the interacting density would be the wrong Lagrangian
    data = {
        "name": "interacting-uniform-b",
        "kind": "particle",
        "model": "vacuum-interacting",
        "field": {"kind": "uniform-b", "b": [0, 0, 1], "wbar0": -1.0},
        "initial": {"r": [0, 0, 0], "u": [0.3, 0, 0]},
        "integration": {"step": 1e-3, "n_steps": 2000},
        "output": {"directory": str(tmp_path / "out")},
    }
    rc = cli.main(["audit", write_config(tmp_path, data), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "'uniform-b'" in err
    assert not (tmp_path / "out").exists()


AUDITED = ["classical_gyro", "classical_uniform_e", "constrained_uniform_e", "vacuum_free_coulomb",
           "vacuum_interacting_codrift", "vacuum_interacting_generic"]


@pytest.mark.parametrize("name", AUDITED)
def test_audit_refuses_adaptive_rows_it_cannot_path(tmp_path, capsys, name):
    # only the constrained model resamples rk45 rows onto a uniform proper-time path
    data = load_scenario(f"{name}.yaml")
    data["integration"]["method"] = "rk45"
    argv = ["audit", write_config(tmp_path, data), "--out", str(tmp_path / "out"), "--steps",
            "200", "--quiet"]
    rc, err = cli.main(argv), capsys.readouterr().err
    if data["model"] == "constrained":
        assert (rc, err) == (0, "")
        return
    message = f"audit of a {data['model']} model needs method rk4: rk45 rows are not a uniform path"
    assert (rc, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()  # refused before it integrates


SHIPPED_RUNS = [
    [verb, name]
    for name in sorted(os.listdir(SCENARIOS)) if name.endswith(".yaml")
    for verb in ("run", "audit") if verb == "run" or load_scenario(name)["kind"] == "particle"
] + [["compare", "compare_classical_uniform.yaml", "compare_uniform_field.yaml"]]


# sha256 of every CSV of the shipped runs and audits at --steps 20.  A refactor must keep
# them; they may change only together with a recorded tolerance table of the
# old and new outputs.
SHIPPED_DIGESTS = {
    "run-classical_coulomb": {
        "classical-coulomb.csv": "3bbc3437240cb826ee1b5bd6b761d8f275bab2be376fa7753103ccc0fa80b45d",
        "classical-coulomb_long.csv": "4fe842d9de102a25939fc18788e65332b607fb4d09523761a8869d4a912609aa",
    },
    "run-classical_gyro": {
        "classical-gyro.csv": "dc7839d4d33771847d177cade5e1648175db30919dfd27c26ebb50e4b40b8493",
        "classical-gyro_long.csv": "6ce4582c6b7422ab8cb67a1bd07db410e8658401958933b5703f8319414c0414",
    },
    "run-classical_uniform_e": {
        "classical-uniform-e.csv": "2e6b66dd7b15826a462b5d14379f4dc3a48a206801f3dd46c87b759066c450b8",
        "classical-uniform-e_long.csv": "4ccbf36c15e618aa48d823dc8381e153aba874847580d9c9ee4115d2063e7920",
    },
    "run-compare_classical_uniform": {
        "compare-classical-uniform.csv": "29e0ca8ca57f7c6722252eef66dcd879bb6c1907bf508cb721fc37781c2a6bd5",
        "compare-classical-uniform_long.csv": "fd9bf2fbc67a2094af7682d9fab584fa399521f590c62d91a17dfe079d554e89",
    },
    "run-compare_uniform_field": {
        "compare-interacting-uniform.csv": "158e15df8aecf11399347a0441bb264be2b678764b5a59826208bf667e369f37",
        "compare-interacting-uniform_long.csv": "352e803d8de995e636d2fe63826d0c1873fcd90009610196c245a808d0802385",
    },
    "run-conformal_laplace": {
        "conformal-laplace.csv": "f88e080b693e0127641421a42607faf32e2d766edb1bd66bf2a7c4fc7837ba5a",
    },
    "run-conformal_manufactured": {
        "conformal-manufactured.csv": "ededc2756f7f98791e54e70d9f0f3add3e5d2f7398e123ea864aaa9d7dff8030",
    },
    "run-constrained_rk45": {
        "constrained-rk45.csv": "f60dd65c14af36f8377b91930b783c66ffb09e298e752019720b580004e4f875",
        "constrained-rk45_long.csv": "b948ffa0ed1b6e4ff6ba5b4158812e1f44c039167f5a27ca1f6d2e98cca386da",
    },
    "run-constrained_uniform_e": {
        "constrained-uniform-e.csv": "bc6a5e252d979f0015c4148d532971104d07de95c76118435ba471268e43f98f",
        "constrained-uniform-e_long.csv": "9ccefeef9b64b64a0b90d19959200fd679aa6b24a9181b8f950882d0dd1485b8",
    },
    "run-string_pluck": {
        "string-pluck.csv": "d4e4cc14afc223a4913300f3eb601a35ff6efc96a3817f9fe8154a1b75d19220",
    },
    "run-string_static": {
        "string-static.csv": "daea6f142f077bef14ec514545f39a810811db3a6e0e2dcd310a0f6352ffc2e1",
    },
    "run-vacuum_free_coulomb": {
        "vacuum-free-coulomb.csv": "8ea9feba39089210167c284c2d4c9f812e3545847d72614a35b7d731b9d3286c",
        "vacuum-free-coulomb_long.csv": "342be628bab209dff84dff6f622e2d40b7d6c39d5370813b2be9701917be3e58",
    },
    "run-vacuum_interacting_codrift": {
        "vacuum-interacting-codrift.csv": "929f33bc1db14a57be6c08fce8f0658a8afd6f28cc06e289d7904507cc4daa91",
        "vacuum-interacting-codrift_long.csv": "3a912634084651a1417d22a4945223b293ae319dbbb2cc861e47113be8d45581",
    },
    "run-vacuum_interacting_generic": {
        "vacuum-interacting-generic.csv": "da095086cf86de24e0ec94546965c8ab411638ff97a34a53955c62fbcb741afc",
        "vacuum-interacting-generic_long.csv": "8daf7098c9983a15aa6c348221e86fe00aec97775742a16d5b7ae6bedca61585",
    },
    "compare-compare_classical_uniform-compare_uniform_field": {
        "compare.csv": "e83d998d50122758d9051fe290eaab5fd99bb9df489e0d2872e70bdbea5e19e0",
    },
    "audit-classical_coulomb": {
        "classical-coulomb_audit.csv": "269d424459b75de79afd996edd04d64c53ba2a916f6bab0125ec495a3b2872fc",
    },
    "audit-classical_gyro": {
        "classical-gyro_audit.csv": "862a7a877d11c19ba980bb11acf53b909188a41019c493863cd7adedf2081ea5",
    },
    "audit-classical_uniform_e": {
        "classical-uniform-e_audit.csv": "51b8be83e12c4ae43d5ec3375936904a086e25da9dbb924246c8eabae54b4af0",
    },
    "audit-compare_classical_uniform": {
        "compare-classical-uniform_audit.csv": "8a884deb7f3aa592004e9b24ae1a25db4e298b96c4c1103cf3d783f96d2c1adb",
    },
    "audit-compare_uniform_field": {
        "compare-interacting-uniform_audit.csv": "85909fc0eec42249a38e9f095e729906313ec04c14d31f0fa605fe5b99b26347",
    },
    "audit-constrained_rk45": {
        "constrained-rk45_audit.csv": "005a995133c5f450c5a1fcdd2bd075b832f08dba5a75a83d082f33ae62183d0b",
    },
    "audit-constrained_uniform_e": {
        "constrained-uniform-e_audit.csv": "4125e683cc2245885d60e6e578d29ad8189f2ff8405637fef2e714850991ceff",
    },
    "audit-vacuum_free_coulomb": {
        "vacuum-free-coulomb_audit.csv": "4d929084d2ef53d5e5aa3e700f8d8f472487b4a0ce1553ceaac51746702d9dac",
    },
    "audit-vacuum_interacting_codrift": {
        "vacuum-interacting-codrift_audit.csv": "4d929084d2ef53d5e5aa3e700f8d8f472487b4a0ce1553ceaac51746702d9dac",
    },
    "audit-vacuum_interacting_generic": {
        "vacuum-interacting-generic_audit.csv": "0e75644abe5de55f5caf6bc7f6dbdd18b4d3f5d883aff67774a617d1ecda16b3",
    },
}


# sha256 of each shipped run's manifest `conservation` block (JSON, sorted keys) at
# --steps 20, held to the same rule as the CSV digests.
CONSERVATION_DIGESTS = {
    "classical_coulomb": "029796a78a590ddc3d8f4c7a88fd607a2e9806529d8e72a51da6839977ef1aa1",
    "classical_gyro": "e3baf77284dd708cb04d75bfc5227c87cbd122cbb8ae6dbc397276f8be4e9fce",
    "classical_uniform_e": "27ac97cb09a0467c7ff6a40a4e2e5f41ae23b3d30a4780ca1f8e82dd321a81f9",
    "compare_classical_uniform": "f712da66a27d66a872bf6de7d6c16b015aa1dd2482b4cb4dffe6c6056526207a",
    "compare_uniform_field": "47c05a84621308b797d9506052a0f0d00fa545be18844758cc663f39a0833d7e",
    "conformal_laplace": "b3c4e00d6bf4bcbb1c275eb268ae1bbe545e6cb8557da01eaf7e16cfdfc3df44",
    "conformal_manufactured": "6b857433dff3489680e72a72141f11292aac9a5e0c42ae669e9a68b9328e1181",
    "constrained_rk45": "fec941bcb0b950725f377109a671b920e948dd49799bed01a0bb4a6cc1c79b81",
    "constrained_uniform_e": "644b6fc73b1c0076b6856ef070a0e5dc3e23cd2dc5d9ff4c900ef79e89319327",
    "string_pluck": "fa64f5e0018b26e0b307cfa8c9ec657bda5c31eaf965625a538a8e3f79c9e1c4",
    "string_static": "2c6d2de49e6ed377a053e133e8311753f40d98b1108249b966dac28832726d1d",
    "vacuum_free_coulomb": "0f9beb3cf69b5fa1fc2aa61db05d64804ca87e75099acd44a5cb0d77f1871871",
    "vacuum_interacting_codrift": "3219c339a3d6c208c0601bbca863151c5a3a8be8f39b025e7e67786c64460066",
    "vacuum_interacting_generic": "a0f68e8785510b5f434247f6bbac40fa9ae80f8e180f44d4de0b2da6d760292c",
}


@pytest.mark.parametrize(
    "verb, names",
    [(c[0], c[1:]) for c in SHIPPED_RUNS],
    ids=["-".join(c).replace(".yaml", "") for c in SHIPPED_RUNS],
)
def test_shipped_scenarios_run_and_rerun_identically(tmp_path, verb, names):
    outputs = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        argv = [verb, *map(scenario, names), "--out", str(out), "--steps", "20", "--quiet"]
        assert cli.main(argv) == 0
        csvs = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
        outputs.append({f: (out / f).read_bytes() for f in csvs})
    assert outputs[0] and outputs[0] == outputs[1]
    digests = {f: hashlib.sha256(data).hexdigest() for f, data in outputs[0].items()}
    assert digests == SHIPPED_DIGESTS["-".join([verb, *names]).replace(".yaml", "")]
    if verb == "run":
        config = cli.parse_config(scenario(names[0]))
        manifest = json.loads((out / f"{config.name}.manifest.json").read_text())
        for value in _benchmark_keys(config, manifest["conservation"]):
            assert isinstance(value, float) and math.isfinite(value)
        block = json.dumps(manifest["conservation"], sort_keys=True).encode()
        assert hashlib.sha256(block).hexdigest() == CONSERVATION_DIGESTS[names[0][: -len(".yaml")]]


def _benchmark_keys(config, conservation):
    """The manifest values the benchmark's gates read, by scenario kind."""
    if config.kind == "particle":
        invariants = INVARIANTS[ModelKind(config.data["model"])]
        return [conservation[name]["relative_drift"] for name in invariants]
    if config.kind == "string":
        return [conservation["hamiltonian"]["relative_drift"],
                conservation["transversality"]["max_drift"]]
    names = ("final_residual", "iterations", "max_error_vs_exact")
    return [conservation[name]["initial"] for name in names]


# --- mutated shipped scenarios: the exit-code contract on arbitrary inputs ---------

SHIPPED = {
    name: load_scenario(name)
    for name in sorted(os.listdir(SCENARIOS))
    if name.endswith(".yaml")
}
# mutations never raise a step or sweep count, and never lower the conformal
# tolerance, so every example stays as cheap as the shipped scenario at --steps 5
_COUNT_KEYS = {"n_steps", "n", "n_sigma", "n_s", "max_iters"}
_ENUM_KEYS = {"kind", "model", "method", "time_axis", "problem"}
_EXTREME = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0.0, 0, -1.0]
_ODD_VALUES = ["abc", "", [1, 2], [], {"a": 1}, {}, None, True, 7, 0.5]
_WRONG_ENUMS = ["bogus", "RK4", "string", "particle", "vacuum-free", "uniform-b", "proper",
                "pluck", "manufactured", "rk45"]
COMPARE_PAIR = ("compare_classical_uniform.yaml", "compare_uniform_field.yaml")


def _paths(node, path=()):
    """Every key or list position below the root of a scenario dict."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _allowed(key, old, new) -> bool:
    numeric = isinstance(new, (int, float)) and not isinstance(new, bool)
    if key in _COUNT_KEYS and numeric and isinstance(old, (int, float)):
        return not new > old
    if key == "tol" and numeric and isinstance(old, (int, float)):
        return not new < old
    return True


@st.composite
def mutated_scenarios(draw):
    """(name, data, adaptive): a shipped scenario, rk45 if adaptive, with one key mutated.

    One mutation per example leaves the other keys valid, so many examples
    get past parsing into the run, audit and compare paths.
    """
    name = draw(st.sampled_from(sorted(SHIPPED)))
    data = copy.deepcopy(SHIPPED[name])
    adaptive = data["kind"] == "particle" and draw(st.booleans())
    if adaptive:
        data["integration"]["method"] = "rk45"
    path = draw(st.sampled_from(list(_paths(data))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    op = draw(st.sampled_from(["drop", "odd", "extreme", "enum"]))
    if op == "drop":
        del parent[key]
        return name, data, adaptive
    if op == "enum" and key in _ENUM_KEYS:
        choices = _WRONG_ENUMS
    else:
        choices = _EXTREME if op == "extreme" else _ODD_VALUES
    choices = [v for v in choices if _allowed(key, old, v)]
    if choices:
        parent[key] = copy.deepcopy(draw(st.sampled_from(choices)))
    return name, data, adaptive


def _csv_values_finite(directory) -> bool:
    for path in directory.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue  # a series label
                if not math.isfinite(value):
                    return False
    return True


def _keeps_the_contract(argv, out):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([*argv, "--steps", "5", "--quiet", "--out", str(out)])
    lines = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
    assert rc in (0, 1, 2, 3)
    assert len(lines) <= 1, lines
    assert "Traceback" not in stderr.getvalue()
    if rc == 0:
        assert _csv_values_finite(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated=mutated_scenarios(), nodes=st.sampled_from([None, -5, 0, 3, 7]))
def test_mutated_scenarios_keep_the_exit_code_contract(mutated, nodes):
    # run every example and audit the particle ones (with or without --nodes); compare
    # a member of the pair with its shipped partner, both on rk45 when the member was
    # switched to it
    name, data, adaptive = mutated
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        path = write_config(tmp, data)
        _keeps_the_contract(["run", path], tmp / "run")
        if SHIPPED[name]["kind"] == "particle":
            flags = [] if nodes is None else ["--nodes", str(nodes)]
            _keeps_the_contract(["audit", path, *flags], tmp / "audit")
        if name in COMPARE_PAIR:
            (other,) = set(COMPARE_PAIR) - {name}
            partner = copy.deepcopy(SHIPPED[other])
            if adaptive:
                partner["integration"]["method"] = "rk45"
            pair = [path if n == name else write_config(tmp, partner, n) for n in COMPARE_PAIR]
            _keeps_the_contract(["compare", *pair], tmp / "compare")
