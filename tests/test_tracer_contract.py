"""The benchmark tracer (bench/tracing.py) against the package it wraps.

The tracer resolves its span lists by name, and a name that no longer
exists drops out without a word.  These tests make that loud: the
integrator entry points it hooks must exist, a traced run must count its
steps, ``uninstall`` must put every function and method back, and the
names its lists still carry but the package no longer has are pinned as
an exact set, so a new rename fails here and a repair must update it.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import vacuumlab.integrate as integrate
from vacuumlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("vacuumlab_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        importlib.import_module(f"vacuumlab.{layer}")
    return tracing


def _package_callables():
    """(module, owner, name) -> object for every function and class member of the package."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "vacuumlab" or modname.startswith("vacuumlab.")):
            continue
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj):
                found[(modname, None, attr)] = obj
            elif inspect.isclass(obj) and obj.__module__.startswith("vacuumlab"):
                for mattr, mobj in vars(obj).items():
                    found[(modname, attr, mattr)] = mobj
    return found


# names in PRIVATE_SPANS and COUNT_ONLY that the package no longer has
STALE_TRACER_NAMES = {"particle._q_em_terms", "variational.lagrangian_density"}


def test_tracer_lists_name_what_the_package_has():
    tracing = _load_tracing()
    assert all(callable(getattr(integrate, name, None)) for name in tracing.INTEGRATE_SPANS)
    missing = {
        f"{layer}.{name}"
        for table in (tracing.PRIVATE_SPANS, tracing.COUNT_ONLY)
        for layer, names in table.items()
        for name in names
        if not hasattr(importlib.import_module(f"vacuumlab.{layer}"), name)
    }
    assert missing == STALE_TRACER_NAMES


def test_traced_runs_count_their_steps_and_uninstall_restores_the_package():
    tracing = _load_tracing()
    particle = cli.parse_config(str(SCENARIOS / "vacuum_free_coulomb.yaml"), {"n_steps": 20})
    string = cli.parse_config(str(SCENARIOS / "string_static.yaml"), {"n_steps": 20})
    before = _package_callables()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert integrate.integrate_particle is not before[("vacuumlab.integrate", None, "integrate_particle")]
        integrate.integrate_particle(*cli.build_particle_model(particle))
        integrate.integrate_string(*cli.build_string_state(string))
    finally:
        tracer.uninstall()
    assert tracer.counts["integrate.steps"] == 40
    # the string audit calls its invariants through the module, so the tracer sees
    # them: once on the launch row 0, then once on the block of rows 10 and 20
    for name in ("strings.string_hamiltonian", "strings.transversality_defect"):
        assert tracer.aggregates[name][0] == 2
    after = _package_callables()
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []
