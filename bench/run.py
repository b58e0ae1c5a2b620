"""vacuumlab benchmark: one closed-loop client running seeded workloads.

    python3 bench/run.py --workload {orbit,audit,sheet,sweep} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One process and one thread run one job after
another: CLI jobs go in-process through ``vacuumlab.cli.main`` (a non-zero
exit fails the job), the charge sweep calls
``vacuumlab.particle.rest_mass_limit_check``.  Passes over the workload's
member jobs repeat until ``--seconds`` have been measured.  In each pass
one CLI job runs a second time and its CSV bytes must match.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (see bench/README.md).  The second-to-last
stdout line is a detail record (samples, quartiles, generated inputs, gate
values); the last line is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from reference import NOMINAL_S, Yardstick, kernel_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_fraction": "ratio",
    "pass_s": "s",
    "work_per_s": "1/s",
}

BUILD_SPANS = (
    "cli.build_field",
    "cli.build_particle_model",
    "cli.build_string_state",
    "conformal_cases.harmonic_case",
    "conformal_cases.manufactured_case",
)
CLI_OUTPUT = ("cli.run_scenario", "cli.compare_models", "cli.audit_scenario")
PARTICLE_HELPERS = tuple(
    f"particle.{n}"
    for n in (
        "classical_momentum", "classical_velocity", "dynamic_mass", "vacuum_momentum",
        "vacuum_velocity", "vacuum_free_hamiltonian", "total_energy",
        "interacting_hamiltonian", "interacting_energy", "relative_invariant",
        "_q_em_terms", "interaction_extra_force", "qa_vector", "constrained_rest_mass",
    )
)
STRING_AUDITS = (
    "strings.string_hamiltonian", "strings.transversality_defect", "strings.node_energy_density",
)
PATHS = ("variational.path_from_trajectory", "variational.uniform_proper_path")


class JobFailure(Exception):
    """The program gave a non-zero exit code."""


@dataclass
class Attempt:
    job: str
    seconds: float
    ok: bool
    error: Optional[str] = None
    observed: Dict[str, float] = field(default_factory=dict)
    scale: float = 1.0   # measured -> nominal kernel speed (reference.Yardstick)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Pass:
    members: List[Attempt]
    rerun: Attempt

    @property
    def attempts(self) -> List[Attempt]:
        return [*self.members, self.rerun]


# --- running jobs -------------------------------------------------------------


def _execute(job, out_dir: str):
    """Run one job; returns the API result (None for CLI jobs)."""
    if job.call is not None:
        return job.call()
    from vacuumlab import cli

    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main([*job.argv, "--out", out_dir, "--quiet"])
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        code = exc.code
    if code != 0:
        raise JobFailure(f"exit code {code}")
    return None


def run_job(job, out_dir: Path, ctx: dict, tracer=None) -> Attempt:
    """Run and gate one job.  Any exception is a failed job, never a crash."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    # the traced pass runs without kernel samples, which would land in its spans
    yardstick = Yardstick() if tracer is None else contextlib.nullcontext()
    error = None
    with yardstick:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = _execute(job, str(out_dir))
            else:
                result = tracer.span("bench.job", _execute, job, str(out_dir))
        except Exception as exc:  # noqa: BLE001 - the job boundary records every failure
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    attempt = Attempt(job.name, t1 - t0, error is None, error)
    if tracer is None:
        attempt.seconds -= yardstick.spent_before(t1)
        attempt.scale = yardstick.scale
    if error is not None:
        return attempt
    try:
        attempt.observed = job.gate(job, str(out_dir), result, ctx)
    except Exception as exc:  # noqa: BLE001 - a malformed output fails the gate
        attempt.ok, attempt.error = False, f"gate {type(exc).__name__}: {exc}"
        return attempt
    ctx[job.name] = attempt.observed
    return attempt


def _csv_bytes(directory: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def rerun_check(wl, index: int, out_root: Path, ctx: dict) -> Attempt:
    """Run the pass's rerun member again; its CSV bytes must not change."""
    cli_jobs = [j for j in wl.jobs if j.argv]
    job = cli_jobs[index % len(cli_jobs)]
    attempt = run_job(job, out_root / f"{job.name}.rerun", dict(ctx))
    attempt.job = f"{job.name} (rerun)"
    if attempt.ok:
        first = _csv_bytes(out_root / job.name)
        second = _csv_bytes(out_root / f"{job.name}.rerun")
        if not first or first != second:
            attempt.ok = False
            attempt.error = f"rerun CSV bytes differ ({sorted(first)} vs {sorted(second)})"
    return attempt


def run_pass(wl, index: int, out_root: Path, tracer=None) -> Pass:
    ctx: dict = {}
    if tracer is not None:
        tracer.install()
    try:
        members = [run_job(job, out_root / job.name, ctx, tracer) for job in wl.jobs]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(members, rerun_check(wl, index, out_root, ctx))


def measure(wl, seconds: float, out_root: Path) -> List[Pass]:
    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl, len(passes), out_root))
    return passes


def selftest(work_dir: Path) -> dict:
    """Feed the harness a known-bad input; it must count a failed job."""
    from workloads import selftest_job

    job = selftest_job(str(work_dir))
    attempt = run_job(job, work_dir / "out", {})
    return {"job": job.name, "counted_as_failed": not attempt.ok, "error": attempt.error}


def setup_times(files: List[str]):
    """Fresh-process time to import vacuumlab and validate every member scenario.

    Returns the raw times and the times at reference speed.
    """
    times, kernel = [], [kernel_time()]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), repr(start), str(SRC), *files],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
        kernel.append(kernel_time())
    scaled = [t * NOMINAL_S / ((kernel[k] + kernel[k + 1]) / 2) for k, t in enumerate(times)]
    return times, scaled


# --- statistics ------------------------------------------------------------------


def summary(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def pass_samples(wl, passes: List[Pass], raw: bool = False) -> Dict[str, List[float]]:
    """Per-pass values of the timing metrics (rerun excluded).

    Times are at reference speed, or as measured with ``raw``.
    """
    work = {j.name: j.work for j in wl.jobs}
    groups = sorted({j.group for j in wl.jobs if j.group})
    group_of = {j.name: j.group for j in wl.jobs}
    out: Dict[str, List[float]] = {"pass_s": [], "work_per_s": []}
    for g in groups:
        out[f"{g}_s"] = []
    for p in passes:
        secs = {a.job: a.seconds if raw else a.ref_seconds for a in p.members}
        out["pass_s"].append(sum(secs.values()))
        timed = [name for name in secs if work[name] > 0]
        out["work_per_s"].append(sum(work[n] for n in timed) / sum(secs[n] for n in timed))
        for g in groups:
            out[f"{g}_s"].append(sum(t for n, t in secs.items() if group_of[n] == g))
    return out


def member_report(wl, passes: List[Pass]) -> dict:
    out = {}
    for k, job in enumerate(wl.jobs):
        times = [p.members[k].ref_seconds for p in passes]
        observed = next((p.members[k].observed for p in reversed(passes) if p.members[k].ok), {})
        out[job.name] = {"work": job.work, "seconds": summary(times), "observed": observed}
    return out


# --- traced pass -------------------------------------------------------------------


def layer_metrics(tracer, untraced_pass_s: float, out_bytes: int) -> Dict[str, float]:
    from tracing import ARRAY_FIELD_CALLS, LAYERS, SCALAR_FIELD_CALLS

    def method(name: str, layer: str, names) -> bool:
        parts = name.split(".")
        return parts[0] == layer and len(parts) == 3 and parts[2] in names

    def field_method(name: str) -> bool:
        parts = name.split(".")
        return parts[0] == "potentials" and len(parts) == 3 and parts[1] not in ("SourceSpec",)

    steps = tracer.counts.get("integrate.steps", 0)
    per_step = (lambda c: c / steps) if steps else (lambda c: 0.0)
    pass_s = tracer.total("bench.job")
    layer_self = tracer.self_by_layer()
    metrics = {
        "cli.parse_s": tracer.total("cli.parse_config"),
        "cli.build_s": tracer.outermost_time(BUILD_SPANS),
        "cli.output_s": tracer.self_time(lambda n: n in CLI_OUTPUT),
        "cli.output_bytes": out_bytes,
        "integrate.particle_s": tracer.total("integrate.integrate_particle"),
        "integrate.particle_self_s": tracer.self_time(lambda n: n == "integrate.integrate_particle"),
        "integrate.steps": steps,
        "potentials.scalar_calls_per_step": per_step(
            tracer.calls(lambda n: method(n, "potentials", SCALAR_FIELD_CALLS))
        ),
        "potentials.scalar_s": tracer.self_time(
            lambda n: field_method(n) and not method(n, "potentials", ARRAY_FIELD_CALLS)
        ),
        "potentials.array_s": tracer.self_time(lambda n: method(n, "potentials", ARRAY_FIELD_CALLS)),
        "particle.helpers_s": tracer.self_time(lambda n: n in PARTICLE_HELPERS),
        "geometry.vec3_ops_per_step": per_step(tracer.counts.get("geometry.vec3_ops", 0)),
        "strings.rhs_s": tracer.total("strings.string_canonical_rhs"),
        "strings.rhs_calls": tracer.calls(lambda n: n == "strings.string_canonical_rhs"),
        "strings.audit_s": tracer.total(*STRING_AUDITS),
        "integrate.string_self_s": tracer.self_time(lambda n: n == "integrate.integrate_string"),
        "conformal.residual_s": tracer.total("conformal.residual_grid"),
        "conformal.residual_calls": tracer.calls(lambda n: n == "conformal.residual_grid"),
        "integrate.relax_sweeps": tracer.counts.get("integrate.relax_sweeps", 0),
        "integrate.relax_self_s": tracer.self_time(lambda n: n == "integrate.relax_elliptic"),
        "variational.el_s": tracer.total("variational.euler_lagrange_residual"),
        "variational.density_calls": tracer.counts.get("variational.lagrangian_density", 0),
        "variational.path_s": tracer.total(*PATHS),
        "trace.pass_s": pass_s,
        "trace.overhead": pass_s / untraced_pass_s,
    }
    for layer in ("bench", *LAYERS):
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_per_step"):
        return "count/step"
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def write_trace(tracer, path: Path) -> None:
    origin = min((rec[2] for rec in tracer.records), default=0.0)
    doc = {
        "spans": [
            [span_id, name, round((start - origin) * 1e9), round((end - origin) * 1e9), parent]
            for span_id, name, start, end, parent in sorted(tracer.records)
        ],
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id"],
        "aggregates": {n: {"calls": a[0], "total_s": a[1], "self_s": a[2]} for n, a in tracer.aggregates.items()},
        "counts": tracer.counts,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")


# --- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("orbit", "audit", "sheet", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vacuumlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no vacuumlab package under {SRC}\n")
        return 2
    # one thread: keep any BLAS pool of NumPy (and of the probes) single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import vacuumlab.cli  # noqa: F401 - the package is imported (and compiled) before the probes
    import workloads

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.generate(args.workload, args.seed, str(work / "inputs"))
        setup_raw, setup = setup_times(wl.scenario_files)
        check = selftest(work / "selftest")
        out_root = work / "out"
        if args.trace:
            from tracing import Tracer

            passes = measure(wl, args.seconds / 2, out_root)
            tracer = Tracer()
            traced = run_pass(wl, len(passes), out_root, tracer)
            out_bytes = sum(
                p.stat().st_size for a in traced.members for p in (out_root / a.job).glob("*.csv")
            )
            untraced_pass_s = statistics.median(pass_samples(wl, passes, raw=True)["pass_s"])
            layers = layer_metrics(tracer, untraced_pass_s, out_bytes)
            partition = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            self_sum_error = abs(partition - layers["trace.pass_s"]) / layers["trace.pass_s"]
            write_trace(tracer, WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json")
            passes.append(traced)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
            extra = {"self_sum_error": self_sum_error}
            trace_ok = self_sum_error < 1e-9
        else:
            passes = measure(wl, args.seconds, out_root)
            metrics, extra, trace_ok = None, {}, True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempts = [a for p in passes for a in p.attempts]
    failed = [a for a in attempts if not a.ok]
    untraced = passes[: len(passes) - args.trace]
    samples = pass_samples(wl, untraced)
    if metrics is None:
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_fraction": 1.0 - len(failed) / len(attempts),
            "pass_s": statistics.median(samples["pass_s"]),
            "work_per_s": statistics.median(samples["work_per_s"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": wl.work_unit,
        "generated": wl.generated,
        "passes": len(passes),
        "setup_s": summary(setup),
        "setup_s_raw": summary(setup_raw),
        "timings": {k: summary(v) for k, v in samples.items()},
        "timings_raw": {k: summary(v) for k, v in pass_samples(wl, untraced, raw=True).items()},
        "members": member_report(wl, untraced),
        "failed_fraction": len(failed) / len(attempts),
        "failures": [{"job": a.job, "error": a.error} for a in failed],
        "selftest": check,
        **extra,
    }
    correct = not failed and check["counted_as_failed"] and trace_ok
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
