"""Run every workload once and print the eight end-to-end metrics by name.

    python3 bench/report.py [--seed N] [--seconds S]

The names are the ones the workloads are built around. ``run.py``
reports the four workload-specific rates under one name, ``work_per_s``,
and ``failed_fraction`` as ``ok_fraction``. This script maps them back,
per workload, with their units. A dash marks a metric that the workload
does not define.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("orbit", "audit", "sheet", "sweep")
RATE = {
    "orbit": ("run_steps_per_s", "steps/s"),
    "audit": ("audit_nodes_per_s", "nodes/s"),
    "sheet": ("string_node_steps_per_s", "node-steps/s"),
    "sweep": ("sweep_steps_per_s", "steps/s"),
}
NAMES = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_fraction", "ratio"),
    ("run_steps_per_s", "steps/s"),
    ("audit_nodes_per_s", "nodes/s"),
    ("string_node_steps_per_s", "node-steps/s"),
    ("conformal_solve_s", "s"),
    ("sweep_steps_per_s", "steps/s"),
)


def named_metrics(workload: str, result: dict, detail: dict) -> dict:
    metrics = result["metrics"]
    out = {
        "setup_s": metrics["setup_s"]["value"],
        "peak_rss_mb": metrics["peak_rss_mb"]["value"],
        "failed_fraction": detail["failed_fraction"],
        RATE[workload][0]: metrics["work_per_s"]["value"],
    }
    if workload == "sheet":
        out["conformal_solve_s"] = detail["timings"]["conformal_s"]["median"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        rows[workload] = named_metrics(workload, result, detail)
    print(f"{'metric':26s} {'unit':13s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, unit in NAMES:
        cells = "".join(
            f"{rows[w][name]:>14.6g}" if name in rows[w] else f"{'-':>14s}" for w in WORKLOADS
        )
        print(f"{name:26s} {unit:13s}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
