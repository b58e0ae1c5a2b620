"""Print a digest of every program output on the shipped scenarios.

For each shipped scenario it runs ``vacuumlab run`` and ``vacuumlab audit``,
then ``vacuumlab compare`` on the matched uniform-field pair and
``vacuumlab check``, each in a fresh output directory.  Per command it prints
the exit code and the stderr line, then the sha256 of each CSV written, and
of each manifest's ``conservation`` block (JSON with sorted keys, as the
tests pin it at a few steps); the rest of a manifest holds a timestamp and
is skipped.  For ``check`` it prints the sha256 of its stdout.  Two trees
whose printouts are equal produce the same CSVs, full-length conservation
reports, exit codes, error lines and self-check report.

Run from the repository root: ``python benchmarks/outputs.py``; diff the
printouts of two checkouts to compare their outputs.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
COMPARE = ("compare_uniform_field.yaml", "compare_classical_uniform.yaml")


def vacuumlab(args, out_dir):
    """(exit code, stderr, stdout) of one vacuumlab command run from ROOT's source."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "vacuumlab", *args]
    if out_dir is not None:
        command += ["--out", out_dir, "--quiet"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stderr.strip(), done.stdout


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report(label, args):
    """Print one command's exit code, stderr, CSV digests and conservation-block digests."""
    with tempfile.TemporaryDirectory() as out_dir:
        code, err, _ = vacuumlab(args, out_dir)
        print(f"{label}: exit {code} {err!r}")
        for path in sorted(pathlib.Path(out_dir).glob("*.csv")):
            print(f"  {sha256(path.read_bytes())}  {path.name}")
        for path in sorted(pathlib.Path(out_dir).glob("*.manifest.json")):
            block = json.loads(path.read_text())["conservation"]
            print(f"  {sha256(json.dumps(block, sort_keys=True).encode())}  {path.name}:conservation")


def main():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        for verb in ("run", "audit"):
            report(f"{verb} {path.name}", [verb, str(path)])
    report("compare " + " ".join(COMPARE), ["compare", *(str(SCENARIOS / name) for name in COMPARE)])
    code, err, out = vacuumlab(["check"], None)
    print(f"check: exit {code} {err!r}\n  {sha256(out.encode())}  stdout")


if __name__ == "__main__":
    main()
