#!/usr/bin/env python3
"""Build and run the host-time benchmark of the ESS I/O simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> --seconds <s>

Run it from anywhere inside a checkout of the repository. It builds the
`perfbench` package in release mode (offline, into `$CARGO_TARGET_DIR`,
by default `.bench_build` at the repository root) and runs the harness.
The first form runs one workload; the last line of its output is the JSON
result. `--all` runs every workload with tracing off and then traced, and
prints each report: every end-to-end metric, every per-layer metric and
their sample counts. The exit status is 0 only if every run succeeded and
every check passed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build():
    """Build the harness; return its path, or None if the build failed."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    # Cargo's own output goes to stderr so the result stays the last line
    # of standard output.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return target / "release" / "essio-perfbench"


def run_all(harness, seed, seconds):
    """Every workload untraced, then traced; True if all ran correctly."""
    listed = subprocess.run([str(harness), "--list"], capture_output=True,
                            text=True, check=True)
    ok = True
    for workload in listed.stdout.split():
        for trace in ("0", "1"):
            done = subprocess.run(
                [str(harness), "--workload", workload, "--seed", seed,
                 "--seconds", seconds, "--trace", trace],
                capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            ok = ok and done.returncode == 0 and bool(lines) \
                and json.loads(lines[-1])["correct"]
            print(flush=True)
    return ok


def main(argv):
    if argv[:1] == ["--all"]:
        opts = dict(zip(argv[1::2], argv[2::2]))
        if len(argv) != 5 or set(opts) != {"--seed", "--seconds"}:
            print(__doc__, file=sys.stderr)
            return 2
    harness = build()
    if harness is None:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    if argv[:1] == ["--all"]:
        return 0 if run_all(harness, opts["--seed"], opts["--seconds"]) else 1
    sys.stdout.flush()
    return subprocess.run([str(harness), *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
