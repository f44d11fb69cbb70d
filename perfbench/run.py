#!/usr/bin/env python3
"""Nym-lifecycle benchmark launcher.

Builds the benchmark (`perfbench/`, a Cargo package of its own that
depends on the repository's crates by path) and the workspace's
unmodified `trace_check` binary, then runs one workload:

    python3 perfbench/run.py --workload heartbeat --seed 1 --seconds 30 --trace 0

Run it from the repository root. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`). The last line of standard output is the
result object; the line before it is the full report. Exits non-zero,
without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys
import tomllib
from pathlib import Path

WORKLOADS = ("heartbeat", "amnesia", "durable")


def build(cmd, env):
    """Runs one cargo build, its output on stderr; True on success."""
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def configured_rustflags(root):
    """`build.rustflags` from `.cargo/config.toml`, plus `RUSTFLAGS`."""
    flags = []
    config = root / ".cargo" / "config.toml"
    if config.is_file():
        with config.open("rb") as f:
            flags += tomllib.load(f).get("build", {}).get("rustflags", [])
    if os.environ.get("RUSTFLAGS"):
        flags = os.environ["RUSTFLAGS"].split()
    return " ".join(flags)


def rustc_version(env):
    try:
        done = subprocess.run(
            ["rustc", "--version"], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    manifest = root / "Cargo.toml"
    if not manifest.is_file():
        print("perfbench: run from the repository root", file=sys.stderr)
        return 1
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    if not build(cargo + ["--manifest-path", str(bench / "Cargo.toml")], env):
        return 1
    if not build(
        cargo + ["--manifest-path", str(manifest), "-p", "nymix-obs", "--bin", "trace_check"],
        env,
    ):
        return 1

    trace_out = target / f"perfbench-{args.workload}-{args.seed}.trace.json"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-out", str(trace_out),
        "--trace-check", str(target / "release" / "trace_check"),
        "--prov", f"rustc={rustc_version(env)}",
        "--prov", f"rustflags={configured_rustflags(root)}",
    ]
    done = subprocess.run(cmd, env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
