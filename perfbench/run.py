#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

It builds the `perfbench` program and the `fluxd` daemon in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), records where and on what
the numbers were taken, and runs one workload (or `all`).  The last line of
standard output is the run's JSON result; `perfbench/README.md` explains
the metrics.  Result files and traces go to `<target dir>/perfbench-results`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["corpus-cold", "fluxd-warm", "gen-mixed"]
# Seconds one workload run may take after the build, so a stuck verifier
# ends the run with an error instead of hanging it.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so a run outside a git
    checkout still names the code it measured."""
    digest = hashlib.sha256()
    files = []
    for top in ["crates", "src", "perfbench", "Cargo.toml", "Cargo.lock"]:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files.append(top)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                files.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(files):
        digest.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def provenance(root, args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": command_output(["git", "-C", root, "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(root, ".git"))
        else None,
        "source_sha256": source_digest(root),
        "build_profile": "release",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def build(root, env):
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-q", "-p", "flux-daemon", "--bin", "fluxd"],
    ):
        if subprocess.run(argv, cwd=root, env=env).returncode != 0:
            fail(f"build failed: {' '.join(argv)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        fail(f"{root} holds no Flux sources (Cargo.toml and crates/) to build and measure")

    # Verifiers run with their defaults: no FLUX_*/FLUXD_* knob reaches them.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("FLUX_", "FLUXD_"))}
    target = os.path.join(root, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(root, env)

    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        args.workload = workload
        prov = json.dumps(provenance(root, args), sort_keys=True)
        argv = [
            os.path.join(target, "release", "perfbench"),
            "run",
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--fluxd", os.path.join(target, "release", "fluxd"),
            "--out", os.path.join(target, "perfbench-results"),
            "--provenance", prov,
        ]
        sys.stdout.flush()
        try:
            result = subprocess.run(argv, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        code = code or result.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
