#!/usr/bin/env python3
"""Runs the repository benchmark on one workload.

    python3 repobench/run.py --workload <cone_attack|fullcopy_attack|atlas_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `fulllock` binary and the
`repobench` binary from source (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs `repobench` with every
FULLLOCK_* variable removed from its environment, so ambient program
settings cannot change what is measured. The last line of standard output
is the result object; cargo's output goes to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cone_attack", "fullcopy_attack", "atlas_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the sources the build reads, in path order."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("src", "crates", "vendor", "repobench"):
        files.extend(p for p in (root / top).rglob("*") if p.is_file())
    for path in sorted(set(files)):
        if path.is_file() and "target" not in path.relative_to(root).parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev(root):
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(root, env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "fulllock"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(root / "repobench" / "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {' '.join(cmd)}: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"{root} is not a checkout of the repository (no Cargo.toml or crates/)")

    cleared = sorted(k for k in os.environ if k.startswith("FULLLOCK_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("FULLLOCK_")}
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    if cleared:
        print(f"run.py: cleared {', '.join(cleared)} from the environment", file=sys.stderr)

    build(root, env)
    cmd = [
        str(target / "release" / "repobench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--fulllock", str(target / "release" / "fulllock"),
        "--out-dir", ".bench_out",
        "--git-rev", git_rev(root),
        "--source-digest", source_digest(root),
    ]
    sys.stdout.flush()
    # A process group of its own, so a timeout also stops the sweep
    # processes `repobench` started.
    bench = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
