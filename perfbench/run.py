#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset, then runs it with the given
arguments. Build output goes to stderr, so the benchmark's last stdout
line stays its JSON result. Exits non-zero when the build or the run
fails.

`sharing-scale` runs pinned to one CPU.
Its sessions are hundreds of thousands of strict ping-pong frames between
two in-process parties; unpinned, each frame pays a cross-CPU wake-up,
and on a 2-vCPU VM that cost alone moved session time by up to 2x between
runs. Pinned, the parties' work adds up on one CPU as the protocol
sequences it anyway.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
PINNED_WORKLOADS = {"sharing-scale"}


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    cmd = [os.path.join(target, "release", "perfbench")] + args
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    cpu = min(os.sched_getaffinity(0))

    def pin_to_one_cpu():
        os.sched_setaffinity(0, {cpu})

    pin = pin_to_one_cpu if workload in PINNED_WORKLOADS else None
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                             preexec_fn=pin)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
