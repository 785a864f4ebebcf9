#!/usr/bin/env python3
"""Build and run the smbm benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--scale smoke] [--under-declare <frames>]

Workloads: udp-flood-work, udp-paced-value, offline-fig5 (see perfbench/NOTES.md);
`all` runs the three in turn. The benchmark is built from this checkout with
cargo (release profile, offline) into $CARGO_TARGET_DIR, or `.bench_build` when
that is unset. Results and span logs go to `.bench_build/perfbench/`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is non-zero when the build
failed or an output check failed.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["udp-flood-work", "udp-paced-value", "offline-fig5"]
# One workload run must end well inside the 180-second limit; a hung run is
# killed and reported as a failure.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Builds the benchmark binary; returns its path."""
    if not (ROOT / "crates" / "net" / "Cargo.toml").is_file():
        sys.exit("perfbench: the repository's crates/ are missing; nothing to benchmark")
    env = dict(os.environ)
    target = pathlib.Path(os.path.abspath(env.get("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))))
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {built.returncode}")
    return target / "release" / "smbm-perfbench"


def run_one(binary, workload, args, extra):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [
        str(binary), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        sys.stdout.write("".join(f"# {line}\n" for line in out.splitlines()))
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode or 1, None


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    parser.add_argument("--under-declare", type=int, default=0)
    args = parser.parse_args()
    extra = ["--scale", args.scale, "--under-declare", str(args.under_declare)]
    binary = build()

    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, extra)
        sys.exit(code)

    # Every workload in turn; the summary prefixes each metric with its
    # workload and is also written to .bench_build/perfbench/.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"# == {workload}")
        code, result = run_one(binary, workload, args, extra)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            worst = worst or 1
            continue
        summary["correct"] &= bool(result["correct"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    out = ROOT / ".bench_build" / "perfbench" / f"all-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary, separators=(",", ":")))
    sys.exit(worst)


if __name__ == "__main__":
    main()
