#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 [--seconds 30]

One run builds perfbench/bench.exe in the release profile (build dir
.bench_build), records the environment, runs one workload and forwards
its output.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names are
checked against BENCHMARK.json.  --all runs the three workloads untraced
and prints the per-workload end-to-end metrics by name.  Exit status is
non-zero when the checkout cannot build, an output oracle fails, or the
result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["serve-mixed", "matrix-full", "paper-figs"]
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    # Keep git (the manifest layer forks `git describe`) inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    return env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a stratify checkout (no dune-project or lib/ here)", 2)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=840)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def tool_output(cmd):
    try:
        p = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=20)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def git_describe():
    if not os.path.exists(".git"):
        return "unknown"
    return tool_output(["git", "describe", "--always", "--dirty"]) or "unknown"


def environment():
    config = tool_output(["ocamlfind", "ocamlopt", "-config"]) or ""
    flambda = re.search(r"^flambda: (\S+)", config, re.M)
    return {
        "nproc": os.cpu_count(),
        "ocaml": tool_output(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "flambda": flambda.group(1) if flambda else "unknown",
        "profile": "release",
        "git": git_describe(),
        "jobs": 1,
    }


def catalogue(traced):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_workload(workload, seed, seconds, traced, env):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--git", env["git"]]
    try:
        p = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(p.stdout)
        fail("%s printed no result line (exit %d)" % (workload, p.returncode))
    return p.returncode, lines[:-1], lines[-1], result


def check_result(result, traced):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    expected = catalogue(traced)
    if list(result["metrics"]) != expected:
        return "metric names differ from BENCHMARK.json"
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        fail("give exactly one of --workload NAME and --all", 2)
    if args.seconds < 1:
        fail("--seconds must be >= 1", 2)

    build()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    sys.stdout.flush()

    if args.workload:
        code, report, last, result = run_workload(
            args.workload, args.seed, args.seconds, args.trace == 1, env)
        print("\n".join(report))
        problem = check_result(result, args.trace == 1)
        if problem:
            fail(problem)
        print(last)
        sys.exit(code)

    ok = True
    table = []
    for w in WORKLOADS:
        code, report, _, result = run_workload(w, args.seed, args.seconds, False, env)
        ok = ok and code == 0 and result["correct"]
        for line in report:
            if line.startswith("check") and not line.endswith(" ok"):
                print(line)
            if line.startswith("metric "):
                table.append(line[len("metric "):])
    print("end-to-end metrics, seed %d (workload, metric, value, unit, samples)" % args.seed)
    print("\n".join(table))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
