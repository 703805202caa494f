#!/usr/bin/env python3
"""Build and run the named OSPREY benchmark.

    python3 perfbench/run.py --workload <ww_rt|fleet|gsa> \
        --seed <n> --seconds <s> --trace <0|1> [--only-replay <layer>]
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles src/ from source) into .bench_build/perfbench;
later calls rebuild incrementally. Spans and per-run records go to
.bench_out/. The last line of standard output is the result JSON; the
exit code is non-zero when the build fails, a correctness check fails,
or no result was produced.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "osprey_perfbench")
RUN_TIMEOUT_S = 170


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      check=False).returncode
            except OSError as err:
                print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
                return False
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    tail = text.read()[-4000:]
                print(f"perfbench: build failed ({' '.join(cmd)}):\n{tail}",
                      file=sys.stderr)
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if len(steps) == 2 and os.path.exists(cache):
                    os.remove(cache)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only-replay", default="")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1

    if args.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.only_replay:
            cmd += ["--only-replay", args.only_replay]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("perfbench: run timed out", file=sys.stderr)
            return 1
    lines = out.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
