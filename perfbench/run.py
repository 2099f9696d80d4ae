#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload flow-scale --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("flow-scale", "sim-mixed", "serve-mixed")
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
NOC_TOOL = os.path.join("_build", "default", "bin", "noc_tool.exe")
RUN_TIMEOUT_S = 170


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c")):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/noc_tool.exe"],
        capture_output=True, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return 2

    tmp = os.path.join("perfbench", "_tmp", str(os.getpid()))
    os.makedirs(tmp)
    cmd = [MAIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))), "--noc-tool", NOC_TOOL,
           "--tmp", tmp, "--commit", revision()]
    # Its own process group, so that a timeout also stops the daemon
    # the serve-mixed workload starts.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        code = 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
