#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds perfbench/ -- a Go module of its
own that uses the repository's packages through a replace directive -- into
.bench_build/, keeping the Go build cache there too, then replaces itself
with the built program, passing every argument on. The program's standard
output ends with the result line; README.md in this directory describes the
workloads and metrics.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    exe = os.path.join(out, "perfbench")
    # Build output goes to stderr so standard output carries only results.
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(build.returncode)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
