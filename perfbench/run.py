#!/usr/bin/env python3
"""Build the kdap serving benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload explore_fresh --seed 1 --seconds 10 --trace 0

The Go build cache and the binary live under .bench_build/ in the current
directory, so a run reads and writes nothing outside it. The exit code is
the benchmark's (or the build's, when the build fails).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env)
    if built.returncode != 0:
        return built.returncode
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
