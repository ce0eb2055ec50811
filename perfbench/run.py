#!/usr/bin/env python3
"""Builds the LYCOS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <sweep|edit-loop|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `lycos` CLI and the
benchmark driver (release profile, offline) into $CARGO_TARGET_DIR,
default `.bench_build`, then runs the driver. The driver's last line
on stdout is the JSON result; build output and the readable report go
to stderr. Exits non-zero, printing no result, if either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "lycos_cli", "--bin", "lycos"],
        ["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for args in builds:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"perfbench: build failed: cargo build {' '.join(args)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "lycos_perfbench"), *sys.argv[1:]]
    bench += ["--lycos", os.path.join(release, "lycos")]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
