#!/usr/bin/env python3
"""Build the MLDS benchmark from source and run one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <point_read|ingest_tcp|languages|elastic> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own next to this script; it is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build in
the working directory), then run with the same arguments. Build output
goes to stderr; the benchmark's standard output is passed through, and
its last line is the JSON result. A failed build exits non-zero without
printing a result.

Each workload runs the transport its result row reports: the
MBDS_TRANSPORT switch is removed from the benchmark's environment, and
MBDS_BACKEND_BIN points at the backend binary built here.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.pop("MBDS_TRANSPORT", None)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    env["MBDS_BACKEND_BIN"] = os.path.join(release, "mbds-backend")
    exe = os.path.join(release, "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
