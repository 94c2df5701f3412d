#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_rollover --seed 1 --seconds 20 --trace 0

Run it from the repository root. The benchmark is a cargo package of its
own (perfbench/Cargo.toml) that builds the repository's crates by path
into CARGO_TARGET_DIR (default: .bench_build). Every argument is passed to
the benchmark binary, whose last line of standard output is the JSON
result. A failed build exits non-zero without printing a result.

The untraced run (`--trace 0`, the end-to-end metrics) is pinned to one CPU, the first this process may use, and
every thread it starts inherits the pin. On a shared 2-core VM, work
spread over both virtual CPUs runs up to twice as fast or slow from one
minute to the next as the host places them, and an idle virtual CPU's
wake-up time swings the latency of every request handed across; on one
CPU the stack's own cost is what the figures show.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if "--trace" not in sys.argv or sys.argv[sys.argv.index("--trace") + 1:][:1] != ["1"]:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # The program's pools then size themselves to the one CPU.
        env.pop("DRAFTS_THREADS", None)
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
