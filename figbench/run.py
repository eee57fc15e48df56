#!/usr/bin/env python3
"""Build and run the figure-regeneration benchmark.

    python3 figbench/run.py --workload fig08_bisection --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source tree. The simulator library and the
benchmark program (figbench.cc) are configured as a Release build into
$CARGO_TARGET_DIR, or .bench_build when that is unset, and rebuilt when
sources changed. Every argument is passed on to that program, which
prints its result as the last line of standard output; see the comment
at the top of figbench.cc for workloads and metrics. Build output goes
to standard error.

Each result is stamped with the git commit (when the tree is a git
checkout) and a hash of the simulator sources (always), so a number
can be traced to the code that produced it.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_hash():
    """SHA-256 over the files the benchmark is built from."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "bench", "bench_common.hh")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".cc", ".hh", ".txt"))]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("figbench: no simulator sources under " + ROOT + "/src",
              file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", jobs,
                 "--target", "figbench"]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print("figbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return r.returncode
    r = subprocess.run([os.path.join(build, "figbench")] + sys.argv[1:] +
                       ["--work-dir", build, "--git", git_sha(),
                        "--src-hash", source_hash()])
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
