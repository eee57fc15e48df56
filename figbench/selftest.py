#!/usr/bin/env python3
"""Quick-scale self-test of the figure-regeneration benchmark.

    python3 figbench/selftest.py

Runs every workload named in BENCHMARK.json at quick scale, untraced
and traced, through run.py, and checks that each run prints every
end-to-end (untraced) or per-layer (traced) metric with its unit, that
no run, shape check or determinism check failed, and that both runs of
a workload report the same simulated digest. Exits non-zero on the
first mismatch. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "quick"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("selftest: %s exited %d\n%s" % (" ".join(cmd), r.returncode,
                                                  r.stderr[-4000:]))
    lines = r.stdout.strip().splitlines()
    digest = [l for l in lines if l.startswith("figbench: digest=")]
    return json.loads(lines[-1]), digest[0] if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        digests = set()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, digest = run(name, trace)
            digests.add(digest)
            if not result["correct"] or result["failed"] != 0:
                sys.exit("selftest: %s trace=%d failed %d of %d" %
                         (name, trace, result["failed"],
                          result["attempted"]))
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[group]}
            for metric, unit in want.items():
                got = metrics.get(metric)
                if got is None or got.get("unit") != unit:
                    sys.exit("selftest: %s trace=%d: metric %s missing "
                             "or not in %s" % (name, trace, metric, unit))
            extra = set(metrics) - set(want)
            if extra:
                sys.exit("selftest: %s trace=%d: unlisted metrics %s" %
                         (name, trace, sorted(extra)))
            print("selftest: %s trace=%d ok (%d metrics, %d runs)" %
                  (name, trace, len(metrics), result["attempted"]))
        if len(digests) != 1 or None in digests:
            sys.exit("selftest: %s digests differ between runs: %s" %
                     (name, sorted(map(str, digests))))
    print("selftest: ok")


if __name__ == "__main__":
    main()
