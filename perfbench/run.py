"""Time every request against a hand-written NumPy floor.

Run from the repository root:

    python3 perfbench/run.py --workload host_small --seed 1 --seconds 10 --trace 0

Each request is timed from submit to result and divided by a hand-written
NumPy floor (floors.py) timed on the same inputs right after it; dividing
cancels the machine's slow drift in CPU speed. Every output is checked.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the separate traced run (traced.py) and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
is the run record (seed, code version, interpreter, NumPy, CPU count and the
absolute figures behind the normalised metrics).

Counts that must repeat exactly (failed requests, plan-cache hit rate, and
in traced runs the simulator's warp instructions and events) are kept in
perfbench/.runs/ per source digest; a run whose counts differ from an
earlier run of the same code is flagged and reported as incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(HERE, ".runs")


def source_digest() -> str:
    """Content hash of the program and the benchmark: one value per commit."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def compare_counts(workload: str, trace: int, digest: str, counts: dict) -> list[str]:
    """Compare with the first run of the same code; return the differing keys."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"counts-{workload}-trace{trace}.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    first = known.get(digest)
    if first is None:
        known[digest] = counts
        with open(path, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        return []
    return sorted(k for k in set(first) | set(counts) if first.get(k) != counts.get(k))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Run every thread on one CPU. In a closed loop the client, the engine's
    # worker and the floor never compute at once, and one virtual CPU of a
    # shared host can run 1.6 times slower than another: pinned, a request
    # and its floor always run on the same one, so dividing by the floor
    # cancels the difference.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import numpy as np

    import harness
    import traced
    from workloads import kinds_for, order_rng

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    kinds = kinds_for(args.workload)
    h = harness.Harness(kinds, args.seed)
    flags: list[str] = []
    try:
        if args.trace:
            h.warm()
            values, counts, context, flags = traced.run(
                h, args.seconds, order_rng(args.seed), args.workload)
        else:
            setup_s = h.measure_setup()
            h.warm()
            before = h.engine_counters()
            samples = h.timed_phase(args.seconds, order_rng(args.seed))
            delta = h.engine_counters(since=before)
            values = {
                "x_floor": samples.x_floor(),
                "x_floor_p50": samples.x_floor_p50(),
                "setup_s": setup_s,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            counts = {"engine.plan_cache_hit_rate": harness.hit_rate(delta)}
            context = samples.context(kinds)
    finally:
        h.close()

    counts["failed"] = h.failures.failed
    digest = source_digest()
    differing = compare_counts(args.workload, args.trace, digest, counts)
    if differing:
        flags.append("counts differ from an earlier run of this code: "
                     + ", ".join(differing))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_digest": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "kinds": len(kinds),
        "attempted": h.failures.attempted,
        "failed": h.failures.failed,
        "failures": h.failures.reasons,
        "counts": counts,
        "flags": flags,
        "context": context,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": h.failures.failed == 0 and not flags,
        "attempted": h.failures.attempted,
        "failed": h.failures.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
