"""One pass over one workload's job list, in a fresh process.

Started by run.py, one process per pass; prints one JSON line with the
pass's measurements and check results.  Set-up (interpreter start,
imports, seeded input generation, one warm-up call per job) runs before
the first timed job; output checks run after the last one, with no
tracer installed.

A run checks its first pass in full.  Each later pass gets that pass's
output digests (``--expect``) and must reproduce them byte for byte,
which checks it as strictly at a fraction of the cost.

    PYTHONPATH=src python3 perfbench/bench_pass.py --workload hedge --seed 1 \\
        --trace 0 --spawned-at "$(python3 -c 'import time; print(time.monotonic())')" \\
        --work-dir .perfbench/work
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

PINNED = Path(__file__).with_name("pinned.json")
REF_S = 0.02  # nominal duration of reference(): the second that reported times are in


def reference() -> float:
    """Time a fixed pure-Python computation, in seconds.

    The same process runs it next to each job, and each job's time is
    scaled by REF_S over it.  On a shared host the whole machine slows
    and speeds up, by up to 1.6x for minutes at a time.  The ratio of a
    job's time to this reference moves by about 2% when the speed shifts
    between passes, where the raw time moves by 25%.  The reference uses
    Fraction and dict arithmetic, as faircoin's hot paths do.  No faircoin
    code runs inside it, but it shares the process with the jobs: state a
    job leaves behind (gc settings, profiling hooks, a larger heap) moves
    the job and the reference together.
    """
    start = time.perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 5000):
        acc += Fraction(i % 7 - 3, i % 1000 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


def _digest(job, result) -> str:
    """sha256 of a job's output: its CLI stdout file, else its payload."""
    if job.output:
        with open(job.output, "rb") as f:
            return hashlib.file_digest(f, "sha256").hexdigest()
    return hashlib.sha256(json.dumps(job.payload(result)).encode()).hexdigest()


def _pin(job, result):
    payload = job.payload(result)
    if job.approx:
        return {"floats": [x for row in payload for x in row]}
    blob = json.dumps(payload, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest()}


def _pin_failures(pin, want) -> list[str]:
    if "floats" in want:
        got, ref = pin["floats"], want["floats"]
        if len(got) == len(ref) and all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                                        for a, b in zip(got, ref)):
            return []
    elif pin == want:
        return []
    return ["numeric payload differs from the values pinned in pinned.json"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans", default=None, help="file for the traced pass's spans")
    ap.add_argument("--expect", default=None,
                    help="JSON file of output digests from a fully checked pass")
    args = ap.parse_args()

    import numpy
    import faircoin

    src = Path.cwd() / "src"
    if Path(faircoin.__file__).resolve().parent != (src / "faircoin").resolve():
        print(f"faircoin imported from {faircoin.__file__}, not from {src}", file=sys.stderr)
        return 2

    from tracer import Tracer, unit_of
    from workloads import PIN_SEED, WORKLOADS

    os.makedirs(args.work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    for job in workload.jobs:
        job.warm()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    refs = [reference()]
    setup_raw = time.monotonic() - args.spawned_at - refs[0]
    results, seconds, failures = {}, {}, {}
    for job in workload.jobs:
        start = time.perf_counter()
        try:
            results[job.name] = job.run()
        except Exception:
            failures[job.name] = [traceback.format_exc(limit=-3)]
        seconds[job.name] = time.perf_counter() - start
        refs.append(reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    # each job at the speed of the references timed just before and after it
    speed = {job.name: REF_S * 2 / (before + after)
             for job, before, after in zip(workload.jobs, refs, refs[1:])}

    pins = json.loads(PINNED.read_text())
    expect = json.loads(Path(args.expect).read_text()) if args.expect else None
    digests = {}
    for job in workload.jobs:
        if job.name in failures:
            continue
        result = results[job.name]
        try:
            digests[job.name] = _digest(job, result)
            if expect is not None:
                if digests[job.name] != expect.get(job.name):
                    failures[job.name] = ["output does not match a checked output of the first pass"]
                continue
            problems = job.check(result, results)
            if not job.seeded or args.seed == PIN_SEED:
                want = pins.get(workload.name, {}).get(job.name)
                if want is None:
                    problems = problems + ["no pinned payload for this job"]
                else:
                    problems = problems + _pin_failures(_pin(job, result), want)
        except Exception:
            problems = [traceback.format_exc(limit=-3)]
        if problems:
            failures[job.name] = problems
    # later passes compare against checked outputs only, so a wrong output
    # fails in every pass, not only in the first
    digests = {name: d for name, d in digests.items() if name not in failures}

    outputs = [job.output for job in workload.jobs if job.output and os.path.exists(job.output)]
    rated = [job for job in workload.jobs if job.work]
    report = {
        "setup_s": setup_raw * REF_S / refs[0],
        "wall_s": sum(seconds[name] * speed[name] for name in seconds),
        "peak_rss_mb": peak_rss_mb,
        "work": sum(job.work for job in rated),
        "work_s": sum(seconds[job.name] * speed[job.name] for job in rated),
        "raw_setup_s": setup_raw,
        "raw_wall_s": sum(seconds.values()),
        "job_s": seconds,
        "ref_s": refs,
        "attempted": len(workload.jobs),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count()},
    }
    if tracer:
        report["self_check"] = [f"{tid} did not fire" for tid in workload.fires
                                if not tracer.calls[tid]]
        scale = REF_S * len(refs) / sum(refs)
        report["per_layer"] = {
            name: value * scale if unit_of(name) in ("ref_s", "ref_us", "ref_ns") else value
            for name, value in tracer.metrics(sum(os.path.getsize(p) for p in outputs)).items()}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
