"""faircoin benchmark: run one workload for a fixed time, print its metrics.

    python3 perfbench/run.py --workload hedge --seed 3 --seconds 15 --trace 0

Run from the root of a faircoin checkout; the package is imported from
its ``src`` directory.  Each pass over the workload's job list runs in a
fresh process (bench_pass.py), and passes repeat until ``--seconds`` is
used up, with at least MIN_PASSES of them.  The run reports the median
over its passes.  The first pass's outputs are checked in full; every
later pass must reproduce them byte for byte.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics of the traced passes, plus
``trace.overhead_ratio``, the traced over the untraced median ``wall_s``,
and ``raw.setup_s`` and ``raw.wall_s``, the untraced medians in clock
seconds.  Every other time is in reference units (bench_pass.reference).
Lines before it are a readable summary.  Exit status is 0 when a result
was printed, whether or not the outputs checked out (see ``correct``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
WORKLOADS = ("longpath-exact", "longpath-float", "lattice", "tree", "hedge")
RATES = {  # workload -> (summary name of work_per_s, unit)
    "longpath-exact": ("exact_rounds_per_s", "rounds/ref_s"),
    "longpath-float": ("float_rounds_per_s", "rounds/ref_s"),
    "lattice": ("lattice_states_per_s", "states/ref_s"),
    "tree": ("tree_paths_per_s", "paths/ref_s"),
    "hedge": ("exact_rounds_per_s", "rounds/ref_s"),
}
# setup_s is in reference seconds too; the benchmark contract fixes its unit name as "s"
UNITS = {"setup_s": "s", "wall_s": "ref_s", "peak_rss_mb": "MB", "work_per_s": "1/ref_s"}


class PassError(Exception):
    pass


def run_pass(root: Path, args, traced: bool, index: int, deadline: float,
             expect: Path | None) -> dict:
    out_dir = root / ".perfbench"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "bench_pass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work-dir", str(out_dir / f"work-{os.getpid()}")]
    if expect:
        cmd += ["--expect", str(expect)]
    if traced:
        (out_dir / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(out_dir / "spans" / f"{args.workload}-seed{args.seed}-{index}.jsonl")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {index} did not finish within the run's time limit") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run still stops its pass process: SystemExit unwinds
    # through subprocess.run, which kills the child and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "faircoin" / "__init__.py").is_file():
        print(f"{root} is not a faircoin checkout: src/faircoin is missing", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work_dir = root / ".perfbench" / f"work-{os.getpid()}"
    expect = None
    plain, traced = [], []
    try:
        while True:
            round_start = time.monotonic()
            for is_traced in ((False, True) if args.trace else (False,)):
                result = run_pass(root, args, is_traced, len(plain) + len(traced), deadline,
                                  expect)
                (traced if is_traced else plain).append(result)
                if expect is None:
                    expect = work_dir / "expect.json"
                    expect.write_text(json.dumps(result["digests"]))
            now = time.monotonic()
            if len(plain) >= MIN_PASSES and now + (now - round_start) > start + args.seconds:
                break
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = plain + traced
    failures = [(i, job, msg) for i, p in enumerate(passes)
                for job, msgs in p["failures"].items() for msg in msgs]
    self_check = [msg for p in traced for msg in p["self_check"]]
    for i, job, msg in failures[:10]:
        print(f"pass {i} job {job} failed: {msg}", file=sys.stderr)
    for msg in sorted(set(self_check)):
        print(f"tracer self-check: {msg}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def median(key, among=plain):
        return statistics.median(p[key] for p in among)

    env = plain[0]["env"]
    print(f"perfbench {args.workload} seed={args.seed} passes={len(plain)} untraced"
          f"{f', {len(traced)} traced' if traced else ''} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']}")
    if args.trace:
        layer = {name: statistics.median(p["per_layer"][name] for p in traced)
                 for name in traced[0]["per_layer"]}
        layer["trace.overhead_ratio"] = median("wall_s", traced) / median("wall_s")
        layer["raw.setup_s"] = median("raw_setup_s")
        layer["raw.wall_s"] = median("raw_wall_s")
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layer.items()}
    else:
        metrics = {
            "setup_s": median("setup_s"),
            "wall_s": median("wall_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "work_per_s": statistics.median(p["work"] / p["work_s"] for p in plain),
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()}
        rate, unit = RATES[args.workload]
        print(f"  {rate:<22} {metrics['work_per_s']['value']:.6g} {unit}"
              f"  (= work_per_s; work {plain[0]['work']} per pass)")
        print(f"  unscaled medians: setup {median('raw_setup_s'):.4g} s, "
              f"wall {median('raw_wall_s'):.4g} s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0 and not self_check, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
