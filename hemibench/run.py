"""Run one workload of the hemisystems benchmark.

    python3 hemibench/run.py --workload rank3-q5 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  With ``--trace 0`` the result carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run, whose spans are
also written to ``.bench_out/``.  The last line of standard output is the
result object; the lines before it are a readable summary and a ``report``
line with the samples, the machine and the errors.  Exit code 2 means the
benchmark could not run (unknown workload, or no package to drive).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    l3 = None
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hemisystems" / "__init__.py").is_file():
        print(f"no package to benchmark: {src / 'hemisystems'} is missing", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(src), str(ROOT)]
    from hemibench.workloads import RUNGS, Runner

    if args.workload not in RUNGS:
        print(f"unknown workload {args.workload!r}; one of {sorted(RUNGS)}", file=sys.stderr)
        return 2

    runner = Runner(RUNGS[args.workload], args.seed, args.seconds, bool(args.trace))
    runner.run()
    metrics = runner.per_layer() if args.trace else runner.end_to_end()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "note": "single-run figures on a shared machine are indicative",
        **runner.report(),
    }
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.json"
        runner.tr.dump(path)
        report["spans_file"] = str(path.relative_to(ROOT))

    samples = report["samples"]
    for name, m in metrics.items():
        extra = ""
        if name in samples:
            s = samples[name]
            extra = f"  n={s['n']}" + "".join(
                f" {k}={v:.6g}" for k, v in s.items() if k.startswith("p")
            )
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}{extra}")
    print("errors:", report["error_rate"], "tamper probe:", report["tamper_probe"])
    print("report", json.dumps(report, sort_keys=True))
    tally = runner.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
