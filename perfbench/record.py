"""Run the benchmark over many seeds and record medians, quartiles and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/record.py --seeds 1-5 --workloads queries

For every workload and seed this runs run.py --trace 0, then one
--trace 1 run per workload on the first seed.  For each end-to-end metric
it reports the median and the spread (q3 - q1) / median over the seeds,
with quartiles from statistics.quantiles(values, n=4), next to the bound
in BENCHMARK.json.  --out writes the record with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                capture_output=True, text=True).stdout.strip(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return info


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if not line.startswith("  ") or "FAILED" in line]
    result["run_s"] = round(time.monotonic() - t0, 2)
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = {}
        for seed in seeds:
            res = run_once(name, seed, args.seconds, 0)
            runs[seed] = res
            print(f"{name} seed {seed}: correct={res['correct']} {res['failed']}/{res['attempted']} failed, "
                  f"{res['run_s']} s; " + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        entry = {"runs": {str(s): {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                                   "run_s": r["run_s"], "notes": r["notes"],
                                   "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                          for s, r in runs.items()},
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            summary = summarize([r["metrics"][metric]["value"] for r in runs.values()])
            summary["unit"] = next(iter(runs.values()))["metrics"][metric]["unit"]
            summary["bound"] = bound
            entry["end_to_end"][metric] = summary
            flag = "" if summary["spread"] is None or summary["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:14s} median {summary['median']:<12.6g} spread {summary['spread']:.4f} "
                  f"bound {bound}{flag}", flush=True)
        traced = run_once(name, seeds[0], args.seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], "correct": traced["correct"], "notes": traced["notes"],
                              "metrics": traced["metrics"]}
        print(f"  traced seed {seeds[0]}: correct={traced['correct']}, {traced['run_s']} s", flush=True)
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
