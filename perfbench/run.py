"""primeshift benchmark: run one workload through the CLI and check every output.

    python3 perfbench/run.py --workload census-1e7 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the program is imported from src/ next to this
directory.  Every child is a fresh process with an empty working
directory, HOME and cache directory, no DD_SIEVE_LIMIT, a fixed
PYTHONHASHSEED and one BLAS/OpenMP thread.  Children run one after
another (closed loop, one caller) until --seconds have passed.  The last
stdout line is a JSON object with correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
HARD_STOP_S = 150  # start no child after this; the run must end within 180 s


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts isolated children under one scratch directory and checks their output."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = now()
        self.checker = workloads.Checker()
        self.attempted = 0
        self.failures: list[str] = []
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONHASHSEED": "0",
            "PYTHONUTF8": "1",
            "PYTHONPYCACHEPREFIX": str(workdir / "pycache"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1",
        }

    def elapsed(self) -> float:
        return now() - self.started

    def child(self, ops: list, trace: bool) -> dict | None:
        """Run ops in one fresh child; return its report with checks applied."""
        box = Path(tempfile.mkdtemp(dir=self.workdir, prefix="child-"))
        for sub in ("cwd", "home", "cache"):
            (box / sub).mkdir()
        env = dict(self.env, HOME=str(box / "home"), XDG_CACHE_HOME=str(box / "cache"), TMPDIR=str(box / "cwd"))
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), "1" if trace else "0"]
        self.attempted += len(ops)
        spawned = now()
        proc = subprocess.Popen(cmd, cwd=box / "cwd", env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(json.dumps([op.argv for op in ops]), timeout=max(10.0, 175 - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.failures += [f"timeout: {' '.join(op.argv)}" for op in ops]
            return None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            shutil.rmtree(box, ignore_errors=True)
        if proc.returncode != 0:
            self.failures += [f"child exited {proc.returncode}: {err.strip()[-300:]}"] * len(ops)
            return None
        try:
            report = json.loads(out)
        except ValueError:
            self.failures += [f"unreadable child report: {out[-300:]!r}"] * len(ops)
            return None
        report["setup_s"] = report["ready"] - spawned
        for op, rec in zip(ops, report["records"]):
            problem = self.check(op, rec)
            if problem:
                self.failures.append(f"{' '.join(op.argv)}: {problem}")
        return report

    def check(self, op, rec) -> str | None:
        if rec["rc"] != 0:
            return f"exit code {rec['rc']}: {rec['err'].strip()[-300:]}"
        try:
            self.checker.check(op, json.loads(rec["out"]))
        except oracle.CheckError as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"
        return None


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Nearest rank, and never below p90: a run of fewer than 100 commands
    (census-1e7 and sweep-200 run about 10 and 5) reports p90 instead of a
    percentile that could fall to the minimum.
    """
    s = sorted(values)
    n = len(s)
    rank = max(n - 10, -(-9 * n // 10))
    return s[rank - 1], 100.0 * rank / n


def end_to_end(name: str, probes: list[dict], children: list[dict]) -> tuple[dict, list[str]]:
    walls = [sum(r["ms"] for r in c["records"]) / 1e3 for c in children]
    op_ms = [r["ms"] for c in children for r in c["records"]]
    setups = [c["setup_s"] for c in probes + children]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(c["maxrss_kb"] / 1024 for c in children), "MB"),
        "ops_per_s": (len(op_ms) / (sum(op_ms) / 1e3), "1/s"),
    }
    value, pct = tail(op_ms)
    notes = [f"wall_s over {len(walls)} children, setup_s over {len(setups)} starts, {len(op_ms)} commands",
             f"op_p50_ms {statistics.median(op_ms):.6g} ms",
             f"op_tail_ms {value:.6g} ms (p{pct:.1f} of {len(op_ms)} command latencies)"]
    if name in workloads.STARTS_PER_OP:
        total = workloads.STARTS_PER_OP[name] * len(op_ms)
        notes.append(f"starts_per_s {total / (sum(op_ms) / 1e3):.6g} 1/s")
    return metrics, notes


LAYER_FUNCS = {
    "sieve.build_sieve": ("calls", "ms"),
    "sieve.is_prime": ("calls", "ms"),
    "sieve.factorize": ("calls", "ms"),
    "arith.shifted_B": ("calls", "ms"),
    "arith.small_beta": ("calls", "ms"),
    "tables.build_value_table": ("calls", "ms"),
    "tables.step_map": ("calls", "ms"),
    "census.run_census": ("calls", "ms", "self_ms"),
    "census.serialize": ("ms",),
    "dynamics.canonicalize": ("calls", "ms"),
    "dynamics.iterate_orbit": ("calls", "ms"),
    "fibres.build_kappa": ("ms",),
    "fibres.enumerate_fibre": ("ms",),
    "fibres.preimage_density": ("ms",),
    "constructions.build_amicable": ("calls", "ms"),
    "constructions.find_ascending_chain": ("calls", "ms"),
    "stats.series": ("calls", "ms"),
}
LAYER_COUNTS = ("sieve.is_prime.mr_calls", "sieve.factorize.above_table", "census.escape_steps",
                "census.cycles", "dynamics.orbit_steps", "fibres.kappa_terms", "fibres.density_predicate_calls")
LAYER_PEAKS = {"sieve.spf_bytes": "bytes", "tables.value_table_bytes": "bytes",
               "census.run_census.peak_alloc_mb": "MB"}
MODULES = ("sieve", "arith", "tables", "dynamics", "census", "constructions", "fibres", "stats", "cli")


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-op means of the traced children's aggregates, plus the accounting."""
    calls, ms, self_ms, counts = {}, {}, {}, {}
    for c in traced:
        t = c["trace"]
        for src, dst in ((t["calls"], calls), (t["ms"], ms), (t["self_ms"], self_ms)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in t["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k in LAYER_PEAKS else counts.get(k, 0) + v
    ops = sum(len(c["records"]) for c in traced)
    op_wall = sum(r["ms"] for c in traced for r in c["records"]) / ops
    m = {}
    for fn, fields in LAYER_FUNCS.items():
        for f in fields:
            source = {"calls": calls, "ms": ms, "self_ms": self_ms}[f]
            m[f"{fn}.{f}"] = (source.get(fn, 0) / ops, "count/op" if f == "calls" else "ms/op")
    for k in LAYER_COUNTS:
        m[k] = (counts.get(k, 0) / ops, "count/op")
    for k, unit in LAYER_PEAKS.items():
        m[k] = (counts.get(k, 0), unit)
    m["cli.sieve_entries_per_op"] = (counts.get("sieve.entries", 0) / ops, "count/op")
    cand = counts.get("fibres.fibre_candidates", 0)
    m["fibres.fibre_hit_ratio"] = (counts.get("fibres.fibre_solutions", 0) / cand if cand else 0.0, "ratio")
    module_self = {mod: 0.0 for mod in MODULES}
    for label, v in self_ms.items():
        module_self[label.split(".")[0]] += v / ops
    for mod in MODULES:
        m[f"{mod}.self_ms"] = (module_self[mod], "ms/op")
    covered = sum(module_self.values())
    m["trace.op_ms"] = (op_wall, "ms/op")
    m["trace.uncovered_ms"] = (op_wall - covered, "ms/op")
    walls = lambda cs: statistics.median(sum(r["ms"] for r in c["records"]) / 1e3 for c in cs)
    m["trace.overhead_s"] = (walls(traced) - walls(untraced[: len(traced)]), "s")
    notes = [f"traced {len(traced)} children, {ops} ops; layer self times cover "
             f"{covered:.3f} of {op_wall:.3f} ms/op ({100 * covered / op_wall:.2f}%)"]
    return m, notes


# ---------------------------------------------------------------------------


def plan_digest(name: str, seed: int, children: int = 64) -> str:
    plan = workloads.PLANS[name](seed)
    argvs = [[op.argv for op in next(plan)] for _ in range(children)]
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()[:16]


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    plan = workloads.PLANS[name](seed)
    # set-up-only children for setup_s: a few up front, then one before each workload child
    probes = [] if trace else [runner.child([], False) for _ in range(SETUP_PROBES)]
    phase = seconds / 2 if trace else seconds
    plans, children = [], []
    t0 = now()
    while not plans or (now() - t0 < phase and runner.elapsed() < HARD_STOP_S):
        if not trace:
            probes.append(runner.child([], False))
        plans.append(next(plan))
        rep = runner.child(plans[-1], False)
        if rep:
            children.append(rep)
    if not children:
        return {"metrics": {}, "notes": ["no child completed"]}
    if not trace:
        metrics, notes = end_to_end(name, [p for p in probes if p], children)
    else:
        traced = []
        t0 = now()
        for ops in plans:
            if traced and (now() - t0 >= phase or runner.elapsed() >= HARD_STOP_S):
                break
            rep = runner.child(ops, True)
            if rep:
                traced.append(rep)
        if not traced:
            return {"metrics": {}, "notes": ["no traced child completed"]}
        metrics, notes = per_layer(traced, children)
    notes.insert(0, f"workload {name} seed {seed}: {len(plans)} children, plan sha256 {plan_digest(name, seed)}")
    return {"metrics": metrics, "notes": notes}


def result_line(runner: Runner, metrics: dict) -> str:
    return json.dumps({
        "correct": not runner.failures and bool(metrics),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so the running child is killed and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "primeshift" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no primeshift sources under {SRC}\n")
        return 2
    problems = oracle.self_test()
    if problems:
        sys.stderr.write("perfbench: the output checker is broken: " + "; ".join(problems) + "\n")
        return 3
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix="run-"))
    try:
        names = sorted(workloads.PLANS) if args.workload == "all" else [args.workload]
        for name in names:
            runner = Runner(workdir)
            res = run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
            for note in res["notes"]:
                print(note)
            for k, (v, u) in res["metrics"].items():
                print(f"  {k:40s} {v:14.6g} {u}")
            ratio = len(runner.failures) / max(runner.attempted, 1)
            print(f"  {'failed_ratio':40s} {ratio:14.6g} ({len(runner.failures)}/{runner.attempted})")
            for failure in runner.failures[:20]:
                print(f"  FAILED {failure}")
            print(result_line(runner, res["metrics"]), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
