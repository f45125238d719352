"""Per-layer accounting, installed from outside the program.

Tracer.install() replaces every public function of the primeshift layer
modules, in every module namespace that binds it (census.shifted_B,
dynamics.shifted_B, cli.run_census, ...), with a wrapper that keeps a
stack of open calls.  Each call adds its duration to the caller's child
time, so self time = duration - time spent in wrapped callees.  Nothing
is recorded per call: every function keeps aggregate calls, ms and
self_ms, which keeps the cost of hot scalar functions (is_prime,
shifted_B, factorize) to a counter update.  run_census additionally runs
under tracemalloc, which sees numpy buffers, for its peak allocation.
uninstall() puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

MODULES = ("sieve", "arith", "tables", "dynamics", "census", "constructions", "fibres", "stats", "cli")

# Functions reported under one shared name instead of their own.
GROUPS = {
    "census.census_to_json": "census.serialize",
    "census.census_to_csv": "census.serialize",
    "census.census_rows": "census.serialize",
}
GROUPED_MODULES = {"stats": "stats.series"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.counts = defaultdict(float)
        self.stack = [["root", 0.0]]
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"primeshift.{name}") for name in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("primeshift")]
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                label = GROUPED_MODULES.get(short) or GROUPS.get(f"{short}.{attr}", f"{short}.{attr}")
                wrappers[fn] = self._wrap(label, fn)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, label, fn):
        stack, calls, ms, self_ms = self.stack, self.calls, self.ms, self.self_ms
        before = getattr(self, "_before_" + label.replace(".", "_"), None)
        after = getattr(self, "_after_" + label.replace(".", "_"), None)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(stack[-1][0], args, kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = (perf() - t0) * 1e3
                stack.pop()
                stack[-1][1] += dt
                calls[label] += 1
                ms[label] += dt
                self_ms[label] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Hot scalar functions: counters only.

    def _before_sieve_is_prime(self, parent, args, kwargs):
        n = args[0]
        table = args[1] if len(args) > 1 else kwargs.get("table")
        if n >= 2 and (table is None or n > table.limit):
            self.counts["sieve.is_prime.mr_calls"] += 1
        return args, kwargs

    def _before_sieve_factorize(self, parent, args, kwargs):
        table = args[1] if len(args) > 1 else kwargs["table"]
        if args[0] > table.limit:
            self.counts["sieve.factorize.above_table"] += 1
        return args, kwargs

    def _before_arith_shifted_B(self, parent, args, kwargs):
        if parent == "census.run_census":
            self.counts["census.escape_steps"] += 1
        return args, kwargs

    # Span functions: sizes and work counts read from arguments and results.

    def _after_sieve_build_sieve(self, args, kwargs, table):
        self.counts["sieve.spf_bytes"] = max(self.counts["sieve.spf_bytes"], table.spf.nbytes)
        self.counts["sieve.entries"] += table.limit + 1

    def _after_tables_build_value_table(self, args, kwargs, vt):
        size = vt.big_b.nbytes + vt.beta.nbytes + vt.prime_mask.nbytes
        self.counts["tables.value_table_bytes"] = max(self.counts["tables.value_table_bytes"], size)

    def _after_dynamics_iterate_orbit(self, args, kwargs, rec):
        self.counts["dynamics.orbit_steps"] += len(rec.trajectory) - 1

    def _before_census_run_census(self, parent, args, kwargs):
        tracemalloc.start()
        return args, kwargs

    def _after_census_run_census(self, args, kwargs, report):
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        self.counts["census.run_census.peak_alloc_mb"] = max(self.counts["census.run_census.peak_alloc_mb"], peak)
        self.counts["census.cycles"] += len(report.cycles)

    def _after_fibres_build_kappa(self, args, kwargs, kt):
        self.counts["fibres.kappa_terms"] += kt.limit

    def _after_fibres_enumerate_fibre(self, args, kwargs, hits):
        x_bound = args[2] if len(args) > 2 else kwargs["x_bound"]
        self.counts["fibres.fibre_solutions"] += len(hits)
        self.counts["fibres.fibre_candidates"] += max(x_bound - 1, 0)

    def _before_fibres_preimage_density(self, parent, args, kwargs):
        pred = args[0] if args else kwargs.pop("target_set")
        counts = self.counts

        def counted(v):
            counts["fibres.density_predicate_calls"] += 1
            return pred(v)

        return (counted,) + tuple(args[1:]), kwargs

    # -- report ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "ms": dict(self.ms),
            "self_ms": dict(self.self_ms),
            "counts": dict(self.counts),
        }
