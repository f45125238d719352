"""Command-line front end.

Every subcommand is a thin wrapper over the library with reproducible
output: CSV (comma separated, header row, LF endings) or JSON with a
schema_version field.  Exit codes: 0 success, 1 domain error (including a
failed reference-table diff), 2 resource or arithmetic error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import golden, sieve as sieve_mod
from .arith import Shift
from .census import (
    SCHEMA_VERSION,
    census_to_csv,
    census_to_json,
    cycle_count_sweep,
    reached_cycles,
    run_census,
)
from .constructions import build_amicable, find_ascending_chain
from .dynamics import iterate_orbit
from .errors import DomainError, NonterminationError, RangeOverflowError
from .fibres import build_kappa, enumerate_fibre, preimage_density
from .sieve import build_sieve
from .stats import (
    average_order_series,
    b_minus_beta_series,
    estimate_local_density,
    parity_sum,
    residue_distribution,
)
from .tables import build_value_table

DEFAULT_SIEVE_LIMIT = 10**6


@dataclass
class RunConfig:
    """Resolved execution parameters shared by all subcommands."""

    sieve_limit: int
    fmt: str
    out: str | None
    extend_domain: bool
    seed: int


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="primeshift",
        description="Shifted prime-divisor functions: orbits, censuses, "
        "constructions, fibres, and distribution checks.",
    )
    p.add_argument(
        "--sieve-limit",
        type=int,
        default=None,
        help="smallest-prime-factor table size (default: env DD_SIEVE_LIMIT "
        f"or {DEFAULT_SIEVE_LIMIT}); census, sweep and table1 size their own",
    )
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.add_argument(
        "--extend-domain",
        action="store_true",
        help="define B(0)=0 and B(1)=1 so orbits may start at 0 or 1",
    )
    p.add_argument("--seed", type=int, default=0x5EED, help="seed for the factorization fallback")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("orbit", help="orbit of n under B_a, e.g. --n 5 --a 2 -> 5 7 9 6 [cycle]")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--max-steps", type=int, default=None)

    sp = sub.add_parser("census", help="all cycles for one shift over starts <= limit, with basins")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--limit", type=int, default=DEFAULT_SIEVE_LIMIT)

    sp = sub.add_parser("sweep", help="nontrivial-cycle counts for a = 1..a-max (max is 4, at a=39)")
    sp.add_argument("--a-max", type=int, required=True)
    sp.add_argument("--limit", type=int, default=DEFAULT_SIEVE_LIMIT)

    sp = sub.add_parser(
        "table1",
        help="run the a=1..20 census and diff it against the bundled cycle catalog",
    )
    sp.add_argument("--limit", type=int, default=DEFAULT_SIEVE_LIMIT)

    sp = sub.add_parser("amicable", help="2-cycle through a prime, e.g. --p 11 -> p=11 n=28 a=17")
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("chain", help="ascending prime chain of length k, e.g. --k 4 -> 5 11 17 23 29")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--bound", type=int, default=10**3)

    sp = sub.add_parser("kappa", help="prime-partition counts; kappa(7)=3 from {7},{5,2},{3,2,2}")
    sp.add_argument("--limit", type=int, required=True)

    sp = sub.add_parser("fibre", help="solutions of B_a(n)=m, e.g. --m 7 -> 7 10 12")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--bound", type=int, default=10**3)

    sp = sub.add_parser("density", help="density of n <= x with B(n) in a target set")
    sp.add_argument("--set", dest="target", required=True, help="squares | primes | file:<path>")
    sp.add_argument("--x", type=int, required=True)

    sp = sub.add_parser("stats", help="partial-sum diagnostics (sum B_a ~ pi^2 x^2 / 12 log x etc.)")
    sp.add_argument("mode", choices=["avg", "bmb", "density", "parity", "residue"])
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--x", type=int, default=DEFAULT_SIEVE_LIMIT)
    sp.add_argument("--q", type=int, default=3)
    sp.add_argument("--N", type=int, default=0)
    return p


def _checkpoints(x: int) -> list[int]:
    cps = []
    c = 10
    while c < x:
        cps.append(c)
        c *= 10
    cps.append(x)
    return cps


def _emit(cfg: RunConfig, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _series_output(cfg: RunConfig, series) -> str:
    rows = [
        {"x": x, "sum": s, "reference": r, "ratio": t}
        for x, s, r, t in zip(
            series.checkpoints, series.sums, series.reference, series.ratios
        )
    ]
    if cfg.fmt == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, "rows": rows}, indent=2)
    return _csv(rows, ["x", "sum", "reference", "ratio"])


def _make_table(cfg: RunConfig, needed: int):
    return build_sieve(max(cfg.sieve_limit, needed))


def _cmd_orbit(cfg, args):
    table = _make_table(cfg, 100)
    rec = iterate_orbit(
        args.n, Shift(args.a), table,
        max_steps=args.max_steps, extend_domain=cfg.extend_domain,
    )
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "schema_version": SCHEMA_VERSION,
            "start": rec.start,
            "a": rec.shift.a,
            "trajectory": list(rec.trajectory),
            "entry_index": rec.entry_index,
            "cycle": list(rec.cycle),
            "stopping_time": rec.stopping_time,
            "total_stopping_time": rec.total_stopping_time,
        }, indent=2))
    elif cfg.fmt == "csv":
        rows = [{"step": i, "value": v} for i, v in enumerate(rec.trajectory)]
        _emit(cfg, _csv(rows, ["step", "value"]))
    else:
        body = " ".join(str(v) for v in rec.trajectory[:-1])
        _emit(cfg, f"{body} [cycle]")
    return 0


def _cmd_census(cfg, args):
    rep = run_census(Shift(args.a), args.limit)
    if cfg.fmt == "json":
        _emit(cfg, census_to_json(rep))
    else:
        _emit(cfg, census_to_csv(rep))
    return 0


def _cmd_sweep(cfg, args):
    counts, argmax = cycle_count_sweep(args.a_max, args.limit)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "schema_version": SCHEMA_VERSION,
            "counts": {str(a): c for a, c in sorted(counts.items())},
            "max": max(counts.values()),
            "argmax": sorted(argmax),
        }, indent=2))
    else:
        rows = [{"a": a, "nontrivial_cycles": c} for a, c in sorted(counts.items())]
        _emit(cfg, _csv(rows, ["a", "nontrivial_cycles"]))
    return 0


def _cmd_table1(cfg, args):
    lines = []
    matches = 0
    for a in sorted(golden.CYCLE_TABLE):
        got = {c.members for c in reached_cycles(a, args.limit)}
        want = golden.canonical_set(golden.CYCLE_TABLE[a])
        if got == want:
            matches += 1
        else:
            note = ""
            if a in golden.KNOWN_BAD_ROWS:
                note = " (catalog row is not closed under the map; known inconsistency)"
            lines.append(f"a={a}: computed {sorted(got)} != catalog {sorted(want)}{note}")
    lines.insert(0, f"MATCH: {matches}/{len(golden.CYCLE_TABLE)} rows")
    _emit(cfg, "\n".join(lines))
    return 0 if matches == len(golden.CYCLE_TABLE) else 1


def _cmd_amicable(cfg, args):
    table = _make_table(cfg, 100)
    pair = build_amicable(args.p, table)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "schema_version": SCHEMA_VERSION,
            "p": pair.p, "n": pair.n, "a": pair.shift.a,
        }, indent=2))
    elif cfg.fmt == "csv":
        _emit(cfg, _csv([{"p": pair.p, "n": pair.n, "a": pair.shift.a}], ["p", "n", "a"]))
    else:
        _emit(cfg, f"p={pair.p} n={pair.n} a={pair.shift.a}")
    return 0


def _cmd_chain(cfg, args):
    table = _make_table(cfg, 100)
    witness = find_ascending_chain(args.k, args.bound, table)
    if witness is None:
        _emit(cfg, "none")
        return 0
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "schema_version": SCHEMA_VERSION,
            "k": witness.k, "n": witness.n, "a": witness.shift.a,
            "chain": list(witness.chain),
        }, indent=2))
    elif cfg.fmt == "csv":
        row = {
            "k": witness.k, "n": witness.n, "a": witness.shift.a,
            "chain": ";".join(str(v) for v in witness.chain),
        }
        _emit(cfg, _csv([row], ["k", "n", "a", "chain"]))
    else:
        _emit(cfg, f"k={witness.k} n={witness.n} a={witness.shift.a} "
                   f"chain={' '.join(str(v) for v in witness.chain)}")
    return 0


def _cmd_kappa(cfg, args):
    table = _make_table(cfg, args.limit)
    kt = build_kappa(args.limit, table)
    rows = [{"m": m, "kappa": kt[m]} for m in range(1, args.limit + 1)]
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "schema_version": SCHEMA_VERSION,
            "kappa": {str(r["m"]): str(r["kappa"]) for r in rows},
        }, indent=2))
    else:
        _emit(cfg, _csv(rows, ["m", "kappa"]))
    return 0


def _cmd_fibre(cfg, args):
    table = _make_table(cfg, min(args.m, args.bound // 2))
    hits = enumerate_fibre(args.m, Shift(args.a), args.bound, table)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "schema_version": SCHEMA_VERSION,
            "m": args.m, "a": args.a, "bound": args.bound, "solutions": hits,
        }, indent=2))
    elif cfg.fmt == "csv":
        _emit(cfg, _csv([{"n": n} for n in hits], ["n"]))
    else:
        _emit(cfg, " ".join(str(n) for n in hits) if hits else "none")
    return 0


def _read_members(path: str) -> set[int]:
    try:
        with open(path, encoding="utf-8") as fh:
            return {int(line) for line in fh if line.strip()}
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read target set file {path!r}: {exc}") from None


def _target_predicate(spec: str, vt):
    """Vectorised membership test for B-values, which lie in [2, vt.limit]."""
    if spec == "primes":
        mask = vt.prime_mask
    else:
        if spec == "squares":
            members = np.arange(math.isqrt(vt.limit) + 1) ** 2
        elif spec.startswith("file:"):
            members = [m for m in _read_members(spec[len("file:") :]) if 0 <= m <= vt.limit]
        else:
            raise DomainError(f"unknown target set {spec!r}")
        mask = np.zeros(vt.limit + 1, dtype=bool)
        mask[members] = True
    return lambda v: mask[v]


def _cmd_density(cfg, args):
    table = _make_table(cfg, args.x)
    vt = build_value_table(table)
    count, density = preimage_density(_target_predicate(args.target, vt), args.x, table, vt)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "schema_version": SCHEMA_VERSION,
            "set": args.target, "x": args.x, "count": count, "density": density,
        }, indent=2))
    else:
        _emit(cfg, _csv(
            [{"set": args.target, "x": args.x, "count": count, "density": density}],
            ["set", "x", "count", "density"],
        ))
    return 0


def _cmd_stats(cfg, args):
    table = _make_table(cfg, args.x)
    vt = build_value_table(table)
    cps = _checkpoints(args.x)
    if args.mode == "avg":
        _emit(cfg, _series_output(cfg, average_order_series(Shift(args.a), cps, table, vt)))
    elif args.mode == "bmb":
        _emit(cfg, _series_output(cfg, b_minus_beta_series(Shift(args.a), cps, table, vt)))
    elif args.mode == "parity":
        _emit(cfg, _series_output(cfg, parity_sum(Shift(args.a), cps, table, vt)))
    elif args.mode == "density":
        d = estimate_local_density(args.N, args.x, table, vt)
        _emit(cfg, _csv([{"N": args.N, "x": args.x, "density": d}], ["N", "x", "density"]))
    else:  # residue
        counts = residue_distribution(Shift(args.a), args.q, args.x, table, vt)
        rows = [{"h": h, "count": c} for h, c in sorted(counts.items())]
        if cfg.fmt == "json":
            _emit(cfg, json.dumps({
                "schema_version": SCHEMA_VERSION,
                "a": args.a, "q": args.q, "x": args.x,
                "counts": {str(h): c for h, c in sorted(counts.items())},
            }, indent=2))
        else:
            _emit(cfg, _csv(rows, ["h", "count"]))
    return 0


_COMMANDS = {
    "orbit": _cmd_orbit,
    "census": _cmd_census,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "amicable": _cmd_amicable,
    "chain": _cmd_chain,
    "kappa": _cmd_kappa,
    "fibre": _cmd_fibre,
    "density": _cmd_density,
    "stats": _cmd_stats,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    sieve_limit = args.sieve_limit
    if sieve_limit is None:
        sieve_limit = int(os.environ.get("DD_SIEVE_LIMIT", DEFAULT_SIEVE_LIMIT))
    fmt = args.format
    if fmt == "text" and args.command in ("census", "sweep", "kappa", "density"):
        fmt = "csv"  # these have no natural one-line text form
    cfg = RunConfig(
        sieve_limit=sieve_limit,
        fmt=fmt,
        out=args.out,
        extend_domain=args.extend_domain,
        seed=args.seed,
    )
    sieve_mod.set_default_seed(cfg.seed)
    try:
        return _COMMANDS[args.command](cfg, args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 1
    except (RangeOverflowError, NonterminationError, MemoryError) as exc:
        sys.stderr.write(f"arithmetic/resource error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
