"""Command-line front end.

Every subcommand is a thin wrapper over the library with reproducible
output: CSV (comma separated, header row, LF endings), JSON with a
schema_version field, or one text line for the commands that have one
(the others print CSV under --format text).  Exit codes: 0 success,
1 domain error (including a failed reference-table diff), 2 resource or
arithmetic error, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import golden
from .arith import Shift
from .census import cycle_count_sweep, reached_cycles, run_census
from .constructions import build_amicable, find_ascending_chain
from .dynamics import iterate_orbit
from .errors import DomainError, NonterminationError, RangeOverflowError
from .fibres import build_kappa, enumerate_fibre
from .sieve import build_sieve
from .stats import (
    average_order_series,
    b_minus_beta_series,
    estimate_local_density,
    parity_sum,
    preimage_density,
    residue_distribution,
)

DEFAULT_LIMIT = 10**6
SCHEMA_VERSION = 1
#: Table for the commands whose input is a few numbers: with primes up to
#: 2^16, trial division settles every n < 2^32, and Miller-Rabin plus rho
#: stay exact above that.
SMALL_TABLE = 2**16


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
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="no effect: bulk streams always build the next segment on one worker "
        "thread; kept because the benchmark harness passes it",
    )
    p.add_argument(
        "--extend-domain",
        action="store_true",
        help="define B(0)=0 and B(1)=1 so orbits may start at 0 or 1",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("orbit", help="orbit of n under B_a, e.g. --n 5 --a 2 -> 5 7 9 6 [cycle]")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--max-steps", type=int, default=None)

    sp = sub.add_parser("census", help="all cycles for one shift over starts <= limit, with basins")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    sp = sub.add_parser("sweep", help="nontrivial-cycle counts for a = 1..a-max (max is 4, at a=39)")
    sp.add_argument("--a-max", type=int, required=True)
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    sp = sub.add_parser(
        "table1",
        help="run the a=1..20 census and diff it against the bundled cycle catalog",
    )
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

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
    sp.add_argument("--x", type=int, default=DEFAULT_LIMIT)
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


def _write(args, text: str) -> int:
    """Write text, newline-terminated, to --out or stdout; 2 if --out fails."""
    if not text.endswith("\n"):
        text += "\n"
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"arithmetic/resource error: cannot write {args.out!r}: {exc.strerror}\n")
        return 2
    return 0


def _emit(args, payload: dict, columns: list[str], rows, text: str | None = None) -> int:
    """Write one command's result in the chosen --format.

    json writes payload under schema_version, csv writes the rows under
    the header columns, and text writes the text line, or the CSV for a
    command that has none.
    """
    if args.format == "json":
        return _write(args, json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2))
    if args.format == "text" and text is not None:
        return _write(args, text)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return _write(args, buf.getvalue())


def _cmd_orbit(args):
    table = build_sieve(SMALL_TABLE)
    rec = iterate_orbit(
        args.n, Shift(args.a), table,
        max_steps=args.max_steps, extend_domain=args.extend_domain,
    )
    payload = {
        "start": rec.start,
        "a": rec.shift.a,
        "trajectory": list(rec.trajectory),
        "entry_index": rec.entry_index,
        "cycle": list(rec.cycle),
        "stopping_time": rec.stopping_time,
        "total_stopping_time": rec.total_stopping_time,
    }
    body = " ".join(str(v) for v in rec.trajectory[:-1])
    return _emit(args, payload, ["step", "value"], enumerate(rec.trajectory), f"{body} [cycle]")


def _cmd_census(args):
    rep = run_census(Shift(args.a), args.limit)
    cycles = zip(rep.cycles, rep.basin_counts)
    if args.format != "json":
        columns = ["a", "cycle_id", "length", "members", "sign_pattern", "basin_count"]
        rows = ((args.a, i, len(c), ";".join(map(str, c.members)), c.sign_pattern, n)
                for i, (c, n) in enumerate(cycles))
        return _emit(args, {}, columns, rows)
    payload = {
        "a": args.a,
        "start_limit": rep.start_limit,
        "cycles": [{"members": list(c.members), "sign_pattern": c.sign_pattern, "basin_count": n}
                   for c, n in cycles],
        "stopping_time_histogram": {
            str(k): v for k, v in sorted(rep.stopping_time_histogram.items())
        },
        "max_total_stopping_time": rep.max_total_stopping_time,
    }
    return _emit(args, payload, [], [])


def _cmd_sweep(args):
    counts, argmax = cycle_count_sweep(args.a_max, args.limit)
    payload = {
        "counts": {str(a): c for a, c in sorted(counts.items())},
        "max": max(counts.values()),
        "argmax": sorted(argmax),
    }
    return _emit(args, payload, ["a", "nontrivial_cycles"], sorted(counts.items()))


def _cmd_table1(args):
    """The catalog diff, as text in every format; exit 1 unless every row matches."""
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
    return _write(args, "\n".join(lines)) or int(matches != len(golden.CYCLE_TABLE))


def _cmd_amicable(args):
    pair = build_amicable(args.p, build_sieve(SMALL_TABLE))
    p, n, a = pair.p, pair.n, pair.shift.a
    return _emit(args, {"p": p, "n": n, "a": a}, ["p", "n", "a"], [(p, n, a)], f"p={p} n={n} a={a}")


def _cmd_chain(args):
    w = find_ascending_chain(args.k, args.bound, build_sieve(SMALL_TABLE))
    if w is None:
        payload = {"k": args.k, "n": None, "a": None, "chain": None}
        return _emit(args, payload, ["k", "n", "a", "chain"], [], "none")
    payload = {"k": w.k, "n": w.n, "a": w.shift.a, "chain": list(w.chain)}
    row = (w.k, w.n, w.shift.a, ";".join(str(v) for v in w.chain))
    text = f"k={w.k} n={w.n} a={w.shift.a} chain={' '.join(str(v) for v in w.chain)}"
    return _emit(args, payload, ["k", "n", "a", "chain"], [row], text)


def _cmd_kappa(args):
    kt = build_kappa(args.limit, build_sieve(max(args.limit, 2)))
    rows = [(m, kt[m]) for m in range(1, args.limit + 1)]
    payload = {"kappa": {str(m): str(k) for m, k in rows}}
    return _emit(args, payload, ["m", "kappa"], rows)


def _cmd_fibre(args):
    table = build_sieve(max(min(args.m, args.bound // 2), 2))
    hits = enumerate_fibre(args.m, Shift(args.a), args.bound, table)
    payload = {"m": args.m, "a": args.a, "bound": args.bound, "solutions": hits}
    text = " ".join(str(n) for n in hits) if hits else "none"
    return _emit(args, payload, ["n"], [(n,) for n in hits], text)


def _target(spec: str, x: int):
    """target(lo, spf) for preimage_density: the set's members among the k
    in [lo, hi = lo + spf.size).  The primes are the k with spf(k) = k, the
    squares those of the roots from ceil(sqrt(lo)) to sqrt(hi - 1); a
    file's members <= x are read once and sliced per segment."""
    if spec == "primes":
        return lambda lo, spf: spf == np.arange(lo, lo + spf.size, dtype=spf.dtype)
    if spec == "squares":
        def members(lo, hi):
            return np.arange(math.isqrt(lo - 1) + 1 if lo else 0, math.isqrt(hi - 1) + 1) ** 2
    elif spec.startswith("file:"):
        path = spec[len("file:") :]
        try:
            with open(path, encoding="utf-8") as fh:
                found = [m for m in map(int, filter(str.strip, fh)) if 0 <= m <= x]
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read target set file {path!r}: {exc}") from None
        found = np.unique(np.array(found, dtype=np.int64))
        members = lambda lo, hi: found[np.searchsorted(found, lo) : np.searchsorted(found, hi)]
    else:
        raise DomainError(f"unknown target set {spec!r}")

    def target(lo, spf):
        marks = np.zeros(spf.size, dtype=bool)
        marks[members(lo, lo + spf.size) - lo] = True
        return marks

    return target


def _cmd_density(args):
    count, density = preimage_density(_target(args.target, args.x), args.x)
    payload = {"set": args.target, "x": args.x, "count": count, "density": density}
    return _emit(args, payload, list(payload), [payload.values()])


_SERIES = {"avg": average_order_series, "bmb": b_minus_beta_series, "parity": parity_sum}


def _cmd_stats(args):
    if args.mode == "density":
        payload = {"N": args.N, "x": args.x, "density": estimate_local_density(args.N, args.x)}
        return _emit(args, payload, list(payload), [payload.values()])
    if args.mode == "residue":
        counts = residue_distribution(Shift(args.a), args.q, args.x)
        payload = {"a": args.a, "q": args.q, "x": args.x,
                   "counts": {str(h): c for h, c in sorted(counts.items())}}
        return _emit(args, payload, ["h", "count"], sorted(counts.items()))
    s = _SERIES[args.mode](Shift(args.a), _checkpoints(args.x))
    rows = list(zip(s.checkpoints, s.sums, s.reference, s.ratios))
    columns = ["x", "sum", "reference", "ratio"]
    return _emit(args, {"rows": [dict(zip(columns, row)) for row in rows]}, columns, rows)


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
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
