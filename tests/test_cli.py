import ast
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import verify_amicable
from primeshift import AmicablePair, cli, constructions, tables
from primeshift import sieve as sieve_mod
from primeshift.arith import big_B, shifted_B
from primeshift.cli import run
from primeshift.sieve import build_sieve, is_prime


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_text(capsys):
    code, out, err = invoke(capsys, "orbit", "--n", "5", "--a", "2")
    assert code == 0
    assert out == "5 7 9 6 [cycle]\n"


def test_orbit_json(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json",
        "orbit", "--n", "100", "--a", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["trajectory"][0] == 100
    assert set(payload["cycle"]) == {5, 6}


def test_orbit_extend_domain(capsys):
    code, out, err = invoke(capsys, "orbit", "--n", "1", "--a", "3")
    assert code == 1
    assert "domain error" in err
    code, out, _ = invoke(
        capsys, "--extend-domain", "orbit", "--n", "1", "--a", "3"
    )
    assert code == 0
    assert out == "1 [cycle]\n"


def test_orbit_above_sieve_limit(capsys):
    # The table stays at the sieve limit; larger values factor exactly.
    code, out, _ = invoke(capsys, "orbit", "--n", "1000000007", "--a", "3")
    assert code == 0
    assert out.startswith("1000000007 1000000010 5882377 ")
    values = [int(v) for v in out.split()[:-1]]
    small = build_sieve(100)
    for v, nxt in zip(values, values[1:]):
        assert shifted_B(v, 3, small) == nxt
    assert shifted_B(values[-1], 3, small) in values


def test_amicable_above_sieve_limit(capsys):
    code, out, _ = invoke(capsys, "amicable", "--p", "1000000007")
    assert code == 0
    assert out == "p=1000000007 n=282475231204059313 a=282475230204059306\n"
    fields = dict(kv.split("=") for kv in out.split())
    pair = AmicablePair(int(fields["p"]), int(fields["n"]), int(fields["a"]))
    assert verify_amicable(pair, build_sieve(100))


def test_census_csv(capsys):
    code, out, _ = invoke(capsys, "census", "--a", "1", "--limit", "10000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,cycle_id,length,members,sign_pattern,basin_count"
    members = {row.split(",")[3] for row in lines[1:]}
    assert members == {"4", "5;6"}


def test_census_json(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json",
        "census", "--a", "12", "--limit", "10000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 12
    cycles = {tuple(c["members"]) for c in payload["cycles"]}
    assert (5, 17, 29, 41, 53, 65, 18, 8, 6) in cycles


def test_sweep(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json",
        "sweep", "--a-max", "5", "--limit", "10000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["1"] == 1
    assert payload["max"] >= 1


def test_table1_reports_known_inconsistencies(capsys):
    code, out, _ = invoke(capsys, "table1", "--limit", "100000")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "MATCH: 17/20 rows"
    flagged = {int(line.split(":")[0][2:]) for line in lines[1:]}
    assert flagged == {9, 11, 13}
    assert all("known inconsistency" in line for line in lines[1:])


def test_amicable_text(capsys):
    code, out, _ = invoke(capsys, "amicable", "--p", "11")
    assert code == 0
    assert out == "p=11 n=28 a=17\n"


def test_amicable_domain_error(capsys):
    code, _, err = invoke(capsys, "amicable", "--p", "4")
    assert code == 1
    assert "domain error" in err


def test_chain_text(capsys):
    code, out, _ = invoke(capsys, "chain", "--k", "4")
    assert code == 0
    assert out == "k=4 n=5 a=6 chain=5 11 17 23 29\n"


def test_chain_none(capsys):
    code, out, _ = invoke(capsys, "chain", "--k", "9", "--bound", "30")
    assert code == 0
    assert out == "none\n"
    code, out, _ = invoke(capsys, "--format", "csv", "chain", "--k", "9", "--bound", "30")
    assert (code, out) == (0, "k,n,a,chain\n")
    code, out, _ = invoke(capsys, "--format", "json", "chain", "--k", "9", "--bound", "30")
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "k": 9, "n": None, "a": None, "chain": None}


def test_chain_large_k_gives_up_early(capsys, monkeypatch):
    # the stride, the product of the primes <= k, passes the bound at 11
    calls = []

    def counted(n, table=None):
        calls.append(n)
        assert len(calls) <= 100, "chain tests every s <= k before comparing the stride"
        return is_prime(n, table)

    monkeypatch.setattr(constructions, "is_prime", counted)
    code, out, _ = invoke(capsys, "chain", "--k", str(10**9))
    assert (code, out) == (0, "none\n")
    assert len(calls) <= 20


def test_kappa_csv(capsys):
    code, out, _ = invoke(capsys, "kappa", "--limit", "7")
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows["7"] == "3"
    assert rows["1"] == "0"


def test_fibre_text(capsys):
    code, out, _ = invoke(capsys, "fibre", "--m", "7")
    assert code == 0
    assert out == "7 10 12\n"
    code, out, _ = invoke(capsys, "fibre", "--m", "7", "--a", "3")
    assert out == "10 12\n"


def test_fibre_bound_above_64_bits(capsys):
    bound = 10**39
    code, out, err = invoke(capsys, "--format", "csv", "fibre", "--m", "150", "--bound", str(bound))
    assert (code, out) == (2, "")
    assert err.startswith("arithmetic/resource error:") and str(bound) in err
    code, out, _ = invoke(capsys, "fibre", "--m", "7", "--bound", str(2**63 - 1))
    assert (code, out) == (0, "7 10 12\n")


@pytest.mark.parametrize("m", [10**9, 2**63 - 1])
def test_fibre_of_large_m_under_small_bound(capsys, m):
    # about m / 5 parts would be needed, so every branch is pruned before
    # the bound on their product is built as an (m / 5)-bit integer
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, "fibre", "--m", str(m), "--bound", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "none\n", "")
    assert peak < 2**20


@pytest.mark.parametrize("argv", [
    ["fibre", "--m", str(10**20), "--bound", str(10**20)],
    ["kappa", "--limit", str(10**20)],
])
def test_sieve_past_64_bits(capsys, argv):
    # fibre checks its --bound before it sizes a table; kappa's table is
    # sized by --limit itself.
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    if argv[0] == "fibre":
        assert err == f"arithmetic/resource error: --bound {10**20} exceeds the 64-bit range\n"
    else:
        assert err == f"arithmetic/resource error: sieve limit {10**20} exceeds the 64-bit range\n"


def test_fibre_bound_past_64_bits_names_the_flag(capsys):
    code, out, err = invoke(capsys, "fibre", "--m", "40", "--bound", str(10**19))
    assert (code, out) == (2, "")
    assert err == f"arithmetic/resource error: --bound {10**19} exceeds the 64-bit range\n"


W = str(2**63 - 1)


@pytest.mark.parametrize("argv", [
    ["stats", "avg", "--x", W],
    ["census", "--a", "1", "--limit", "9223372036854775000"],
    ["density", "--set", "primes", "--x", W],
    ["kappa", "--limit", W],
    ["fibre", "--m", W, "--bound", W],
])
def test_table_past_any_array(capsys, argv):
    # Each table's byte size is checked before it is allocated.
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("arithmetic/resource error: ") and "Traceback" not in err
    assert "-byte table, past the largest array" in err and err.count("\n") == 1
    assert peak < 2**20
    if argv[0] == "census":
        # The census names its own input, not the range of a table below it.
        assert "a=1" in err and "--limit 9223372036854775000" in err


def _refuse_large_zeros(monkeypatch):
    # numpy's MemoryError, here for any array past 50,000 entries.
    np_zeros = np.zeros

    def refuse(size, dtype=float):
        if size > 50_000:
            raise MemoryError(f"Unable to allocate an array with shape ({size},)")
        return np_zeros(size, dtype=dtype)

    monkeypatch.setattr(np, "zeros", refuse)


def test_refused_allocation_names_the_input(capsys, monkeypatch):
    # numpy's MemoryError is raised again naming the census's input.
    # Nothing large is allocated.
    _refuse_large_zeros(monkeypatch)
    code, out, err = invoke(capsys, "census", "--a", "39", "--limit", str(10**5))
    assert (code, out) == (2, "")
    assert err.startswith("arithmetic/resource error: census of a=39 with --limit 100000 needs a ")
    assert err.endswith("-byte table, more than is free\n")


@pytest.mark.parametrize("mode", ["bmb", "density"])
def test_refused_bmb_sieve_names_x(capsys, monkeypatch, mode):
    # bmb and density sieve to isqrt(x): 24.3 GB at x = 2^63 - 1, within
    # the largest array but more than most hosts have free.  The refusal
    # names --x.
    _refuse_large_zeros(monkeypatch)
    code, out, err = invoke(capsys, "stats", mode, "--x", W)
    assert (code, out) == (2, "")
    assert err.startswith(f"arithmetic/resource error: stats {mode} with --x {W} needs a ")
    assert err.endswith("-byte table, more than is free\n") and err.count("\n") == 1


def test_bare_memory_error_names_the_command(capsys, monkeypatch):
    # Python's own MemoryError, as from a dict too large to build, carries
    # no message; the error line names the command and its flags instead.
    def exhausted(a, q, x):
        raise MemoryError()

    monkeypatch.setattr(cli, "residue_distribution", exhausted)
    code, out, err = invoke(capsys, "stats", "residue", "--x", "1000", "--q", str(3 * 10**7))
    assert (code, out) == (2, "")
    assert err == "arithmetic/resource error: out of memory in stats residue --x 1000 --q 30000000\n"


@pytest.mark.parametrize("argv, bound", [
    (["kappa", "--limit", str(10**14)], f"kappa with --limit {10**14}"),
    (["fibre", "--m", str(10**18), "--bound", str(10**18)],
     f"fibre with --m {10**18} and --bound {10**18}"),
])
def test_refused_sieve_names_its_flags(capsys, argv, bound):
    # A sieve that sieve.covering sizes from a flag names the flags.  The
    # tables, 8 * 10^14 and 4 * 10^18 bytes, lie past a 2^47-byte address
    # space, so the request is refused at once and nothing is allocated.
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"arithmetic/resource error: {bound} needs a ")
    assert err.endswith("-byte table, more than is free\n")


def _no_segments(limit, overlap=0):
    raise AssertionError(f"asked for segments up to {limit}")


def test_census_range_past_64_bits(capsys, monkeypatch):
    # a = 2^62 climbs (3 + 1) * a above each start: past 2^63 - 1 before
    # any segment is built.
    monkeypatch.setattr(tables, "segments", _no_segments)
    a = 2**62
    code, out, err = invoke(capsys, "census", "--a", str(a), "--limit", "10")
    assert (code, out) == (2, "")
    assert err.startswith("arithmetic/resource error:")
    assert f"a={a}" in err and "--limit 10" in err


@pytest.mark.parametrize("argv, a", [
    (["census", "--a", "39", "--limit", "1"], 39),
    (["sweep", "--a-max", "3", "--limit", "1"], 1),
    (["table1", "--limit", "-5"], 1),
])
def test_limit_below_two_is_domain_error(capsys, argv, a):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"domain error: --limit must be >= 2 under a={a}, got {argv[-1]}\n"


@pytest.mark.parametrize("argv, err", [
    (["sweep", "--a-max", "0"], "--a-max must be >= 1, got 0"),
    (["orbit", "--n", "1", "--a", "2"],
     "--n must be >= 2 under a=2, got 1; pass --extend-domain for 0 and 1"),
    (["stats", "avg", "--x", "1", "--a", "5"], "--x must be >= 2 under a=5, got x=1"),
    (["stats", "residue", "--x", "1", "--a", "5"], "--x must be >= 2 under a=5, got x=1"),
    (["stats", "density", "--x", "1"], "--x must be >= 2, got x=1"),
    (["density", "--set", "primes", "--x", "1"], "--x must be >= 2, got x=1"),
    (["stats", "residue", "--q", "2"], "--q must be > 2, got 2"),
    (["fibre", "--m", "1"], "--m must be >= 2, got 1"),
    (["chain", "--k", "0"], "--k must be >= 1, got 0"),
    (["amicable", "--p", "1"], "--p must be a prime > 3, got 1"),
    (["stats", "density", "--N", "-1"], "--N must be >= 0, got -1"),
    (["kappa", "--limit", "0"], "--limit must be >= 1, got 0"),
    (["--extend-domain", "orbit", "--n", "-1", "--a", "2"],
     "--n must be >= 0 under a=2 with --extend-domain, got -1"),
])
def test_domain_errors_name_the_flag(capsys, argv, err):
    assert invoke(capsys, *argv) == (1, "", f"domain error: {err}\n")


@pytest.mark.parametrize("argv", [
    ["orbit", "--n", "5"],
    ["census"],
    ["fibre", "--m", "7"],
    *(["stats", mode, "--x", "100"] for mode in ("avg", "bmb", "parity", "residue", "density")),
])
def test_negative_shift_is_domain_error(capsys, argv):
    # bmb and density do not depend on the shift, but reject a negative one too.
    code, out, err = invoke(capsys, *argv, "--a", "-1")
    assert (code, out, err) == (1, "", "domain error: --a must be >= 0, got -1\n")


def test_python_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["--format", "json", "sweep", "--a-max", "3", "--limit", "1000"]
    proc = subprocess.run([sys.executable, "-m", "primeshift", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(proc.stdout)["counts"]) == ["1", "2", "3"]


def test_bulk_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique's first call in a process imports numpy.ma, 10-14 ms, as
    # much as a whole sweep: census, sweep and a file target deduplicate by
    # sort and adjacent difference instead.  Run in a fresh interpreter,
    # where nothing else has imported it.
    target = tmp_path / "vals.txt"
    target.write_text("49\n7\n49\n12\n")
    code = f"""
import contextlib, io, sys
from primeshift.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["census", "--a", "39", "--limit", "1000"],
                 ["sweep", "--a-max", "40", "--limit", "1000"],
                 ["density", "--set", "file:{target}", "--x", "1000"]):
        assert run(argv) == 0, argv
assert "numpy.ma" not in sys.modules
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_orbit_negative_max_steps(capsys):
    code, out, err = invoke(capsys, "orbit", "--n", "5", "--a", "2", "--max-steps", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("domain error:")
    assert "--max-steps -1" in err and "orbit of 5," in err and "a=2" in err
    code, out, _ = invoke(capsys, "orbit", "--n", "5", "--a", "2", "--max-steps", "0")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("argv", [
    ["orbit", "--n", "1", "--a", "3"],
    ["orbit", "--n", "0"],
    ["orbit", "--n", "-7"],
])
def test_orbit_start_checked_before_step_budget(capsys, argv):
    # A start below 2 is a domain error, whatever the step budget.
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("domain error: --n must be >= 2")
    assert invoke(capsys, *argv, "--max-steps", "0") == (code, out, err)


def test_fibre_negative_bound(capsys):
    code, out, _ = invoke(capsys, "fibre", "--m", "2", "--bound", "-3")
    assert (code, out) == (0, "none\n")


def test_density(capsys):
    code, out, _ = invoke(
        capsys, "density", "--set", "squares", "--x", "10000"
    )
    assert code == 0
    row = dict(zip(*[line.split(",") for line in out.splitlines()]))
    assert row["set"] == "squares"
    assert 0 < float(row["density"]) < 1


def test_density_file_target(capsys, tmp_path):
    target = tmp_path / "vals.txt"
    target.write_text("7\n")
    code, out, _ = invoke(
        capsys, "density", "--set", f"file:{target}", "--x", "1000",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "3"


def test_density_matches_scalar_oracle(capsys, tmp_path):
    # At x = 4, B(4) = 4 but 4 is not prime.
    for x in (2, 3, 4, 5, 6, 2 * 10**4):
        members = {-7, 0, 1, 2, 4, 5, 17, 17, 144, 997, 9973, x + 1, 10**9}
        target = tmp_path / "members.txt"
        target.write_text("".join(f"{v}\n" for v in [*members, 17, 144, 0, -7]))
        table = build_sieve(x)
        values = [big_B(n, table) for n in range(2, x + 1)]
        oracles = {
            "primes": lambda v: is_prime(v),
            "squares": lambda v: math.isqrt(v) ** 2 == v,
            f"file:{target}": lambda v: v in members,
        }
        for spec, member in oracles.items():
            count = sum(1 for v in values if member(v))
            code, out, _ = invoke(
                capsys, "--format", "json",
                "density", "--set", spec, "--x", str(x),
            )
            assert code == 0
            row = json.loads(out)
            assert (row["count"], row["density"]) == (count, count / x), (spec, x)


def test_density_across_segments(capsys, monkeypatch, tmp_path, oracle_values):
    # With 64-entry segments, x = 10^4 streams 157 of them, and B(n) of an
    # n in one segment often lies in an earlier one.
    monkeypatch.setattr(sieve_mod, "CHUNK", 2**6)
    x = 10**4
    b, _, prime = (v[: x + 1] for v in oracle_values)
    members = [0, 1, 4, 7, 64, 65, 127, 128, 4999, x, x + 1, 2 * x, 10**30]
    target = tmp_path / "members.txt"
    target.write_text("".join(f"{m}\n" for m in members))
    in_set = {
        "primes": prime,
        "squares": np.isin(np.arange(x + 1), np.arange(101) ** 2),
        f"file:{target}": np.isin(np.arange(x + 1), [m for m in members if m <= x]),
    }
    for spec, mask in in_set.items():
        count = int(np.count_nonzero(mask[b[2:]]))
        code, out, _ = invoke(capsys, "--format", "json", "density", "--set", spec, "--x", str(x))
        assert code == 0
        assert (json.loads(out)["count"], json.loads(out)["density"]) == (count, count / x), spec


@pytest.mark.parametrize("argv", [
    ["density", "--set", "primes", "--x", "-5"],
    ["density", "--set", "squares", "--x", "0"],
    ["density", "--set", "primes", "--x", "1"],
    ["stats", "avg", "--x", "1"],
    ["stats", "avg", "--x", "-3"],
    ["stats", "bmb", "--x", "0"],
    ["stats", "parity", "--x", "1"],
    ["stats", "residue", "--x", "1"],
    ["stats", "density", "--x", "0"],
])
def test_x_below_two_is_domain_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("domain error:") and f"x={argv[-1]}" in err


@pytest.mark.parametrize("content", [None, "7\nseven\n", "7\n1.5\n", b"\xff\xfe\n"])
def test_density_bad_file_is_domain_error(capsys, tmp_path, content):
    target = tmp_path / "members.txt"
    if isinstance(content, str):
        target.write_text(content)
    elif content is not None:
        target.write_bytes(content)
    code, out, err = invoke(
        capsys, "density", "--set", f"file:{target}", "--x", "500",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("domain error:") and str(target) in err


def test_stats_avg(capsys):
    code, out, _ = invoke(capsys, "stats", "avg", "--x", "10000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,sum,reference,ratio"
    first = lines[1].split(",")
    assert first[0] == "10" and first[1] == "45"


def test_stats_residue(capsys):
    code, out, _ = invoke(
        capsys, "stats", "residue", "--q", "3", "--x", "10000"
    )
    assert code == 0
    counts = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert sum(counts) == 10000 - 1


def test_stats_shift_past_64_bits(capsys, monkeypatch):
    # The largest prime <= 5 is 5 itself and the largest <= 1000 is 997:
    # p + a past 2^63 - 1 leaves the 64-bit range before any segment is built.
    with monkeypatch.context() as patched:
        patched.setattr(tables, "segments", _no_segments)
        for p, argv in (
            (5, ["residue", "--x", "5", "--a", str(2**63 - 1), "--q", "3"]),
            (5, ["avg", "--x", "5", "--a", "99999999999999999999"]),
            (997, ["avg", "--x", "1000", "--a", "9223372036854774811"]),
        ):
            code, out, err = invoke(capsys, "--format", "json", "stats", *argv)
            assert (code, out) == (2, "")
            assert err == f"arithmetic/resource error: {p} + {argv[4]} exceeds the 64-bit range\n"
    # 997 + a still fits, up to 997 + a = 2^63 - 1.
    for a, total in ((9223372036854774000, 1549526502191602174707),
                     (9223372036854774810, 1549526502191602310787)):
        code, out, _ = invoke(capsys, "--format", "json", "stats", "avg", "--x", "1000", "--a", str(a))
        assert code == 0
        last = json.loads(out)["rows"][-1]
        assert (last["x"], last["sum"]) == (1000, total)


def test_out_file(capsys, tmp_path):
    dest = tmp_path / "orbit.txt"
    code, out, _ = invoke(
        capsys, "--out", str(dest), "orbit", "--n", "5", "--a", "2"
    )
    assert code == 0
    assert out == ""
    assert dest.read_text() == "5 7 9 6 [cycle]\n"


@pytest.mark.parametrize("argv", [
    ["orbit", "--n", "100", "--a", "1"],
    ["census", "--a", "3", "--limit", "1000"],
    ["sweep", "--a-max", "3", "--limit", "1000"],
    ["amicable", "--p", "11"],
    ["chain", "--k", "4"],
    ["chain", "--k", "9", "--bound", "30"],
    ["kappa", "--limit", "7"],
    ["fibre", "--m", "7"],
    ["fibre", "--m", "3", "--a", "2"],
    ["density", "--set", "primes", "--x", "1000"],
    *(["stats", mode, "--x", "1000"] for mode in ("avg", "bmb", "density", "parity", "residue")),
])
def test_json_format_prints_json(capsys, argv):
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    assert code == 0
    assert json.loads(out)["schema_version"] == 1


def test_out_to_missing_directory(capsys, tmp_path):
    dest = tmp_path / "missing" / "x"
    code, out, err = invoke(capsys, "--out", str(dest), "orbit", "--n", "5")
    assert (code, out) == (2, "")
    assert err.startswith(f"arithmetic/resource error: cannot write '{dest}': ")
    assert not dest.parent.exists()


def test_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["orbit"])  # missing required --n
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 64


def test_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = invoke(
            capsys, "--format", "json",
            "census", "--a", "3", "--limit", "10000",
        )
        runs.append(out)
    assert runs[0] == runs[1]


@st.composite
def small_queries(draw):
    """argv of a cheap query command; none of them needs a large table."""
    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    cmd = draw(st.sampled_from(["orbit", "amicable", "chain", "fibre", "kappa", "density", "stats"]))
    if cmd == "orbit":
        argv = ["orbit", "--n", num(2, 10**7), "--a", num(0, 200)]
    elif cmd == "amicable":
        p = draw(st.integers(2, 10**6))
        while not is_prime(p):
            p += 1
        argv = ["amicable", "--p", str(p)]
    elif cmd == "chain":
        argv = ["chain", "--k", num(1, 6), "--bound", num(0, 2000)]
    elif cmd == "fibre":
        argv = ["fibre", "--m", num(-2, 3000), "--a", num(0, 50), "--bound", num(-5, 10**5)]
    elif cmd == "kappa":
        argv = ["kappa", "--limit", num(-1, 300)]
    elif cmd == "density":
        argv = ["density", "--set", draw(st.sampled_from(["primes", "squares"])), "--x", num(-2, 5 * 10**4)]
    else:
        argv = ["stats", draw(st.sampled_from(["avg", "bmb", "density", "parity", "residue"])),
                "--a", num(0, 200), "--x", num(-2, 5 * 10**4), "--q", num(1, 12), "--N", num(-1, 12)]
    return ["--format", draw(st.sampled_from(["text", "csv", "json"])), *argv]


def _captured_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _uses_shared_table(argv) -> bool:
    """Whether a small_queries command reads sieve.covering's shared table:
    orbit, amicable and chain always, and fibre, kappa and stats bmb and
    density, whose tables reach at most 2998, 300 and 223 here, once their
    input passes its check."""
    cmd, flags = argv[2], dict(zip(argv[3::2], argv[4::2]))
    if cmd == "fibre":
        return int(flags["--m"]) >= 2
    if cmd == "kappa":
        return int(flags["--limit"]) >= 1
    if cmd == "stats":
        mode, flags = argv[3], dict(zip(argv[4::2], argv[5::2]))
        return int(flags["--x"]) >= 2 and (mode == "bmb" or mode == "density" and int(flags["--N"]) >= 0)
    return cmd in ("orbit", "amicable", "chain")


@settings(max_examples=60, deadline=None)
@given(small_queries())
def test_table_size_never_changes_output(argv):
    # every table the library sizes, the shared 2^16 one included, against
    # tables of at least 10^6 entries; the cache is cleared on both sides
    # of the patch, so each run builds the table it is meant to use
    built = []

    def floored(limit, bound=None):
        built.append(build_sieve(max(limit, 10**6), bound))
        return built[-1]

    uses_shared = _uses_shared_table(argv)
    sieve_mod._shared.cache_clear()
    with mock.patch.object(sieve_mod, "build_sieve", floored):
        floored_run = _captured_run(argv)
    sieve_mod._shared.cache_clear()
    assert [t.limit for t in built] == [10**6] * uses_shared
    assert _captured_run(argv) == floored_run
    assert sieve_mod._shared.cache_info().misses == uses_shared
    if uses_shared:
        assert sieve_mod._shared().limit == 2**16


OUT = "<out>"


@pytest.mark.parametrize("sequence", [
    [(["orbit"], 64), (["orbit", "--n", "5", "--a", "2"], 0)],
    [(["--out", OUT, "orbit", "--n", "5", "--a", "2"], 0), (["orbit", "--n", "100", "--a", "1"], 0)],
    [([*fmt, "chain", "--k", "4"], 0) for fmt in (["--format", "json"], ["--format", "csv"], [])],
    [(["--extend-domain", "orbit", "--n", "1"], 0), (["orbit", "--n", "1"], 1)],
    [(["orbit", "--n", "5", "--a", "-1"], 1),
     (["fibre", "--m", "150", "--bound", str(10**39)], 2),
     (["amicable", "--p", "11"], 0)],
], ids=["usage-then-valid", "out-then-stdout", "json-csv-text", "extend-domain-then-not",
        "domain-overflow-valid"])
def test_repeated_runs_match_first_runs(tmp_path, sequence):
    # each command run after others in one process, with the parser and the
    # small table already built, gives what it gives as a process's first run
    path = tmp_path / "out.txt"

    def recorded(argv):
        path.unlink(missing_ok=True)
        code, out, err = _captured_run([str(path) if arg == OUT else arg for arg in argv])
        return code, out, err, path.read_bytes() if path.exists() else None

    first = []
    for argv, _ in sequence:
        cli._build_parser.cache_clear()
        sieve_mod._shared.cache_clear()
        first.append(recorded(argv))
    assert [r[0] for r in first] == [code for _, code in sequence]
    cli._build_parser()
    sieve_mod.covering(2)
    assert [recorded(argv) for argv, _ in sequence] == first


def test_parser_and_small_table_built_once(capsys, monkeypatch):
    # orbit, amicable, chain, and fibre and kappa of small inputs all read
    # the one shared 2^16 table: no command builds a second one.
    cli._build_parser.cache_clear()
    sieve_mod._shared.cache_clear()
    built = []
    monkeypatch.setattr(sieve_mod, "build_sieve",
                        lambda limit, bound=None: built.append(limit) or build_sieve(limit, bound))
    for argv in (["orbit", "--n", "5"], ["amicable", "--p", "11"], ["chain", "--k", "4"],
                 ["fibre", "--m", "7"], ["kappa", "--limit", "60"], ["orbit", "--n", "100", "--a", "1"]):
        assert invoke(capsys, *argv)[0] == 0
    assert cli._build_parser.cache_info().misses == 1
    assert built == [2**16]
    table = sieve_mod.covering(2**16)
    assert sieve_mod._shared.cache_info().misses == 1 and table.limit == 2**16
    assert not table.spf.flags.writeable and not table.primes().flags.writeable


def test_cli_passes_flags_and_sizes_no_table():
    # The library sizes its own tables: no function cli.py imports from the
    # package takes one, and cli.py imports no private name.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    names = [alias.name for node in imports for alias in node.names]
    assert not [n for n in [*names, *(node.module or "" for node in imports)] if n.startswith("_")]
    functions = [getattr(cli, n) for n in names if inspect.isfunction(getattr(cli, n))]
    assert {"iterate_orbit", "build_amicable", "find_ascending_chain", "build_kappa",
            "enumerate_fibre", "reached_cycles"} <= {f.__name__ for f in functions}
    assert [f.__name__ for f in functions if "table" in inspect.signature(f).parameters] == []
