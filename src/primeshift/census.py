"""Whole-range cycle censuses: every start up to a limit, one shift at a time.

No B_a orbit is unbounded, and census_limit gives the bound: orbits from
starts <= S never leave [2, census_limit(a, S)].  The census treats B_a
on that range as a functional graph.  Its cycles, all but the prime
fixed points of a = 0, are found over a short prefix of B (see _cycles):
every cycle has its minimum among 4 and the primes, and the
prime-successor map takes a prime through its climb and B's descent to
the next prime or 4.  A label is the 1-based index of a cycle's minimum
among all minima.  One ascending pass over the window stream of
tables.shifted_segments then gives every node its label and distance,
because a node's successor almost always lies below it.  Both live in
one packed state per node (see state_dtype), one byte at a <= 200,
widened only if a distance needs it, and a census holds 1.5 B per entry
of the range (see run_census).  A sweep over shifts runs no census:
_cycles finds the cycles of all its shifts over one prefix of B, many
shifts per numpy pass, and check_cycles checks every cycle of a batch in
one pass by factorization through the prefix's sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import check_prime_steps, check_shift
from .dynamics import Cycle, default_max_steps
from .errors import ConsistencyError, DomainError, RangeOverflowError
from .sieve import CHUNK, WORD_MAX, SieveTable, check_size, index_dtype, is_prime, zeros
from .tables import b_term, segments, shifted_segments


def climb_margin(a: int) -> int:
    """Headroom above the start range that iterates can reach.

    From a prime p the orbit climbs p, p+a, ... until a term is divisible
    by the smallest prime s not dividing a (s exists within 2a), so no
    iterate exceeds start + (s+1)*a.
    """
    if a == 0:
        return 0
    s = 2
    while a % s == 0:
        s += 1
        while not is_prime(s):
            s += 1
    return (s + 1) * a


def census_limit(a: int, start_limit: int, m: int | None = None) -> int:
    """Largest value an orbit from a start <= start_limit can reach.

    With m = climb_margin(a), computed here unless the caller has it, and
    X = max(start_limit, m + 4), [2, X] is closed under one climb and its
    descent: a prime p <= X climbs to a composite c <= p + m, and B(c) <=
    c/2 + 2 <= (X + m)/2 + 2 <= X once X >= m + 4; a composite n <= X maps
    to B(n) <= n.  So orbits from starts <= start_limit stay in [2, X +
    m], and no B_a orbit is unbounded.  A negative shift or a start_limit
    below 2, which leaves no start, raises DomainError; a range past 2^63
    - 1 raises RangeOverflowError.  This is the census's one check of its
    shift.
    """
    a = check_shift(a)
    if start_limit < 2:
        raise DomainError(f"--limit must be >= 2 under a={a}, got {start_limit}")
    m = climb_margin(a) if m is None else m
    top = max(start_limit, m + 4) + m
    if top > WORD_MAX:
        raise RangeOverflowError(f"census of a={a} with --limit {start_limit} passes 2^63 - 1")
    return top


@dataclass
class CensusReport:
    """The cycles reached from starts 2..start_limit, each with its basin count."""

    a: int
    start_limit: int
    cycles: tuple[Cycle, ...]
    basin_counts: tuple[int, ...] = field(repr=False)
    stopping_time_histogram: dict[int, int] = field(repr=False)
    max_total_stopping_time: int


def _descents(B, spf):
    """(R, S) over a prefix of B and its sieve: B's descent from n ends
    after S[n] steps at the prime, or 4, whose rank among the primes and
    4, ascending from 0, is R[n].

    B(c) < c for composite c > 4, so every descent ends.  Pointer jumping
    (Wyllie 1979) halves what is left of every descent per round, so a
    few rounds over the prefix serve.
    """
    n = np.arange(B.size, dtype=B.dtype)
    node = spf == n
    node[[0, 4]] = False, True
    D = np.where(node, n, B)  # 0 and 1, which no descent reaches, go to 0
    S = (D != n).astype(B.dtype)
    while True:
        nxt = D.take(D)
        if np.array_equal(nxt, D):
            return (np.cumsum(node, dtype=B.dtype) - 1).take(D), S
        S += S.take(D)
        D = nxt


def _batch(walks, B, spf, nodes, descent):
    """(shift, length, members) of the cycles that orbits from 4 and the
    primes <= last meet under B_a, for each (a, last, reach, budget) in
    walks: each cycle's shift and length, and all their members in one
    array, cycle after cycle, in walk order and by minimum within a walk,
    each cycle from its minimum.

    The nodes of a walk are those of nodes, the primes and 4 ascending, up
    to reach, and its map is P_a (see _cycles), each jump weighted by its
    B_a steps.  Every orbit of P_a ends in a cycle, so the images of the
    nodes under P_a, P_a^2, ... shrink until they hold just the cycles'
    nodes; they shrink fast, as a descent ends low.  From there back up,
    one step per image, every node of the first image takes its cycle and
    its weight to that cycle; a start jumps into the first image.  Each
    cycle's members follow from its minimum by B_a on the prefix.
    """
    a, last, reach, budget = (np.array(c, dtype=np.int64) for c in zip(*walks))
    size = np.searchsorted(nodes, reach, "right")
    first = np.cumsum(size) - size
    node = np.concatenate([nodes[:n] for n in size.tolist()])
    walk = np.repeat(np.arange(size.size), size)
    # Climb every prime by a to its first composite; at a = 0 a prime is
    # its own successor.  4, the third node of every walk, steps to itself.
    shift = a[walk]
    c = node + shift
    c[first + 2] = 4
    weight = np.ones_like(c)
    up = np.flatnonzero((spf[c] == c) & (shift > 0))
    while up.size:
        c[up] += shift[up]
        weight[up] += 1
        up = up[spf[c[up]] == c[up]]
    rank, steps = descent
    succ = rank[c] + first[walk]
    weight += steps[c]

    on = np.zeros(walk.size, dtype=bool)
    on[succ] = True
    images = [np.flatnonzero(on)]
    while True:
        image = np.sort(succ[images[-1]])
        image = image[np.diff(image, prepend=-1) != 0]
        if image.size == images[-1].size:
            break
        images.append(image)
    ring = images.pop()
    on[:] = False
    on[ring] = True
    # The least node of each cycle, as a node index: the nodes of a walk
    # ascend, and a cycle stays within its walk.
    low, nxt = ring.copy(), succ[ring]
    live = np.flatnonzero(nxt != ring)
    while live.size:
        low[live] = np.minimum(low[live], nxt[live])
        nxt[live] = succ[nxt[live]]
        live = live[nxt[live] != ring[live]]
    label, tail = np.zeros(walk.size, dtype=np.intp), np.zeros(walk.size, dtype=np.int64)
    label[ring] = low
    for image in reversed(images):
        image = image[~on[image]]
        label[image] = label[succ[image]]
        tail[image] = tail[succ[image]] + weight[image]
    # A node jumps into the first image, or is on a cycle.
    least = label[succ]
    tail = np.where(on, 0, tail[succ] + weight)
    start = node <= np.repeat(last, size)
    cycle = np.zeros(walk.size, dtype=bool)
    cycle[least[start]] = True
    cycles = np.flatnonzero(cycle)

    owner, minima = walk[cycles], node[cycles]
    ids, v, parts = np.arange(cycles.size), minima, []
    while ids.size:
        parts.append((ids, v))
        v = np.where(spf[v] == v, v + a[owner[ids]], B[v])
        more = v != minima[ids]
        ids, v = ids[more], v[more]
    ids, v = (np.concatenate(x) for x in zip(*parts))
    length = np.bincount(ids, minlength=cycles.size)
    around = np.zeros(walk.size, dtype=np.int64)
    around[cycles] = length
    late = np.flatnonzero(start & (tail + around[least] > np.repeat(budget, size) + 1))
    if late.size:
        w, bad = walk[late[0]], node[late[0]]  # the first walk to fail, its smallest start
        raise ConsistencyError(f"no cycle within {budget[w]} steps from {bad} under a={a[w]}")

    return a[owner], length, v[np.argsort(ids, kind="stable")]


def shifted_values(v, a, spf):
    """B_a at every entry of v, all >= 2 and covered by the sieve spf: v + a
    where v is prime, B(v) otherwise.

    B comes from the spf chain, p = spf[r], r //= p until r = 1, as
    sieve.factorize does below its table's limit, never from a stream of B.
    """
    b, r, live = np.zeros_like(v), v.copy(), np.arange(v.size)
    while live.size:
        p = spf[r[live]]
        b[live] += p
        r[live] //= p
        live = live[r[live] > 1]
    return np.where(spf[v] == v, v + a, b)


def check_cycles(shift, length, members, spf) -> list[Cycle]:
    """The Cycles of (shift, length, members) as _batch gives them, checked.

    Each member's B_a, from shifted_values, must be the next member of its
    cycle, the last wrapping round to the first; the first that is not, in
    the order of members, raises ConsistencyError.  A member is signed
    '+' where it is prime.
    """
    shift, length, members = (np.asarray(x, dtype=np.int64) for x in (shift, length, members))
    end = np.cumsum(length)
    nxt = np.roll(members, -1)
    nxt[end - 1] = members[end - length]
    a = np.repeat(shift, length)
    got = shifted_values(members, a, spf)
    bad = np.flatnonzero(got != nxt)
    if bad.size:
        i = bad[0]
        raise ConsistencyError(
            f"not a cycle under a={a[i]}: {members[i]} -> {got[i]}, expected {nxt[i]}"
        )
    signs = np.where(spf[members] == members, b"+", b"-").tobytes().decode()
    values, end = members.tolist(), end.tolist()
    return [Cycle(tuple(values[i:j]), signs[i:j]) for i, j in zip([0, *end], end)]


def _cycles(shifts, last, fixed: bool = True) -> dict[int, dict[int, Cycle]]:
    """{a: {minimum: Cycle}} of the cycles that orbits from 2..last(margin)
    meet under B_a, for each a in shifts; fixed points only if fixed.

    Lemma: for a >= 1 every cycle has its minimum x <= margin + 4, where
    margin = climb_margin(a).  If x is composite then x <= 4, because
    B(c) <= c/2 + 2 < c for composite c > 4.  If x is prime, it climbs to
    a composite c <= x + margin, and x <= B(c) <= c/2 + 2 <= (x + margin)/2
    + 2.  So orbits from the starts 2..margin+4 meet every cycle.  For
    a = 0 every cycle is a fixed point: n = 4, or a prime.  Nor does a
    composite start c > 4 add a cycle: it descends (B(c) < c) to a prime
    or to 4 below c, so orbits from 4 and the primes <= last meet every
    cycle that orbits from 2..last meet, and on a cycle the minimum is a
    prime or 4.

    So the cycles are found on the prime-successor map P_a: a prime p
    climbs p + a, p + 2a, ... to its first composite c (at a = 0 it stays
    at p), and P_a(p) is the prime or 4 that B's descent from c reaches;
    P_a(4) = 4.  The primes P_a visits from a start <= last lie <= reach =
    census_limit(a, last) - climb_margin(a), and their climbs stay within
    census_limit(a, last).  Every shift reads one prefix of B and its
    sieve, streamed once up to the largest census_limit, and the shifts
    go in batches of at most CHUNK nodes (a shift with more is a batch
    alone).  An orbit that does not come back to a prime or 4 of its cycle
    and round it within default_max_steps raises ConsistencyError naming
    the smallest such start.  check_cycles then checks all cycles of a
    batch at once: each member's B_a, factored through the prefix's one
    sieve table and never read from its B, must be the next member.
    shifts is iterated twice, not stored, so a huge range holds nothing
    before its first batch; each pass computes each shift's margin once.
    """
    top = 0
    for a in shifts:
        m = climb_margin(a)
        t = census_limit(a, last(m), m)
        check_prime_steps(t, a)  # as in shifted_segments, before the stream
        top = max(top, t)
    if not top:
        return {}
    _, spf, b = zip(*segments(top, b_term))
    B, table = np.concatenate(b), SieveTable(top, np.concatenate(spf))
    nodes = np.insert(table.primes(), 2, 4)  # the primes and 4, ascending
    descent = _descents(B, table.spf)
    found, batch, size = {}, [], 0

    def flush():
        shift, length, members = _batch(batch, B, table.spf, nodes, descent)
        found.update((a, {}) for a, *_ in batch)
        for a, c in zip(shift.tolist(), check_cycles(shift, length, members, table.spf)):
            if fixed or len(c) > 1:
                found[a][c.members[0]] = c

    for a in shifts:
        m = climb_margin(a)
        end = last(m)
        t = census_limit(a, end, m)
        reach = t - m
        n = int(np.searchsorted(nodes, reach, "right"))
        if batch and size + n > CHUNK:
            flush()
            batch, size = [], 0
        batch.append((a, end, reach, default_max_steps(t, a)))
        size += n
    flush()
    return found


def dist_top(dtype, bits: int) -> int:
    """The largest dist a packed state of dtype holds beside every bits-bit label."""
    return int(np.iinfo(dtype).max) >> bits


def state_dtype(bits: int, budget: int) -> type:
    """dtype of the packed census state dist << bits | label.

    The narrowest unsigned type that holds a dist of budget + 1 beside
    every bits-bit label, so a dist past the budget stays visible.  With
    budget 0 it is the narrowest that holds the labels, which a census
    starts from (see run_census).
    """
    types = (np.uint8, np.uint16, np.uint32)
    return next((t for t in types if dist_top(t, bits) > budget), np.uint64)


def _settle(nodes, succ, read, step, budget, name):
    """Resolve pending nodes whose successor is resolved, until none moves.

    Each pending node carries its successor in succ, both as positions in
    the state; read(positions) returns the state and its values there, a
    successor past the end of the state reading its last slot, 0.
    Returns the positions still pending and their successors.  name(pos)
    names the node at a position.
    """
    rounds = 0
    while nodes.size:
        state, known = read(succ)
        ok = known != 0
        if not np.count_nonzero(ok):
            break
        if rounds == budget:
            raise ConsistencyError(f"{name(int(nodes[ok][0]))} is unresolved after {budget} rounds")
        state[nodes[ok]] = known[ok] + step
        nodes, succ = nodes[~ok], succ[~ok]
        rounds += 1
    return nodes, succ


def _tally(total, values):
    """total plus np.bincount(values), in place unless total must grow.

    total at least doubles when it grows, so its trailing zeros are not
    counts.  values is cast to intp here, because bincount will not cast
    a uint64 state itself.
    """
    part = np.bincount(values.astype(np.intp))
    if part.size > total.size:
        grown = np.zeros(max(part.size, 2 * total.size), dtype=np.intp)
        grown[: total.size] = total
        total = grown
    total[: part.size] += part
    return total


def run_census(a: int, start_limit: int) -> CensusReport:
    """Enumerate all cycles reached from starts 2..start_limit, with basins.

    Works on [2, census_limit(a, start_limit)], streamed window by
    window.  Deterministic: cycles are listed by their minimum member.
    Every walked cycle is checked by factorization through the sieve
    (check_cycles); the prime fixed points of a = 0 come straight from the
    stream.  Cycles reached only from starts above start_limit are not
    listed.
    """
    limit = census_limit(a, start_limit)
    budget = default_max_steps(limit, a)
    margin = climb_margin(a)
    walked = _cycles([a], lambda m: m + 4)[a]
    minima = [np.array(sorted(walked))]
    bits = minima[0].size.bit_length()
    if a == 0:
        # Every prime is a fixed point as well; the walks met (2), (3) and
        # (4), and the primes from 5 on take their labels window by
        # window, so the label count is bounded before the state exists:
        # pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld), plus 4.
        bits = (int(1.25506 * limit / math.log(limit)) + 1).bit_length()
    step, past = 1 << bits, (budget + 1) << bits

    # The state of node n is dist[n] << bits | label[n], 0 while
    # unresolved.  label[n] is the 1-based index in minima of the cycle n
    # reaches, and dist[n] the number of B_a steps to get there.  A
    # composite n <= limit steps to B(n) <= n/2 + 2 <= half, so above half
    # a state is read only at p + a, from a prime p at most margin below
    # its chain's top.  So state[n] holds node n up to half, and above half
    # a window of CHUNK + margin nodes follows the stream: state[n - shift]
    # holds node n.  Its last slot is never written, and reads past the
    # window are clipped to it: nodes past limit, where the primes p >
    # limit - a step, are never labelled, as no start reaches them.  The
    # walked cycles lie below 2 * margin + 5 <= half + margin + 1, inside
    # the first window.
    #
    # The state starts in the narrowest dtype that holds the labels: one
    # byte at a <= 200, 0.5 B per entry of the range.  Its largest dist is
    # 31 beside 3 label bits, and the dists a census reaches grow about one
    # per decade of the limit: at 10^7 at most 28 (a = 155), while a = 90
    # reaches 31 at 10^9.  A successor read at the largest dist, a state >=
    # full, would wrap one step on, so the state first widens, once, to the
    # dtype of the budget, and fold still sees every dist past it.  The
    # wide state is a zeroed copy of the positions below written, the
    # walked cycles and the windows streamed so far, so the pages above it
    # stay untouched.
    half = limit // 2 + 2
    bound = f"census of a={a} with --limit {start_limit}"
    size, wide = min(half + CHUNK + margin + 2, limit + 2), state_dtype(bits, budget)
    check_size(size, wide, bound)  # the size the state may widen to
    state = zeros(size, state_dtype(bits, 0), bound)
    full = dist_top(state.dtype, bits) << bits
    state[minima[0]] = np.arange(1, minima[0].size + 1, dtype=state.dtype)
    for m, cycle in walked.items():
        state[list(cycle.members)] = state[m]
    shift = counted = 0
    written = 2 * margin + 5
    tallies = [np.zeros(0, dtype=np.intp)] * (2 if a == 0 else 1)

    def read(pos):
        # The state, widened first if need be, and its values at positions.
        nonlocal state
        known = state.take(pos, mode="clip")
        if state.dtype != wide and known.max(initial=0) >= full:
            grown = zeros(size, wide, bound)
            grown[:written] = state[:written]
            state, known = grown, known.astype(wide)
        return state, known

    def node(pos):
        # The node at a position in state, or the nodes at an array of them.
        return pos + shift * (pos > half)

    def name(pos):
        return f"node {node(pos)} under a={a} with --limit {start_limit}"

    def fold(end):
        # Count the final states of the nodes from counted up to end that
        # are starts, and check every dist against the budget, in ascending
        # order, so an error names the smallest node past the budget.  Each
        # state is written once, from its successor's final one, so a node
        # past the budget leaves one at exactly dist = budget + 1, which
        # state_dtype makes room for: no dist wraps unseen.  A state orders
        # nodes by dist first, so a part's largest holds its largest dist.
        nonlocal counted, tallies
        while counted < end:
            n = counted
            pos, top = (n, half + 1) if n <= half else (n - shift, end)
            counted = min(end, n + CHUNK, top)
            part = state[pos : pos + counted - n]
            if part.max() >= past:
                first = pos + int(np.argmax(part >= past))
                raise ConsistencyError(f"{name(first)} is more than {budget} steps from its cycle")
            starts = part[max(2 - n, 0) : max(start_limit + 1 - n, 0)]
            # A (dist, label) grid over the labels of every prime of a = 0
            # would be huge.
            values = (starts & (step - 1), starts >> bits) if a == 0 else (starts,)
            tallies = [_tally(t, v) for t, v in zip(tallies, values)]

    def resolve(lo, f, pending):
        # First round over the positions [lo, lo + f.size) as slices: a node
        # whose successor is already resolved takes its state, one step
        # further; cycle nodes keep theirs.  The rest wait with their
        # successors.  f holds successors as nodes and is read as positions:
        # a node up to half is its own position, and above half a successor
        # is some p + a from a prime p among these nodes.  For a > 0 that node
        # is unresolved, and so is position p + a > lo, not yet written (or
        # past the window, clipped to its last slot); at a = 0 the primes
        # are labelled already and do not wait.  Only the successors that
        # wait are turned into positions.
        _, succ = read(f)
        ok = succ != 0
        succ += step
        block = state[lo : lo + f.size]
        wait = block == 0
        ok &= wait
        succ *= ok
        block += succ
        new = np.flatnonzero(wait ^ ok)
        if new.size:
            targets = f[new]
            targets -= (targets > half) * targets.dtype.type(shift)
            pending = (
                np.concatenate([pending[0], new + lo]),
                np.concatenate([pending[1], targets]),
            )
        return _settle(*pending, read, step, budget, name)

    def slide(s, pending):
        # Move the window up to start at s - margin, once fold has counted
        # the nodes that leave it.
        nonlocal shift
        d = max(s - margin - half - 1, 0) - shift
        if d <= 0:
            return pending
        window = state[half + 1 :]
        window[:margin] = window[d : d + margin]
        window[margin:] = 0
        shift += d
        nodes, succ = pending
        nodes -= (nodes > half) * d
        succ -= (succ > half) * succ.dtype.type(d)
        return nodes, succ

    pending = (np.empty(0, dtype=np.intp), np.empty(0, dtype=index_dtype(limit + a)))
    ranked = minima[0].size
    for s, spf, f in shifted_segments(a, limit):
        if s > 2 * margin + 4:
            # The nodes below s - margin are final: a node n still pending
            # below s has an orbit that reaches s, and from n >= margin + 4
            # an orbit stays <= n + margin (census_limit), so n >= s -
            # margin; from a smaller n it stays <= 2 * margin + 4 < s.
            fold(s - margin)
            pending = slide(s, pending)
        written = max(written, s + f.size - shift)
        if a == 0:
            lo = max(s, 5)
            primes = np.flatnonzero(f[lo - s :] == spf[lo - s :]) + lo
            state[primes - shift] = np.arange(
                ranked + 1, ranked + primes.size + 1, dtype=state.dtype
            )
            ranked += primes.size
            minima.append(primes)
        lo = max(s, 2)
        pending = resolve(lo - shift, f[lo - s :], pending)
        del spf, f  # so the stream frees it before it builds another
    stuck = pending[0][node(pending[0]) <= start_limit]
    if stuck.size:
        raise ConsistencyError(f"{name(int(stuck[0]))} reaches no cycle")
    fold(limit + 1)

    tallies = [np.trim_zeros(t, "b") for t in tallies]
    if a == 0:
        basins, counts = tallies
    else:
        grid = np.pad(tallies[0], (0, -tallies[0].size % step)).reshape(-1, step)
        basins, counts = grid.sum(axis=0), grid.sum(axis=1)
    labels = np.flatnonzero(basins)
    cycles = tuple(
        walked[m] if m in walked else Cycle((m,), "+")
        for m in np.concatenate(minima)[labels - 1].tolist()
    )
    return CensusReport(
        a=a,
        start_limit=start_limit,
        cycles=cycles,
        basin_counts=tuple(basins[labels].tolist()),
        stopping_time_histogram={int(k): int(v) for k, v in enumerate(counts) if v},
        max_total_stopping_time=len(counts) - 1,
    )


def reached_cycles(shifts, start_limit: int) -> dict[int, tuple[Cycle, ...]]:
    """{a: the nontrivial cycles reached from starts 2..start_limit under
    B_a, by their minimum} for each a in shifts.

    By the _cycles lemma, orbits from 2..min(start_limit, climb_margin(a)
    + 4) meet every cycle that any larger range reaches.
    """
    found = _cycles(shifts, lambda m: min(start_limit, m + 4), fixed=False)
    return {a: tuple(c.values()) for a, c in found.items()}


def cycle_count_sweep(a_max: int, start_limit: int) -> tuple[dict[int, int], set[int]]:
    """(counts, argmax_set): the distinct nontrivial cycles for each a in 1..a_max."""
    if a_max < 1:
        raise DomainError(f"--a-max must be >= 1, got {a_max}")
    counts = {a: len(c) for a, c in reached_cycles(range(1, a_max + 1), start_limit).items()}
    best = max(counts.values())
    return counts, {a for a, c in counts.items() if c == best}
