"""Whole-range cycle censuses: every start up to a limit, one shift at a time.

No B_a orbit is unbounded, and census_limit gives the bound: orbits from
starts <= S never leave [2, census_limit(a, S)].  The census treats B_a
on that range as a functional graph.  Its cycles, all but the prime
fixed points of a = 0, are found over a short prefix of B (see _cycles):
every cycle has its minimum among 4 and the primes, at most floor(a),
about a or s a / 2 with s the least prime not dividing a, and the
prime-successor map takes a prime through its climb and B's descent to
the next prime or 4.  A label is the 1-based index of a cycle's minimum
among all minima.  Above a short prefix every node has a successor
below it, a prime's the end of its climb and descent step (see
run_census), so one ascending pass over the window stream of B,
tables.segments, gives every start its label and distance.  Both
live in one packed state per node (see state_dtype), one byte at a <=
200, widened only if a distance needs it, and a census holds 1.5 B per
entry of the range.  A sweep over shifts runs no census: _walks finds
the cycles of all its shifts over one prefix of B, from arrays of the
shifts' bounds, many shifts per numpy pass, and check_members checks
every cycle of a batch in one pass by factorization through the
prefix's sieve.  The sweep counts the checked cycles from those arrays;
only _cycles, for the census and reached_cycles, builds Cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .arith import check_prime_steps, check_shift
from .dynamics import Cycle, default_max_steps
from .errors import ConsistencyError, DomainError, RangeOverflowError
from .sieve import CHUNK, WORD_MAX, build_sieve, check_size, is_prime, zeros
from .tables import back_size, prime_marks, segments, shifted_segments


def _bounds(a):
    """(margin, floor), elementwise over an array of shifts a >= 0, int64
    or Python ints, with s the least prime not dividing a: margin = (s + 1)
    a, climb_margin's headroom, and floor(a), the parity floor of _cycles."""
    s, p = np.full_like(a, 2), 2
    live = np.flatnonzero((a % 2 == 0) & (a != 0))
    while live.size:
        p += 1
        while not is_prime(p):
            p += 1
        s[live] = p
        live = live[a[live] % p == 0]
    floor = np.where(a % 2 == 1, a + 4, np.maximum(a // 2 + 3, (s * a + 10) // 2))
    floor[a == 0] = 4
    return (s + 1) * a, floor


def climb_margin(a: int) -> int:
    """Headroom above the start range that iterates can reach.

    From a prime p the orbit climbs p, p+a, ... until a term is divisible
    by the smallest prime s not dividing a (s exists within 2a), so no
    iterate exceeds start + (s+1)*a.  The rule is _bounds's.
    """
    return int(_bounds(np.array([a], dtype=object))[0][0])


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


def _descents(B):
    """(R, S) over a prefix of B: B's descent from n ends after S[n] steps
    at the prime, or 4, whose rank among the primes and 4, ascending from
    0, is R[n].

    B(c) < c for composite c > 4, so every descent ends.  Pointer jumping
    (Wyllie 1979) halves what is left of every descent per round, so a
    few rounds over the prefix serve.
    """
    n = np.arange(B.size, dtype=B.dtype)
    node = prime_marks(0, B)
    node[4] = True
    D = np.where(node, n, B)  # 0 and 1, which no descent reaches, go to 0
    S = (D != n).astype(B.dtype)
    while True:
        nxt = D.take(D)
        if np.array_equal(nxt, D):
            return (np.cumsum(node, dtype=B.dtype) - 1).take(D), S
        S += S.take(D)
        D = nxt


def _batch(walks, B, spf, nodes, descent):
    """(owner, length, members) of the cycles that orbits from 4 and the
    primes <= last meet under B_a, for each row (a, last, size, budget) of
    walks: each cycle's walk, as a row of walks, and length, and all their
    members in one array, cycle after cycle, in walk order and by minimum
    within a walk, each cycle from its minimum.

    The nodes of a walk are the first size of nodes, the primes and 4
    ascending, and its map is P_a (see _cycles), each jump weighted by its
    B_a steps.  Every orbit of P_a ends in a cycle, so the images of the
    nodes under P_a, P_a^2, ... shrink until they hold just the cycles'
    nodes; they shrink fast, as a descent ends low.  From there back up,
    one step per image, every node of the first image takes its cycle and
    its weight to that cycle; a start jumps into the first image.  Each
    cycle's members follow from its minimum by B_a on the prefix.
    """
    a, last, size, budget = walks.T
    first = np.cumsum(size) - size
    walk = np.repeat(np.arange(size.size), size)
    node = nodes[np.arange(walk.size) - first[walk]]
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
    start = node <= last[walk]
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
    late = np.flatnonzero(start & (tail + around[least] > budget[walk] + 1))
    if late.size:
        w, bad = walk[late[0]], node[late[0]]  # the first walk to fail, its smallest start
        raise ConsistencyError(f"no cycle within {budget[w]} steps from {bad} under a={a[w]}")

    return owner, length, v[np.argsort(ids, kind="stable")]


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


def check_members(shift, length, members, spf) -> None:
    """Check the cycles (shift, length, members) as _batch gives them, with
    each cycle's shift: each member's B_a, from shifted_values, must be the
    next member of its cycle, the last wrapping round to the first; the
    first that is not, in the order of members, raises ConsistencyError."""
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


def check_cycles(shift, length, members, spf) -> list[Cycle]:
    """The Cycles of (shift, length, members), once check_members has passed
    them.  A member is signed '+' where it is prime."""
    check_members(shift, length, members, spf)
    members = np.asarray(members, dtype=np.int64)
    signs = np.where(spf[members] == members, b"+", b"-").tobytes().decode()
    values, end = members.tolist(), np.cumsum(length).tolist()
    return [Cycle(tuple(values[i:j]), signs[i:j]) for i, j in zip([0, *end], end)]


def _walk_lists(shifts, start_limit: int):
    """Yield (a, last, floor, top) for each chunk of at most CHUNK shifts,
    in order: the walks of _cycles start at 2..last = min(start_limit,
    floor(a)), over the nodes up to floor(a), and read B up to top =
    floor(a) + climb_margin(a).  The arrays are int64 where every |a| <
    2^56, so that s <= 47 and no value below passes 97 |a| + 4, and Python
    ints otherwise.

    Each shift is checked, in order, as a census of its walks would check
    it: its range census_limit(a, last) = 2 climb_margin(a) + 4, which
    holds top, and the steps of the primes up to it must stay within 2^63
    - 1, as shifted_segments requires before a stream.
    """
    shifts = iter(shifts)
    while chunk := list(islice(shifts, CHUNK)):
        a = np.array(chunk, dtype=object)
        if np.abs(a).max() < 2**56:
            a = a.astype(np.int64)
        m, floor = _bounds(a)
        if start_limit < 2:
            census_limit(int(a[0]), start_limit)  # raises, naming the first shift
        last = np.minimum(floor, min(start_limit, WORD_MAX))
        for i in np.flatnonzero((a < 0) | (2 * m + 4 + a > WORD_MAX)).tolist():
            x = int(a[i])
            check_prime_steps(census_limit(x, int(last[i]), int(m[i])), x)
        yield a, last, floor, floor + m


def _walks(shifts, start_limit: int):
    """Yield (a, owner, length, members, spf) for each batch of the walks
    of _cycles: its shifts, its cycles as _batch gives them, unchecked, and
    the prefix's sieve table spf to check them by (see check_members).

    The chunks of _walk_lists are read once to size the prefix and again
    to walk them unless there is one, so no more than a chunk of shifts
    is ever held.  Every shift reads one prefix of B, streamed once up
    to the largest top, and one sieve table over it.  The walks go in
    batches of at most CHUNK nodes (a shift with more is a batch alone),
    cut from the running sum of their node counts, each with the step
    budget default_max_steps(top, a).
    """
    lists = _walk_lists(shifts, start_limit)
    first = next(lists, None)
    if first is None:
        return
    top, again = int(first[3].max()), [first]
    for *_, t in lists:  # more than one chunk: the walks read the shifts again
        top, again = max(top, int(t.max())), None
    B, table = np.concatenate([v for _, v in segments(top)]), build_sieve(top)
    nodes = np.insert(table.primes(), 2, 4)  # the primes and 4, ascending
    descent = _descents(B)
    for a, last, floor, t in again or _walk_lists(shifts, start_limit):
        size = np.searchsorted(nodes, floor, "right")
        walks = np.column_stack(np.broadcast_arrays(a, last, size, default_max_steps(t, a)))
        end, i = np.cumsum(size), 0
        while i < a.size:
            # As many shifts as fit CHUNK nodes, and at least one.
            j = max(int(np.searchsorted(end, end[i] - size[i] + CHUNK, "right")), i + 1)
            yield a[i:j], *_batch(walks[i:j], B, table.spf, nodes, descent), table.spf
            i = j


def _cycles(shifts, start_limit: int) -> dict[int, dict[int, Cycle]]:
    """{a: {minimum: Cycle}} of every cycle, fixed points included, that
    orbits from 2..last meet under B_a, last = min(start_limit, floor(a)),
    for each a in shifts, each checked by check_cycles (see _walks).

    Lemma (the parity floor): let s be the least prime not dividing a >= 1,
    and floor(a) = a + 4 for odd a, max(a/2 + 3, (s a + 10) // 2) for even
    a, and floor(0) = 4.  Then for every X >= floor(a) the orbits from
    starts <= X stay <= X + s a, and the primes they visit <= X; and for a
    >= 1 every cycle has its minimum <= floor(a).  Proof: a composite c >
    4 has B(c) <= c/2 + 2 < c, and an odd one B(c) <= c/3 + 3, as its
    least prime factor q >= 3 gives B(c) <= q + c/q; so B's descent from a
    composite ends at a prime or 4 below it, and a cycle's minimum is a
    prime or 4.  A prime p climbs p + a, p + 2a, ... to its first
    composite c <= max(p, s) + s a: s consecutive terms cover every
    residue mod s, the one divisible by s is composite unless it is s,
    and a climb through s ends by s + s a.  For odd a an odd prime climbs
    once, to the even c = p + a, with B(c) <= (p + a)/2 + 2, and 2 at most
    twice, to the odd 2 + a or to 2 + 2a, with B(c) <= a + 3 either way
    (B(2 + 2a) = 2 + B(1 + a)); both are <= X once X >= a + 4.  For even a
    >= 2 an odd prime's climb stays odd, so B(c) <= (X + s a)/3 + 3 <= X
    once X >= (s a + 9)/2 (s < floor(a) <= X), and 2 steps to the even 2 +
    a, with B(2 + a) <= a/2 + 3.  At a = 0 every prime is a fixed point.
    For a >= 1 a cycle's least member x, if prime, has x <= B(c) at the
    end of its climb, and the same bounds with X = x give x <= floor(a).

    So for a >= 1 and start_limit > floor(a) every cycle has its minimum,
    4 or a prime, among the starts 2..last = floor(a), which thus meet
    every cycle that 2..start_limit meet; at a = 0 the census labels the
    primes past 4 itself.  A composite start c > 4 adds no cycle, as it
    descends to a prime or 4 below c, so orbits from 4 and the primes <=
    last meet every cycle that orbits from 2..last do.

    So the cycles are found on the prime-successor map P_a: a prime p
    climbs p + a, p + 2a, ... to its first composite c (at a = 0 it stays
    at p), and P_a(p) is the prime or 4 that B's descent from c reaches;
    P_a(4) = 4.  By the lemma, with X = floor(a), the walks from starts <=
    last visit only the primes and 4 <= floor(a), and their climbs stay <=
    floor(a) + s a < floor(a) + climb_margin(a).  An orbit that does not
    come back to a prime or 4 of its cycle and round it within its budget
    raises ConsistencyError naming the smallest such start.  check_cycles
    checks all cycles of a batch at once: each member's B_a, factored
    through the prefix's sieve table and never read from the prefix of B,
    must be the next member.
    """
    found = {}
    for a, owner, length, members, spf in _walks(shifts, start_limit):
        shift = a[owner]
        found.update((x, {}) for x in a.tolist())
        for x, c in zip(shift.tolist(), check_cycles(shift, length, members, spf)):
            found[x][c.members[0]] = c
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

    Lemma: for a >= 1, with m = climb_margin(a) and P = 2m + 4, every
    cycle member is <= P, and above P each node n has a successor s(n) < n
    with dist(n) = dist(s(n)) + w(n) and label(n) = label(s(n)).  Proof:
    a cycle's minimum is <= floor(a) <= m + 4 (the parity floor, see
    _cycles: a + 4 <= 3a + 4, and a/2 + 3 and s a/2 + 5 <= (s + 1) a + 4
    for even a), and orbits from there stay <= census_limit(a, m + 4) = P.
    A composite n > P has s(n) = B(n) <= n/2 + 2 < n and w(n) = 1.  A
    prime p > P climbs j >= 1 steps to its first composite c <= p + m,
    and s(p) = J(p) = B(c) <= (p + m)/2 + 2 < p, as p > m + 4, with w(p)
    = j + 1: none of p + a, ..., c, all > P, is on a cycle.  So a start n
    <= S = start_limit reads no node above (S + m)/2 + 2, and orbits from
    [2, P] stay <= census_limit(a, P) = 3m + 4.  At a = 0, m = 0: a
    composite n > 4 has B(n) < n, and each prime is a fixed point, its
    own cycle.
    """
    limit = census_limit(a, start_limit)
    budget = default_max_steps(limit, a)
    m = climb_margin(a)
    walked = _cycles([a], start_limit)[a]
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
    # reaches, and dist[n] the number of B_a steps to get there.  It holds
    # the nodes up to top, all that any start reads (see the lemma), and
    # one last slot, never written, that reads past it are clipped to.
    # Orbits from [2, P] resolve first, by rounds on B_a over [2, low];
    # then one ascending pass over the stream of B, whose windows repeat
    # the m entries before them so that each holds its primes' climbs,
    # resolves the nodes from P + 1 to S, the primes being the n with B(n)
    # = n.  The nodes above top are counted and dropped window by window.
    #
    # The state starts in the narrowest dtype that holds the labels: one
    # byte at a <= 200.  Its largest dist is 31 beside 3 label bits, and
    # the dists a census reaches grow about one per decade of the limit:
    # at 10^7 at most 28 (a = 155), while a = 90 reaches 31 at 10^9.  A
    # node is at most m // a steps (1 at a = 0) from its successor, so a
    # read at a dist that a jump would carry past the dtype widens the
    # state first, once, to a dtype that holds budget + m // a: fold still
    # sees the first dist past the budget unwrapped.  The wide state is a
    # zeroed copy of the positions below written, so the pages above it
    # stay untouched.
    P, low = 2 * m + 4, min(limit, 3 * m + 4)
    top = max((start_limit + m) // 2 + 2, low)
    bound = f"census of a={a} with --limit {start_limit}"
    wide = state_dtype(bits, budget + (m // a if a else 1) - 1)
    # The state at its widest and the stream's values, together, before either exists.
    need = check_size(top + 2, wide, bound) + check_size(*back_size(limit), bound)
    check_size(need, np.uint8, bound)
    state = zeros(top + 2, state_dtype(bits, 0), bound)
    cap, written = dist_top(state.dtype, bits), low + 1
    tally = np.zeros(0, dtype=np.intp)
    if a == 0:
        # Labels and dists (none past the budget, see fold) apart: a grid would span every prime.
        basins, counts = np.zeros(step, dtype=np.intp), np.zeros(budget + 1, dtype=np.intp)

    def read(pos, w):
        # The state at positions, the state widened first where a dist
        # read plus w, a weight << bits, would pass the narrow dtype's.
        nonlocal state
        known = state.take(pos, mode="clip")
        if state.dtype != wide and int(known.max(initial=0)) + w >= (cap + 1) << bits:
            grown = zeros(top + 2, wide, bound)
            grown[:written] = state[:written]
            state, known = grown, known.astype(wide)
        return known

    def name(n):
        return f"node {n} under a={a} with --limit {start_limit}"

    def fold(block, lo, end):
        # Check every dist of block, the states of the nodes from lo on, in
        # ascending order, so an error names the smallest node past the
        # budget, and count the starts among the nodes below end.
        nonlocal tally
        if block.max(initial=0) >= past:
            first = lo + int(np.argmax(block >= past))
            raise ConsistencyError(f"{name(first)} is more than {budget} steps from its cycle")
        starts = block[max(2 - lo, 0) : max(min(end, start_limit + 1) - lo, 0)]
        if a == 0:
            np.add.at(basins, starts & (step - 1), 1)
            np.add.at(counts, starts >> bits, 1)
        else:
            tally = _tally(tally, starts)

    def settle(block, lo, pos, succ, w, last):
        # Resolve the nodes lo + pos of block from the states of their
        # successors succ, w (weights << bits) further, round after round,
        # and return block, widened with the state.  A node up to last that
        # no round resolves reaches no cycle.
        while pos.size:
            known = read(succ, int(w.max()))
            if block.dtype != state.dtype:
                end = lo + block.size
                block = state[lo:end] if end <= top + 1 else block.astype(state.dtype)
            w = w.astype(state.dtype, copy=False)  # it fits once read has widened
            wait = np.flatnonzero(known == 0)
            if wait.size == pos.size:
                break
            block[pos] = known + w
            pos, succ, w = pos[wait], succ[wait], w[wait]
            block[pos] = 0
        stuck = pos[pos <= last - lo]
        if stuck.size:
            raise ConsistencyError(f"{name(lo + int(stuck[0]))} reaches no cycle")
        return block

    def resolve(lo, end, s, v):
        # The nodes lo..end-1 of the window from s, all > P > 4, given B
        # over the window.  One gather resolves those whose successor B(n)
        # is resolved.  The rest are the primes, the n with B(n) = n, whose
        # own state the gather read, and the nodes whose successor lies in
        # the window.  A prime p takes J(p), the first B(c) < c on its
        # climb, or at a = 0 the next label, and settle does the rest.
        nonlocal ranked, written
        vw = v[lo - s : end - s]
        if end <= top + 1:
            written = max(written, end)
        known = read(vw, step)
        block = state[lo:end] if end <= top + 1 else known
        miss = np.flatnonzero(known == 0)
        np.add(known, step, out=block)
        block[miss] = 0
        node, succ = miss + lo, vw.take(miss)
        prime = succ == node
        if a == 0:
            p = np.flatnonzero(prime)
            block[miss[p]] = np.arange(ranked + 1, ranked + p.size + 1)
            ranked += p.size
            minima.append(node[p])
            miss, succ = miss[~prime], succ[~prime]
            w = np.full(miss.size, step, dtype=np.uint64)
        else:
            # Each miss climbs from c, p + a at a prime and n itself at a
            # composite, j steps in all, by a while c is prime.
            c, j = node + prime * a, prime + np.uint64(1)
            succ = v.take(c - s)
            up = np.flatnonzero(succ == c)
            while up.size:
                c[up] += a
                j[up] += 1
                succ[up] = v.take(c[up] - s)
                up = up[succ[up] == c[up]]
            w = j << bits
        return settle(block, lo, miss, succ, w, end - 1)

    f = np.concatenate([f for _, f in shifted_segments(a, low)])
    state[minima[0]] = np.arange(1, minima[0].size + 1, dtype=state.dtype)
    for x, cycle in walked.items():
        state[list(cycle.members)] = state[x]
    pos = np.flatnonzero(state[2 : low + 1] == 0) + 2
    w = np.full(pos.size, step, dtype=np.uint64)
    fold(settle(state[: low + 1], 0, pos, f[pos], w, min(start_limit, P)), 0, P + 1)
    state[P + 1 : low + 1] = 0  # the pass resolves these again, and reads 0 at its primes
    ranked, done = minima[0].size, P + 1
    for s, v in segments(limit, m) if start_limit > P else ():
        end = min(s + v.size - m, start_limit + 1)
        for lo, hi in ((done, min(end, top + 1)), (max(done, top + 1), end)):
            if lo < hi:
                fold(resolve(lo, hi, s, v), lo, hi)  # without resolve's temporaries
        done = max(done, end)
        del v  # so the stream frees it before it builds another
    state = None  # so the report's cycles, one per prime at a = 0, are built without it

    if a:
        grid = np.pad(tally, (0, -tally.size % step)).reshape(-1, step)
        basins, counts = grid.sum(axis=0), grid.sum(axis=1)
    counts = np.trim_zeros(counts, "b")
    labels = np.flatnonzero(basins)
    cycles = tuple(
        walked[x] if x in walked else Cycle((x,), "+")
        for x in np.concatenate(minima)[labels - 1].tolist()
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
    B_a, by their minimum} for each a in shifts: those of _cycles."""
    found = _cycles(shifts, start_limit)
    return {a: tuple(c for c in cycles.values() if len(c) > 1) for a, cycles in found.items()}


def cycle_count_sweep(a_max: int, start_limit: int) -> tuple[dict[int, int], set[int]]:
    """(counts, argmax_set): the distinct nontrivial cycles for each a in
    1..a_max, those of _cycles, counted batch by batch once check_members
    has passed them, with no Cycle built."""
    if a_max < 1:
        raise DomainError(f"--a-max must be >= 1, got {a_max}")
    counts = {}
    for a, owner, length, members, spf in _walks(range(1, a_max + 1), start_limit):
        check_members(a[owner], length, members, spf)
        counts.update(zip(a.tolist(), np.bincount(owner[length > 1], minlength=a.size).tolist()))
    best = max(counts.values())
    return counts, {a for a, c in counts.items() if c == best}
