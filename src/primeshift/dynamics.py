"""Orbits of the shifted map: iteration, cycle detection, stopping times.

Cycle detection keeps a hash map of visited values, which gives the
exact cycle-entry index in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _check_domain, check_shift, shifted_B
from .errors import DomainError, NonterminationError
from .sieve import SHARED_LIMIT, covering


@dataclass(frozen=True)
class OrbitRecord:
    """Trajectory of start under B_a up to and including one cycle period.

    trajectory ends with the first repeated value, so
    trajectory[entry_index:-1] is the cycle and
    trajectory[-1] == trajectory[entry_index].
    stopping_time is the least k with trajectory[k] < start (None if the
    orbit never drops below its start); total_stopping_time is the number
    of steps taken before entering the cycle, i.e. entry_index.
    """

    start: int
    a: int
    trajectory: tuple[int, ...]
    entry_index: int

    @property
    def cycle(self) -> tuple[int, ...]:
        return self.trajectory[self.entry_index : -1]

    @property
    def total_stopping_time(self) -> int:
        return self.entry_index

    @property
    def stopping_time(self) -> int | None:
        for k in range(1, len(self.trajectory)):
            if self.trajectory[k] < self.start:
                return k
        return None


@dataclass(frozen=True, slots=True)
class Cycle:
    """A periodic orbit rotated so its minimum comes first.

    sign_pattern marks each member '+' for prime, '-' for composite.
    """

    members: tuple[int, ...]
    sign_pattern: str

    def __len__(self) -> int:
        return len(self.members)


def default_max_steps(n, a):
    """Generous step budget; real orbits are far shorter.  Elementwise
    where n and a are int64 arrays, as a sweep's walks pass them."""
    if isinstance(n, np.ndarray):
        log = np.log2(np.maximum(n, 2)).astype(np.int64)
    else:
        log = int(math.log2(max(n, 2)))
    return 10 * (log + 1) + 4 * a + 100


def iterate_orbit(
    n: int, a: int, *, max_steps: int | None = None, extend_domain: bool = False
) -> OrbitRecord:
    """Follow n under the shifted map until the orbit closes, within max_steps >= 0 steps.

    n, a and max_steps are checked once, here; a start 0 or 1 (extend_domain) maps to itself."""
    a = check_shift(a)
    _check_domain(n, a, extend_domain)
    if max_steps is None:
        max_steps = default_max_steps(n, a)
    if max_steps < 0:
        raise DomainError(f"--max-steps {max_steps} is negative for the orbit of {n}, a={a}")
    table = covering(SHARED_LIMIT)
    seen: dict[int, int] = {}
    traj = [n]
    v = n
    while v not in seen:
        seen[v] = len(traj) - 1
        if len(traj) - 1 >= max_steps:
            raise NonterminationError(n, a, max_steps)
        v = shifted_B(v, a, table) if v > 1 else v
        traj.append(v)
    return OrbitRecord(n, a, tuple(traj), seen[v])
