"""Exchange schedules: who sends raw columns to whom.

A schedule is one list of senders per site. Any lists that cover every
unordered pair of sites exactly once are a correct schedule: each pair's
cross block is computed by exactly one of its two sites. The run proves
this with `pair_coverage` before any socket exists.

`build_schedule` builds the paper's ring, the default: each site receives
from a run of its immediate ring predecessors. With t = 2r sites the first
r sites take r-1 predecessors and the rest take r (counting identity
r(r-1) + r*r = t(t-1)/2); with t = 2r+1 every site takes r.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import DistCovError

__all__ = ["Schedule", "build_schedule"]


@dataclass(frozen=True)
class Schedule:
    """Per-site sender lists: site k receives the raw columns of every site
    in `predecessors[k]`."""

    predecessors: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        """The number of sites."""
        return len(self.predecessors)

    def to_dict(self) -> dict:
        return {"t": self.t, "predecessors": [list(p) for p in self.predecessors]}

    def senders_to(self, k: int) -> tuple[int, ...]:
        """Sites whose raw columns site k receives."""
        if not 0 <= k < self.t:
            raise DistCovError(f"site {k} out of range for t={self.t}")
        return self.predecessors[k]

    def blocks(self) -> list[tuple[int, int]]:
        """(site_a, site_b) of every block a run computes: (k, k) for each
        site, then (j, k) for each sender j of site k."""
        return [(k, k) for k in range(self.t)] + [
            (j, k) for k, preds in enumerate(self.predecessors) for j in preds
        ]


def build_schedule(t: int) -> Schedule:
    """The ring's predecessor lists for t sites, nearest predecessor first.

    Even t = 2r: sites 0 to r-1 list their r-1 immediate predecessors,
    sites r to t-1 list r of them. Odd t = 2r+1: every site lists r.
    """
    if t < 1:
        raise DistCovError(f"site count must be >= 1, got t={t}")
    r = t // 2
    lists: list[tuple[int, ...]] = []
    for k in range(t):
        depth = r if (t % 2 == 1 or k >= r) else r - 1
        lists.append(tuple((k - d) % t for d in range(1, depth + 1)))
    return Schedule(predecessors=tuple(lists))


def pair_coverage(sites: Iterable[int], pairs: Iterable[tuple[int, int]]):
    """(surplus, gaps): the sorted unordered pairs, self pairs included, that
    `pairs` covers twice or that name a site outside `sites`, and those of
    `sites` it misses."""
    inside, seen = set(sites), Counter((min(a, b), max(a, b)) for a, b in pairs)
    surplus = sorted(p for p, n in seen.items() if n > 1 or not inside.issuperset(p))
    order = sorted(inside)
    gaps = [(a, b) for i, a in enumerate(order) for b in order[i:] if (a, b) not in seen]
    return tuple(surplus), tuple(gaps)
