"""Ring predecessor schedule: who sends raw columns to whom.

Sites sit on a ring. Each site receives from a run of its immediate
predecessors, long enough that every unordered pair of sites meets exactly
once across the whole schedule: with t = 2r sites the first r sites take
r-1 predecessors and the rest take r (counting identity
r(r-1) + r*r = t(t-1)/2); with t = 2r+1 every site takes r.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import IndexOutOfRange

__all__ = ["Schedule", "CoverageReport", "predecessor", "build_schedule", "validate_schedule"]


@dataclass(frozen=True)
class Schedule:
    """Per-site predecessor lists, nearest predecessor first."""

    t: int
    r: int
    predecessors: tuple[tuple[int, ...], ...]

    def senders_to(self, k: int) -> tuple[int, ...]:
        """Sites whose raw columns site k receives."""
        if not 0 <= k < self.t:
            raise IndexOutOfRange(f"site {k} out of range for t={self.t}")
        return self.predecessors[k]

    def blocks(self) -> list[tuple[int, int]]:
        """(site_a, site_b) of every block a run computes: (k, k) for each
        site, then (j, k) for each predecessor j of site k."""
        return [(k, k) for k in range(len(self.predecessors))] + [
            (j, k) for k, preds in enumerate(self.predecessors) for j in preds
        ]


@dataclass(frozen=True)
class CoverageReport:
    """Verdict on whether a schedule covers every site pair exactly once."""

    pairs_covered: int
    duplicates: tuple[tuple[int, int], ...]
    gaps: tuple[tuple[int, int], ...]
    max_list_len: int
    valid: bool


def predecessor(k: int, t: int) -> int:
    """The immediate ring predecessor of site k among t sites."""
    if t < 2:
        raise IndexOutOfRange(f"a ring needs at least 2 sites, got t={t}")
    if not 0 <= k < t:
        raise IndexOutOfRange(f"site {k} out of range for t={t}")
    return t - 1 if k == 0 else k - 1


def build_schedule(t: int) -> Schedule:
    """Predecessor lists for t sites.

    Even t = 2r: sites 0..r-1 list their r-1 immediate predecessors, sites
    r..t-1 list r of them. Odd t = 2r+1: every site lists r. Lists are
    generated by repeated application of `predecessor`, nearest first.
    """
    if t < 1:
        raise IndexOutOfRange(f"site count must be >= 1, got t={t}")
    r = t // 2
    if t == 1:
        return Schedule(t=1, r=0, predecessors=((),))

    lists: list[tuple[int, ...]] = []
    for k in range(t):
        depth = r if (t % 2 == 1 or k >= r) else r - 1
        chain: list[int] = []
        p = k
        for _ in range(depth):
            p = predecessor(p, t)
            chain.append(p)
        lists.append(tuple(chain))
    return Schedule(t=t, r=r, predecessors=tuple(lists))


def pair_coverage(sites: Iterable[int], pairs: Iterable[tuple[int, int]]):
    """(surplus, gaps): the sorted unordered pairs, self pairs included, that
    `pairs` covers twice or that name a site outside `sites`, and those of
    `sites` it misses."""
    inside, seen = set(sites), Counter((min(a, b), max(a, b)) for a, b in pairs)
    surplus = sorted(p for p, n in seen.items() if n > 1 or not inside.issuperset(p))
    order = sorted(inside)
    gaps = [(a, b) for i, a in enumerate(order) for b in order[i:] if (a, b) not in seen]
    return tuple(surplus), tuple(gaps)


def validate_schedule(s: Schedule) -> CoverageReport:
    """Check exact-once coverage of all unordered site pairs.

    Valid iff the schedule's blocks cover every pair of sites exactly once,
    a site with itself only by its local block, and no list is longer than r.
    """
    surplus, gaps = pair_coverage(range(s.t), s.blocks())
    max_len = max(map(len, s.predecessors), default=0)
    return CoverageReport(
        pairs_covered=s.t * (s.t - 1) // 2 - sum(a != b for a, b in gaps),
        duplicates=surplus,
        gaps=gaps,
        max_list_len=max_len,
        valid=not surplus and not gaps and max_len <= s.r,
    )
