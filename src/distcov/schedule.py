"""Exchange schedules: who sends raw columns to whom.

A schedule is one list of senders per site. Any lists that cover every
unordered pair of sites exactly once are a correct schedule: each pair's
cross block is computed by exactly one of its two sites. The run proves
this with `pair_coverage` before any socket exists.

`build_schedule` builds the paper's ring, the default: each site receives
from a run of its immediate ring predecessors. With t = 2r sites the first
r sites take r-1 predecessors and the rest take r (counting identity
r(r-1) + r*r = t(t-1)/2); with t = 2r+1 every site takes r.

`distributed_cost` prices a schedule in column-pair covariance evaluations,
not wall time. Centralized work is all m(m-1)/2 pairs on one machine.
Distributed work is the slowest site's local block plus the slowest site's
cross-block phase, where receiving site k pays m_k*m_i compute and m_i
shipping per sender i. The modeled speed-up of an equal-width split across t
sites on the ring is at least floor(t/2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import DistCovError

__all__ = ["Schedule", "build_schedule", "CostReport", "distributed_cost"]


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


@dataclass(frozen=True)
class CostReport:
    """Operation counts for one partitioning, with the per-site breakdown."""

    t_c: int
    local_ops: tuple[int, ...]
    t_l: int
    cross_comm_ops: tuple[int, ...]
    t_cr_cm: int
    t_d: int
    speedup: float

    def to_dict(self) -> dict:
        return {
            "centralized_ops": self.t_c,
            "local_ops_per_site": list(self.local_ops),
            "local_ops_max": self.t_l,
            "cross_comm_ops_per_site": list(self.cross_comm_ops),
            "cross_comm_ops_max": self.t_cr_cm,
            "distributed_ops": self.t_d,
            "speedup": self.speedup,
        }


def distributed_cost(widths, schedule: Schedule) -> CostReport:
    """Cost of the distributed computation for the given per-site widths.

    t_d = max_j local(j) + max_k sum over senders i of (m_k*m_i + m_i).
    The two maxima are independent: every site computes its local block in
    parallel, then every site works through its received blocks in parallel.
    One site with one column has no pairs at all; that run is the
    centralized run, so its speed-up is 1.0.
    """
    w = [int(x) for x in widths]
    if len(w) != schedule.t:
        raise DistCovError(f"{len(w)} widths for a {schedule.t}-site schedule")
    if any(x < 1 for x in w):
        raise DistCovError("every site must hold at least one column")

    local = tuple(m * (m - 1) // 2 for m in w)
    cross = tuple(
        sum(w[k] * w[i] + w[i] for i in schedule.senders_to(k)) for k in range(schedule.t)
    )
    t_l, t_cr_cm = max(local), max(cross)
    m = sum(w)
    t_c, t_d = m * (m - 1) // 2, t_l + t_cr_cm
    return CostReport(t_c=t_c, local_ops=local, t_l=t_l, cross_comm_ops=cross,
                      t_cr_cm=t_cr_cm, t_d=t_d, speedup=t_c / t_d if t_d else 1.0)
