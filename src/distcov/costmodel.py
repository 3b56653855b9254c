"""Analytical cost model: column-pair covariance evaluations, not wall time.

Centralized work is all m(m-1)/2 pairs on one machine. Distributed work is
the slowest site's local block plus the slowest site's cross-block phase,
where receiving site k pays m_k*m_i compute and m_i shipping per sender
i. The modeled speed-up of an equal-width split across t sites is at least
floor(t/2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DistCovError
from .schedule import Schedule

__all__ = ["CostReport", "distributed_cost"]


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
        sum(w[k] * w[i] + w[i] for i in schedule.predecessors[k])
        for k in range(schedule.t)
    )
    t_l = max(local)
    t_cr_cm = max(cross)
    t_d = t_l + t_cr_cm
    m = sum(w)
    t_c = m * (m - 1) // 2
    return CostReport(
        t_c=t_c,
        local_ops=local,
        t_l=t_l,
        cross_comm_ops=cross,
        t_cr_cm=t_cr_cm,
        t_d=t_d,
        speedup=t_c / t_d if t_d else 1.0,
    )

