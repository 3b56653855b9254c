from __future__ import annotations

import os

import numpy as np
import pytest

from distcov import (
    ColumnBlock,
    DenseMatrix,
    Schedule,
    cross_covariance,
    local_covariance,
    partition_vertical,
)
from distcov.ingest import PartitionSpec

# Three sites holding columns {x,y | z,w | v}; six rows of hand-checkable
# values (y = 2x, z = 7 - x), so several covariance entries are known exactly.
THREE_SITE_DATA = np.array(
    [
        [1.0, 2.0, 6.0, 1.0, 3.0],
        [2.0, 4.0, 5.0, 1.0, 1.0],
        [3.0, 6.0, 4.0, 2.0, 4.0],
        [4.0, 8.0, 3.0, 2.0, 1.0],
        [5.0, 10.0, 2.0, 3.0, 5.0],
        [6.0, 12.0, 1.0, 3.0, 9.0],
    ]
)
THREE_SITE_GROUPS = ((0, 1), (2, 3), (4,))


@pytest.fixture
def three_site_blocks() -> list[ColumnBlock]:
    m = DenseMatrix(THREE_SITE_DATA)
    spec = PartitionSpec(total_cols=5, groups=THREE_SITE_GROUPS)
    return partition_vertical(m, spec)


@pytest.fixture
def three_site_matrix() -> DenseMatrix:
    return DenseMatrix(THREE_SITE_DATA)


def blocks_for(data: np.ndarray, widths: list[int]) -> list[ColumnBlock]:
    """Partition columns of `data` into consecutive blocks of the given widths."""
    assert sum(widths) == data.shape[1]
    blocks = []
    start = 0
    for site, w in enumerate(widths):
        cols = tuple(range(start, start + w))
        blocks.append(
            ColumnBlock(
                site=site,
                data=DenseMatrix(np.ascontiguousarray(data[:, start : start + w])),
                global_cols=cols,
            )
        )
        start += w
    return blocks


def schedule_blocks(blocks: list[ColumnBlock], schedule: Schedule):
    """All local and cross blocks the protocol would produce, computed inline."""
    locals_ = [local_covariance(b) for b in blocks]
    crosses = []
    for k in range(schedule.t):
        for j in schedule.predecessors[k]:
            crosses.append(cross_covariance(receiver=blocks[k], sender=blocks[j]))
    return locals_, crosses


def random_widths(rng: np.random.Generator, total: int, t: int) -> list[int]:
    """t positive widths summing to `total`."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=t - 1, replace=False)) if t > 1 else []
    bounds = [0, *map(int, cuts), total]
    return [bounds[i + 1] - bounds[i] for i in range(t)]


def open_fds():
    """This process's open file descriptors, or None without /proc/self/fd."""
    try:
        return set(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None
