from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distcov import Schedule, build_schedule
from distcov.errors import DistCovError
from distcov.schedule import pair_coverage

from conftest import raises_exactly


def test_schedule_five_sites():
    s = build_schedule(5)
    assert [list(p) for p in s.predecessors] == [[4, 3], [0, 4], [1, 0], [2, 1], [3, 2]]
    assert s.t == 5


def test_schedule_four_sites():
    # Even split: the first r sites list r-1 predecessors, the rest list r.
    s = build_schedule(4)
    assert [list(p) for p in s.predecessors] == [[3], [0], [1, 0], [2, 1]]


def test_schedule_two_sites():
    s = build_schedule(2)
    assert [list(p) for p in s.predecessors] == [[], [0]]


def test_schedule_six_sites():
    s = build_schedule(6)
    assert [list(p) for p in s.predecessors] == [
        [5, 4], [0, 5], [1, 0], [2, 1, 0], [3, 2, 1], [4, 3, 2],
    ]


def test_schedule_single_site_is_empty():
    s = build_schedule(1)
    assert s.predecessors == ((),)
    assert pair_coverage(range(1), s.blocks()) == ((), ())


def test_schedule_rejects_bad_count():
    with raises_exactly(DistCovError, match=r"site count must be >= 1, got t=0"):
        build_schedule(0)


@pytest.mark.parametrize("k", [3, -1])
def test_senders_to_refuses_a_site_outside_the_schedule(k):
    with raises_exactly(DistCovError, match=f"^site {k} out of range for t=3$"):
        build_schedule(3).senders_to(k)


def test_validate_six_sites():
    s = build_schedule(6)
    assert pair_coverage(range(6), s.blocks()) == ((), ())
    assert len(s.blocks()) - 6 == 15
    assert max(map(len, s.predecessors)) == 3


def test_validate_reports_gap():
    s = build_schedule(4)
    broken = Schedule(predecessors=(s.predecessors[0], (), *s.predecessors[2:]))
    surplus, gaps = pair_coverage(range(4), broken.blocks())
    assert surplus == ()
    assert (0, 1) in gaps


def test_validate_reports_duplicate():
    s = build_schedule(4)
    # site 1 now also lists site 3, so pair {1,3} is covered twice
    doubled = Schedule(predecessors=(s.predecessors[0], (0, 3), *s.predecessors[2:]))
    surplus, gaps = pair_coverage(range(4), doubled.blocks())
    assert gaps == ()
    assert (1, 3) in surplus


def test_validate_rejects_self_pair():
    surplus, gaps = pair_coverage(range(2), Schedule(predecessors=((), (1,))).blocks())
    assert surplus == ((1, 1),) and gaps == ((0, 1),)


def test_validate_rejects_a_site_outside_the_ring():
    # Pair (0, 1) is covered once; site 5 does not exist in a 2-site run.
    s = Schedule(predecessors=((1,), (5,)))
    assert pair_coverage(range(2), s.blocks()) == (((1, 5),), ())


def test_schedule_blocks_follow_the_lists():
    assert build_schedule(3).blocks() == [(0, 0), (1, 1), (2, 2), (2, 0), (0, 1), (1, 2)]
    short = Schedule(predecessors=((1, 2), (2,)))
    assert short.t == 2
    assert pair_coverage(range(3), short.blocks()) == ((), ((2, 2),))


@given(st.integers(min_value=1, max_value=64))
def test_every_schedule_covers_all_pairs_once(t):
    s = build_schedule(t)
    assert s.t == t
    assert pair_coverage(range(t), s.blocks()) == ((), ())
    assert len(s.blocks()) == t + t * (t - 1) // 2
    assert max(map(len, s.predecessors)) <= t // 2
