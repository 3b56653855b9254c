from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distcov import Schedule, build_schedule, predecessor, validate_schedule
from distcov.errors import IndexOutOfRange


def test_predecessor_wraps_at_zero():
    assert predecessor(0, 6) == 5


def test_predecessor_steps_back():
    assert predecessor(3, 6) == 2


def test_predecessor_two_site_ring():
    assert predecessor(1, 2) == 0


def test_predecessor_range_checks():
    with pytest.raises(IndexOutOfRange):
        predecessor(6, 6)
    with pytest.raises(IndexOutOfRange):
        predecessor(-1, 6)
    with pytest.raises(IndexOutOfRange):
        predecessor(0, 1)


def test_schedule_five_sites():
    s = build_schedule(5)
    assert [list(p) for p in s.predecessors] == [[4, 3], [0, 4], [1, 0], [2, 1], [3, 2]]
    assert s.r == 2


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
    assert validate_schedule(s).valid


def test_schedule_rejects_bad_count():
    with pytest.raises(IndexOutOfRange):
        build_schedule(0)


def test_validate_six_sites():
    rep = validate_schedule(build_schedule(6))
    assert rep.valid
    assert rep.pairs_covered == 15
    assert rep.max_list_len == 3
    assert rep.duplicates == () and rep.gaps == ()


def test_validate_reports_gap():
    s = build_schedule(4)
    broken = Schedule(t=4, r=2, predecessors=(s.predecessors[0], (), *s.predecessors[2:]))
    rep = validate_schedule(broken)
    assert not rep.valid
    assert (0, 1) in rep.gaps


def test_validate_reports_duplicate():
    s = build_schedule(4)
    # site 1 now also lists site 3, so pair {1,3} is covered twice
    doubled = Schedule(
        t=4, r=2,
        predecessors=(s.predecessors[0], (0, 3), *s.predecessors[2:]),
    )
    rep = validate_schedule(doubled)
    assert not rep.valid
    assert (1, 3) in rep.duplicates


def test_validate_rejects_self_pair():
    rep = validate_schedule(Schedule(t=2, r=1, predecessors=((), (1,))))
    assert not rep.valid


def test_validate_rejects_a_site_outside_the_ring():
    # Pair (0, 1) is covered once; site 5 does not exist in a 2-site run.
    rep = validate_schedule(Schedule(t=2, r=1, predecessors=((1,), (5,))))
    assert not rep.valid
    assert rep.duplicates == ((1, 5),) and rep.gaps == ()


def test_schedule_blocks_follow_the_lists():
    assert build_schedule(3).blocks() == [(0, 0), (1, 1), (2, 2), (2, 0), (0, 1), (1, 2)]
    short = Schedule(t=3, r=1, predecessors=((1, 2), (2,)))
    assert validate_schedule(short).gaps == ((2, 2),)


@given(st.integers(min_value=1, max_value=64))
def test_every_schedule_covers_all_pairs_once(t):
    s = build_schedule(t)
    rep = validate_schedule(s)
    assert rep.valid
    assert rep.pairs_covered == t * (t - 1) // 2
    assert rep.max_list_len <= (t - 1 + 1) // 2  # == r


@given(st.integers(min_value=2, max_value=64), st.data())
def test_ring_closure(t, data):
    k = data.draw(st.integers(min_value=0, max_value=t - 1))
    p = k
    for _ in range(t):
        p = predecessor(p, t)
    assert p == k
