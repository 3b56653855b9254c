from __future__ import annotations

import pytest

from distcov import build_schedule, distributed_cost
from distcov.errors import DistCovError

from conftest import raises_exactly


def test_centralized_count():
    assert distributed_cost([649], build_schedule(1)).t_c == 210_276
    assert distributed_cost([2], build_schedule(1)).t_c == 1
    assert distributed_cost([1, 1], build_schedule(2)).t_c == 1


def test_equal_widths_four_sites():
    rep = distributed_cost([100] * 4, build_schedule(4))
    assert rep.t_l == 4_950
    assert rep.t_cr_cm == 20_200  # worst site: 2 predecessors, 2*(100*100+100)
    assert rep.t_d == 25_150
    assert rep.t_c == 79_800
    assert rep.speedup == pytest.approx(79_800 / 25_150)
    assert rep.speedup >= 2  # r = 2


def test_single_site_equals_centralized():
    rep = distributed_cost([30], build_schedule(1))
    assert rep.t_d == rep.t_c == 435
    assert rep.speedup == 1.0


def test_two_sites_single_columns():
    rep = distributed_cost([1, 1], build_schedule(2))
    assert rep.local_ops == (0, 0)
    assert rep.cross_comm_ops == (0, 2)  # site 1: 1*1 compute + 1 shipped column
    assert rep.t_d == 2


def test_five_sites_width_50():
    rep = distributed_cost([50] * 5, build_schedule(5))
    assert rep.t_l == 1_225
    assert rep.t_cr_cm == 5_100
    assert rep.t_d == 6_325
    assert rep.speedup == pytest.approx(31_125 / 6_325)


def test_per_site_breakdown_uneven():
    # widths [3, 1]: site 1 receives site 0's three columns
    rep = distributed_cost([3, 1], build_schedule(2))
    assert rep.local_ops == (3, 0)
    assert rep.cross_comm_ops == (0, 1 * 3 + 3)
    assert rep.t_d == 3 + 6


def test_width_count_must_match_schedule():
    with raises_exactly(DistCovError, match="3 widths for a 2-site schedule"):
        distributed_cost([10, 10, 10], build_schedule(2))
    with raises_exactly(DistCovError, match="every site must hold at least one column"):
        distributed_cost([10, 0], build_schedule(2))


@pytest.mark.parametrize("t", range(2, 11))
@pytest.mark.parametrize("gamma", [10, 50, 100])
def test_speedup_at_least_half_t(t, gamma):
    assert distributed_cost([gamma] * t, build_schedule(t)).speedup >= t // 2


def test_distributed_cost_non_increasing_at_fixed_total():
    # 600 columns split evenly across 2..6 sites
    costs = []
    for t, gamma in [(2, 300), (3, 200), (4, 150), (5, 120), (6, 100)]:
        costs.append(distributed_cost([gamma] * t, build_schedule(t)).t_d)
    assert costs == [135_150, 60_100, 56_475, 36_180, 35_250]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
