"""Steal-corrected interval timing."""
from common import net_seconds


def test_net_seconds_subtracts_steal():
    assert net_seconds((1.0, 5.0), (11.0, 8.0)) == 10.0 - 3.0


def test_net_seconds_takes_off_at_most_half_the_interval():
    assert net_seconds((0.0, 0.0), (4.0, 9.0)) == 2.0


def test_net_seconds_without_steal_is_wall_time():
    assert net_seconds((2.0, 7.0), (2.5, 7.0)) == 0.5
