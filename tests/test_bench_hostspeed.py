"""The benchmark's host-speed correction on a pass too short to be sampled."""

import importlib.util
import statistics
from pathlib import Path

import pytest

HOSTSPEED = Path(__file__).resolve().parent.parent / "bench" / "hostspeed.py"


@pytest.mark.xfail(
    raises=statistics.StatisticsError,
    strict=True,
    reason="ROADMAP item 1: HostSpeed.corrected takes the median of no samples "
    "when a pass ends before the 10 ms sampling period, and the run exits 1",
)
def test_corrected_time_of_a_pass_shorter_than_the_sampling_period():
    spec = importlib.util.spec_from_file_location("hostspeed", HOSTSPEED)
    hostspeed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hostspeed)
    speed = hostspeed.HostSpeed()
    assert speed.samples == []  # a pass shorter than PERIOD_S gets no sample
    assert speed.corrected(0.005) > 0
