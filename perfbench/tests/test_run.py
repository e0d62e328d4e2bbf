from types import SimpleNamespace

import pytest

import run
from workloads import CELLS, TABLE_REPS, WORKLOADS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("t_end, taken", [(0.0, 1), (10.0, 3), (10.5, 4)])
def test_sample_loop_starts_a_sample_only_if_half_of_it_fits(monkeypatch, t_end, taken):
    clock = FakeClock()
    monkeypatch.setattr(run, "time", SimpleNamespace(monotonic=clock))
    starts = []

    def sample():
        starts.append(clock.now)
        clock.now += 3.0

    run._sample_loop(t_end, sample)
    assert starts == [3.0 * i for i in range(taken)]


def test_end_to_end_reports_the_nproc_runs_beside_the_contract_metrics():
    tally = run.Tally(WORKLOADS["table"])
    for wall, wall_nproc in ((4.0, 2.0), (5.0, 3.0), (9.0, 2.5)):
        tally.add("wall_s", wall)
        tally.add("wall_nproc_s", wall_nproc)
        tally.add("setup_s", 0.3)
        tally.add("setup_s", 0.2)
        tally.add("peak_rss_mib", 60.0)
        tally.add("peak_rss_nproc_mib", 80.0)
    metrics = run.end_to_end(tally)
    assert list(metrics)[:len(run.END_TO_END)] == list(run.END_TO_END)
    # wall times are means, the rest medians
    assert metrics["wall_s"] == 6.0 and metrics["wall_nproc_s"] == 2.5
    assert metrics["setup_s"] == 0.25
    assert metrics["estimates_per_s"] == CELLS * TABLE_REPS / 6.0
    assert metrics["estimates_nproc_per_s"] == CELLS * TABLE_REPS / 2.5
    assert metrics["peak_rss_nproc_mib"] == 80.0


def test_units_of_the_nproc_metrics():
    assert run.unit_of("wall_nproc_s") == "s"
    assert run.unit_of("estimates_nproc_per_s") == "1/s"
    assert run.unit_of("peak_rss_nproc_mib") == "MiB"
    assert run.unit_of("benchmark.worker_util") == "frac"
    assert run.unit_of("gaussian.draws") == "count"
