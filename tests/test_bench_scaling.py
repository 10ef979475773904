"""The arithmetic behind ``bench.py --scaling``: which two parallelism
levels it runs, and the efficiency / t(c) = B + W/c fit it reports."""

import pytest

import bench


@pytest.mark.parametrize("cpus,levels", [(4, (1, 4)), (6, (1, 4)), (32, (8, 32)), (35, (8, 32))])
def test_scaling_levels_are_quarter_and_all_cpus(cpus, levels):
    assert bench.scaling_levels(cpus) == levels


@pytest.mark.parametrize("cpus", [3, 1, 0])
def test_scaling_levels_refuse_fewer_than_four_cpus(cpus):
    with pytest.raises(ValueError, match="RAY_GRAFT_CPUS"):
        bench.scaling_levels(cpus)


def test_scaling_fit_recovers_work_and_fixed_term():
    w, b = 800.0, 5.0  # t(c) = B + W/c at c = 8 and 32
    fit = bench.scaling_fit(8, b + w / 8, b + w / 32)
    assert fit["cpu_work_cpu_sec"] == pytest.approx(w)
    assert fit["unscalable_sec"] == pytest.approx(b)
    # 105 s at 8 cpus vs 30 s at 32: 3.5x faster for 4x the cpus
    assert fit["scaling_efficiency"] == pytest.approx(0.875)


def test_scaling_fit_without_fixed_term_is_perfect():
    fit = bench.scaling_fit(8, 1200.0 / 8, 1200.0 / 32)
    assert fit["scaling_efficiency"] == 1.0
    assert fit["cpu_work_cpu_sec"] == pytest.approx(1200.0)
    assert fit["unscalable_sec"] == 0.0
