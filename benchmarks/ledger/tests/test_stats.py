"""The percentile rule, the spread, and the compare verdicts."""

import pytest

import stats


@pytest.mark.parametrize(
    "samples, expected",
    [(19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (200, 95), (1000, 99)],
)
def test_highest_percentile_with_ten_samples_beyond_it(samples, expected):
    assert stats.highest_supported_percentile(samples) == expected


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 75) == 3.25
    assert stats.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartile_spread_is_the_driver_s_formula():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.2]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([5.0]) == 0.0


def test_worsening_follows_the_metric_s_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.10)


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.01]


def test_verdict_ok_and_worse_when_the_spread_is_within_the_bound():
    assert stats.verdict(TIGHT, [v * 1.03 for v in TIGHT], "lower", 0.05) == "ok"
    assert stats.verdict(TIGHT, [v * 1.08 for v in TIGHT], "lower", 0.05) == "worse"
    assert stats.verdict(TIGHT, [v * 1.08 for v in TIGHT], "higher", 0.05) == "ok"
    assert stats.verdict(TIGHT, [v * 0.90 for v in TIGHT], "higher", 0.05) == "worse"


def test_verdict_unresolved_when_the_spread_is_wider_than_the_bound():
    noisy = [0.8, 1.0, 1.2, 0.9, 1.1]
    assert stats.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.05) == "unresolved"
    # ... unless every run of the change is better than every run of the parent
    assert stats.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.05) == "ok"
    # ... or every run is worse, and by more than the bound
    assert stats.verdict(noisy, [v * 2.0 for v in noisy], "lower", 0.05) == "worse"
