import math

import pytest

from convexlab.experiments import ExperimentConfig, run_experiment
from convexlab.gauss import std_normal_quantile
from convexlab.report import Z99, ExperimentReport, binom_se, wilson_interval


def _report():
    return ExperimentReport("unit", {}, 0)


class TestHelpers:
    def test_z99_is_the_two_sided_99_percent_quantile(self):
        assert Z99 == pytest.approx(std_normal_quantile(0.995), abs=1e-12)

    @pytest.mark.parametrize("hits", [0, 40])
    def test_binom_se_vanishes_at_the_ends(self, hits):
        assert binom_se(hits, 40) == 0.0

    def test_binom_se_without_trials(self):
        assert binom_se(0, 0) == 0.0

    def test_binom_se_inside(self):
        assert binom_se(3, 10) == math.sqrt(0.3 * 0.7 / 10)

    def test_wilson_at_zero_hits(self):
        lo, hi = wilson_interval(0, 40)
        assert lo == 0.0
        assert hi == pytest.approx(Z99**2 / (40 + Z99**2), rel=1e-12)

    def test_wilson_at_all_hits(self):
        lo, hi = wilson_interval(40, 40)
        assert lo == pytest.approx(40 / (40 + Z99**2), rel=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_wilson_default_is_z99(self):
        assert wilson_interval(7, 40) == wilson_interval(7, 40, z=Z99)

    def test_wilson_without_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestAddRate:
    def test_records_rate_se_and_count(self):
        report = _report()
        rate, se = report.add_rate("p", 3, 10)
        assert (rate, se) == (0.3, binom_se(3, 10))
        (e,) = report.estimates
        assert (e.metric, e.value, e.ci_halfwidth, e.sample_count) == ("p", 0.3, se, 10)

    def test_zero_trials(self):
        report = _report()
        assert report.add_rate("p", 0, 0) == (0.0, 0.0)
        (e,) = report.estimates
        assert (e.value, e.ci_halfwidth, e.sample_count) == (0.0, 0.0, 0)


class TestSeWidening:
    def test_leq_adds_three_se(self):
        report = _report()
        report.assert_leq("inside", 1.05, 0.5, se=0.2)
        report.assert_leq("outside", 1.15, 0.5, se=0.2)
        inside, outside = report.assertions
        assert inside.bound == outside.bound == 0.5 + 3 * 0.2
        assert inside.passed and not outside.passed

    def test_geq_subtracts_three_se(self):
        report = _report()
        report.assert_geq("inside", -0.05, 0.5, se=0.2)
        report.assert_geq("outside", -0.15, 0.5, se=0.2)
        inside, outside = report.assertions
        assert inside.bound == outside.bound == 0.5 - 3 * 0.2
        assert inside.passed and not outside.passed

    def test_no_se_keeps_the_bound(self):
        report = _report()
        report.assert_leq("leq", 0.5, 0.5)
        report.assert_geq("geq", 0.5, 0.5)
        assert [a.bound for a in report.assertions] == [0.5, 0.5]
        assert report.all_passed()


class TestTrend:
    def test_nonincreasing_observes_the_largest_rise(self):
        report = _report()
        report.assert_trend("down", [0.30, 0.35, 0.20, 0.28], [0.01, 0.02, 0.01, 0.01], "nonincreasing")
        (a,) = report.assertions
        assert a.observed == 0.28 - 0.20
        assert a.bound == 3 * 0.02
        assert not a.passed
        assert a.source == "derived"

    def test_nondecreasing_observes_the_largest_drop(self):
        report = _report()
        report.assert_trend("up", [0.10, 0.30, 0.25, 0.40], [0.01, 0.01, 0.01, 0.01], "nondecreasing")
        (a,) = report.assertions
        assert a.observed == 0.30 - 0.25
        assert a.bound == 3 * 0.01
        assert not a.passed

    def test_floor_adds_to_the_slack(self):
        report = _report()
        report.assert_trend("up", [0.10, 0.30, 0.25], [0.01, 0.01, 0.01], "nondecreasing", floor=0.03)
        (a,) = report.assertions
        assert a.bound == 0.03 + 3 * 0.01
        assert a.passed

    @pytest.mark.parametrize(
        "values, direction",
        [([0.3, 0.2, 0.1], "nonincreasing"), ([0.1, 0.1, 0.4], "nondecreasing")],
    )
    def test_right_way_observes_zero(self, values, direction):
        report = _report()
        report.assert_trend("ok", values, [0.0] * 3, direction)
        (a,) = report.assertions
        assert a.observed == 0.0 and a.passed

    @pytest.mark.parametrize("direction", ["nonincreasing", "nondecreasing"])
    def test_single_value_records_nothing(self, direction):
        report = _report()
        report.assert_trend("one", [0.5], [0.1], direction)
        assert report.assertions == [] and report.estimates == []

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            _report().assert_trend("bad", [0.1, 0.2], [0.0, 0.0], "decreasing")


TREND = "conditional crossing probability decreasing in n at fixed q (3se slack)"


class TestExperimentGrid:
    def test_strip_crossing_trend_observes_the_largest_rise(self):
        report = run_experiment(ExperimentConfig("strip-crossing", seed=17, trials=3000))
        assert report.parameters["grid"] == [64, 100, 144]
        rates = [report.value(f"n={n}: conditional_crossing") for n in (64, 100, 144)]
        (trend,) = [a for a in report.assertions if a.description == TREND]
        assert trend.observed == max(b - a for a, b in zip(rates, rates[1:]))
        assert trend.observed == pytest.approx(0.00423, abs=5e-6)
        assert trend.passed

    @pytest.mark.parametrize(
        "name, overrides, trend",
        [
            ("strip-crossing", {}, TREND),
            ("xy-pair", {"c0_hat": 0.35}, "near-pair separation rate decaying in n (3se slack)"),
        ],
    )
    def test_single_n_records_no_trend(self, name, overrides, trend):
        report = run_experiment(
            ExperimentConfig(name, seed=17, n=16, trials=3000, overrides=overrides)
        )
        assert report.parameters["grid"] == [16]
        assert report.assertions
        assert all(a.description != trend for a in report.assertions)
