"""Unit tests for repro.utils.timer and repro.utils.validation."""

import time
import warnings

import numpy as np
import pytest

from repro.core import (
    FastCoreset,
    LightweightCoreset,
    SensitivitySampling,
    UniformSampling,
    WelterweightCoreset,
)
from repro.utils.timer import StopwatchRecorder, Timer, timed
from repro.utils.validation import (
    check_array,
    check_integer,
    check_points,
    check_positive,
    check_power,
    check_probability,
    check_sample_size,
    check_weights,
)


class TestTimer:
    def test_context_manager_measures_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_start_stop(self):
        timer = Timer()
        timer.start()
        time.sleep(0.005)
        elapsed = timer.stop()
        assert elapsed >= 0.004
        assert timer.elapsed == elapsed

    def test_timed_returns_result_and_seconds(self):
        result, seconds = timed(sum, range(100))
        assert result == 4950
        assert seconds >= 0.0

    def test_stopwatch_recorder_summary(self):
        recorder = StopwatchRecorder()
        recorder.record("a", 1.0)
        recorder.record("a", 3.0)
        recorder.record("b", 2.0)
        summary = recorder.summary()
        assert summary["a"][0] == pytest.approx(2.0)
        assert summary["a"][1] == pytest.approx(1.0)
        assert summary["b"] == (2.0, 0.0)


class TestCheckArray:
    def test_converts_lists(self):
        array = check_array([[1, 2], [3, 4]])
        assert array.dtype == np.float64
        assert array.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            check_array(np.empty((0, 3)))

    def test_allows_empty_when_requested(self):
        array = check_array(np.empty((0, 3)), allow_empty=True)
        assert array.shape == (0, 3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_array([[np.nan, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_array([[np.inf, 1.0]])

    def test_check_points_alias(self):
        points = check_points([[0.0, 1.0]])
        assert points.shape == (1, 2)


class TestCheckWeights:
    def test_none_gives_unit_weights(self):
        weights = check_weights(None, 4)
        np.testing.assert_array_equal(weights, np.ones(4))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            check_weights(np.ones(3), 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_weights(np.array([1.0, -1.0]), 2)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError):
            check_weights(np.ones((2, 2)), 2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_weights(np.array([np.nan, 1.0]), 2)


#: One factory per sampler, for checks every ``sample`` call must make.
EVERY_SAMPLER = pytest.mark.parametrize(
    "make",
    [
        lambda: UniformSampling(seed=0),
        lambda: LightweightCoreset(seed=0),
        lambda: WelterweightCoreset(5, seed=0),
        lambda: SensitivitySampling(5, seed=0),
        lambda: FastCoreset(5, seed=0),
    ],
    ids=["uniform", "lightweight", "welterweight", "sensitivity", "fast_coreset"],
)


class TestCostRangeCheck:
    """Every sampler rejects inputs whose clustering costs overflow float64,
    whose total weight is zero or subnormal, or whose largest weight is too
    small for ``m / max(weights)`` to stay finite."""

    @EVERY_SAMPLER
    def test_overflowing_costs_rejected_by_every_sampler(self, make):
        points = np.random.default_rng(0).normal(size=(2000, 5)) * 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow float64"):
                make().sample(points, 100)

    @EVERY_SAMPLER
    @pytest.mark.parametrize(
        "weight, message",
        [
            pytest.param(0.0, "weights must sum to at least .* got a total of", id="zero"),
            pytest.param(5e-324, "weights must sum to at least .* got a total of", id="subnormal"),
            pytest.param(1e-310, "largest input weight, 1e-310, is too small", id="each_1e-310"),
            pytest.param(3e-308, "largest input weight, 3e-308, is too small", id="each_3e-308"),
        ],
    )
    def test_tiny_weights_rejected_by_every_sampler(self, make, weight, message):
        # Unchecked, zero weights give all-zero coresets (or NaN
        # probabilities inside numpy), and 5e-324 weights NaN probabilities.
        # Every weight 1e-310 (a normal total) gives NaN probabilities or
        # all-zero weights, and every weight 3e-308 some zero weights.
        points = np.random.default_rng(0).normal(size=(500, 3))
        with pytest.raises(ValueError, match=message):
            make().sample(points, 50, weights=np.full(500, weight))

    @EVERY_SAMPLER
    @pytest.mark.parametrize(
        "weights",
        [
            pytest.param(np.where(np.arange(500) == 123, 2.0, 0.0), id="all_but_one_zero"),
            pytest.param(np.r_[np.full(250, 1e-310), np.ones(250)], id="half_1e-310"),
            pytest.param(np.r_[np.full(5, 1e-310), np.ones(495)], id="five_1e-310"),
            pytest.param(np.full(500, 1e-305), id="each_1e-305"),
        ],
    )
    def test_degenerate_weights_give_a_valid_coreset(self, make, weights):
        points = np.random.default_rng(0).normal(size=(500, 3))
        coreset = make().sample(points, 50, weights=weights)
        assert 0 < coreset.size <= 50
        assert np.isfinite(coreset.points).all()
        assert np.isfinite(coreset.weights).all() and (coreset.weights >= 0).all()
        assert coreset.total_weight > 0

    def test_large_finite_costs_accepted_without_warnings(self):
        # 4 points x d=2 x (2e150)^2 = 3.2e301 is finite: nothing to reject.
        points = np.array([[1e150, 0.0], [0.0, 1e150], [-1e150, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coreset = UniformSampling(seed=0).sample(points, 2, weights=np.ones(4))
        assert coreset.size == 2


class TestScalarChecks:
    def test_check_integer_accepts_numpy_int(self):
        assert check_integer(np.int64(5), name="k") == 5

    def test_check_integer_rejects_float(self):
        with pytest.raises(TypeError):
            check_integer(5.0, name="k")

    def test_check_integer_respects_minimum(self):
        with pytest.raises(ValueError):
            check_integer(0, name="k")

    def test_check_positive(self):
        assert check_positive(0.5, name="eps") == 0.5
        with pytest.raises(ValueError):
            check_positive(0.0, name="eps")
        with pytest.raises(ValueError):
            check_positive(float("nan"), name="eps")

    def test_check_probability(self):
        assert check_probability(0.0, name="p") == 0.0
        assert check_probability(1.0, name="p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5, name="p")

    def test_check_power(self):
        assert check_power(1) == 1
        assert check_power(2) == 2
        with pytest.raises(ValueError):
            check_power(3)

    def test_check_sample_size(self):
        assert check_sample_size(5, 10) == 5
        with pytest.raises(ValueError):
            check_sample_size(11, 10)
        with pytest.raises(ValueError):
            check_sample_size(0, 10)
