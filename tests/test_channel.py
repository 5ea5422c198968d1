import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trsim.channel import (
    SPEED_OF_LIGHT_M_S,
    draw_fading_gain,
    free_space_path_loss,
    linear_to_db,
    outage_analytic,
    outage_monte_carlo,
    watts_to_dbm,
)
from trsim.sim import _rng


class TestFreeSpacePathLoss:
    def test_reference_distance_and_frequency_cancel(self):
        # at d = 1 m and f = c / (4 pi) every log term cancels
        assert free_space_path_loss(1.0, SPEED_OF_LIGHT_M_S / (4 * math.pi)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_hand_evaluated_point(self):
        # 20 log10(100) + 20 log10(2.4e9) + 20 log10(4 pi / c) = 80.052 dB
        assert free_space_path_loss(100.0, 2.4e9) == pytest.approx(80.052, abs=1e-3)
        assert free_space_path_loss(100.0, 2.4e9) == pytest.approx(80.1, abs=0.1)

    @given(
        st.floats(0.1, 1e5, allow_nan=False),
        st.floats(1e6, 1e11, allow_nan=False),
    )
    def test_doubling_distance_adds_fixed_step(self, d, f):
        step = free_space_path_loss(2 * d, f) - free_space_path_loss(d, f)
        assert step == pytest.approx(20 * math.log10(2.0), abs=1e-9)

    @pytest.mark.parametrize("d,f", [(0.0, 1e9), (-1.0, 1e9), (10.0, 0.0), (10.0, -5.0)])
    def test_rejects_non_positive_inputs(self, d, f):
        with pytest.raises(ValueError):
            free_space_path_loss(d, f)


class TestFadingGain:
    def test_unit_mean(self):
        rng = np.random.default_rng(123)
        n = 10**6
        total = 0.0
        for _ in range(n):
            total += draw_fading_gain(rng)
        assert total / n == pytest.approx(1.0, abs=0.005)

    def test_distribution_matches_exponential_cdf(self):
        # Kolmogorov-Smirnov distance against 1 - exp(-x), n = 1e5
        rng = np.random.default_rng(7)
        n = 10**5
        gains = np.sort(np.array([draw_fading_gain(rng) for _ in range(n)]))
        model_cdf = 1.0 - np.exp(-gains)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        ks = max(np.max(upper - model_cdf), np.max(model_cdf - lower))
        assert ks < 1.36 / math.sqrt(n)

    def test_fixed_seed_reproduces_sequence(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        seq_a = [draw_fading_gain(a) for _ in range(100)]
        seq_b = [draw_fading_gain(b) for _ in range(100)]
        assert seq_a == seq_b

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        assert all(draw_fading_gain(rng) >= 0.0 for _ in range(1000))

    @pytest.mark.parametrize("seed, device, k", [(20260808, 0, 1), (7, 3, 257), (1, 999, 5000)])
    def test_vector_draw_equals_scalar_draws(self, seed, device, k):
        """The engine draws a device's gains for the whole run in one call on
        its own stream; the values are bit-identical to k draws in turn."""
        vector = draw_fading_gain(_rng(seed, 2, device), k)
        stream = _rng(seed, 2, device)
        assert vector.tolist() == [draw_fading_gain(stream) for _ in range(k)]


class TestOutageAnalytic:
    def test_threshold_equal_to_mean(self):
        assert outage_analytic(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_small_threshold_limit(self):
        assert outage_analytic(1e-12, 1.0) < 1e-11

    def test_large_mean_limit(self):
        assert outage_analytic(1.0, 1e12) < 1e-11

    @given(
        st.floats(1e-6, 8.0),
        st.floats(1e-3, 1e3),
        st.floats(1.01, 4.0),
    )
    def test_monotone_in_both_arguments(self, ratio, mean, factor):
        # keep threshold/mean small enough that 1 - exp(-x) does not
        # saturate to 1.0 in double precision
        threshold = ratio * mean
        base = outage_analytic(threshold, mean)
        assert outage_analytic(threshold * factor, mean) > base
        assert outage_analytic(threshold, mean * factor) < base

    @pytest.mark.parametrize("theta,mean", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_non_positive(self, theta, mean):
        with pytest.raises(ValueError):
            outage_analytic(theta, mean)


class TestOutageMonteCarlo:
    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0])
    def test_matches_analytic_within_three_sigma(self, ratio):
        mean = 1.0
        threshold = ratio * mean
        n = 10**6
        analytic = outage_analytic(threshold, mean)
        estimate = outage_monte_carlo(threshold, mean, n, seed=202)
        sigma = math.sqrt(analytic * (1.0 - analytic) / n)
        assert abs(estimate - analytic) < 3.0 * sigma

    def test_threshold_far_below_mean(self):
        assert outage_monte_carlo(1e-9, 1.0, 10**5, seed=3) == pytest.approx(0.0, abs=1e-4)

    def test_same_seed_same_estimate(self):
        a = outage_monte_carlo(1.0, 1.0, 10**5, seed=9)
        b = outage_monte_carlo(1.0, 1.0, 10**5, seed=9)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            outage_monte_carlo(1.0, 1.0, 0, seed=1)


class TestUnitHelpers:
    def test_dbm_round_trip(self):
        assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
        assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_linear_to_db_rejects_negative(self):
        with pytest.raises(ValueError):
            linear_to_db(-1e-9)


class TestHostLog10:
    """glibc's log10 is not correctly rounded. On these inputs it returns the
    double next to the correctly rounded one (given in the comments), and
    the `run` goldens were written with glibc's digits."""

    @pytest.mark.parametrize("x_hex, expected", [
        ("0x1.763ee610ce0c3p-11", -3.1464131008131186),  # rounded: -3.146413100813119
        ("0x1.3529373d52c60p-15", -4.433505198101708),  # rounded: -4.433505198101709
        ("0x1.66ce1503ba644p-12", -3.465741417035564),  # rounded: -3.4657414170355643
        ("0x1.1cb5f12cdb890p-9", -2.663106119950516),  # rounded: -2.6631061199505166
    ])
    def test_log10_is_the_one_the_run_goldens_were_made_with(self, x_hex, expected):
        got = math.log10(float.fromhex(x_hex))
        assert got == expected, (
            f"math.log10({x_hex}) = {got!r}, glibc gives {expected!r}: this host's"
            " libm log10 differs from glibc's, and the `run` goldens depend on the"
            " host's log10, so their rss_dbm and sinr_db digits will differ too"
        )
