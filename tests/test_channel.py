import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from trsim.channel import (
    SPEED_OF_LIGHT_M_S,
    db_to_linear,
    free_space_path_loss,
    outage_analytic,
)
from trsim.sim import _db
from trsim.streams import Streams


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
    """The engine's Rayleigh fading: device i's power gains are the
    unit-mean exponential draws of stream (seed, 2, i), as iter_run takes
    them."""

    @staticmethod
    def gains(seed, n_devices=1000, n_slots=1000):
        return Streams(seed, 2, np.arange(n_devices)).exponential(n_slots)

    def test_unit_mean(self):
        # 10^6 draws: the standard error of the mean is 0.001
        assert self.gains(123).mean() == pytest.approx(1.0, abs=0.005)

    def test_distribution_matches_exponential_cdf(self):
        # Kolmogorov-Smirnov distance against 1 - exp(-x), n = 1e6
        gains = np.sort(self.gains(7), axis=None)
        n = gains.size
        model_cdf = 1.0 - np.exp(-gains)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        ks = max(np.max(upper - model_cdf), np.max(model_cdf - lower))
        assert ks < 1.36 / math.sqrt(n)

    def test_fixed_seed_reproduces_sequence(self):
        assert np.array_equal(self.gains(42, 10, 100), self.gains(42, 10, 100))

    def test_non_negative(self):
        assert (self.gains(5, 10, 100) >= 0.0).all()


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

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0])
    def test_matches_monte_carlo_within_three_sigma(self, ratio):
        n = 10**6
        analytic = outage_analytic(ratio, 1.0)
        estimate = reference.outage_mc(ratio, 1.0, n, seed=202)
        assert abs(estimate - analytic) < 3.0 * math.sqrt(analytic * (1.0 - analytic) / n)

    def test_threshold_far_below_mean(self):
        # 1 - exp(-x) = x to first order; the subtraction keeps 6 digits at 1e-9
        assert outage_analytic(1e-9, 1.0) == pytest.approx(1e-9, rel=1e-6)

    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(1e-6, 1e6),
    )
    def test_depends_only_on_ratio(self, threshold, mean, scale):
        assert outage_analytic(threshold * scale, mean * scale) == pytest.approx(
            outage_analytic(threshold, mean), rel=1e-9
        )


class TestDbToLinear:
    def test_hand_evaluated_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == 10.0
        assert db_to_linear(20.0) == 100.0
        assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-15)
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-15)

    @given(st.floats(1e-30, 1e6))
    def test_inverts_the_engine_db(self, value):
        assert db_to_linear(_db(np.array([value]))[0]) == pytest.approx(value, rel=1e-12)


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

    # glibc's log runs an FMA kernel on a CPU with FMA and another kernel
    # without it. They differ in the last digit on about 4 in 10^6 inputs
    # log-uniform over 1e-20..1e3, all found near 1 (sinr_db near 0 dB).
    # These are the FMA kernel's values; the other kernel's are commented.
    @pytest.mark.parametrize("x_hex, expected", [
        ("0x1.3ec85faa90c28p+1", 0.3962847882983845),  # other: 0.3962847882983844
        ("0x1.4dd5e35def5b3p-2", -0.4867674382800722),  # other: -0.48676743828007224
        ("0x1.0d9e9f999ae2bp-1", -0.27851846419209986),  # other: -0.2785184641920999
        ("0x1.0eed09ce552dbp+0", 0.024610608927854844),  # other: 0.02461060892785484
        ("0x1.ec4a2aadb920fp-1", -0.017049199587887642),  # other: -0.017049199587887646
        ("0x1.6c19b816b5f49p+0", 0.15298126853206642),  # other: 0.1529812685320664
    ])
    def test_log10_is_the_fma_kernels(self, x_hex, expected):
        got = math.log10(float.fromhex(x_hex))
        assert got == expected, (
            f"math.log10({x_hex}) = {got!r}, glibc's FMA log kernel gives {expected!r}:"
            " the `run` goldens need glibc's FMA `log` kernel, which glibc picks only"
            " on a CPU with FMA, so their rss_dbm and sinr_db digits will differ here"
        )
