import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trsim.exposure import (
    FREE_SPACE_IMPEDANCE_OHM,
    ExposureStandard,
    FrequencyBand,
    UnmappedBandError,
    complexity_metric,
    e_field_from_density,
    network_exposure,
    power_density,
)
from trsim.schema import ConfigError
from trsim.sim import MODES, Devices
from trsim.trmode import Mode


STANDARD = ExposureStandard(
    name="ICNIRP",
    bands=(
        FrequencyBand(1e8, 2e9, 40.0, "test band"),
        FrequencyBand(2e9, 3e11, 61.0, "test band"),
    ),
)


class TestPowerDensity:
    def test_constants_cancel(self):
        assert power_density(4 * math.pi, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_hand_evaluated_point(self):
        assert power_density(1.0, 2.0, 10.0) == pytest.approx(1.5915e-3, rel=1e-4)

    @given(st.floats(1e-6, 1e3), st.floats(0.1, 10.0), st.floats(0.1, 1e4))
    def test_doubling_distance_quarters_density(self, p, g, d):
        assert power_density(p, g, 2 * d) == pytest.approx(
            power_density(p, g, d) / 4.0, rel=1e-9
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            power_density(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            power_density(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            power_density(1.0, 1.0, 0.0)

    def test_array_is_each_elements_scalar_call(self):
        powers = np.array([0.0, -0.0, 0.2, 0.02, 1 / 3, 7.5e-4, 12.0])
        expected = [power_density(p, 1.0, 1.7) for p in powers.tolist()]
        assert power_density(powers, 1.0, 1.7).tolist() == expected
        with pytest.raises(ValueError, match=r"min\(tx_power_w\) must be >= 0, got -1e-09"):
            power_density(np.array([0.2, -1e-9, 0.1]), 1.0, 1.7)


class TestEField:
    def test_zero(self):
        assert e_field_from_density(0.0) == 0.0

    def test_unit_density(self):
        assert e_field_from_density(1.0) == pytest.approx(19.409, abs=1e-3)

    @given(st.floats(1e-9, 1e3), st.floats(0.5, 5.0))
    def test_round_trip_recovers_density(self, p, d):
        s = power_density(p, 1.0, d)
        assert e_field_from_density(s) ** 2 / FREE_SPACE_IMPEDANCE_OHM == pytest.approx(
            s, rel=1e-12
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            e_field_from_density(-1e-9)

    def test_array_is_each_elements_scalar_call(self):
        densities = np.array([0.0, 1.0, 1 / 3, 2.5e-7, 0.0159, 40.0])
        expected = [e_field_from_density(d) for d in densities.tolist()]
        assert e_field_from_density(densities).tolist() == expected
        with pytest.raises(ValueError, match=r"min\(s_w_m2\) must be >= 0, got -1e-09"):
            e_field_from_density(np.array([1.0, 0.5, -1e-9]))


def _network_er(e_field_v_per_m: float, freq_hz: float) -> tuple[float, float]:
    """The network E-field and ER of one device on `freq_hz` whose field at
    the observer, 1 m away, is e_field_v_per_m."""
    emitted_w = e_field_v_per_m**2 / FREE_SPACE_IMPEDANCE_OHM * 4.0 * math.pi
    report = network_exposure(np.array([freq_hz]), np.array([emitted_w]), (STANDARD,), 1.0)
    return report.network_e_field_v_per_m, report.network_er_per_standard["ICNIRP"]


class TestExposureRatio:
    """The network ER is the network E-field over the band's reference level."""

    def test_field_equal_to_reference(self):
        assert _network_er(61.0, 3.5e9)[1] == pytest.approx(1.0, rel=1e-12)

    def test_am_5g_dataset_point(self):
        assert _network_er(0.83 * 61.0, 3.5e9)[1] == pytest.approx(0.83, abs=1e-12)

    def test_tr_5g_dataset_point(self):
        assert _network_er(0.6075 * 61.0, 3.5e9)[1] == pytest.approx(0.6075, abs=1e-12)

    def test_unmapped_frequency_raises(self):
        with pytest.raises(UnmappedBandError):
            _network_er(10.0, 1e12)
        with pytest.raises(UnmappedBandError):
            _network_er(10.0, 1e7)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 50.0))
    def test_linearity_in_field(self, e, k):
        """ER over the field is one constant, the inverse reference level."""
        for field, er in (_network_er(e, 1e9), _network_er(k * e, 1e9)):
            assert er == field / 40.0


class TestStandardValidation:
    def test_bands_are_normalized_sorted(self):
        std = ExposureStandard(
            name="X",
            bands=(FrequencyBand(2e9, 3e9, 61.0), FrequencyBand(1e8, 2e9, 40.0)),
        )
        assert [b.low_hz for b in std.bands] == [1e8, 2e9]

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ConfigError):
            ExposureStandard(
                name="X",
                bands=(FrequencyBand(1e8, 2.5e9, 40.0), FrequencyBand(2e9, 3e9, 61.0)),
            )

    def test_bad_band_fields_rejected(self):
        with pytest.raises(ConfigError):
            FrequencyBand(0.0, 1e9, 40.0)
        with pytest.raises(ConfigError):
            FrequencyBand(2e9, 1e9, 40.0)
        with pytest.raises(ConfigError):
            FrequencyBand(1e8, 1e9, 0.0)

    def test_band_edges_half_open(self):
        assert STANDARD.band_for(2e9).e_ref_v_per_m == 61.0
        assert STANDARD.band_for(2e9 - 1.0).e_ref_v_per_m == 40.0


def _fleet(n_am: int, n_tr: int, power: float = 0.2, freq: float = 3.5e9) -> list[tuple]:
    """Rows of device id, tx power, carrier and mode."""
    fleet = [(f"am-{i}", power, freq, Mode.AM) for i in range(n_am)]
    fleet += [(f"tr-{i}", power, freq, Mode.TR) for i in range(n_tr)]
    return fleet


def _exposure(fleet: list[tuple], observer_distance_m: float):
    """The devices of the rows, all 1 m out, and their exposure in their
    modes, as `trsim exposure` reports a population in its starting modes
    (which the always-on level, here 0.1 of the power, does not enter)."""
    ids, power, freq, modes = zip(*fleet)
    devices = Devices(ids, np.ones(len(ids)), np.array(power), np.array(freq),
                      np.array([MODES.index(m) for m in modes], np.int8), 0.1)
    report = network_exposure(devices.freq_hz, devices.emitted_w(devices.mode), (STANDARD,),
                              observer_distance_m)
    return devices, report


class TestNetworkExposure:
    def test_all_tr_fleet_reports_zero(self):
        _, report = _exposure(_fleet(0, 5), observer_distance_m=1.0)
        assert report.network_total_power_density_w_m2 == 0.0
        assert report.network_e_field_v_per_m == 0.0
        assert report.network_er_per_standard["ICNIRP"] == 0.0
        assert report.power_density_w_m2.tolist() == [0.0] * 5

    def test_cohort_split_scales_density_linearly(self):
        _, baseline = _exposure(_fleet(50, 0), 1.0)
        _, variant = _exposure(_fleet(30, 20), 1.0)
        ratio = (
            variant.network_total_power_density_w_m2
            / baseline.network_total_power_density_w_m2
        )
        assert ratio == pytest.approx(0.6, rel=1e-12)

    def test_singleton_matches_power_density(self):
        _, report = _exposure(_fleet(1, 0, power=0.5), 2.0)
        assert report.network_total_power_density_w_m2 == pytest.approx(
            power_density(0.5, 1.0, 2.0), rel=1e-12
        )
        assert report.power_density_w_m2[0] == pytest.approx(
            power_density(0.5, 1.0, 2.0), rel=1e-12
        )

    def test_totals_permutation_invariant(self):
        fleet = _fleet(7, 3) + [("odd", 0.05, 1e9, Mode.AM)]
        fwd_devices, fwd = _exposure(fleet, 1.0)
        rev_devices, rev = _exposure(list(reversed(fleet)), 1.0)
        assert fwd.network_total_power_density_w_m2 == pytest.approx(
            rev.network_total_power_density_w_m2, rel=1e-12
        )
        assert dict(zip(fwd_devices.device_id, fwd.power_density_w_m2.tolist())) == dict(
            zip(rev_devices.device_id, rev.power_density_w_m2.tolist())
        )

    def test_switching_one_device_to_tr_never_increases_total(self):
        fleet = _fleet(6, 2)
        total_before = _exposure(fleet, 1.0)[1].network_total_power_density_w_m2
        for i in range(len(fleet)):
            flipped = list(fleet)
            flipped[i] = (*fleet[i][:3], Mode.TR)
            total_after = _exposure(flipped, 1.0)[1].network_total_power_density_w_m2
            assert total_after <= total_before

    def test_network_er_uses_most_restrictive_band(self):
        fleet = [
            ("low-band", 0.2, 1e9, Mode.AM),
            ("high-band", 0.2, 3.5e9, Mode.AM),
        ]
        _, report = _exposure(fleet, 1.0)
        expected = report.network_e_field_v_per_m / 40.0
        assert report.network_er_per_standard["ICNIRP"] == pytest.approx(expected, rel=1e-12)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            network_exposure(np.array([]), np.array([]), (STANDARD,), 1.0)

    def test_report_totals_match_sum_of_devices(self):
        _, report = _exposure(_fleet(9, 4), 1.5)
        assert report.network_total_power_density_w_m2 == pytest.approx(
            sum(report.power_density_w_m2.tolist()), rel=1e-12
        )

    def test_total_adds_in_device_order(self):
        """The network density is the running sum in device order, as a scalar
        loop adds it. With these powers the reverse order and numpy's
        pairwise sum each give another last digit."""
        powers = (10 ** np.random.default_rng(1).uniform(-3, 0, 40)).tolist()
        _, report = _exposure([(f"d{i}", p, 3.5e9, Mode.AM) for i, p in enumerate(powers)], 1.0)
        densities = report.power_density_w_m2.tolist()
        forward = reverse = 0.0
        for a, b in zip(densities, densities[::-1]):
            forward += a
            reverse += b
        assert report.network_total_power_density_w_m2 == forward
        assert forward != reverse and forward != float(report.power_density_w_m2.sum())


class TestComplexityMetric:
    @pytest.mark.parametrize("n,expected", [(0, 0.0), (1, 0.0), (2, 1.0), (30, 435.0), (50, 1225.0)])
    def test_pair_counts(self, n, expected):
        assert complexity_metric(n) == expected

    @given(st.integers(2, 10_000))
    def test_strictly_increasing(self, n):
        assert complexity_metric(n) > complexity_metric(n - 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            complexity_metric(-1)
