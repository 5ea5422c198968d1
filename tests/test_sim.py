import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_config
from trsim.channel import db_to_linear, free_space_path_loss, outage_analytic
from trsim.exposure import ExposureStandard, FrequencyBand
from trsim.frames import SlotKind, build_fdd_pair, build_tdd_frame, make_numerology
from trsim.rrc import RrcEvent, RrcState, uplink_grant_allowed
from trsim.sim import (
    ConfigError,
    DeviceSpec,
    GenerationScenario,
    build_devices,
    generation_power_density_series,
    outage_curve,
    run_scenario,
)
from trsim.trmode import Mode, SwitchConfig, uplink_enabled


def switching_config(**overrides):
    """Scenario tuned so fading actually flips devices across the band."""
    base = dict(
        n_users=6,
        n_tr=0,
        cell_radius_m=400.0,
        bs_tx_power_w=20.0,
        placement="ring",
        n_slots=60,
        seed=5,
        switch=SwitchConfig(rss_threshold_dbm=-52.0, hysteresis_db=1.0),
        ul_demand_prob=0.7,
        dl_demand_prob=0.7,
    )
    base.update(overrides)
    return make_config(**base)


class TestRunScenario:
    def test_deterministic_for_fixed_seed(self, small_config):
        assert run_scenario(small_config) == run_scenario(small_config)

    def test_seed_changes_the_run(self, small_config):
        other = replace(small_config, seed=small_config.seed + 1)
        assert run_scenario(small_config) != run_scenario(other)

    def test_single_user_sinr_equals_pure_snr(self):
        cfg = make_config(n_users=1, n_tr=0, placement="ring", n_slots=30)
        result = run_scenario(cfg)
        loss = db_to_linear(free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz))
        for s in result.samples:
            signal_w = cfg.bs_tx_power_w / loss * s.fading_gain
            expected_db = 10.0 * math.log10(signal_w / cfg.noise_w)
            assert s.sinr_db == pytest.approx(expected_db, rel=1e-12)

    def test_cohort_split_gives_exact_linear_ratio(self):
        cfg = make_config(
            n_users=10,
            n_tr=4,
            placement="ring",
            ul_demand_prob=1.0,
            n_slots=40,
        )
        baseline = run_scenario(replace(cfg, n_tr=0))
        variant = run_scenario(cfg)
        ratio_i = (
            variant.total_uplink_interference_w / baseline.total_uplink_interference_w
        )
        ratio_d = (
            variant.exposure.network_total_power_density_w_m2
            / baseline.exposure.network_total_power_density_w_m2
        )
        assert ratio_i == pytest.approx(0.6, rel=1e-12)
        assert ratio_d == pytest.approx(0.6, rel=1e-12)

    def test_sample_shape_and_order(self, small_config):
        result = run_scenario(small_config)
        assert len(result.samples) == small_config.n_users * small_config.n_slots
        slots = [s.slot for s in result.samples]
        assert slots == sorted(slots)

    def test_invalid_config_rejected_before_work(self):
        cfg = make_config(n_users=3, n_tr=5)
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg)
        assert "n_tr" in str(err.value) and "n_users" in str(err.value)

    def test_tr_devices_never_emit_uplink(self):
        result = run_scenario(switching_config())
        saw_tr_sample = False
        for s in result.samples:
            if s.mode is Mode.TR:
                saw_tr_sample = True
                assert s.ul_tx_w == 0.0
                assert s.ul_active is False
            if s.ul_active:
                assert uplink_enabled(s.mode)
                assert uplink_grant_allowed(s.rrc_state)
        assert saw_tr_sample, "scenario never exercised TR mode"

    def test_mode_and_rrc_state_stay_consistent(self):
        result = run_scenario(switching_config())
        for s in result.samples:
            if s.mode is Mode.TR:
                assert s.rrc_state in (RrcState.ENERGY_EFFICIENT, RrcState.IDLE)

    def test_tr_entries_are_caused_by_subthreshold_rss(self):
        cfg = switching_config()
        result = run_scenario(cfg)
        entries = [t for t in result.mode_transitions if t.new_mode is Mode.TR]
        assert entries, "scenario produced no TR entries"
        band_low = cfg.switch.rss_threshold_dbm - cfg.switch.hysteresis_db
        for t in entries:
            assert t.rss_dbm < band_low

    def test_mode_transitions_mirrored_in_rrc_log(self):
        result = run_scenario(switching_config())
        rrc_mode_events = [
            (e.slot, e.device_id, e.event)
            for e in result.rrc_events
            if e.event in (RrcEvent.TR_MODE_ENTER, RrcEvent.TR_MODE_EXIT)
        ]
        expected = [
            (
                t.slot,
                t.device_id,
                RrcEvent.TR_MODE_ENTER if t.new_mode is Mode.TR else RrcEvent.TR_MODE_EXIT,
            )
            for t in result.mode_transitions
        ]
        assert rrc_mode_events == expected

    def test_interference_total_matches_samples(self):
        cfg = switching_config()
        result = run_scenario(cfg)
        loss = {
            ue.id: db_to_linear(free_space_path_loss(ue.distance_m, ue.freq_hz))
            for ue in result.devices
        }
        total = sum(s.ul_tx_w / loss[s.device_id] for s in result.samples)
        assert total == pytest.approx(result.total_uplink_interference_w, rel=1e-12)

    def test_complexity_counts_final_slot_transmitters(self):
        cfg = make_config(n_users=10, n_tr=4, placement="ring")
        result = run_scenario(cfg)
        last = cfg.n_slots - 1
        active = sum(1 for s in result.samples if s.slot == last and s.ul_active)
        assert result.complexity == active * (active - 1) / 2

    def test_explicit_devices_override_synthesis(self):
        cfg = make_config(
            devices=(
                DeviceSpec("near", 50.0, 0.1, 3.5e9, Mode.AM),
                DeviceSpec("far", 450.0, 0.1, 3.5e9, Mode.TR),
            )
        )
        result = run_scenario(cfg)
        assert [ue.id for ue in result.devices] == ["near", "far"]
        assert result.devices[1].mode is Mode.TR
        assert result.devices[1].rrc_state is RrcState.ENERGY_EFFICIENT


class TestBuildDevices:
    def test_tr_cohort_assigned_to_weakest_links(self):
        cfg = make_config(n_users=8, n_tr=3, placement="disk")
        devices = build_devices(cfg)
        by_distance = sorted(devices, key=lambda ue: ue.distance_m, reverse=True)
        assert all(ue.mode is Mode.TR for ue in by_distance[:3])
        assert all(ue.mode is Mode.AM for ue in by_distance[3:])

    def test_ring_places_everyone_at_cell_radius(self):
        cfg = make_config(placement="ring")
        assert all(ue.distance_m == cfg.cell_radius_m for ue in build_devices(cfg))

    def test_disk_placement_deterministic_per_seed(self):
        cfg = make_config(placement="disk")
        first = [ue.distance_m for ue in build_devices(cfg)]
        second = [ue.distance_m for ue in build_devices(cfg)]
        assert first == second
        assert all(0.0 <= d <= cfg.cell_radius_m for d in first)

    def test_explicit_copy_of_synthesized_population_runs_the_same(self):
        std = ExposureStandard("ICNIRP", (FrequencyBand(1e9, 1e10, 61.0),))
        cfg = switching_config(
            placement="disk", n_tr=2, cell_radius_m=500.0, standards=(std,)
        )
        specs = tuple(
            DeviceSpec(ue.id, ue.distance_m, cfg.ue_tx_power_w, cfg.freq_hz, ue.mode)
            for ue in build_devices(cfg)
        )
        synthesized = run_scenario(cfg)
        explicit = run_scenario(replace(cfg, devices=specs))
        assert synthesized.mode_transitions, "scenario never switched a device"
        assert explicit.samples == synthesized.samples
        assert explicit.mode_transitions == synthesized.mode_transitions
        assert explicit.rrc_events == synthesized.rrc_events
        assert explicit.exposure == synthesized.exposure
        for metric in (
            "outage_am", "outage_tr", "total_uplink_interference_w", "complexity"
        ):
            assert getattr(explicit, metric) == getattr(synthesized, metric)


class TestEngineOutageOracle:
    """The engine's cohort outage against the closed form. On a ring with
    demand 1 and no switching, every AM device transmits in every slot, so
    slot t's interference at a victim is k * p_t / L: p_t is the data power
    on the uplink positions of the AM uplink frame and the always-on power
    elsewhere, and k is n_am - 1 for an AM victim and n_am for a TR victim.
    Each sample is then a Bernoulli draw with a known outage probability."""

    # 4 AM devices: an AM victim's own uplink is a quarter of the slot's
    # interference, so charging it to the victim moves the AM outage by ~7 sigma
    N_USERS, N_TR, N_SLOTS = 20, 16, 400
    INR = 10.0  # one interferer's data power over noise

    def config(self, duplex, mu, seed):
        base = make_config()
        loss = db_to_linear(free_space_path_loss(base.cell_radius_m, base.freq_hz))
        return replace(
            base,
            n_users=self.N_USERS,
            n_tr=self.N_TR,
            n_slots=self.N_SLOTS,
            seed=seed,
            placement="ring",
            duplex=duplex,
            numerology_mu=mu,
            ul_demand_prob=1.0,
            dl_demand_prob=1.0,
            noise_w=base.ue_tx_power_w / loss / self.INR,
            snr_threshold_db=10.5,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("duplex, mu", [("fdd", 0), ("tdd", 1)])
    def test_cohort_outage_matches_closed_form(self, duplex, mu, seed):
        cfg = self.config(duplex, mu, seed)
        result = run_scenario(cfg)
        assert not result.mode_transitions
        num = make_numerology(mu)
        if duplex == "fdd":
            frame = build_fdd_pair(num, tr_active=False)[1]
        else:
            frame = build_tdd_frame(num, cfg.tdd_pattern, tr_active=False)
        uplink = [slot is SlotKind.UPLINK for sf in frame.subframes for slot in sf]
        loss = db_to_linear(free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz))
        theta = db_to_linear(cfg.snr_threshold_db)
        mean_snr = cfg.bs_tx_power_w / (loss * cfg.noise_w)
        n_am = cfg.n_users - cfg.n_tr
        for measured, n_victims, k in (
            (result.outage_am, n_am, n_am - 1),
            (result.outage_tr, cfg.n_tr, n_am),
        ):
            probs = []
            for t in range(cfg.n_slots):
                share = 1.0 if uplink[t % len(uplink)] else cfg.always_on_fraction
                interference_w = k * share * cfg.ue_tx_power_w / loss
                probs.append(
                    outage_analytic(
                        theta * (interference_w + cfg.noise_w) / cfg.noise_w, mean_snr
                    )
                )
            expected = sum(probs) / cfg.n_slots
            variance = n_victims * sum(p * (1.0 - p) for p in probs)
            sigma = math.sqrt(variance) / (n_victims * cfg.n_slots)
            assert abs(measured - expected) <= 4.0 * sigma, (measured, expected, sigma)


class TestOutageCurve:
    def interference_limited(self, n_users=6, n_tr=3):
        cfg = make_config(
            n_users=n_users,
            n_tr=n_tr,
            placement="ring",
            cell_radius_m=100.0,
        )
        # pin interference-to-noise at 10x per interferer
        per_int = cfg.ue_tx_power_w / db_to_linear(
            free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz)
        )
        return replace(cfg, noise_w=per_int / 10.0)

    def test_tr_curve_strictly_below_am(self):
        cfg = self.interference_limited()
        points = outage_curve(cfg, [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0])
        for p in points:
            assert p.outage_tr < p.outage_am

    def test_single_user_curves_coincide(self):
        cfg = self.interference_limited(n_users=1, n_tr=0)
        for p in outage_curve(cfg, [0.0, 10.0, 20.0]):
            assert p.outage_am == p.outage_tr

    def test_high_mean_snr_drives_outage_to_zero(self):
        cfg = self.interference_limited()
        point = outage_curve(cfg, [150.0])[0]
        assert point.outage_am < 1e-9
        assert point.outage_tr < 1e-9

    def test_monte_carlo_oracle_confirms_curve(self):
        # empirical outage with and without the suppressed interferers
        cfg = self.interference_limited()
        mean_db = 20.0
        point = outage_curve(cfg, [mean_db])[0]
        per_int = cfg.ue_tx_power_w / db_to_linear(
            free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz)
        )
        mean_lin = db_to_linear(mean_db)
        theta = db_to_linear(cfg.snr_threshold_db)
        n = 200_000
        rng = np.random.default_rng(77)
        gains = rng.standard_exponential(n)
        for expected, n_int in (
            (point.outage_am, cfg.n_users - 1),
            (point.outage_tr, cfg.n_users - cfg.n_tr - 1),
        ):
            interference = n_int * per_int
            sinr_lin = mean_lin * cfg.noise_w * gains / (interference + cfg.noise_w)
            estimate = float(np.mean(sinr_lin < theta))
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(estimate - expected) < 4 * sigma

    def test_empty_point_list_rejected(self):
        with pytest.raises(ValueError):
            outage_curve(self.interference_limited(), [])


class TestGenerationSeries:
    def entries(self):
        return [
            GenerationScenario("1g", 10, 2, 0.5, 100.0),
            GenerationScenario("2g", 20, 5, 0.5, 100.0),
            GenerationScenario("3g", 30, 8, 0.5, 100.0),
            GenerationScenario("4g", 40, 12, 0.5, 100.0),
            GenerationScenario("5g", 50, 20, 0.5, 100.0),
        ]

    def test_identical_configs_give_flat_am_series(self):
        rows = generation_power_density_series(
            [GenerationScenario(f"g{i}", 10, 0, 0.5, 100.0) for i in range(5)]
        )
        assert len({row.density_am_w_m2 for row in rows}) == 1

    def test_tr_entries_always_below_am(self):
        for row in generation_power_density_series(self.entries()):
            assert row.density_tr_w_m2 < row.density_am_w_m2

    def test_growing_configs_give_monotone_am_series(self):
        rows = generation_power_density_series(self.entries())
        am = [row.density_am_w_m2 for row in rows]
        assert am == sorted(am) and len(set(am)) == len(am)

    def test_five_g_split_gives_exact_ratio(self):
        row = generation_power_density_series([GenerationScenario("5g", 50, 20, 0.2, 1.0)])[0]
        assert row.density_tr_w_m2 / row.density_am_w_m2 == pytest.approx(0.6, rel=1e-12)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            generation_power_density_series([])
        with pytest.raises(ValueError):
            generation_power_density_series([GenerationScenario("x", 5, 9, 0.2, 1.0)])


class TestExposureIntegration:
    def test_standards_flow_through_to_report(self):
        std = ExposureStandard("ICNIRP", (FrequencyBand(1e9, 1e10, 61.0),))
        cfg = make_config(standards=(std,), placement="ring")
        result = run_scenario(cfg)
        assert "ICNIRP" in result.exposure.network_er_per_standard
        n_am = sum(1 for ue in result.devices if ue.mode is Mode.AM)
        # all AM devices identical on the ring; TR rows contribute zero
        am_rows = [
            d for d in result.exposure.per_device if d.power_density_w_m2 > 0.0
        ]
        assert len(am_rows) == n_am
        assert result.exposure.network_total_power_density_w_m2 == pytest.approx(
            n_am * am_rows[0].power_density_w_m2, rel=1e-12
        )
