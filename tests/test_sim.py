import itertools
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_config
from trsim import channel, rrc
from trsim.channel import db_to_linear, free_space_path_loss, outage_analytic, watts_to_dbm
from trsim.cli import RUN_KINDS, Coded, _run_chunks
from trsim.exposure import ExposureStandard, FrequencyBand
from trsim.frames import SlotKind, build_fdd_pair, build_tdd_frame, make_numerology
from trsim.rrc import RrcEvent, RrcState, uplink_grant_allowed
from trsim.sim import (
    MODE_STATES,
    MODE_UPLINK,
    MODES,
    RRC_EVENTS,
    RRC_STATES,
    ConfigError,
    DeviceSpec,
    GenerationScenario,
    _am_uplink_mask,
    _rng,
    build_devices,
    generation_power_density_series,
    outage_curve,
    run_scenario,
)
from trsim.trmode import Mode, SwitchConfig, evaluate_switch, uplink_enabled


# the result's per device-slot columns
RESULT_COLUMNS = ("mode", "fading_gain", "rss_dbm", "sinr_db", "ul_tx_w")
Sample = namedtuple(
    "Sample",
    "slot device_id mode rrc_state fading_gain rss_dbm sinr_db ul_active ul_tx_w",
)
Transition = namedtuple("Transition", "slot device_id old_mode new_mode rss_dbm")
RrcEntry = namedtuple("RrcEntry", "slot device_id event old_state new_state")


def samples(result) -> list[Sample]:
    """The result's columns read back as one record per device-slot, in slot,
    then device order, with enum members for the coded columns. The RRC state
    and uplink activity are the mode's, through MODE_STATES and MODE_UPLINK."""
    ids = [ue.id for ue in result.devices]
    columns = [getattr(result, name).tolist() for name in RESULT_COLUMNS]
    return [
        Sample(t, ids[i], MODES[mode[i]], MODE_STATES[mode[i]], gain[i], rss[i], sinr[i],
               MODE_UPLINK[mode[i]], tx[i])
        for t, (mode, gain, rss, sinr, tx) in enumerate(zip(*columns))
        for i in range(len(ids))
    ]


def transitions(result) -> list[Transition]:
    log = result.mode_transitions
    return [
        Transition(slot, result.devices[i].id, MODES[1 - new], MODES[new], rss_dbm)
        for slot, i, rss_dbm, new in zip(
            log.slot.tolist(), log.device.tolist(), log.rss_dbm.tolist(), log.new.tolist()
        )
    ]


def rrc_log(result) -> list[RrcEntry]:
    log = result.rrc_events
    return [
        RrcEntry(slot, result.devices[i].id, RRC_EVENTS[e], RRC_STATES[old], RRC_STATES[new])
        for slot, i, e, old, new in zip(
            log.slot.tolist(), log.device.tolist(), log.event.tolist(),
            log.old.tolist(), log.new.tolist(),
        )
    ]


def run_records(result):
    """The records of `trsim run` as cli._run_chunks gives them, each as its
    kind and a dict of its keys, with coded columns decoded to labels."""
    for kind, columns in _run_chunks(result):
        values = [
            [c.labels[j] for j in c.codes] if isinstance(c, Coded)
            else c.tolist() if isinstance(c, np.ndarray) else c
            for c in columns
        ]
        for record in zip(*values):
            yield kind, dict(zip(RUN_KINDS[kind], record))


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
        for fading_gain, sinr_db in zip(
            result.fading_gain.ravel().tolist(), result.sinr_db.ravel().tolist()
        ):
            signal_w = cfg.bs_tx_power_w / loss * fading_gain
            expected_db = 10.0 * math.log10(signal_w / cfg.noise_w)
            assert sinr_db == pytest.approx(expected_db, rel=1e-12)

    def test_rss_column_is_watts_to_dbm_of_each_received_power(self):
        """The dB column holds channel.watts_to_dbm of each value, bit for bit;
        numpy's own log10 would differ in the last bit on some inputs."""
        cfg = switching_config(placement="disk", n_users=9, n_tr=3)
        result = run_scenario(cfg)
        for i, ue in enumerate(result.devices):
            loss = db_to_linear(free_space_path_loss(ue.distance_m, ue.freq_hz))
            expected = [
                watts_to_dbm(cfg.bs_tx_power_w / loss * g)
                for g in result.fading_gain[:, i].tolist()
            ]
            assert result.rss_dbm[:, i].tolist() == expected

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
        # one row per slot in slot order, one column per device
        for column in RESULT_COLUMNS:
            assert getattr(result, column).shape == (
                small_config.n_slots, small_config.n_users
            )
        assert len(samples(result)) == small_config.n_users * small_config.n_slots
        slots = [s.slot for s in samples(result)]
        assert slots == sorted(slots)

    def test_invalid_config_rejected_before_work(self):
        cfg = make_config(n_users=3, n_tr=5)
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg)
        assert "n_tr" in str(err.value) and "n_users" in str(err.value)

    def test_tr_devices_never_emit_uplink(self):
        result = run_scenario(switching_config())
        saw_tr_sample = False
        for s in samples(result):
            if s.mode is Mode.TR:
                saw_tr_sample = True
                assert s.ul_tx_w == 0.0
                assert s.ul_active is False
            if s.ul_active:
                assert uplink_enabled(s.mode)
                assert uplink_grant_allowed(s.rrc_state)
        assert saw_tr_sample, "scenario never exercised TR mode"

    def test_mode_and_rrc_state_stay_consistent(self):
        """In the output, a sample's rrc_state is the state its device-slot's
        last RRC event led to, and ul_active is 1 exactly where that state is
        granted uplink."""
        result = run_scenario(switching_config())
        assert result.mode_transitions, "scenario never switched a device"
        records = list(run_records(result))
        last_to = {
            (r["slot"], r["device_id"]): r["to"] for kind, r in records if kind == "rrc_event"
        }
        checked = set()
        for kind, r in records:
            if kind != "sample":
                continue
            state = r["rrc_state"]
            if (r["slot"], r["device_id"]) in last_to:
                assert state == last_to[r["slot"], r["device_id"]]
                checked.add(state)
            assert r["ul_active"] == int(uplink_grant_allowed(RrcState(state)))
        assert checked == {s.value for s in MODE_STATES}

    def test_tr_entries_are_caused_by_subthreshold_rss(self):
        cfg = switching_config()
        result = run_scenario(cfg)
        entries = [t for t in transitions(result) if t.new_mode is Mode.TR]
        assert entries, "scenario produced no TR entries"
        band_low = cfg.switch.rss_threshold_dbm - cfg.switch.hysteresis_db
        for t in entries:
            assert t.rss_dbm < band_low

    def test_mode_transitions_mirrored_in_rrc_log(self):
        result = run_scenario(switching_config())
        rrc_mode_events = [
            (e.slot, e.device_id, e.event)
            for e in rrc_log(result)
            if e.event in (RrcEvent.TR_MODE_ENTER, RrcEvent.TR_MODE_EXIT)
        ]
        expected = [
            (
                t.slot,
                t.device_id,
                RrcEvent.TR_MODE_ENTER if t.new_mode is Mode.TR else RrcEvent.TR_MODE_EXIT,
            )
            for t in transitions(result)
        ]
        assert rrc_mode_events == expected

    def test_interference_total_matches_samples(self):
        cfg = switching_config()
        result = run_scenario(cfg)
        loss = {
            ue.id: db_to_linear(free_space_path_loss(ue.distance_m, ue.freq_hz))
            for ue in result.devices
        }
        total = sum(s.ul_tx_w / loss[s.device_id] for s in samples(result))
        assert total == pytest.approx(result.total_uplink_interference_w, rel=1e-12)

    def test_complexity_counts_final_slot_transmitters(self):
        cfg = make_config(n_users=10, n_tr=4, placement="ring")
        result = run_scenario(cfg)
        last = cfg.n_slots - 1
        active = sum(1 for s in samples(result) if s.slot == last and s.ul_active)
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


class TestModeStates:
    @pytest.mark.parametrize(
        "before, after, ul_demand, dl_demand",
        list(itertools.product(MODES, MODES, [False, True], [False, True])),
    )
    def test_slot_events_lead_to_the_state_of_the_new_mode(
        self, before, after, ul_demand, dl_demand
    ):
        """The engine starts each slot in MODE_STATES of the mode before it.
        By induction over slots that is exact if every slot case, stepped
        through rrc.transition in the engine's event order, ends in
        MODE_STATES of the mode after it."""
        events = []
        if after is not before:
            events.append(
                RrcEvent.TR_MODE_ENTER if after is Mode.TR else RrcEvent.TR_MODE_EXIT
            )
        if after is Mode.AM and ul_demand:
            events.append(RrcEvent.UPLINK_DATA_PENDING)
        if dl_demand:
            events.append(RrcEvent.DOWNLINK_DATA_ARRIVAL)
        state = MODE_STATES[MODES.index(before)]
        for event in events:
            state = rrc.transition(state, event)
        assert state is MODE_STATES[MODES.index(after)]

    def test_population_starts_in_the_state_of_its_mode(self):
        devices = build_devices(make_config(n_users=6, n_tr=2))
        assert {ue.mode for ue in devices} == set(MODES)
        for ue in devices:
            assert ue.rrc_state is MODE_STATES[MODES.index(ue.mode)]


def scalar_run(cfg):
    """The engine as one scalar step per device-slot, in slot, then device
    order: the reference the columnar engine must equal exactly. Returns
    the samples, transitions and RRC log as the helpers above read them,
    and the four metrics."""
    devices = build_devices(cfg)
    n = len(devices)
    traffic = _rng(cfg.seed, 1)
    ul_demand = (traffic.random((cfg.n_slots, n)) < cfg.ul_demand_prob).tolist()
    dl_demand = (traffic.random((cfg.n_slots, n)) < cfg.dl_demand_prob).tolist()
    am_uplink = _am_uplink_mask(cfg)
    fading = [_rng(cfg.seed, 2, i) for i in range(n)]
    loss = [db_to_linear(free_space_path_loss(ue.distance_m, ue.freq_hz)) for ue in devices]
    out, moves, log = [], [], []
    below = {Mode.AM: 0, Mode.TR: 0}
    counted = {Mode.AM: 0, Mode.TR: 0}
    total = 0.0
    for t in range(cfg.n_slots):
        rows = []
        for i, ue in enumerate(devices):
            gain = channel.draw_fading_gain(fading[i])
            rx_w = cfg.bs_tx_power_w / loss[i] * gain
            rss_dbm = watts_to_dbm(rx_w)
            events = []
            new_mode = evaluate_switch(rss_dbm, cfg.switch, ue.mode)
            if new_mode is not ue.mode:
                moves.append(Transition(t, ue.id, ue.mode, new_mode, rss_dbm))
                ue.mode = new_mode
                events.append(RrcEvent.TR_MODE_ENTER if new_mode is Mode.TR
                              else RrcEvent.TR_MODE_EXIT)
            if ue.mode is Mode.AM and ul_demand[t][i]:
                events.append(RrcEvent.UPLINK_DATA_PENDING)
            if dl_demand[t][i]:
                events.append(RrcEvent.DOWNLINK_DATA_ARRIVAL)
            for event in events:
                old, ue.rrc_state = ue.rrc_state, rrc.transition(ue.rrc_state, event)
                log.append(RrcEntry(t, ue.id, event, old, ue.rrc_state))
            active = uplink_enabled(ue.mode) and uplink_grant_allowed(ue.rrc_state)
            if not active:
                ul_tx_w = 0.0
            elif ul_demand[t][i] and am_uplink[t % len(am_uplink)]:
                ul_tx_w = ue.tx_power_w
            else:
                ul_tx_w = cfg.always_on_fraction * ue.tx_power_w
            rows.append((ue, gain, rx_w, rss_dbm, active, ul_tx_w, ul_tx_w / loss[i]))
        interference_w = sum(row[-1] for row in rows)
        total += interference_w
        for ue, gain, rx_w, rss_dbm, active, ul_tx_w, own_w in rows:
            sinr_lin = rx_w / (max(interference_w - own_w, 0.0) + cfg.noise_w)
            below[ue.mode] += sinr_lin < db_to_linear(cfg.snr_threshold_db)
            counted[ue.mode] += 1
            out.append(Sample(t, ue.id, ue.mode, ue.rrc_state, gain, rss_dbm,
                              channel.linear_to_db(sinr_lin), active, ul_tx_w))
    outage = [below[m] / counted[m] if counted[m] else None for m in (Mode.AM, Mode.TR)]
    active_last = sum(1 for row in rows if row[4])
    return out, moves, log, (*outage, total, active_last * (active_last - 1) / 2)


class TestScalarReference:
    @settings(max_examples=25, deadline=None)
    @given(
        n_users=st.integers(1, 7),
        n_slots=st.integers(1, 40),
        data=st.data(),
    )
    def test_columnar_engine_equals_scalar_steps(self, n_users, n_slots, data):
        cfg = switching_config(
            n_users=n_users,
            n_tr=data.draw(st.integers(0, n_users)),
            n_slots=n_slots,
            seed=data.draw(st.integers(0, 10**6)),
            placement=data.draw(st.sampled_from(["ring", "disk"])),
            duplex=data.draw(st.sampled_from(["fdd", "tdd"])),
            numerology_mu=data.draw(st.integers(0, 2)),
            ul_demand_prob=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
            dl_demand_prob=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
            switch=SwitchConfig(
                rss_threshold_dbm=data.draw(st.sampled_from([-60.0, -52.0, -45.0])),
                hysteresis_db=data.draw(st.sampled_from([0.0, 1.0, 3.0])),
            ),
        )
        result = run_scenario(cfg)
        expected = scalar_run(cfg)
        assert samples(result) == expected[0]
        assert transitions(result) == expected[1]
        assert rrc_log(result) == expected[2]
        assert (
            result.outage_am, result.outage_tr,
            result.total_uplink_interference_w, result.complexity,
        ) == expected[3]


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
        assert samples(explicit) == samples(synthesized)
        assert transitions(explicit) == transitions(synthesized)
        assert rrc_log(explicit) == rrc_log(synthesized)
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


class TestEngineSwitchOracle:
    """The engine's mode switch against the closed form. On a ring every
    device has the same mean received power mu = P_bs / L, and fading is an
    independent unit-mean exponential per slot, so each device's mode is a
    two-state Markov chain: AM -> TR with p = 1 - exp(-w(theta - h) / mu),
    TR -> AM with q = exp(-w(theta + h) / mu), where w is dBm to watts,
    theta the threshold and h the hysteresis. Devices are independent, so
    cohort totals have the chain's mean and variance times the cohort size."""

    N_USERS, N_TR, N_SLOTS = 400, 200, 200
    UL_DEMAND = 0.5

    def config(self, duplex, mu, hysteresis_db, seed):
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
            ul_demand_prob=self.UL_DEMAND,
            switch=SwitchConfig(
                # 2 dB below the mean rss, so both transitions are common
                rss_threshold_dbm=watts_to_dbm(base.bs_tx_power_w / loss) - 2.0,
                hysteresis_db=hysteresis_db,
            ),
        )

    @staticmethod
    def chain(p, q, start_tr, n_slots):
        """P(in TR after each slot), and the mean and variance of one device's
        transition count, from the chain started in TR or in AM. The moments
        are carried per state: P(s), E[N 1{s}] and E[N^2 1{s}]."""
        moments = {tr: [float(tr == start_tr), 0.0, 0.0] for tr in (False, True)}
        move = {(False, True): p, (False, False): 1.0 - p,
                (True, False): q, (True, True): 1.0 - q}
        occupancy = []
        for _ in range(n_slots):
            nxt = {}
            for after in (False, True):
                prob = mean = square = 0.0
                for before, (pb, nb, sb) in moments.items():
                    w, d = move[before, after], float(before != after)
                    prob += w * pb
                    mean += w * (nb + d * pb)
                    square += w * (sb + 2.0 * d * nb + d * pb)
                nxt[after] = [prob, mean, square]
            moments = nxt
            occupancy.append(moments[True][0])
        mean = moments[False][1] + moments[True][1]
        square = moments[False][2] + moments[True][2]
        return occupancy, mean, square - mean * mean

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("hysteresis_db", [0.0, 1.5])
    @pytest.mark.parametrize("duplex, mu", [("fdd", 0), ("tdd", 1)])
    def test_switching_matches_markov_chain(self, duplex, mu, hysteresis_db, seed):
        cfg = self.config(duplex, mu, hysteresis_db, seed)
        result = run_scenario(cfg)
        loss = db_to_linear(free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz))
        mean_w = cfg.bs_tx_power_w / loss
        theta, h = cfg.switch.rss_threshold_dbm, cfg.switch.hysteresis_db
        p = 1.0 - math.exp(-(10.0 ** ((theta - h - 30.0) / 10.0)) / mean_w)
        q = math.exp(-(10.0 ** ((theta + h - 30.0) / 10.0)) / mean_w)

        in_tr = result.mode == MODES.index(Mode.TR)
        start_tr = np.arange(cfg.n_users) < cfg.n_tr  # ring: TR cohort by index
        before = np.vstack([start_tr, in_tr[:-1]])
        enters = np.count_nonzero(~before & in_tr)
        exits = np.count_nonzero(before & ~in_tr)
        expected_occupancy = np.zeros(cfg.n_slots)
        occupancy_var = np.zeros(cfg.n_slots)
        for cohort_tr, size in ((True, cfg.n_tr), (False, cfg.n_users - cfg.n_tr)):
            occupancy, mean, variance = self.chain(p, q, cohort_tr, cfg.n_slots)
            counts = np.count_nonzero((before != in_tr)[:, start_tr == cohort_tr])
            z = (counts - size * mean) / math.sqrt(size * variance)
            assert abs(z) <= 4.0, ("transitions", cohort_tr, counts, size * mean, z)
            pi = np.array(occupancy)
            expected_occupancy += size * pi
            occupancy_var += size * pi * (1.0 - pi)
        # TR occupancy per slot: a sum of two independent binomials
        z = (np.count_nonzero(in_tr, axis=1) - expected_occupancy) / np.sqrt(occupancy_var)
        assert np.abs(z).max() <= 4.0, ("occupancy", int(np.abs(z).argmax()), z.max(), z.min())

        events = np.bincount(result.rrc_events.event, minlength=len(RRC_EVENTS))
        assert events[RRC_EVENTS.index(RrcEvent.TR_MODE_ENTER)] == enters
        assert events[RRC_EVENTS.index(RrcEvent.TR_MODE_EXIT)] == exits
        # demand is drawn on its own stream, so given the AM device-slots the
        # pending-uplink count is binomial
        am_slots = in_tr.size - np.count_nonzero(in_tr)
        pending = events[RRC_EVENTS.index(RrcEvent.UPLINK_DATA_PENDING)]
        sigma = math.sqrt(am_slots * cfg.ul_demand_prob * (1.0 - cfg.ul_demand_prob))
        assert abs(pending - am_slots * cfg.ul_demand_prob) <= 4.0 * sigma


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
