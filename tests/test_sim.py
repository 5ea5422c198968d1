import ast
import itertools
import math
import re
import tracemalloc
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import fields, is_dataclass, replace
from io import BytesIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO_ROOT, make_config
from reference import db, dbm, evaluate_switch
from trsim import exposure, rrc, schema, sim
from trsim.channel import db_to_linear, free_space_path_loss, outage_analytic
from trsim.cli import RUN_CSV_COLUMNS, Coded, _run_chunks, _write_csv
from trsim.exposure import (
    ExposureStandard,
    FrequencyBand,
    e_field_from_density,
    network_exposure,
    power_density,
)
from trsim.frames import SlotKind, build_fdd_pair, build_tdd_frame, make_numerology
from trsim.rrc import RrcEvent, RrcState, uplink_grant_allowed
from trsim.sim import (
    MODE_STATES,
    MODE_UPLINK,
    MODES,
    RRC_EVENTS,
    ConfigError,
    DeviceSpec,
    _am_uplink_mask,
    _db,
    build_devices,
    iter_run,
    outage_curve,
    run_scenario,
)
from trsim.streams import Streams
from trsim.trmode import Mode, uplink_enabled


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
    ids = result.devices.device_id
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
        Transition(slot, result.devices.device_id[i], MODES[1 - new], MODES[new], rss_dbm)
        for slot, i, rss_dbm, new in zip(
            log.slot.tolist(), log.device.tolist(), log.rss_dbm.tolist(), log.new.tolist()
        )
    ]


def rrc_log(result) -> list[RrcEntry]:
    log = result.rrc_events
    return [
        RrcEntry(slot, result.devices.device_id[i], RRC_EVENTS[e], MODE_STATES[old],
                 MODE_STATES[new])
        for slot, i, e, old, new in zip(
            log.slot.tolist(), log.device.tolist(), log.event.tolist(),
            log.old.tolist(), log.new.tolist(),
        )
    ]


def run_records(cfg):
    """The records of `trsim run` as cli._run_chunks gives them, each as its
    kind and a dict of its keys, with coded columns decoded to labels."""
    run = iter_run(cfg)
    for kind, columns in _run_chunks(next(run), run):
        values = {
            key: [c.labels[j] for j in c.codes] if isinstance(c, Coded)
            else c.tolist() if isinstance(c, np.ndarray) else c
            for key, c in columns.items()
        }
        for record in zip(*values.values()):
            yield kind, dict(zip(values, record))


def path_losses(devices) -> list[float]:
    """Each device's linear path loss, from the scalar channel functions."""
    return [
        db_to_linear(free_space_path_loss(distance, freq))
        for distance, freq in zip(devices.distance_m.tolist(), devices.freq_hz.tolist())
    ]


def array_fields(record, prefix=""):
    """(name, array) for each numpy array a record holds: its array fields,
    the arrays held as the values of a mapping field, and those of the records
    it holds, named by their path."""
    for f in fields(record):
        value, name = getattr(record, f.name), prefix + f.name
        if is_dataclass(value):
            yield from array_fields(value, f"{name}.")
        elif isinstance(value, Mapping):
            yield from ((f"{name}[{k!r}]", v) for k, v in value.items()
                        if isinstance(v, np.ndarray))
        elif isinstance(value, np.ndarray):
            yield name, value


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
        rss_threshold_dbm=-52.0,
        hysteresis_db=1.0,
        ul_demand_prob=0.7,
        dl_demand_prob=0.7,
    )
    base.update(overrides)
    return make_config(**base)


def test_readme_library_example(monkeypatch, capsys):
    """README's library example runs from the repo root and prints the TR
    cohort's share of the uplink interference: 30 of 50 devices stay AM."""
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(REPO_ROOT)
    exec(code, {})
    assert float(capsys.readouterr().out) == pytest.approx(0.6, abs=1e-12)


def test_every_public_name_is_used_or_documented():
    """The library is what the commands run: each public top-level function
    and class of src/trsim is named in src/trsim outside its own definition
    (as a name, an attribute or an import), or README names it. A scalar
    reference that only the tests call belongs in tests/reference.py."""
    readme = (REPO_ROOT / "README.md").read_text()
    defined, used = {}, set()
    for path in sorted((REPO_ROOT / "src" / "trsim").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name[0] != "_":
                defined[stmt.name] = f"{path.stem}.{stmt.name}"
                names.discard(stmt.name)
            used |= names
    unused = [qual for name, qual in defined.items()
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_every_field_is_read_or_documented():
    """The library holds only what the commands compute: each annotated field
    of a class of src/trsim is read as an attribute in src/trsim outside its
    own class, or README names it in backticks. Classes read field by field
    are exempt: schema.Columns and its subclasses, and each class passed by
    name to dataclasses.fields."""
    readme = (REPO_ROOT / "README.md").read_text()
    ticked = " ".join(re.findall(r"`([^`\n]+)`", readme))
    fields_of, readers, columns, by_fields = {}, {}, {"Columns"}, set()
    for path in sorted((REPO_ROOT / "src" / "trsim").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, ast.ClassDef):
                owner = f"{path.stem}.{stmt.name}"
                fields_of[owner] = [s.target.id for s in stmt.body if isinstance(s, ast.AnnAssign)]
                if any(getattr(base, "id", None) in columns for base in stmt.bases):
                    columns.add(stmt.name)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.attr, set()).add(owner)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fields":
                    by_fields |= {arg.id for arg in node.args if isinstance(arg, ast.Name)}
    unread = [f"{owner}.{name}" for owner, names in fields_of.items()
              if owner.partition(".")[2] not in columns | by_fields for name in names
              if not readers.get(name, set()) - {owner}
              and not re.search(rf"\b{name}\b", ticked)]
    assert unread == []


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

    def test_rss_column_is_dbm_of_each_received_power(self):
        """The dB column holds reference.dbm of each value, bit for bit;
        numpy's own log10 would differ in the last bit on some inputs."""
        cfg = switching_config(placement="disk", n_users=9, n_tr=3)
        result = run_scenario(cfg)
        for i, loss in enumerate(path_losses(result.devices)):
            expected = [
                dbm(cfg.bs_tx_power_w / loss * g)
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
        with pytest.raises(ConfigError) as err:
            make_config(n_users=3, n_tr=5)
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
        assert result.mode_transitions.slot.size, "scenario never switched a device"
        records = list(run_records(result.config))
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
        band_low = cfg.rss_threshold_dbm - cfg.hysteresis_db
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
        loss = dict(zip(result.devices.device_id, path_losses(result.devices)))
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
        assert result.devices.device_id == ("near", "far")
        assert result.devices.distance_m.tolist() == [50.0, 450.0]
        assert [MODES[m] for m in result.devices.mode.tolist()] == [Mode.AM, Mode.TR]
        # "far" is the last device of the last slot
        last = samples(result)[-1]
        assert (last.device_id, last.mode, last.rrc_state) == (
            "far", Mode.TR, RrcState.ENERGY_EFFICIENT
        )


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
        """A device starts Connected, and one that starts in TR has entered TR
        from there: that is MODE_STATES of its starting mode, and each
        device's first RRC event (one per slot, on downlink demand 1) starts
        from it."""
        result = run_scenario(make_config(n_users=6, n_tr=2, dl_demand_prob=1.0))
        start = {
            Mode.AM: RrcState.CONNECTED,
            Mode.TR: rrc.transition(RrcState.CONNECTED, RrcEvent.TR_MODE_ENTER),
        }
        assert all(start[mode] is MODE_STATES[MODES.index(mode)] for mode in MODES)
        modes = [MODES[m] for m in result.devices.mode.tolist()]
        assert set(modes) == set(MODES)
        first = {}
        for entry in rrc_log(result):
            first.setdefault(entry.device_id, entry.old_state)
        assert first == {i: start[mode] for i, mode in zip(result.devices.device_id, modes)}


def scalar_run(cfg):
    """The engine as one scalar step per device-slot, in slot, then device
    order: the reference the columnar engine must equal exactly. Returns
    the samples, transitions and RRC log as the helpers above read them,
    the metrics: the four of the run, then the network exposure from each
    device's final mode, and each sample's uplink level (0 silent, 1
    always-on, 2 data), one list per slot. It draws from numpy's generators
    of the split streams, and checks a disk placement against them."""

    def stream(*key):
        # numpy's own generator of a split stream, not trsim.streams' port
        return np.random.default_rng(np.random.SeedSequence([cfg.seed, *key]))

    devices = build_devices(cfg)
    if cfg.placement == "disk" and not cfg.devices:
        radius = cfg.cell_radius_m * np.sqrt(stream(0).random(cfg.n_users))
        assert devices.distance_m.tolist() == radius.tolist()
    ids, n = devices.device_id, len(devices.device_id)
    tx_power = devices.tx_power_w.tolist()
    mode = [MODES[m] for m in devices.mode.tolist()]
    # every device starts Connected, and one that starts in TR has entered TR
    state = [
        rrc.transition(RrcState.CONNECTED, RrcEvent.TR_MODE_ENTER) if m is Mode.TR
        else RrcState.CONNECTED
        for m in mode
    ]
    traffic = stream(1)
    ul_demand = (traffic.random((cfg.n_slots, n)) < cfg.ul_demand_prob).tolist()
    dl_demand = (traffic.random((cfg.n_slots, n)) < cfg.dl_demand_prob).tolist()
    am_uplink = _am_uplink_mask(cfg)
    fading = [stream(2, i) for i in range(n)]
    loss = path_losses(devices)
    out, moves, log, levels = [], [], [], []
    below = {Mode.AM: 0, Mode.TR: 0}
    counted = {Mode.AM: 0, Mode.TR: 0}
    total = 0.0
    for t in range(cfg.n_slots):
        rows = []
        for i in range(n):
            gain = float(fading[i].exponential())
            rx_w = cfg.bs_tx_power_w / loss[i] * gain
            rss_dbm = dbm(rx_w)
            events = []
            new_mode = evaluate_switch(rss_dbm, cfg.rss_threshold_dbm, cfg.hysteresis_db, mode[i])
            if new_mode is not mode[i]:
                moves.append(Transition(t, ids[i], mode[i], new_mode, rss_dbm))
                mode[i] = new_mode
                events.append(RrcEvent.TR_MODE_ENTER if new_mode is Mode.TR
                              else RrcEvent.TR_MODE_EXIT)
            if mode[i] is Mode.AM and ul_demand[t][i]:
                events.append(RrcEvent.UPLINK_DATA_PENDING)
            if dl_demand[t][i]:
                events.append(RrcEvent.DOWNLINK_DATA_ARRIVAL)
            for event in events:
                old, state[i] = state[i], rrc.transition(state[i], event)
                log.append(RrcEntry(t, ids[i], event, old, state[i]))
            active = uplink_enabled(mode[i]) and uplink_grant_allowed(state[i])
            if not active:
                level, ul_tx_w = 0, 0.0
            elif ul_demand[t][i] and am_uplink[t % len(am_uplink)]:
                level, ul_tx_w = 2, tx_power[i]
            else:
                level, ul_tx_w = 1, cfg.always_on_fraction * tx_power[i]
            rows.append((i, gain, rx_w, rss_dbm, active, level, ul_tx_w, ul_tx_w / loss[i]))
        # add in device order, as the engine's running sum does: sum() of
        # floats is compensated since Python 3.12 and can differ in the last bit
        interference_w = 0.0
        for row in rows:
            interference_w += row[-1]
        total += interference_w
        levels.append([row[5] for row in rows])
        for i, gain, rx_w, rss_dbm, active, level, ul_tx_w, own_w in rows:
            sinr_lin = rx_w / (max(interference_w - own_w, 0.0) + cfg.noise_w)
            below[mode[i]] += sinr_lin < db_to_linear(cfg.snr_threshold_db)
            counted[mode[i]] += 1
            out.append(Sample(t, ids[i], mode[i], state[i], gain, rss_dbm,
                              db(sinr_lin), active, ul_tx_w))
    outage = [below[m] / counted[m] if counted[m] else None for m in (Mode.AM, Mode.TR)]
    active_last = sum(1 for row in rows if row[4])
    # exposure: a device in TR after the last slot emits nothing; densities
    # add in device order
    density = 0.0
    for i in range(n):
        emitted_w = tx_power[i] if uplink_enabled(mode[i]) else 0.0
        density += power_density(emitted_w, cfg.observer_distance_m)
    e_field = e_field_from_density(density)
    freqs = devices.freq_hz.tolist()
    ers = {
        std.name: e_field / min(std.band_for(f).e_ref_v_per_m for f in freqs)
        for std in cfg.standards
    }
    return out, moves, log, (
        *outage, total, active_last * (active_last - 1) / 2, density, e_field, ers
    ), levels


# Standards for the scalar reference: one band at the configs' carrier, and
# a second standard whose band there has another reference level
ICNIRP = ExposureStandard("ICNIRP", (FrequencyBand(1e9, 1e10, 61.0),))
IEEE = ExposureStandard(
    "IEEE-C95", (FrequencyBand(1e8, 3e9, 40.0), FrequencyBand(3e9, 6e9, 61.4))
)


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
            seed=data.draw(st.integers(0, 2**70)),
            placement=data.draw(st.sampled_from(["ring", "disk"])),
            duplex=data.draw(st.sampled_from(["fdd", "tdd"])),
            numerology_mu=data.draw(st.integers(0, 2)),
            ul_demand_prob=data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
            dl_demand_prob=data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
            rss_threshold_dbm=data.draw(st.sampled_from([-60.0, -52.0, -45.0])),
            hysteresis_db=data.draw(st.sampled_from([0.0, 1.0, 3.0])),
            observer_distance_m=data.draw(st.sampled_from([0.5, 1.0, 3.0])),
            standards=data.draw(st.sampled_from([(ICNIRP,), (IEEE, ICNIRP)])),
            # at 0.0 or 1.0 two levels have equal watts, which only the level tells apart
            always_on_fraction=data.draw(st.sampled_from([0.0, 0.1, 1.0])),
        )
        result = run_scenario(cfg)
        expected = scalar_run(cfg)
        assert result.ul_level.tolist() == expected[4]
        assert samples(result) == expected[0]
        assert transitions(result) == expected[1]
        assert rrc_log(result) == expected[2]
        report = result.exposure
        assert (
            result.outage_am, result.outage_tr,
            result.total_uplink_interference_w, result.complexity,
            report.network_total_power_density_w_m2, report.network_e_field_v_per_m,
            report.network_er_per_standard,
        ) == expected[3]


class TestDemand:
    def test_flags_are_numpys_random_below_prob(self):
        """The demand flags are numpy's random() < prob on the traffic stream,
        also for a prob equal to a drawn value or next to one."""
        seed = 20260808
        drawn = np.random.default_rng(np.random.SeedSequence([seed, 1])).random(6)
        probs = [0.0, 1.0, 0.3, *drawn, *np.nextafter(drawn, 0.0), *np.nextafter(drawn, 1.0)]
        for prob in probs:
            expected = drawn < prob
            got = sim._demand(Streams(seed, 1), 2, 3, float(prob))
            assert got.ravel().tolist() == expected.tolist(), prob

    @pytest.mark.parametrize("prob", [0.0, 1.0])
    def test_decided_flags_go_on_past_their_draws(self, prob):
        """At a prob of 0 or 1 the flags are decided without a draw, and the
        traffic stream goes on where the 6 draws would have left it: at
        numpy's 7th value."""
        seed = 20260808
        drawn = np.random.default_rng(np.random.SeedSequence([seed, 1])).random(10)
        traffic = Streams(seed, 1)
        assert sim._demand(traffic, 2, 3, prob).tolist() == [[prob == 1.0] * 3] * 2
        assert traffic.random(4)[:, 0].tolist() == drawn[6:].tolist()

    @pytest.mark.parametrize("ul, dl", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_decided_demand_computes_no_traffic_output(self, ul, dl):
        """A run whose demands are both decided computes no output of its
        traffic stream: on a ring, which draws no distances, no stream's
        raw(), through which random() draws, is called."""
        cfg = switching_config(n_users=5, n_tr=2, n_slots=30, ul_demand_prob=ul, dl_demand_prob=dl)
        with mock.patch.object(Streams, "raw", autospec=True, side_effect=Streams.raw) as raw:
            run_scenario(cfg)
        assert raw.call_count == 0


class TestStreamedEngine:
    @settings(max_examples=20, deadline=None)
    @given(
        n_users=st.integers(1, 5),
        n_slots=st.integers(1, 30),
        data=st.data(),
    )
    def test_chunked_runs_equal_one_chunk(self, n_users, n_slots, data):
        """A run computed 1, 2, 3 or 7 slots at a time is the run computed at
        once: the collected result and the `trsim run` text."""
        cfg = switching_config(
            n_users=n_users,
            n_tr=data.draw(st.integers(0, n_users)),
            n_slots=n_slots,
            seed=data.draw(st.integers(0, 2**70)),
            placement=data.draw(st.sampled_from(["ring", "disk"])),
            duplex=data.draw(st.sampled_from(["fdd", "tdd"])),
            snr_threshold_db=data.draw(st.sampled_from([0.0, 25.0])),  # 25: some outage
            rss_threshold_dbm=-52.0,
            hysteresis_db=data.draw(st.sampled_from([0.0, 1.0])),
        )

        def run(slots_per_chunk):
            with mock.patch.object(sim, "ENGINE_ROWS", slots_per_chunk * n_users):
                out = BytesIO()
                stream = iter_run(cfg)
                chunks = _run_chunks(next(stream), stream)
                _write_csv(out, RUN_CSV_COLUMNS, chunks)
                return run_scenario(cfg), out.getvalue().decode()

        whole = run(n_slots)
        for slots_per_chunk in (1, 2, 3, 7):
            assert run(slots_per_chunk) == whole, slots_per_chunk

    def test_memory_does_not_grow_with_n_slots(self):
        """The traced peak of a streamed run is that of one chunk: a
        1000-device ring at 200 slots peaks within 25% of the same ring at 40
        slots (chunks of 17 slots), after a first run has made what a process
        allocates once. Both runs hold one full chunk's Samples while
        computing the next full chunk. Holding every column, the 200-slot run
        peaked 5x as high."""

        def ring(n_slots):
            return make_config(n_users=1000, n_tr=400, placement="ring", n_slots=n_slots)

        def peak(n_slots):
            cfg = ring(n_slots)
            tracemalloc.start()
            try:
                for _ in iter_run(cfg):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for _ in iter_run(ring(40)):
            pass
        short, long = peak(40), peak(200)
        assert abs(long - short) <= 0.25 * short, (short, long)


class TestReadOnlyRecords:
    STANDARDS = (
        ExposureStandard("ICNIRP", (FrequencyBand(1e9, 1e10, 61.0),)),
        ExposureStandard("IEEE-C95", (FrequencyBand(1e8, 1e10, 61.4),)),
    )

    def test_no_record_takes_a_write(self):
        """Every array of every record iter_run yields, of a run_scenario
        result and of a network_exposure report refuses a write, the ER
        columns held in a dict too; so no consumer can change the modes the
        engine reads on, as writing into a yielded Samples.mode once did."""
        cfg = switching_config(standards=self.STANDARDS)
        with mock.patch.object(sim, "ENGINE_ROWS", 7 * cfg.n_users):  # 9 chunks
            parts = list(iter_run(cfg))
        devices = parts[0]
        records = parts + [
            run_scenario(cfg),
            network_exposure(devices.freq_hz, devices.emitted_w(devices.mode),
                             cfg.standards, cfg.observer_distance_m),
        ]
        assert {type(r).__name__ for r in records} == {
            "Devices", "Samples", "ModeTransitions", "RrcEvents", "RunTotals", "SimResult",
            "ExposureReport",
        }
        for record in records:
            held = dict(array_fields(record))
            assert held, type(record)
            for array in held.values():
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        assert {"exposure.er_per_standard['ICNIRP']", "exposure.er_per_standard['IEEE-C95']"} \
            <= set(dict(array_fields(parts[-1])))

    def test_no_standard_of_a_report_can_be_replaced_or_added(self):
        """A report holds its ER columns and values in read-only mappings of
        its own, so no holder can replace a standard's or add one, not even
        through the dict it was built from; two runs still compare equal."""
        cfg = switching_config(standards=self.STANDARDS)
        result = run_scenario(cfg)
        report = result.exposure
        column = np.zeros_like(report.e_field_v_per_m)
        for held, value in ((report.er_per_standard, column),
                            (report.network_er_per_standard, 0.0)):
            for name in ("ICNIRP", "X"):
                with pytest.raises(TypeError):
                    held[name] = value
        built_from = dict(report.er_per_standard)
        copy = replace(report, er_per_standard=built_from)
        built_from["X"] = column
        assert "X" not in copy.er_per_standard and copy == report
        assert run_scenario(cfg) == result

    def test_each_array_record_derives_from_columns(self):
        """Each dataclass of the engine that holds arrays, in a field of its
        own or through a record it holds, derives from schema.Columns and
        compares with its __eq__, defining none of its own."""
        classes = {
            cls.__name__: cls for module in (sim, exposure) for cls in vars(module).values()
            if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
        }
        holding = {"np.ndarray"}  # and the names of the records that hold arrays
        while True:
            found = {name for name, cls in classes.items()
                     if any(holding & set(re.findall(r"[\w.]+", str(f.type))) for f in fields(cls))}
            if found <= holding:
                break
            holding |= found
        records = [cls for name, cls in classes.items() if name in holding]
        assert {cls.__name__ for cls in records} == {
            "Devices", "Samples", "ModeTransitions", "RrcEvents", "RunTotals", "SimResult",
            "ExposureReport",
        }
        for cls in records:
            assert issubclass(cls, schema.Columns), cls
            assert cls.__eq__ is schema.Columns.__eq__, cls


class TestDbColumns:
    def test_equal_reference_per_value_bit_for_bit(self):
        """The engine's dB columns are reference.db (sinr_db) and reference.dbm
        (rss_dbm) of each value, bit for bit, 0 as -inf."""
        rng = np.random.default_rng(20261018)
        bits = rng.integers(1, 0x7FF0000000000000, 20_000, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), 10 ** rng.uniform(-20, 3, 20_000)])
        values[::997] = 0.0
        db_col = _db(values.reshape(200, 200))
        assert db_col.shape == (200, 200)
        for got, scalar in ((db_col, db), (db_col + 30.0, dbm)):
            expected = np.array([scalar(v) for v in values.tolist()])
            assert (got.ravel().view(np.uint64) == expected.view(np.uint64)).all()

    def test_watts_to_dbm_at_decades(self):
        """1 W is 30 dBm and 1 mW is 0 dBm; each decade of power is 10 dB."""
        watts = 10.0 ** np.arange(-15, 4)
        assert (_db(watts) + 30.0).tolist() == pytest.approx(
            list(range(-120, 70, 10)), abs=1e-12
        )

    def test_all_zero_is_minus_inf_in_shape(self):
        col = _db(np.zeros((3, 4)))
        assert col.shape == (3, 4)
        assert (col == -np.inf).all()

    def test_rejects_negative_power(self):
        """A negative power has no dB value: _db raises rather than writing NaN."""
        with pytest.raises(ValueError):
            _db(np.array([1.0, -1e-9]))

    def test_peak_grows_by_at_most_32_bytes_per_value(self):
        """_db holds the nonzero mask and values, the logs and np.fromiter's
        buffer, sized to the count of nonzero values: 25 B per value. A buffer
        left to grow by about 1.5x at a time read 252 B per value from 58,000
        to 59,000 values, across one of its steps."""

        def peak(n: int) -> int:
            values = np.linspace(1.0, 2.0, n)
            tracemalloc.start()
            try:
                _db(values)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(59_000) - peak(58_000)) / 1_000 <= 32


class TestBuildDevices:
    def test_tr_cohort_assigned_to_weakest_links(self):
        cfg = make_config(n_users=8, n_tr=3, placement="disk")
        devices = build_devices(cfg)
        by_distance = np.argsort(-devices.distance_m)
        modes = [MODES[m] for m in devices.mode[by_distance].tolist()]
        assert modes == [Mode.TR] * 3 + [Mode.AM] * 5

    def test_run_leaves_the_table_as_built(self):
        """The table's columns are DeviceSpec's fields and the uplink levels,
        read-only, and a run that switches devices leaves it as built: the
        modes after the last slot are the run's mode[-1]."""
        assert [f.name for f in fields(sim.Devices)] == [
            *(f.name for f in fields(DeviceSpec)), "uplink_levels_w"
        ]
        cfg = switching_config()
        result = run_scenario(cfg)
        assert (result.mode[-1] != result.devices.mode).any()
        assert result.devices == build_devices(cfg)
        held = dict(array_fields(result))
        assert [name for name in held if name.startswith("devices.")] == [
            f"devices.{f.name}" for f in fields(sim.Devices)[1:]
        ]
        assert "exposure.power_density_w_m2" in held and "rrc_events.old" in held
        assert not any(array.flags.writeable for array in held.values())

    def test_ring_places_everyone_at_cell_radius(self):
        cfg = make_config(placement="ring")
        assert (build_devices(cfg).distance_m == cfg.cell_radius_m).all()

    def test_disk_placement_deterministic_per_seed(self):
        cfg = make_config(placement="disk")
        first, second = build_devices(cfg), build_devices(cfg)
        assert first == second
        assert first.distance_m.tolist() == second.distance_m.tolist()
        assert all(0.0 <= d <= cfg.cell_radius_m for d in first.distance_m.tolist())

    def test_explicit_copy_of_synthesized_population_runs_the_same(self):
        std = ExposureStandard("ICNIRP", (FrequencyBand(1e9, 1e10, 61.0),))
        cfg = switching_config(
            placement="disk", n_tr=2, cell_radius_m=500.0, standards=(std,)
        )
        devices = build_devices(cfg)
        specs = tuple(
            DeviceSpec(device_id, distance, cfg.ue_tx_power_w, cfg.freq_hz, MODES[m])
            for device_id, distance, m in zip(
                devices.device_id, devices.distance_m.tolist(), devices.mode.tolist()
            )
        )
        assert build_devices(replace(cfg, devices=specs)) == devices
        synthesized = run_scenario(cfg)
        explicit = run_scenario(replace(cfg, devices=specs))
        assert synthesized.mode_transitions.slot.size, "scenario never switched a device"
        assert samples(explicit) == samples(synthesized)
        assert transitions(explicit) == transitions(synthesized)
        assert rrc_log(explicit) == rrc_log(synthesized)
        assert explicit.exposure == synthesized.exposure
        for metric in (
            "outage_am", "outage_tr", "total_uplink_interference_w", "complexity"
        ):
            assert getattr(explicit, metric) == getattr(synthesized, metric)


class TestUplinkLevels:
    @pytest.mark.parametrize("always_on_fraction", [0.0, 0.1, 1.0])
    def test_rows_are_silent_always_on_and_data(self, always_on_fraction):
        """Row 0 is +0.0 for every device, also one of tx power -0.0; row 1
        is always_on_fraction x tx_power_w and row 2 tx_power_w, bit for bit."""
        power = np.array([-0.0, 0.0, 0.3, 0.2])
        devices = sim.Devices(
            ("a", "b", "c", "d"), np.full(4, 100.0), power, np.full(4, 3.5e9),
            np.zeros(4, np.int8), always_on_fraction,
        )
        levels = devices.uplink_levels_w
        assert levels.shape == (3, 4)
        assert not levels[0].view(np.uint64).any()
        assert np.array_equal(
            levels[1].view(np.uint64), (always_on_fraction * power).view(np.uint64)
        )
        assert np.array_equal(levels[2].view(np.uint64), power.view(np.uint64))

    @pytest.mark.parametrize("always_on_fraction", [0.0, 0.1, 1.0])
    def test_emitted_is_the_data_row_where_the_mode_transmits(self, always_on_fraction):
        """emitted_w gives bit for bit the level an AM device emits at, the
        data row, and the silent row for a TR device: -0.0 stays -0.0 in AM
        and is +0.0 in TR."""
        power = np.tile([-0.0, 0.0, 0.3], 2)
        mode = np.repeat([MODES.index(Mode.AM), MODES.index(Mode.TR)], 3).astype(np.int8)
        devices = sim.Devices(
            tuple("abcdef"), np.full(6, 100.0), power, np.full(6, 3.5e9), mode,
            always_on_fraction,
        )
        reference = np.choose(2 * np.array(MODE_UPLINK)[mode], devices.uplink_levels_w)
        emitted = devices.emitted_w(mode)
        assert np.array_equal(emitted.view(np.uint64), reference.view(np.uint64))
        assert np.signbit(emitted).tolist() == [True] + [False] * 5

    def test_a_device_in_tr_mode_is_silent(self):
        """TR mode transmits no uplink, so every TR device-slot of a run
        that switches is at level 0 and emits +0.0 W, while AM ones emit."""
        result = run_scenario(switching_config())
        tr = result.mode == MODES.index(Mode.TR)
        assert tr.any() and (~tr).any()
        assert result.ul_level.dtype == np.int8
        assert not result.ul_level[tr].any()
        assert not result.ul_tx_w[tr].view(np.uint64).any()
        assert (result.ul_level[~tr] > 0).any()
        assert set(np.unique(result.ul_level[~tr]).tolist()) <= {0, 1, 2}


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
        assert not result.mode_transitions.slot.size
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
            # 2 dB below the mean rss, so both transitions are common
            rss_threshold_dbm=dbm(base.bs_tx_power_w / loss) - 2.0,
            hysteresis_db=hysteresis_db,
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
        theta, h = cfg.rss_threshold_dbm, cfg.hysteresis_db
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
        # pending-uplink count is binomial, and over all device-slots so is
        # the downlink-arrival count
        for event, trials, prob in (
            (RrcEvent.UPLINK_DATA_PENDING, in_tr.size - np.count_nonzero(in_tr),
             cfg.ul_demand_prob),
            (RrcEvent.DOWNLINK_DATA_ARRIVAL, in_tr.size, cfg.dl_demand_prob),
        ):
            sigma = math.sqrt(trials * prob * (1.0 - prob))
            assert abs(events[RRC_EVENTS.index(event)] - trials * prob) <= 4.0 * sigma, event


class TestEngineJointOracle:
    """Switching, uplink demand, interference and outage against one closed
    form. On a ring every device has the same path loss L and mean received
    power mu, and its fading g ~ Exp(1) is drawn afresh each slot. With
    lo = w(theta - h) / mu and hi = w(theta + h) / mu (w: dBm to watts), a
    device ends a slot in TR if g < lo, in AM if g > hi, and otherwise keeps
    its mode, so P(TR after slot t) is pi_t = (1 - e^-lo) + rho pi_{t-1},
    rho = e^-lo - e^-hi. A victim's interference comes from the others,
    independently of its own fading: K of them are in AM after the slot
    (Poisson-binomial over their pi), and in an uplink slot D | K ~ Bin(K, q)
    of those have demand and emit tx, the rest the always-on power ao, so
    I = (D tx + (K - D) ao) / L. It is in outage if g < c = Theta (I + N) / mu:
      P(AM and out) = P(hi < g < c) + P(lo <= g <= min(hi, c)) (1 - pi_{t-1}),
      P(TR and out) = P(g < min(lo, c)) + P(lo <= g <= min(hi, c)) pi_{t-1}.
    The interference total's variance is exact, as the devices are
    independent; the outage counts are correlated across devices through K
    and across slots through the modes, so their standard error comes from
    sums over batches of slots."""

    # Few devices, so that a victim's own uplink is a large share of the
    # interference (charging it to the victim moves the AM count by 8-18
    # sigma), and many slots, so that every cell holds >= 100 expected events.
    N_USERS, N_TR, N_SLOTS = 8, 3, 3000
    SNR_THRESHOLD_DB = 15.0
    INR = 5.0  # one interferer's data power over noise
    # slots per batch of the outage counts' standard error: mode memory
    # (rho <= 0.47 here) decays below 1e-6 across a batch
    BATCH = 20

    def config(self, duplex, mu, hysteresis_db, q):
        base = make_config()
        loss = db_to_linear(free_space_path_loss(base.cell_radius_m, base.freq_hz))
        return replace(
            base,
            n_users=self.N_USERS,
            n_tr=self.N_TR,
            n_slots=self.N_SLOTS,
            seed=1,
            placement="ring",
            duplex=duplex,
            numerology_mu=mu,
            ul_demand_prob=q,
            rss_threshold_dbm=dbm(base.bs_tx_power_w / loss) - 1.0,
            hysteresis_db=hysteresis_db,
            snr_threshold_db=self.SNR_THRESHOLD_DB,
            noise_w=base.ue_tx_power_w / loss / self.INR,
        )

    @staticmethod
    def binomial(m, p):
        """The pmf of Bin(m, p) for each p: shape (len(p), m + 1)."""
        k = np.arange(m + 1)
        comb = np.array([math.comb(m, i) for i in k], float)
        return comb * p[:, None] ** k * (1.0 - p[:, None]) ** (m - k)

    def closed_form(self, cfg):
        """Per slot, the expected outage device-slots of the AM and the TR
        cohort, shape (n_slots, 2); and the mean and variance of
        total_uplink_interference_w."""
        n, n_slots = cfg.n_users, cfg.n_slots
        loss = db_to_linear(free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz))
        mean_w = cfg.bs_tx_power_w / loss
        lo, hi = (db_to_linear(cfg.rss_threshold_dbm + s * cfg.hysteresis_db - 30.0) / mean_w
                  for s in (-1.0, 1.0))
        rho = math.exp(-lo) - math.exp(-hi)
        # pi[t + 1, c]: P(TR after slot t) for a device starting in TR (c = 0) or AM
        pi = np.empty((n_slots + 1, 2))
        pi[0] = (1.0, 0.0)
        for t in range(n_slots):
            pi[t + 1] = 1.0 - math.exp(-lo) + rho * pi[t]
        sizes = (cfg.n_tr, n - cfg.n_tr)
        tx, ao = cfg.ue_tx_power_w, cfg.always_on_fraction * cfg.ue_tx_power_w
        # per slot, P(a device in AM emits tx): the demand in the frame's uplink slots
        q = cfg.ul_demand_prob * np.resize(_am_uplink_mask(cfg), n_slots)

        # D | K: pd[t, k, d], over d <= k < n
        k, d = np.arange(n)[:, None], np.arange(n)
        comb = np.array([[math.comb(i, j) for j in range(n)] for i in range(n)], float)
        pd = np.where(d <= k, comb * q[:, None, None] ** d
                      * (1.0 - q[:, None, None]) ** np.maximum(k - d, 0), 0.0)
        interference_w = (d * tx + (k - d) * ao) / loss
        c = db_to_linear(cfg.snr_threshold_db) * (interference_w + cfg.noise_w) / mean_w

        def between(x, y):
            return np.maximum(np.exp(-x) - np.exp(-y), 0.0)

        kept = between(lo, np.minimum(hi, c))
        expected = np.zeros((n_slots, 2))
        for v, size in enumerate(sizes):
            # K: the others in AM of the victim's starting cohort plus those of the other
            same = self.binomial(size - 1, 1.0 - pi[1:, v])
            other = self.binomial(sizes[1 - v], 1.0 - pi[1:, 1 - v])
            pk = np.zeros((n_slots, n))
            for i in range(size):
                pk[:, i:i + sizes[1 - v] + 1] += same[:, i, None] * other
            joint = pk[:, :, None] * pd
            before = pi[:-1, v, None, None]
            am_out = between(hi, c) + kept * (1.0 - before)
            tr_out = between(0.0, np.minimum(lo, c)) + kept * before
            expected += size * np.stack([(joint * p).sum((1, 2)) for p in (am_out, tr_out)], 1)

        w1 = q * tx + (1.0 - q) * ao  # E[W], the power a device in AM emits
        w2 = q * tx**2 + (1.0 - q) * ao**2  # E[W^2]
        am = 1.0 - pi[1:]
        # a device's AM indicators covary as rho^(t - s) pi_s (1 - pi_s), s < t:
        # carried[t] = sum over s < t of E[W_s] rho^(t - s) pi_s (1 - pi_s)
        carried = np.zeros((n_slots, 2))
        for t in range(1, n_slots):
            carried[t] = rho * (carried[t - 1] + w1[t - 1] * pi[t] * am[t - 1])
        mean = (am * w1[:, None]).sum(0) @ sizes / loss
        variance = (
            am * w2[:, None] - (am * w1[:, None]) ** 2 + 2.0 * w1[:, None] * carried
        ).sum(0) @ sizes / loss**2
        return expected, mean, variance

    @pytest.mark.parametrize("q", [0.3, 1.0])
    @pytest.mark.parametrize("hysteresis_db", [0.0, 3.0])
    @pytest.mark.parametrize("duplex, mu", [("fdd", 0), ("tdd", 1)])
    def test_outage_and_interference_match_closed_form(self, duplex, mu, hysteresis_db, q):
        cfg = self.config(duplex, mu, hysteresis_db, q)
        result = run_scenario(cfg)
        expected, mean, variance = self.closed_form(cfg)
        out = result.sinr_db < cfg.snr_threshold_db
        observed = np.stack([(out & (result.mode == m)).sum(1) for m in range(len(MODES))], 1)
        # the standard error of each count from its batch sums
        batches = (observed - expected).reshape(-1, self.BATCH, 2).sum(1)
        sigma = np.sqrt(len(batches) * batches.var(axis=0, ddof=1))
        assert (expected.sum(0) >= 100.0).all(), expected.sum(0)
        z = (observed.sum(0) - expected.sum(0)) / sigma
        assert np.abs(z).max() <= 4.0, ("outage", observed.sum(0), expected.sum(0), z)
        z = (result.total_uplink_interference_w - mean) / math.sqrt(variance)
        assert abs(z) <= 4.0, ("interference", result.total_uplink_interference_w, mean, z)
        # the closed form's TR term: a device in TR after a slot emits nothing in it
        assert not result.ul_tx_w[result.mode == MODES.index(Mode.TR)].any()


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


class TestRunMatchesOutageCommand:
    """`trsim run`'s outage_am against `trsim outage`'s outage_tr. With
    always_on_fraction = 1 and no switching, every AM device emits its full
    power in every slot, whatever its demand, so an AM victim of the engine
    sees the other n_am - 1 AM devices at cell-radius distance: the
    interferers outage_curve counts once the TR cohort is silenced."""

    N_USERS, N_TR, N_SLOTS = 20, 12, 2000  # 8 AM victims: 16,000 device-slots
    INR = 10.0  # one interferer's data power over noise
    MEAN_SNR_DB = 25.0

    def config(self, duplex, mu, seed):
        base = make_config()
        loss = db_to_linear(free_space_path_loss(base.cell_radius_m, base.freq_hz))
        noise_w = base.ue_tx_power_w / loss / self.INR
        return replace(
            base,
            n_users=self.N_USERS,
            n_tr=self.N_TR,
            n_slots=self.N_SLOTS,
            seed=seed,
            placement="ring",
            duplex=duplex,
            numerology_mu=mu,
            always_on_fraction=1.0,
            ul_demand_prob=0.3,
            noise_w=noise_w,
            bs_tx_power_w=db_to_linear(self.MEAN_SNR_DB) * loss * noise_w,
            snr_threshold_db=10.5,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("duplex, mu", [("fdd", 0), ("tdd", 1)])
    def test_am_outage_is_the_silenced_tr_curve(self, duplex, mu, seed):
        cfg = self.config(duplex, mu, seed)
        result = run_scenario(cfg)
        assert not result.mode_transitions.slot.size
        expected = outage_curve(cfg, [self.MEAN_SNR_DB])[0].outage_tr
        n = (cfg.n_users - cfg.n_tr) * cfg.n_slots
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(result.outage_am - expected) <= 4.0 * sigma, (result.outage_am, expected)


class TestExposureIntegration:
    def test_standards_flow_through_to_report(self):
        std = ExposureStandard("ICNIRP", (FrequencyBand(1e9, 1e10, 61.0),))
        cfg = make_config(standards=(std,), placement="ring")
        result = run_scenario(cfg)
        assert "ICNIRP" in result.exposure.network_er_per_standard
        n_am = int(np.count_nonzero(result.mode[-1] == MODES.index(Mode.AM)))
        # all AM devices identical on the ring; TR rows contribute zero
        density = result.exposure.power_density_w_m2
        am_rows = density[density > 0.0].tolist()
        assert len(am_rows) == n_am
        assert result.exposure.network_total_power_density_w_m2 == pytest.approx(
            n_am * am_rows[0], rel=1e-12
        )
