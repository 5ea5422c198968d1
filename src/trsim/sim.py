"""Deterministic single-cell scenario engine.

A fixed-step run over slots: each slot redraws per-device fading, feeds
the received signal strength to the mode switch, drives RRC events, and
accumulates SINR against the uplink interference of that slot. Exposure
and complexity metrics are finalized at the end of the run. The engine
computes each quantity for every slot and device at once, as an
(n_slots, n) array, and steps along the slot axis only through array
operations: the mode switch is a forward fill. The mode is the one state
kept per device-slot: the RRC state and the uplink activity are the mode's
(MODE_STATES, MODE_UPLINK), and only the RRC log steps the RRC machine.

Modeling choices, at desk scale:
  * Uplink interference is aggregated at the cell center from every AM
    device (the one mode whose RRC state is granted uplink) at its mean
    received power; fading applies to the desired downlink path only.
  * Active-mode devices emit a fixed "always-on" signaling power every
    slot even without uplink demand; data-rate power is emitted in uplink
    slots with demand. TR-mode devices emit nothing and generate no uplink
    demand.
  * Every random quantity derives from the scenario seed through split
    streams (placement, traffic, one fading stream per device), so a run
    is a pure function of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import channel, rrc
from .exposure import (
    ExposureReport,
    ExposureStandard,
    complexity_metric,
    network_exposure,
    power_density,
)
from .frames import (
    SlotKind,
    parse_pattern,
    build_fdd_pair,
    build_tdd_frame,
    make_numerology,
)
from .schema import DISTANCE_M, FREQ_HZ, POWER_W, SNR_DB, check, key, problems
from .trmode import Mode, SwitchConfig, hold_modes, uplink_enabled


# Upper bound on population x n_slots. The engine holds a run's columns in
# memory and peaks at 87-105 B per device-slot (tracemalloc, the benchmark's
# workloads at 10^5 and 10^6 device-slots), so a run at the cap needs about
# 1 GB; a larger one is refused as a configuration error before allocating.
MAX_DEVICE_SLOTS = 10**7


class ConfigError(ValueError):
    """Invalid scenario configuration; carries one message per finding."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class DeviceSpec:
    """Explicit device entry, overriding synthesized placement."""

    device_id: str
    distance_m: float = key("devices", *DISTANCE_M)
    tx_power_w: float = key("devices", 0.0, POWER_W[1])
    freq_hz: float = key("devices", *FREQ_HZ)
    mode: Mode

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario. Each field made with `key` is a config-file key, declared
    here once with its section, type, default and bounds; the parser, the
    emitter and `validate` are derived from these declarations."""

    n_users: int = key("scenario", 1)
    n_tr: int = key("scenario")  # in [0, n_users], checked in validate()
    cell_radius_m: float = key("scenario", *DISTANCE_M)
    bs_tx_power_w: float = key("scenario", *POWER_W)
    ue_tx_power_w: float = key("scenario", *POWER_W)
    freq_hz: float = key("channel", *FREQ_HZ)
    noise_w: float = key("channel", 1e-30, 1e3)
    snr_threshold_db: float = key("channel", *SNR_DB)
    n_slots: int = key("scenario", 1)
    seed: int = key("scenario", 0)
    switch: SwitchConfig
    numerology_mu: int = key("scenario", 0, 4, default=0)
    duplex: str = key("scenario", default="fdd", choices=("fdd", "tdd"))
    tdd_pattern: str = key("scenario", default="DSUUUUUUUU")
    placement: str = key("scenario", default="disk", choices=("disk", "ring"))
    always_on_fraction: float = key("scenario", 0.0, 1.0, default=0.1)
    ul_demand_prob: float = key("scenario", 0.0, 1.0, default=0.5)
    dl_demand_prob: float = key("scenario", 0.0, 1.0, default=0.5)
    observer_distance_m: float = key("scenario", *DISTANCE_M, default=1.0)
    standards: tuple[ExposureStandard, ...] = ()
    devices: tuple[DeviceSpec, ...] = ()

    def validate(self) -> list[str]:
        """Every finding against the field declarations and the rules that
        tie fields together."""
        errors = problems(self)
        if not 0 <= self.n_tr <= self.n_users:
            errors.append(
                f"n_tr ({self.n_tr}) must lie in [0, n_users] (n_users={self.n_users})"
            )
        population = len(self.devices) or self.n_users
        if population * self.n_slots > MAX_DEVICE_SLOTS:
            errors.append(
                f"n_users x n_slots must be <= {MAX_DEVICE_SLOTS} device-slots,"
                f" got {population} x {self.n_slots}"
            )
        if self.duplex == "tdd":
            try:
                parse_pattern(self.tdd_pattern)
            except ValueError as exc:
                errors.append(f"tdd_pattern: {exc}")
        seen_ids: set[str] = set()
        for spec in self.devices:
            if spec.device_id in seen_ids:
                errors.append(f"duplicate device id {spec.device_id!r} in [devices]")
            seen_ids.add(spec.device_id)
        return errors

    def require_valid(self) -> ScenarioConfig:
        """Return self, or raise ConfigError listing every finding of validate()."""
        errors = self.validate()
        if errors:
            raise ConfigError(errors)
        return self


@dataclass
class UserEquipment:
    id: str
    distance_m: float
    tx_power_w: float
    freq_hz: float
    mode: Mode
    rrc_state: rrc.RrcState


# Codes of the columns: the mode column and the mode-transition log index
# MODES, the RRC log's states index RRC_STATES, and its events index
# RRC_EVENTS.
MODES = (Mode.AM, Mode.TR)
# The RRC state each mode holds, indexed like MODES: a device enters
# EnergyEfficient as it enters TR and returns to Connected as it leaves, and
# the engine's other events are self-loops in these two states.
MODE_STATES = (rrc.RrcState.CONNECTED, rrc.RrcState.ENERGY_EFFICIENT)
# Whether a device in each mode, in the state it holds, transmits uplink.
MODE_UPLINK = tuple(uplink_enabled(mode) and rrc.uplink_grant_allowed(state)
                    for mode, state in zip(MODES, MODE_STATES))
RRC_STATES = tuple(rrc.RrcState)
RRC_EVENTS = tuple(rrc.RrcEvent)


def _equal_fields(a, b) -> bool:
    """Field-by-field equality of two dataclasses of one type, numpy array
    fields compared by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@dataclass(frozen=True, eq=False)
class _Log:
    """Columns of one length, one row per logged event; `log[a:b]` slices
    every column."""

    __eq__ = _equal_fields

    def __len__(self) -> int:
        return len(self.slot)

    def __getitem__(self, rows: slice):
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class ModeTransitions(_Log):
    """One row per mode transition, in slot, then device order. `device`
    indexes SimResult.devices and `new` indexes MODES; the mode before is
    the other one, since a transition flips the mode."""

    slot: np.ndarray
    device: np.ndarray
    rss_dbm: np.ndarray
    new: np.ndarray


@dataclass(frozen=True, eq=False)
class RrcEvents(_Log):
    """One row per RRC event, in slot, then device, then event order.
    `device` indexes SimResult.devices, `event` indexes RRC_EVENTS, and `old`
    and `new` index RRC_STATES."""

    slot: np.ndarray
    device: np.ndarray
    event: np.ndarray
    old: np.ndarray
    new: np.ndarray


@dataclass(frozen=True, eq=False)
class SimResult:
    """A run. Each per device-slot column is an (n_slots, n) array: row t is
    slot t and column i is devices[i]. `devices` carry each device's mode and
    RRC state after the last slot."""

    config: ScenarioConfig
    devices: tuple[UserEquipment, ...]
    mode: np.ndarray  # int8, indexes MODES, MODE_STATES and MODE_UPLINK
    fading_gain: np.ndarray
    rss_dbm: np.ndarray
    sinr_db: np.ndarray
    ul_tx_w: np.ndarray
    mode_transitions: ModeTransitions
    rrc_events: RrcEvents
    outage_am: float | None
    outage_tr: float | None
    total_uplink_interference_w: float
    exposure: ExposureReport
    complexity: float

    __eq__ = _equal_fields


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """One split stream of the seed: (0,) placement, (1,) traffic, (2, i)
    fading of device i."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def build_devices(cfg: ScenarioConfig) -> list[UserEquipment]:
    """Materialize the device population: explicit [devices] entries when
    given, otherwise seed-derived placement with the TR cohort assigned to
    the weakest links. Each device starts in the RRC state its mode holds."""
    if cfg.devices:
        rows = [
            (spec.device_id, spec.distance_m, spec.tx_power_w, spec.freq_hz, spec.mode)
            for spec in cfg.devices
        ]
    else:
        if cfg.placement == "ring":
            distances = np.full(cfg.n_users, cfg.cell_radius_m)
        else:
            # uniform over the disk: radius grows with sqrt of the uniform draw
            uniform = _rng(cfg.seed, 0).random(cfg.n_users)
            distances = cfg.cell_radius_m * np.sqrt(uniform)
        # TR cohort = the weakest links (largest distance), ties by device index
        tr_indices = set(np.argsort(-distances, kind="stable")[: cfg.n_tr].tolist())
        width = len(str(cfg.n_users - 1))
        rows = [
            (f"ue-{i:0{width}d}", distance, cfg.ue_tx_power_w, cfg.freq_hz,
             Mode.TR if i in tr_indices else Mode.AM)
            for i, distance in enumerate(distances.tolist())
        ]
    return [UserEquipment(*row, MODE_STATES[MODES.index(row[-1])]) for row in rows]


def _am_uplink_mask(cfg: ScenarioConfig) -> list[bool]:
    """Per slot position within the 10 ms frame: does the AM uplink frame
    (FDD: the uplink carrier; TDD: the one frame) schedule uplink there."""
    num = make_numerology(cfg.numerology_mu)
    if cfg.duplex == "fdd":
        frame = build_fdd_pair(num, tr_active=False)[1]
    else:
        frame = build_tdd_frame(num, cfg.tdd_pattern, tr_active=False)
    return [slot is SlotKind.UPLINK for sf in frame.subframes for slot in sf]


def _each(fn, values: np.ndarray) -> np.ndarray:
    """`fn` applied to each value as a Python float. The dB columns go
    through channel's math.log10: numpy's log10 differs from it in the last
    bit on some inputs, which would change the printed digits."""
    out = np.empty(values.size)
    flat = values.ravel()
    block = 4096  # values held as Python floats at once
    for i in range(0, flat.size, block):
        out[i:i + block] = list(map(fn, flat[i:i + block].tolist()))
    return out.reshape(values.shape)


def _rrc_log(
    in_tr: np.ndarray, switched: np.ndarray, ul_demand: np.ndarray, dl_demand: np.ndarray,
) -> RrcEvents:
    """The log of every RRC event. A device-slot's events, in order: TR enter
    or exit where the mode switched, uplink data pending where it has uplink
    demand in AM (TR gates uplink traffic generation entirely), downlink
    arrival where it has downlink demand.

    An event starts from MODE_STATES of a mode: the TR enter or exit from
    that of the mode before the slot, the others from that of the mode
    after it. That is exact because the switch event leads from the one
    mode's state to the other's and the others are self-loops there, which
    the tests check against a scalar run. `step` is rrc.transition's table."""
    E = rrc.RrcEvent
    # the event of each event column, for a device in AM and in TR
    column_events = np.array([
        [RRC_EVENTS.index(E.TR_MODE_EXIT), RRC_EVENTS.index(E.TR_MODE_ENTER)],
        [RRC_EVENTS.index(E.UPLINK_DATA_PENDING)] * 2,
        [RRC_EVENTS.index(E.DOWNLINK_DATA_ARRIVAL)] * 2,
    ], np.int8)
    step = np.array([
        [RRC_STATES.index(rrc.transition(state, event)) for event in RRC_EVENTS]
        for state in RRC_STATES
    ], dtype=np.int8)
    mode_state = np.array([RRC_STATES.index(s) for s in MODE_STATES], np.int8)
    happened = np.stack([switched, ~in_tr & ul_demand, dl_demand], axis=-1)
    slot, device, column = np.nonzero(happened)
    tr = in_tr[slot, device].view(np.int8)
    event = column_events[column, tr]
    old = mode_state[tr ^ (column == 0)]  # the TR enter or exit flips the mode
    return RrcEvents(
        slot.astype(np.int32), device.astype(np.int32), event, old, step[old, event]
    )


def run_scenario(cfg: ScenarioConfig) -> SimResult:
    """Run the scenario; the result is a pure function of the config.

    Each slot, for every device: draw fading, evaluate the mode switch on
    the downlink received signal strength, log the RRC events that follow
    (TR enter/exit, then pending uplink data, then downlink arrival), then
    charge uplink interference from every device whose mode transmits
    uplink (MODE_UPLINK). Each quantity is computed for all slots and
    devices at once, as an (n_slots, n) array.
    """
    cfg.require_valid()
    devices = build_devices(cfg)
    n, n_slots = len(devices), cfg.n_slots
    # demand flags, indexed [slot, device]; uplink drawn first
    traffic = _rng(cfg.seed, 1)
    ul_demand = traffic.random((n_slots, n)) < cfg.ul_demand_prob
    dl_demand = traffic.random((n_slots, n)) < cfg.dl_demand_prob
    path_loss_lin = np.array([
        channel.db_to_linear(channel.free_space_path_loss(ue.distance_m, ue.freq_hz))
        for ue in devices
    ])
    tx_power_w = np.array([ue.tx_power_w for ue in devices])

    # each device's own stream, drawn for the whole run at once
    gain = np.empty((n_slots, n))
    for i in range(n):
        gain[:, i] = channel.draw_fading_gain(_rng(cfg.seed, 2, i), n_slots)
    rx_w = cfg.bs_tx_power_w / path_loss_lin * gain
    rss_dbm = _each(channel.watts_to_dbm, rx_w)

    start_tr = np.array([ue.mode is Mode.TR for ue in devices])
    in_tr = hold_modes(rss_dbm, cfg.switch, start_tr)
    mode = in_tr.view(np.int8)  # indexes MODES
    switched = in_tr != np.vstack([start_tr, in_tr[:-1]])
    slot, device = np.nonzero(switched)
    mode_transitions = ModeTransitions(
        slot.astype(np.int32), device.astype(np.int32), rss_dbm[slot, device],
        mode[slot, device],
    )
    rrc_events = _rrc_log(in_tr, switched, ul_demand, dl_demand)

    ul_active = np.array(MODE_UPLINK)[mode]
    uplink_slot = np.resize(_am_uplink_mask(cfg), n_slots)[:, None]
    ul_tx_w = np.where(
        ul_active,
        np.where(ul_demand & uplink_slot, tx_power_w, cfg.always_on_fraction * tx_power_w),
        0.0,
    )
    own_w = ul_tx_w / path_loss_lin
    # a running sum in device order: a pairwise sum would reorder the additions
    interference_w = np.cumsum(own_w, axis=1)[:, -1]
    sinr_lin = rx_w / (np.maximum(interference_w[:, None] - own_w, 0.0) + cfg.noise_w)
    in_outage = sinr_lin < channel.db_to_linear(cfg.snr_threshold_db)

    def cohort_outage(members: np.ndarray) -> float | None:
        counted = int(np.count_nonzero(members))
        return int(np.count_nonzero(in_outage & members)) / counted if counted else None

    for ue, final_mode in zip(devices, mode[-1].tolist()):
        ue.mode, ue.rrc_state = MODES[final_mode], MODE_STATES[final_mode]
    report = network_exposure(devices, cfg.standards, cfg.observer_distance_m)
    return SimResult(
        config=cfg,
        devices=tuple(devices),
        mode=mode,
        fading_gain=gain,
        rss_dbm=rss_dbm,
        sinr_db=_each(channel.linear_to_db, sinr_lin),
        ul_tx_w=ul_tx_w,
        mode_transitions=mode_transitions,
        rrc_events=rrc_events,
        outage_am=cohort_outage(~in_tr),
        outage_tr=cohort_outage(in_tr),
        total_uplink_interference_w=float(np.cumsum(interference_w)[-1]),
        exposure=report,
        complexity=complexity_metric(int(np.count_nonzero(ul_active[-1]))),
    )


@dataclass(frozen=True)
class OutagePoint:
    mean_snr_db: float
    outage_am: float
    outage_tr: float


def outage_curve(
    cfg: ScenarioConfig, mean_snr_points_db: Sequence[float]
) -> list[OutagePoint]:
    """Analytic outage versus mean SNR for the full-interference (AM) case
    and the TR-enabled case with its uplink interferers suppressed.

    The victim sees the other devices' uplink at cell-radius distance and
    full data power; fading on the desired path is unit-mean exponential,
    so P(SINR < theta) = 1 - exp(-theta * (I + N) / (mean * N)).
    """
    cfg.require_valid()
    if not mean_snr_points_db:
        raise ValueError("mean_snr_points_db must be non-empty")

    threshold_lin = channel.db_to_linear(cfg.snr_threshold_db)
    per_interferer_w = cfg.ue_tx_power_w / channel.db_to_linear(
        channel.free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz)
    )
    n_full = cfg.n_users - 1
    n_reduced = max(cfg.n_users - cfg.n_tr - 1, 0)
    points = []
    for mean_db in mean_snr_points_db:
        mean_lin = channel.db_to_linear(mean_db)
        curve = []
        for n_interferers in (n_full, n_reduced):
            interference_w = n_interferers * per_interferer_w
            effective_threshold = threshold_lin * (
                (interference_w + cfg.noise_w) / cfg.noise_w
            )
            curve.append(channel.outage_analytic(effective_threshold, mean_lin))
        points.append(OutagePoint(mean_db, curve[0], curve[1]))
    return points


@dataclass(frozen=True)
class GenerationScenario:
    label: str
    n_users: int
    n_tr: int
    tx_power_w: float
    distance_m: float


@dataclass(frozen=True)
class GenerationDensity:
    label: str
    density_am_w_m2: float
    density_tr_w_m2: float


def generation_power_density_series(
    per_generation_configs: Sequence[GenerationScenario],
) -> list[GenerationDensity]:
    """Network power density per generation entry, all-active versus with
    the entry's TR cohort silenced."""
    if not per_generation_configs:
        raise ValueError("per_generation_configs must be non-empty")
    rows = []
    for entry in per_generation_configs:
        if entry.n_users < 1:
            raise ValueError(f"{entry.label}: n_users must be >= 1, got {entry.n_users}")
        if not 0 <= entry.n_tr <= entry.n_users:
            raise ValueError(
                f"{entry.label}: n_tr ({entry.n_tr}) must lie in [0, n_users]"
                f" (n_users={entry.n_users})"
            )
        per_device = power_density(entry.tx_power_w, 1.0, entry.distance_m)
        rows.append(
            GenerationDensity(
                label=entry.label,
                density_am_w_m2=entry.n_users * per_device,
                density_tr_w_m2=(entry.n_users - entry.n_tr) * per_device,
            )
        )
    return rows
