"""Deterministic single-cell scenario engine.

A fixed-step loop over slots: each slot redraws per-device fading, feeds
the received signal strength to the mode switch, drives RRC events, and
accumulates SINR against the uplink interference of that slot. Exposure
and complexity metrics are finalized at the end of the run.

Modeling choices, at desk scale:
  * Uplink interference is aggregated at the cell center from every
    grant-allowed, uplink-enabled transmitter at its mean received power;
    fading applies to the desired downlink path only.
  * Active-mode devices emit a fixed "always-on" signaling power every
    slot even without uplink demand; data-rate power is emitted in uplink
    slots with demand. TR-mode devices emit nothing and generate no uplink
    demand.
  * Every random quantity derives from the scenario seed through split
    streams (placement, traffic, one fading stream per device), so a run
    is a pure function of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    RadioFrame,
    SlotKind,
    parse_pattern,
    build_fdd_pair,
    build_tdd_frame,
    make_numerology,
)
from .schema import DISTANCE_M, FREQ_HZ, POWER_W, SNR_DB, check, key, problems
from .trmode import Mode, SwitchConfig, evaluate_switch, uplink_enabled


# Upper bound on population x n_slots. The engine keeps every sample of a
# run in memory, about 0.5 kB per device-slot, so a run at the cap needs
# about 5 GB; a larger one is refused as a configuration error before
# anything is allocated.
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
    dl_demand: tuple[bool, ...]
    ul_demand: tuple[bool, ...]


@dataclass(frozen=True)
class SlotSample:
    slot: int
    device_id: str
    mode: Mode
    rrc_state: rrc.RrcState
    fading_gain: float
    rss_dbm: float
    sinr_db: float
    ul_active: bool
    ul_tx_w: float


@dataclass(frozen=True)
class ModeTransition:
    slot: int
    device_id: str
    old_mode: Mode
    new_mode: Mode
    rss_dbm: float


@dataclass(frozen=True)
class RrcLogEntry:
    slot: int
    device_id: str
    event: rrc.RrcEvent
    old_state: rrc.RrcState
    new_state: rrc.RrcState


@dataclass(frozen=True)
class SimResult:
    config: ScenarioConfig
    devices: tuple[UserEquipment, ...]
    samples: tuple[SlotSample, ...]
    outage_am: float | None
    outage_tr: float | None
    total_uplink_interference_w: float
    exposure: ExposureReport
    complexity: float
    mode_transitions: tuple[ModeTransition, ...]
    rrc_events: tuple[RrcLogEntry, ...]


def _placement_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 0]))


def _traffic_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


def _fading_rng(seed: int, device_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 2, device_index]))


def build_devices(cfg: ScenarioConfig) -> list[UserEquipment]:
    """Materialize the device population: explicit [devices] entries when
    given, otherwise seed-derived placement with the TR cohort assigned to
    the weakest links."""
    n_slots = cfg.n_slots
    traffic = _traffic_rng(cfg.seed)
    if cfg.devices:
        specs = cfg.devices
        ul = traffic.random((n_slots, len(specs))) < cfg.ul_demand_prob
        dl = traffic.random((n_slots, len(specs))) < cfg.dl_demand_prob
        return [
            UserEquipment(
                id=spec.device_id,
                distance_m=spec.distance_m,
                tx_power_w=spec.tx_power_w,
                freq_hz=spec.freq_hz,
                mode=spec.mode,
                rrc_state=rrc.RrcState.ENERGY_EFFICIENT
                if spec.mode is Mode.TR
                else rrc.RrcState.CONNECTED,
                dl_demand=tuple(bool(v) for v in dl[:, i]),
                ul_demand=tuple(bool(v) for v in ul[:, i]),
            )
            for i, spec in enumerate(specs)
        ]

    place = _placement_rng(cfg.seed)
    if cfg.placement == "ring":
        distances = np.full(cfg.n_users, cfg.cell_radius_m)
    else:
        # uniform over the disk: radius grows with sqrt of the uniform draw
        distances = cfg.cell_radius_m * np.sqrt(place.random(cfg.n_users))
    ul = traffic.random((n_slots, cfg.n_users)) < cfg.ul_demand_prob
    dl = traffic.random((n_slots, cfg.n_users)) < cfg.dl_demand_prob
    # TR cohort = the weakest links (largest distance), ties by device index
    tr_indices = set(np.argsort(-distances, kind="stable")[: cfg.n_tr].tolist())
    width = len(str(cfg.n_users - 1))
    devices = []
    for i in range(cfg.n_users):
        in_tr = i in tr_indices
        devices.append(
            UserEquipment(
                id=f"ue-{i:0{width}d}",
                distance_m=float(distances[i]),
                tx_power_w=cfg.ue_tx_power_w,
                freq_hz=cfg.freq_hz,
                mode=Mode.TR if in_tr else Mode.AM,
                rrc_state=rrc.RrcState.ENERGY_EFFICIENT
                if in_tr
                else rrc.RrcState.CONNECTED,
                dl_demand=tuple(bool(v) for v in dl[:, i]),
                ul_demand=tuple(bool(v) for v in ul[:, i]),
            )
        )
    return devices


def frame_contexts(cfg: ScenarioConfig) -> dict[Mode, tuple[RadioFrame, ...]]:
    """Frame variants per device mode: (DL, UL) pair for FDD, one frame for TDD."""
    num = make_numerology(cfg.numerology_mu)
    if cfg.duplex == "fdd":
        return {
            Mode.AM: build_fdd_pair(num, tr_active=False),
            Mode.TR: build_fdd_pair(num, tr_active=True),
        }
    return {
        Mode.AM: (build_tdd_frame(num, cfg.tdd_pattern, tr_active=False),),
        Mode.TR: (build_tdd_frame(num, cfg.tdd_pattern, tr_active=True),),
    }


def _uplink_slot_mask(frames: tuple[RadioFrame, ...], slots_per_subframe: int) -> list[bool]:
    """Per slot position within the 10 ms frame: is uplink transmission scheduled."""
    ul_frame = frames[-1]  # FDD: (dl, ul); TDD: (frame,)
    mask = []
    for sf in ul_frame.subframes:
        for slot in sf:
            mask.append(slot is SlotKind.UPLINK)
    assert len(mask) == 10 * slots_per_subframe
    return mask


def run_scenario(cfg: ScenarioConfig) -> SimResult:
    """Run the scenario; the result is a pure function of the config.

    Per slot and device, in device order: draw fading, evaluate the mode
    switch on the downlink received signal strength, drive the RRC events
    that follow (TR enter/exit, then pending uplink data, then downlink
    arrival), then charge uplink interference from every transmitter that
    is both uplink-enabled and grant-allowed.
    """
    cfg.require_valid()
    devices = build_devices(cfg)
    n = len(devices)
    num = make_numerology(cfg.numerology_mu)
    contexts = frame_contexts(cfg)
    am_ul_mask = _uplink_slot_mask(contexts[Mode.AM], num.slots_per_subframe)
    positions_per_frame = len(am_ul_mask)

    fading_rngs = [_fading_rng(cfg.seed, i) for i in range(n)]
    path_loss_lin = [
        channel.db_to_linear(channel.free_space_path_loss(ue.distance_m, ue.freq_hz))
        for ue in devices
    ]

    samples: list[SlotSample] = []
    mode_transitions: list[ModeTransition] = []
    rrc_events: list[RrcLogEntry] = []
    threshold_lin = channel.db_to_linear(cfg.snr_threshold_db)
    outage_counts = {Mode.AM: [0, 0], Mode.TR: [0, 0]}  # [below, total]
    total_interference = 0.0
    last_slot_active = 0

    def drive(slot: int, ue: UserEquipment, event: rrc.RrcEvent) -> None:
        old = ue.rrc_state
        ue.rrc_state = rrc.transition(old, event)
        rrc_events.append(RrcLogEntry(slot, ue.id, event, old, ue.rrc_state))

    for t in range(cfg.n_slots):
        pos = t % positions_per_frame
        gains = []
        signals = []
        contribs = []
        for i, ue in enumerate(devices):
            gain = channel.draw_fading_gain(fading_rngs[i])
            inst_rx_w = cfg.bs_tx_power_w / path_loss_lin[i] * gain
            rss_dbm = channel.watts_to_dbm(inst_rx_w)
            new_mode = evaluate_switch(rss_dbm, cfg.switch, ue.mode)
            if new_mode is not ue.mode:
                mode_transitions.append(
                    ModeTransition(t, ue.id, ue.mode, new_mode, rss_dbm)
                )
                ue.mode = new_mode
                drive(
                    t,
                    ue,
                    rrc.RrcEvent.TR_MODE_ENTER
                    if new_mode is Mode.TR
                    else rrc.RrcEvent.TR_MODE_EXIT,
                )
            # TR gates uplink traffic generation entirely
            if ue.mode is Mode.AM and ue.ul_demand[t]:
                drive(t, ue, rrc.RrcEvent.UPLINK_DATA_PENDING)
            if ue.dl_demand[t]:
                drive(t, ue, rrc.RrcEvent.DOWNLINK_DATA_ARRIVAL)

            ul_active = uplink_enabled(ue.mode) and rrc.uplink_grant_allowed(ue.rrc_state)
            if ul_active:
                if ue.ul_demand[t] and am_ul_mask[pos]:
                    ul_tx_w = ue.tx_power_w
                else:
                    ul_tx_w = cfg.always_on_fraction * ue.tx_power_w
            else:
                ul_tx_w = 0.0
            gains.append(gain)
            signals.append((inst_rx_w, rss_dbm, ul_active, ul_tx_w))
            contribs.append(ul_tx_w / path_loss_lin[i])

        interference_w = sum(contribs)
        total_interference += interference_w
        last_slot_active = sum(1 for (_, _, active, _) in signals if active)
        for i, ue in enumerate(devices):
            inst_rx_w, rss_dbm, ul_active, ul_tx_w = signals[i]
            other_w = max(interference_w - contribs[i], 0.0)
            sinr_db = channel.sinr(inst_rx_w, [other_w], cfg.noise_w)
            below, total = outage_counts[ue.mode]
            outage_counts[ue.mode] = [
                below + (1 if inst_rx_w / (other_w + cfg.noise_w) < threshold_lin else 0),
                total + 1,
            ]
            samples.append(
                SlotSample(
                    slot=t,
                    device_id=ue.id,
                    mode=ue.mode,
                    rrc_state=ue.rrc_state,
                    fading_gain=gains[i],
                    rss_dbm=rss_dbm,
                    sinr_db=sinr_db,
                    ul_active=ul_active,
                    ul_tx_w=ul_tx_w,
                )
            )

    def cohort_outage(mode: Mode) -> float | None:
        below, total = outage_counts[mode]
        return below / total if total else None

    report = network_exposure(devices, cfg.standards, cfg.observer_distance_m)
    return SimResult(
        config=cfg,
        devices=tuple(devices),
        samples=tuple(samples),
        outage_am=cohort_outage(Mode.AM),
        outage_tr=cohort_outage(Mode.TR),
        total_uplink_interference_w=total_interference,
        exposure=report,
        complexity=complexity_metric(last_slot_active),
        mode_transitions=tuple(mode_transitions),
        rrc_events=tuple(rrc_events),
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
