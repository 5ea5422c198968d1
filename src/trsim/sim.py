"""Deterministic single-cell scenario engine.

A fixed-step run over slots: each slot redraws per-device fading, feeds
the received signal strength to the mode switch, drives RRC events, and
accumulates SINR against the uplink interference of that slot. Exposure
and complexity metrics are finalized at the end of the run. The engine
(iter_run) computes a chunk of slots at a time, each quantity for every
slot and device of the chunk at once, as a (slots, n) array, and steps
along the slot axis only through array operations: the mode switch is a
forward fill. A chunk hands on only the last slot's modes, the open
random streams and running totals, so a run's memory does not grow with
n_slots. The mode is the one state kept per device-slot: the RRC state and
the uplink activity are the mode's (MODE_STATES, MODE_UPLINK), and so are
the states of the RRC log.

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
    is a pure function of its configuration. The streams are numpy's, as
    computed by trsim.streams.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, fields
from typing import ClassVar, Iterator, Sequence

import numpy as np

from . import channel, rrc
from .exposure import (
    ExposureReport,
    ExposureStandard,
    complexity_metric,
    network_exposure,
)
from .frames import (
    SlotKind,
    parse_pattern,
    build_fdd_pair,
    build_tdd_frame,
    make_numerology,
)
from .schema import DISTANCE_M, FREQ_HZ, MU, POWER_W, SNR_DB, Columns, ConfigError, check, key
from .streams import Streams
from .trmode import Mode, hold_modes, uplink_enabled


# Upper bound on a run's population x n_slots, refused by iter_run as a
# configuration error before any work. A run holds one chunk of slots
# (ENGINE_ROWS), two bits per device-slot and its mode-transition log. On a
# 2-CPU x86 host `trsim run` peaked at 33.1-34.0 MiB RSS on the 10^5
# device-slot benchmark workloads, compiling trsim from source as the
# benchmark does (about 0.5 MiB less byte-compiled), and at the cap at 37 MiB
# on a 1000-device ring (CSV) and 51 MiB on a switching disk (JSON-lines),
# taking 16-21 s and writing 2.2 to 3.8 GB. Memory grows by about 165 B per
# device: a ring of 2x10^5 devices x 1 slot peaked at 63 MiB and one of 10^6
# at 188 MiB in either format (1.9 s of CPU as CSV). One of 10^7 peaked at
# 2.0 GiB (CSV, 29 s of CPU) while each synthesized id was a str.
MAX_DEVICE_SLOTS = 10**7

# Device-slots per engine chunk: iter_run computes ceil(ENGINE_ROWS / n)
# slots at a time, one slot of a wider population.
ENGINE_ROWS = 16384

# Fading is drawn for at least this many slots at a time, and buffered for
# the chunks that follow, so that a population wider than ENGINE_ROWS does
# not draw once per slot.
FADING_ROWS = 16


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


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """A scenario. Each field made with `key` is a config-file key, declared
    here once with its section, type, default and bounds, in the order the
    emitter writes it; the parser, the emitter and the check on construction
    are derived from these declarations. Building one raises ConfigError
    listing every finding."""

    n_users: int = key("scenario", 1, MAX_DEVICE_SLOTS)  # no run holds more
    n_tr: int = key("scenario")  # in [0, n_users], checked in __post_init__
    cell_radius_m: float = key("scenario", *DISTANCE_M)
    bs_tx_power_w: float = key("scenario", *POWER_W)
    ue_tx_power_w: float = key("scenario", *POWER_W)
    freq_hz: float = key("channel", *FREQ_HZ)
    noise_w: float = key("channel", 1e-30, 1e3)
    snr_threshold_db: float = key("channel", *SNR_DB)
    n_slots: int = key("scenario", 1)
    seed: int = key("scenario", 0)
    numerology_mu: int = key("scenario", *MU, default=0)
    duplex: str = key("scenario", default="fdd", choices=("fdd", "tdd"))
    tdd_pattern: str = key("scenario", default="DSUUUUUUUU")
    placement: str = key("scenario", default="disk", choices=("disk", "ring"))
    always_on_fraction: float = key("scenario", 0.0, 1.0, default=0.1)
    ul_demand_prob: float = key("scenario", 0.0, 1.0, default=0.5)
    dl_demand_prob: float = key("scenario", 0.0, 1.0, default=0.5)
    observer_distance_m: float = key("scenario", *DISTANCE_M, default=1.0)
    rss_threshold_dbm: float = key("switching", -500.0, 500.0)
    hysteresis_db: float = key("switching", 0.0, 1000.0, default=3.0)
    standards: tuple[ExposureStandard, ...] = ()
    devices: tuple[DeviceSpec, ...] = ()

    def __post_init__(self) -> None:
        """Check the field declarations, then the rules that tie fields
        together."""
        errors = []
        if not 0 <= self.n_tr <= self.n_users:
            errors.append(
                f"n_tr ({self.n_tr}) must lie in [0, n_users] (n_users={self.n_users})"
            )
        try:
            parse_pattern(self.tdd_pattern)  # checked whatever the duplex
        except ValueError as exc:
            errors.append(f"tdd_pattern: {exc}")
        seen_ids: set[str] = set()
        for spec in self.devices:
            if spec.device_id in seen_ids:
                errors.append(f"duplicate device id {spec.device_id!r} in [devices]")
            seen_ids.add(spec.device_id)
        check(self, *errors)


# Codes of the columns: the mode column, the mode-transition log and the
# RRC log's states index MODES, and the RRC log's events index RRC_EVENTS.
MODES = (Mode.AM, Mode.TR)
# The RRC state each mode holds, indexed like MODES: a device enters
# EnergyEfficient as it enters TR and returns to Connected as it leaves, and
# the engine's other events are self-loops in these two states.
MODE_STATES = (rrc.RrcState.CONNECTED, rrc.RrcState.ENERGY_EFFICIENT)
# Whether a device in each mode, in the state it holds, transmits uplink.
MODE_UPLINK = tuple(uplink_enabled(mode) and rrc.uplink_grant_allowed(state)
                    for mode, state in zip(MODES, MODE_STATES))
RRC_EVENTS = tuple(rrc.RrcEvent)
# The event of each of the RRC log's event columns for a device in AM and in TR.
_COLUMN_EVENTS = np.array([[RRC_EVENTS.index(e) for e in pair] for pair in (
    (rrc.RrcEvent.TR_MODE_EXIT, rrc.RrcEvent.TR_MODE_ENTER),
    (rrc.RrcEvent.UPLINK_DATA_PENDING,) * 2,
    (rrc.RrcEvent.DOWNLINK_DATA_ARRIVAL,) * 2,
)], np.int8)
_MODE_UPLINK = np.array(MODE_UPLINK)


@dataclass(frozen=True, eq=False)
class SynthesizedIds(Sequence[str]):
    """The ids of n synthesized devices, held as n alone, not as n strs: row
    i's id is PREFIX, then i in `width` digits with leading zeros (ue-0 to
    ue-9 for 10 devices, ue-00 to ue-99 for 100). No such id needs an
    escape in either output format. It equals the tuple of its ids."""

    PREFIX: ClassVar[str] = "ue-"
    n: int

    @property
    def width(self) -> int:
        return len(str(self.n - 1))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> str:
        return f"{self.PREFIX}{range(self.n)[i]:0{self.width}d}"

    def __eq__(self, other) -> bool:
        if isinstance(other, SynthesizedIds):
            return self.n == other.n
        return isinstance(other, tuple) and len(other) == self.n and tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True, eq=False)
class Devices(Columns):
    """The device population as read-only columns, one row per device,
    named after the fields of DeviceSpec. `device_id` holds the [devices]
    ids as a tuple of str, or is SynthesizedIds. `mode` is each device's
    starting mode; a run's modes after a slot are in its Samples. `uplink_levels_w`
    is the one table of each device's three uplink levels, the rows of a
    (3, n) array that Samples.ul_level indexes: silent (+0.0), always-on
    (always_on_fraction x tx_power_w) and data (tx_power_w, which is this
    row)."""

    device_id: tuple[str, ...] | SynthesizedIds
    distance_m: np.ndarray
    tx_power_w: np.ndarray
    freq_hz: np.ndarray
    mode: np.ndarray  # int8, indexes MODES
    always_on_fraction: InitVar[float]
    uplink_levels_w: np.ndarray = field(init=False)

    def __post_init__(self, always_on_fraction: float) -> None:
        power = self.tx_power_w
        levels = np.stack([np.zeros_like(power), always_on_fraction * power, power])
        object.__setattr__(self, "uplink_levels_w", levels)
        object.__setattr__(self, "tx_power_w", levels[2])  # one copy of the powers
        super().__post_init__()

    def emitted_w(self, mode: np.ndarray) -> np.ndarray:
        """What each device emits for the exposure, in modes `mode` (indexes
        MODES): its tx_power_w where the mode transmits uplink (MODE_UPLINK),
        else +0.0. The always-on level is not counted."""
        return np.where(_MODE_UPLINK[mode], self.tx_power_w, 0.0)


@dataclass(frozen=True, eq=False)
class ModeTransitions(Columns):
    """One row per mode transition, in slot, then device order. `device`
    indexes the rows of Devices and `new` indexes MODES; the mode before is
    the other one, since a transition flips the mode."""

    slot: np.ndarray
    device: np.ndarray
    rss_dbm: np.ndarray
    new: np.ndarray


@dataclass(frozen=True, eq=False)
class RrcEvents(Columns):
    """One row per RRC event, in slot, then device, then event order.
    `device` indexes the rows of Devices, `event` indexes RRC_EVENTS, and `old`
    and `new` index MODES: each is the state its mode holds (MODE_STATES)."""

    slot: np.ndarray
    device: np.ndarray
    event: np.ndarray
    old: np.ndarray
    new: np.ndarray


@dataclass(frozen=True, eq=False)
class Samples(Columns):
    """The per-device-slot columns of a chunk of consecutive slots, each a
    (slots, n) array: row t is the chunk's slot t and column i is row i
    of Devices."""

    mode: np.ndarray  # int8, indexes MODES, MODE_STATES and MODE_UPLINK
    fading_gain: np.ndarray
    rss_dbm: np.ndarray
    sinr_db: np.ndarray
    ul_level: np.ndarray  # int8: 0 silent, 1 always-on, 2 data (Devices.uplink_levels_w)


@dataclass(frozen=True, eq=False)
class RunTotals(Columns):
    """What a run finalizes after its last slot."""

    outage_am: float | None
    outage_tr: float | None
    total_uplink_interference_w: float
    exposure: ExposureReport
    complexity: float


@dataclass(frozen=True, eq=False)
class SimResult(RunTotals, Samples):
    """A whole run, collected from iter_run's stream: the Samples of all its
    slots, each column an (n_slots, n) array, and its RunTotals, with the
    config, the devices as built and the two logs. The modes after the last
    slot are mode[-1]."""

    config: ScenarioConfig
    devices: Devices
    mode_transitions: ModeTransitions
    rrc_events: RrcEvents

    @property
    def ul_tx_w(self) -> np.ndarray:
        """Each device-slot's emitted uplink power, in W: the row of
        Devices.uplink_levels_w that its ul_level names."""
        return np.take_along_axis(self.devices.uplink_levels_w, self.ul_level, 0)


def build_devices(cfg: ScenarioConfig) -> Devices:
    """Materialize the device population: explicit [devices] entries when
    given, otherwise seed-derived placement with the TR cohort assigned to
    the weakest links."""
    if cfg.devices:
        ids, distances, tx_power, freq, modes = (
            tuple(getattr(s, f.name) for s in cfg.devices) for f in fields(DeviceSpec)
        )
        return Devices(ids, np.array(distances), np.array(tx_power), np.array(freq),
                       np.array([MODES.index(m) for m in modes], np.int8),
                       cfg.always_on_fraction)
    n = cfg.n_users
    if cfg.placement == "ring":
        distances = np.full(n, cfg.cell_radius_m)
    else:
        # uniform over the disk: radius grows with sqrt of the uniform draw
        distances = cfg.cell_radius_m * np.sqrt(Streams(cfg.seed, 0).random(n)[:, 0])
    mode = np.full(n, MODES.index(Mode.AM), np.int8)
    # TR cohort = the weakest links (largest distance), ties by device index
    mode[np.argsort(-distances, kind="stable")[: cfg.n_tr]] = MODES.index(Mode.TR)
    return Devices(SynthesizedIds(n), distances, np.full(n, cfg.ue_tx_power_w),
                   np.full(n, cfg.freq_hz), mode, cfg.always_on_fraction)


def _am_uplink_mask(cfg: ScenarioConfig) -> list[bool]:
    """Per slot position within the 10 ms frame: does the AM uplink frame
    (FDD: the uplink carrier; TDD: the one frame) schedule uplink there."""
    num = make_numerology(cfg.numerology_mu)
    if cfg.duplex == "fdd":
        frame = build_fdd_pair(num, tr_active=False)[1]
    else:
        frame = build_tdd_frame(num, cfg.tdd_pattern, tr_active=False)
    return [slot is SlotKind.UPLINK for sf in frame.subframes for slot in sf]


def _db(values: np.ndarray) -> np.ndarray:
    """10 log10 of each value, -inf where it is 0: `db` of tests/reference.py
    of each, bit for bit. The logarithms are math.log10's, one call per nonzero
    value: numpy's log10 differs from it in the last bit on some inputs,
    which would change the printed digits."""
    flat = values.ravel()
    nonzero = flat != 0
    logs = np.full(flat.size, -np.inf)
    # a memoryview hands the values to log10 as Python floats, one at a time
    logs[nonzero] = np.fromiter(map(math.log10, memoryview(flat[nonzero])), float,
                                np.count_nonzero(nonzero))
    logs *= 10.0
    return logs.reshape(values.shape)


def _rrc_log(t0: int, packed: np.ndarray, switches: ModeTransitions,
             dl_demand: np.ndarray) -> RrcEvents:
    """The log of every RRC event of the given slots, the first of which is
    the run's slot t0: `packed` holds each device-slot's mode (in TR or not)
    and uplink demand, a bit each (np.packbits of the two (slots, n) arrays),
    and `dl_demand` its downlink demand. A device-slot's events, in order:
    TR enter or exit where the mode switched (the chunk's ModeTransitions,
    `switches`), uplink data pending where it has uplink demand in AM (TR
    gates uplink traffic generation entirely), downlink arrival where it has
    downlink demand.

    Every event leads to MODE_STATES of the mode after the slot. It starts
    from that of the mode before the slot if it is the TR enter or exit,
    and from that of the mode after it otherwise. That is exact:
    TestModeStates steps rrc.transition through all 16 slot cases, in each
    of which some event is the last, and TestScalarReference checks the log
    row by row against rrc.transition."""
    shape = (2, *dl_demand.shape)
    in_tr, ul_demand = np.unpackbits(packed, count=math.prod(shape)).view(bool).reshape(shape)
    happened = np.stack([np.zeros_like(in_tr), ~in_tr & ul_demand, dl_demand], axis=-1)
    happened[switches.slot - t0, switches.device, 0] = True
    # one index per event, split into slot, device and column as int32
    # (happened has at most 3 MAX_DEVICE_SLOTS cells)
    cell, column = np.divmod(np.flatnonzero(happened).astype(np.int32), 3)
    del happened
    slot, device = np.divmod(cell, shape[2])
    del cell
    tr = in_tr[slot, device].view(np.int8)
    slot += t0
    return RrcEvents(
        slot, device, _COLUMN_EVENTS[column, tr],
        tr ^ (column == 0), tr,  # the TR enter or exit flips the mode
    )


def _demand(traffic: Streams, slots: int, n: int, prob: float) -> np.ndarray:
    """The next slots x n demand flags of the traffic stream, one draw each,
    [slot, device] in row-major order: random() < prob. The stream's first
    n_slots x n draws are the uplink's, and the rest the downlink's. A prob
    of 0 or 1 decides every flag, since random() lies in [0, 1): the stream
    skips its draws."""
    if prob in (0.0, 1.0):
        traffic.skip(slots * n)
        return np.full((slots, n), prob == 1.0)
    return traffic.random(slots * n).reshape(slots, n) < prob


def _path_loss_lin(distance_m: np.ndarray, freq_hz: np.ndarray) -> np.ndarray:
    """Each device's free-space path loss as a linear ratio, computed once
    per distinct (distance_m, freq_hz) pair: a stable sort puts equal pairs
    side by side (np.unique's first call adds 0.9-1.6 MiB of RSS)."""
    order = np.lexsort((freq_hz, distance_m))
    distance_m, freq_hz = distance_m[order], freq_hz[order]
    first = np.r_[True, (distance_m[1:] != distance_m[:-1]) | (freq_hz[1:] != freq_hz[:-1])]
    pairs = np.flatnonzero(first)

    def loss(d: float, f: float) -> float:
        return channel.db_to_linear(channel.free_space_path_loss(d, f))

    # a memoryview hands the values to the scalar functions as Python floats
    values = np.fromiter(
        map(loss, memoryview(distance_m[pairs]), memoryview(freq_hz[pairs])), float, len(pairs)
    )
    path_loss_lin = np.empty(len(order))
    path_loss_lin[order] = values[np.cumsum(first) - 1]
    return path_loss_lin


def _slot_loop(cfg: ScenarioConfig, devices: Devices, traffic: Streams) -> Iterator:
    """The Samples of each chunk of ceil(ENGINE_ROWS / n) slots, in order.
    It returns what the RRC log and the totals need: each chunk's first and
    end slot, ModeTransitions, and modes and uplink demand packed a bit
    each; the device-slots in outage and in all, per mode; the running
    interference total; and whether each device is in TR after the last
    slot. `step`
    computes a chunk, and its frame ends before the chunk's Samples are
    handed on; the fading streams end with their last draw."""
    n, n_slots = len(devices.device_id), cfg.n_slots
    slots = -(-ENGINE_ROWS // n)  # per chunk
    path_loss_lin = _path_loss_lin(devices.distance_m, devices.freq_hz)
    uplink_frame = np.array(_am_uplink_mask(cfg))
    outage_lin = channel.db_to_linear(cfg.snr_threshold_db)
    fading = Streams(cfg.seed, 2, np.arange(n))  # device i's stream is (seed, 2, i)
    fading_rows = slots * -(-FADING_ROWS // slots)  # whole chunks
    buffered = np.empty((0, n))
    before = devices.mode == MODES.index(Mode.TR)
    kept = []  # (t0, t1, ModeTransitions, packed bits) of each chunk
    outages, members = [0, 0], [0, 0]  # device-slots in outage and in all, per mode
    interference_total = 0.0

    def step(t0: int, t1: int, gain: np.ndarray) -> Samples:
        nonlocal before, interference_total
        ul_demand = _demand(traffic, t1 - t0, n, cfg.ul_demand_prob)
        rx_w = cfg.bs_tx_power_w / path_loss_lin * gain
        rss_dbm = _db(rx_w)
        rss_dbm += 30.0  # watts to dBm

        in_tr = hold_modes(rss_dbm, cfg.rss_threshold_dbm, cfg.hysteresis_db, before)
        mode = in_tr.view(np.int8)  # indexes MODES
        slot, device = np.nonzero(in_tr != np.vstack([before, in_tr[:-1]]))
        switches = ModeTransitions(
            (slot + t0).astype(np.int32), device.astype(np.int32), rss_dbm[slot, device],
            mode[slot, device],
        )
        kept.append((t0, t1, switches, np.packbits([in_tr, ul_demand])))
        before = in_tr[-1].copy()

        ul_active = _MODE_UPLINK[mode]
        uplink_slot = uplink_frame[np.arange(t0, t1) % len(uplink_frame), None]
        ul_level = ul_active.view(np.int8) + (ul_active & ul_demand & uplink_slot)
        own_w = np.take_along_axis(devices.uplink_levels_w, ul_level, 0)
        own_w /= path_loss_lin
        # a running sum in device order: a pairwise sum would reorder the additions
        interference_w = np.cumsum(own_w, axis=1)[:, -1]
        sinr_lin = rx_w / (np.maximum(interference_w[:, None] - own_w, 0.0) + cfg.noise_w)
        in_outage = sinr_lin < outage_lin
        for m, cohort in enumerate((~in_tr, in_tr)):
            outages[m] += int(np.count_nonzero(in_outage & cohort))
            members[m] += int(np.count_nonzero(cohort))
        # the total so far is the running sum's first term, as if not chunked
        interference_total = float(np.cumsum(np.r_[interference_total, interference_w])[-1])
        return Samples(mode, gain, rss_dbm, _db(sinr_lin), ul_level)

    for t0 in range(0, n_slots, slots):
        t1 = min(t0 + slots, n_slots)
        if not len(buffered):
            buffered = fading.exponential(min(fading_rows, n_slots - t0))
            if t0 + fading_rows >= n_slots:
                fading = None  # drawn to the end: the streams are let go
        gain, buffered = buffered[:t1 - t0], buffered[t1 - t0:]
        yield step(t0, t1, gain)
    return kept, outages, members, interference_total, before


def iter_run(cfg: ScenarioConfig) -> Iterator:
    """Run the scenario as a stream, in the order of its records: first the
    Devices, once the run's size (MAX_DEVICE_SLOTS) and every device's band
    are checked (the config checked itself when it was built); then the
    Samples of each chunk of ceil(ENGINE_ROWS / n) slots; then the
    ModeTransitions of each chunk; then its RrcEvents, their `slot` counted
    from the run's start; last the RunTotals. The Devices are not changed:
    the modes after the last slot are the last Samples' mode[-1]. Every
    record's arrays are read-only (schema.Columns), so the run is a pure
    function of the config whatever its consumer does with them.

    Each slot, for every device: draw fading, evaluate the mode switch on
    the downlink received signal strength, log the RRC events that follow
    (TR enter/exit, then pending uplink data, then downlink arrival), then
    charge uplink interference from every device whose mode transmits
    uplink (MODE_UPLINK). A chunk hands on the fading streams and the fading
    drawn ahead (FADING_ROWS), the traffic stream, the last slot's modes and
    the running totals. The RRC log is rebuilt after the last sample from the
    modes and the uplink demand, kept as a bit each per device-slot, the kept
    ModeTransitions and the downlink demand, drawn then: the one traffic
    stream goes on where the slot loop's uplink draws stopped. Each record
    is built in a frame that ends before it is handed on, and the totals
    after the RRC log, so that a run holds little beyond the record its
    consumer holds.
    """
    population = len(cfg.devices) or cfg.n_users
    if population * cfg.n_slots > MAX_DEVICE_SLOTS:
        raise ConfigError([
            f"n_users x n_slots must be <= {MAX_DEVICE_SLOTS} device-slots,"
            f" got {population} x {cfg.n_slots}"
        ])
    devices = build_devices(cfg)
    # an unmapped band fails here, before any record is out
    for freq in set(devices.freq_hz.tolist()):
        for std in cfg.standards:
            std.band_for(freq)
    yield devices
    traffic = Streams(cfg.seed, 1)
    kept, outages, members, interference_total, in_tr = yield from _slot_loop(
        cfg, devices, traffic
    )
    yield from (switches for _, _, switches, _ in kept)
    n = len(devices.device_id)
    for t0, t1, switches, packed in kept:
        yield _rrc_log(t0, packed, switches, _demand(traffic, t1 - t0, n, cfg.dl_demand_prob))
    mode = in_tr.view(np.int8)  # after the last slot
    yield RunTotals(
        *(outages[m] / members[m] if members[m] else None for m in (0, 1)),
        interference_total,
        network_exposure(devices.freq_hz, devices.emitted_w(mode), cfg.standards,
                         cfg.observer_distance_m),
        complexity_metric(int(np.count_nonzero(_MODE_UPLINK[mode]))),
    )


def run_scenario(cfg: ScenarioConfig) -> SimResult:
    """The whole run of iter_run(cfg), its chunks joined end to end."""
    run = iter_run(cfg)
    devices = next(run)
    *parts, totals = run

    def joined(kind) -> dict:
        """The columns of the parts of `kind`, each joined end to end."""
        return {
            f.name: np.concatenate([getattr(p, f.name) for p in parts if type(p) is kind])
            for f in fields(kind)
        }

    return SimResult(
        config=cfg,
        devices=devices,
        **joined(Samples),
        mode_transitions=ModeTransitions(**joined(ModeTransitions)),
        rrc_events=RrcEvents(**joined(RrcEvents)),
        **vars(totals),
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
