"""Far-field EM exposure metrics and the interference-complexity measure.

Power density follows spherical spreading, S = P * G / (4 pi d^2); the
plane-wave relation E = sqrt(S * eta0) links it to the electric field.
The Exposure Ratio (ER) divides a device's E-field by a standard's
reference level for the band in use; ER <= 1 means within limits.
Reference levels are configuration inputs, never hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .schema import FREQ_HZ, check, key
from .trmode import uplink_enabled

FREE_SPACE_IMPEDANCE_OHM = 376.73


class UnmappedBandError(ValueError):
    """Raised when a frequency falls outside every band of a standard."""


@dataclass(frozen=True)
class FrequencyBand:
    low_hz: float = key("standards", *FREQ_HZ)
    high_hz: float = key("standards", *FREQ_HZ)
    e_ref_v_per_m: float = key("standards", 1e-6, 1e9)
    note: str = ""

    def __post_init__(self) -> None:
        check(self)
        if self.high_hz <= self.low_hz:
            raise ValueError(
                f"band edges must satisfy low < high, got [{self.low_hz}, {self.high_hz})"
            )


@dataclass(frozen=True)
class ExposureStandard:
    """A named exposure guideline: sorted, non-overlapping bands, each with
    a reference-level E-field. Bands are half-open [low, high)."""

    name: str
    bands: tuple[FrequencyBand, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("standard name must be non-empty")
        ordered = tuple(sorted(self.bands, key=lambda b: b.low_hz))
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.low_hz < prev.high_hz:
                raise ValueError(
                    f"standard {self.name!r}: bands"
                    f" [{prev.low_hz}, {prev.high_hz}) and"
                    f" [{nxt.low_hz}, {nxt.high_hz}) overlap"
                )
        object.__setattr__(self, "bands", ordered)

    def band_for(self, freq_hz: float) -> FrequencyBand:
        for band in self.bands:
            if band.low_hz <= freq_hz < band.high_hz:
                return band
        raise UnmappedBandError(
            f"frequency {freq_hz} Hz is outside every band of standard {self.name!r}"
        )


def power_density(tx_power_w: float, antenna_gain_lin: float, distance_m: float) -> float:
    """Far-field power density in W/m^2: P * G / (4 pi d^2)."""
    if tx_power_w < 0.0:
        raise ValueError(f"tx_power_w must be >= 0, got {tx_power_w}")
    if antenna_gain_lin <= 0.0:
        raise ValueError(f"antenna_gain_lin must be > 0, got {antenna_gain_lin}")
    if distance_m <= 0.0:
        raise ValueError(f"distance_m must be > 0, got {distance_m}")
    return tx_power_w * antenna_gain_lin / (4.0 * math.pi * distance_m**2)


def e_field_from_density(s_w_m2: float) -> float:
    """Plane-wave E-field in V/m: sqrt(S * eta0)."""
    if s_w_m2 < 0.0:
        raise ValueError(f"s_w_m2 must be >= 0, got {s_w_m2}")
    return math.sqrt(s_w_m2 * FREE_SPACE_IMPEDANCE_OHM)


def exposure_ratio(
    e_field_v_per_m: float, standard: ExposureStandard, freq_hz: float
) -> float:
    """E-field divided by the reference level of the band containing freq_hz."""
    if e_field_v_per_m < 0.0:
        raise ValueError(f"e_field_v_per_m must be >= 0, got {e_field_v_per_m}")
    return e_field_v_per_m / standard.band_for(freq_hz).e_ref_v_per_m


def complexity_metric(n_active_ul: int, unit_cost: float = 1.0) -> float:
    """Pairwise interference-cancellation work among active uplink
    transmitters: unit_cost * n * (n - 1) / 2."""
    if n_active_ul < 0:
        raise ValueError(f"n_active_ul must be >= 0, got {n_active_ul}")
    if unit_cost < 0.0:
        raise ValueError(f"unit_cost must be >= 0, got {unit_cost}")
    return unit_cost * n_active_ul * (n_active_ul - 1) / 2.0


@dataclass(frozen=True)
class DeviceExposure:
    device_id: str
    power_density_w_m2: float
    e_field_v_per_m: float
    er_per_standard: Mapping[str, float]


@dataclass(frozen=True)
class ExposureReport:
    per_device: tuple[DeviceExposure, ...]
    network_total_power_density_w_m2: float
    network_e_field_v_per_m: float
    network_er_per_standard: Mapping[str, float]


def network_exposure(
    devices: Sequence,
    standards: Iterable[ExposureStandard],
    observer_distance_m: float,
) -> ExposureReport:
    """Per-device and network exposure at a common observer distance.

    Devices need `id`, `tx_power_w`, `freq_hz` and `mode` attributes.
    Uplink emission only: devices in TR mode contribute zero power, and
    base-station downlink exposure is not part of this report. Densities
    add incoherently (straight power sums, standard for uncorrelated
    sources). The network ER divides the network E-field by the most
    restrictive reference level among the bands the devices occupy, which
    reduces to the single band's level when all devices share one band.
    """
    if not devices:
        raise ValueError("device list must be non-empty")
    if observer_distance_m <= 0.0:
        raise ValueError(
            f"observer_distance_m must be > 0, got {observer_distance_m}"
        )
    standards = tuple(standards)

    per_device = []
    total_density = 0.0
    refs_seen: dict[str, list[float]] = {std.name: [] for std in standards}
    for ue in devices:
        tx_w = ue.tx_power_w if uplink_enabled(ue.mode) else 0.0
        density = power_density(tx_w, 1.0, observer_distance_m)
        e_field = e_field_from_density(density)
        ers = {}
        for std in standards:
            band = std.band_for(ue.freq_hz)
            refs_seen[std.name].append(band.e_ref_v_per_m)
            ers[std.name] = e_field / band.e_ref_v_per_m
        per_device.append(
            DeviceExposure(
                device_id=ue.id,
                power_density_w_m2=density,
                e_field_v_per_m=e_field,
                er_per_standard=ers,
            )
        )
        total_density += density

    network_e = e_field_from_density(total_density)
    network_er = {
        std.name: network_e / min(refs_seen[std.name]) for std in standards
    }
    return ExposureReport(
        per_device=tuple(per_device),
        network_total_power_density_w_m2=total_density,
        network_e_field_v_per_m=network_e,
        network_er_per_standard=network_er,
    )
