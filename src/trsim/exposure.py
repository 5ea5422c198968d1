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
from typing import Iterable, Mapping

import numpy as np

from .schema import FREQ_HZ, Columns, check, key

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
        errors = []
        if self.high_hz <= self.low_hz:
            errors.append(
                f"band edges must satisfy low < high, got [{self.low_hz}, {self.high_hz})"
            )
        check(self, *errors)


@dataclass(frozen=True)
class ExposureStandard:
    """A named exposure guideline: sorted, non-overlapping bands, each with
    a reference-level E-field. Bands are half-open [low, high). Building one
    raises ConfigError listing every finding: an empty name, and each two
    neighbouring bands that overlap."""

    name: str
    bands: tuple[FrequencyBand, ...]

    def __post_init__(self) -> None:
        errors = [] if self.name else ["standard name must be non-empty"]
        ordered = tuple(sorted(self.bands, key=lambda b: b.low_hz))
        errors += [
            f"standard {self.name!r}: bands [{prev.low_hz}, {prev.high_hz}) and"
            f" [{nxt.low_hz}, {nxt.high_hz}) overlap"
            for prev, nxt in zip(ordered, ordered[1:]) if nxt.low_hz < prev.high_hz
        ]
        check(self, *errors)
        object.__setattr__(self, "bands", ordered)

    def band_for(self, freq_hz: float) -> FrequencyBand:
        for band in self.bands:
            if band.low_hz <= freq_hz < band.high_hz:
                return band
        raise UnmappedBandError(
            f"frequency {freq_hz} Hz is outside every band of standard {self.name!r}"
        )


def _check_not_negative(name: str, value: float | np.ndarray) -> None:
    """Raise unless `value`, a float or each element but NaN of an array, is >= 0."""
    if isinstance(value, np.ndarray):
        name, value = f"min({name})", np.fmin.reduce(value, initial=math.inf)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def power_density(tx_power_w: float | np.ndarray, antenna_gain_lin: float, distance_m: float):
    """Far-field power density in W/m^2: P * G / (4 pi d^2), of a float power
    or of each element of an array of powers."""
    _check_not_negative("tx_power_w", tx_power_w)
    if antenna_gain_lin <= 0.0:
        raise ValueError(f"antenna_gain_lin must be > 0, got {antenna_gain_lin}")
    if distance_m <= 0.0:
        raise ValueError(f"distance_m must be > 0, got {distance_m}")
    return tx_power_w * antenna_gain_lin / (4.0 * math.pi * distance_m**2)


def e_field_from_density(s_w_m2: float | np.ndarray) -> float | np.ndarray:
    """Plane-wave E-field in V/m: sqrt(S * eta0), of a float density or of
    each element of an array of densities."""
    _check_not_negative("s_w_m2", s_w_m2)
    sqrt = np.sqrt if isinstance(s_w_m2, np.ndarray) else math.sqrt
    return sqrt(s_w_m2 * FREE_SPACE_IMPEDANCE_OHM)


def complexity_metric(n_active_ul: int) -> float:
    """Pairwise interference-cancellation work among active uplink
    transmitters: n * (n - 1) / 2 pairs."""
    if n_active_ul < 0:
        raise ValueError(f"n_active_ul must be >= 0, got {n_active_ul}")
    return n_active_ul * (n_active_ul - 1) / 2.0


@dataclass(frozen=True, eq=False)
class ExposureReport(Columns):
    """Each device's exposure, as columns in device order, and the network's.
    `er_per_standard` holds a column per standard name, and
    `network_er_per_standard` a value, both in the order of the standards."""

    power_density_w_m2: np.ndarray
    e_field_v_per_m: np.ndarray
    er_per_standard: Mapping[str, np.ndarray]
    network_total_power_density_w_m2: float
    network_e_field_v_per_m: float
    network_er_per_standard: Mapping[str, float]


def network_exposure(
    freq_hz: np.ndarray,
    emitted_w: np.ndarray,
    standards: Iterable[ExposureStandard],
    observer_distance_m: float,
) -> ExposureReport:
    """Per-device and network exposure at a common observer distance, from
    each device's carrier and emitted uplink power (Devices.emitted_w).

    Uplink emission only: base-station downlink exposure is not part of
    this report. A device's density and E-field are power_density (gain 1)
    and e_field_from_density of its power. Densities add incoherently
    (straight power sums, standard for uncorrelated sources), in device
    order. The network ER divides the network E-field by the most
    restrictive reference level among the bands the devices occupy, which
    reduces to the single band's level when all devices share one band.
    """
    if not len(freq_hz):
        raise ValueError("device list must be non-empty")
    density = power_density(emitted_w, 1.0, observer_distance_m)
    e_field = e_field_from_density(density)
    # a running sum in device order: a pairwise sum would reorder the additions
    total_density = float(np.cumsum(density)[-1])
    network_e = e_field_from_density(total_density)
    # not np.unique, whose first call adds 1.6 MiB to peak RSS (numpy 2.4, x86)
    carriers = sorted(set(freq_hz.tolist()))
    carrier = np.searchsorted(carriers, freq_hz)
    er, network_er = {}, {}
    for std in standards:
        refs = np.array([std.band_for(f).e_ref_v_per_m for f in carriers])
        er[std.name] = e_field / refs[carrier]
        network_er[std.name] = network_e / float(refs.min())
    return ExposureReport(density, e_field, er, total_density, network_e, network_er)
