"""Adaptive duplex-mode switching and the service gating it implies.

A device runs full duplex in active mode (AM). When the received signal
strength drops below a threshold it switches to the half-duplex TR mode:
uplink transmission stops, downlink reception continues, and only
low-rate services stay admitted. A symmetric hysteresis band around the
threshold suppresses chattering; set it to 0 to recover the bare
threshold rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .schema import check, key


class Mode(Enum):
    AM = "AM"
    TR = "TR"


class ServiceClass(Enum):
    VOICE_CALL = "voice-call"
    TEXT_MESSAGE = "text-message"
    HIGH_BANDWIDTH = "high-bandwidth"


@dataclass(frozen=True)
class SwitchConfig:
    """The [switching] section of a scenario config."""

    rss_threshold_dbm: float = key("switching", -500.0, 500.0)
    hysteresis_db: float = key("switching", 0.0, 1000.0, default=3.0)

    def __post_init__(self) -> None:
        check(self)


def evaluate_switch(rss_dbm: float, cfg: SwitchConfig, current: Mode) -> Mode:
    """One switching decision.

    AM -> TR when rss < threshold - hysteresis; TR -> AM when
    rss > threshold + hysteresis; inside the dead band the mode is kept.
    """
    if math.isnan(rss_dbm):
        raise ValueError("rss_dbm must not be NaN")
    if current is Mode.AM and rss_dbm < cfg.rss_threshold_dbm - cfg.hysteresis_db:
        return Mode.TR
    if current is Mode.TR and rss_dbm > cfg.rss_threshold_dbm + cfg.hysteresis_db:
        return Mode.AM
    return current


def uplink_enabled(mode: Mode) -> bool:
    """Uplink information-transfer signals exist only in active mode."""
    return mode is Mode.AM


def service_admitted(mode: Mode, svc: ServiceClass) -> bool:
    """AM admits everything; TR admits only low-rate services."""
    if mode is Mode.AM:
        return True
    return svc is not ServiceClass.HIGH_BANDWIDTH
