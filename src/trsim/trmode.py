"""Adaptive duplex-mode switching.

A device runs full duplex in active mode (AM). When the received signal
strength drops below a threshold it switches to the half-duplex TR mode:
uplink transmission stops and downlink reception continues. A symmetric
hysteresis band around the threshold suppresses chattering; set it to 0
to recover the bare threshold rule.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class Mode(Enum):
    AM = "AM"
    TR = "TR"


def hold_modes(
    rss_dbm: np.ndarray, threshold_dbm: float, hysteresis_db: float, start_tr: np.ndarray
) -> np.ndarray:
    """The switch applied slot after slot to an (n_slots, n) array of rss,
    each column from its device's starting mode (`start_tr[i]`: does device
    i start in TR). True where a device is in TR after that slot.

    Below the dead band a device ends the slot in TR whatever its mode, above
    it in AM, and inside it keeps its mode; so its mode is that of the latest
    slot whose rss fell outside the band, or its starting mode if none did.
    The tests check it against one decision at a time, `evaluate_switch` in
    tests/reference.py.
    """
    if np.isnan(rss_dbm).any():
        raise ValueError("rss_dbm must not be NaN")
    below = rss_dbm < threshold_dbm - hysteresis_db
    outside = below | (rss_dbm > threshold_dbm + hysteresis_db)
    latest = np.where(outside, np.arange(len(rss_dbm))[:, None], -1)
    np.maximum.accumulate(latest, axis=0, out=latest)
    return np.where(latest >= 0, below[latest, np.arange(below.shape[1])], start_tr)


def uplink_enabled(mode: Mode) -> bool:
    """Uplink information-transfer signals exist only in active mode."""
    return mode is Mode.AM
