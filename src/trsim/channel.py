"""Link-level channel math: free-space loss and outage under Rayleigh fading.

Powers are linear; the loss is given in dB. The engine's dB columns come
from `sim._db`, checked against the scalar `db` and `dbm` of
tests/reference.py.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT_M_S = 299_792_458.0


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def free_space_path_loss(distance_m: float, freq_hz: float) -> float:
    """Friis far-field loss in dB: 20 log10(d) + 20 log10(f) + 20 log10(4 pi / c)."""
    if distance_m <= 0.0:
        raise ValueError(f"distance_m must be > 0, got {distance_m}")
    if freq_hz <= 0.0:
        raise ValueError(f"freq_hz must be > 0, got {freq_hz}")
    return (
        20.0 * math.log10(distance_m)
        + 20.0 * math.log10(freq_hz)
        + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT_M_S)
    )


def outage_analytic(snr_threshold_lin: float, mean_snr_lin: float) -> float:
    """Outage probability under unit-mean exponential fading.

    P(mean * gain < threshold) = 1 - exp(-threshold / mean).
    """
    if snr_threshold_lin <= 0.0:
        raise ValueError(f"snr_threshold_lin must be > 0, got {snr_threshold_lin}")
    if mean_snr_lin <= 0.0:
        raise ValueError(f"mean_snr_lin must be > 0, got {mean_snr_lin}")
    return 1.0 - math.exp(-snr_threshold_lin / mean_snr_lin)

