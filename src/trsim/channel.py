"""Link-level channel math: free-space loss, Rayleigh fading, outage.

Arithmetic is carried out in linear units internally; dB and dBm appear
only at the API surface.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Power ratio to dB. Zero maps to -inf; negative ratios are rejected."""
    if value < 0.0:
        raise ValueError(f"power ratio must be >= 0, got {value}")
    if value == 0.0:
        return -math.inf
    return 10.0 * math.log10(value)


def watts_to_dbm(power_w: float) -> float:
    return linear_to_db(power_w) + 30.0


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


def draw_fading_gain(rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
    """Draw a Rayleigh-fading power gain: unit-mean exponential.

    The squared envelope of a Rayleigh channel with unit average power is
    exponentially distributed with mean 1; downstream formulas consume power
    ratios, so the gain is sampled directly on power. With `size`, an array
    of that many gains, the same values as that many draws one at a time.
    """
    gain = rng.exponential(1.0, size)
    return float(gain) if size is None else gain


def outage_analytic(snr_threshold_lin: float, mean_snr_lin: float) -> float:
    """Outage probability under unit-mean exponential fading.

    P(mean * gain < threshold) = 1 - exp(-threshold / mean).
    """
    if snr_threshold_lin <= 0.0:
        raise ValueError(f"snr_threshold_lin must be > 0, got {snr_threshold_lin}")
    if mean_snr_lin <= 0.0:
        raise ValueError(f"mean_snr_lin must be > 0, got {mean_snr_lin}")
    return 1.0 - math.exp(-snr_threshold_lin / mean_snr_lin)


def outage_monte_carlo(
    snr_threshold_lin: float,
    mean_snr_lin: float,
    n_trials: int,
    seed: int,
) -> float:
    """Empirical outage: fraction of fading draws with mean * gain < threshold.

    Deterministic for a fixed seed. Serves as the independent check of
    outage_analytic (and vice versa).
    """
    if snr_threshold_lin <= 0.0:
        raise ValueError(f"snr_threshold_lin must be > 0, got {snr_threshold_lin}")
    if mean_snr_lin <= 0.0:
        raise ValueError(f"mean_snr_lin must be > 0, got {mean_snr_lin}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    gains = rng.standard_exponential(n_trials)
    below = np.count_nonzero(mean_snr_lin * gains < snr_threshold_lin)
    return float(below) / float(n_trials)
