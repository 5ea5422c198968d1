"""Scalar references that the tests check trsim's vector engine against.
Each states its rule once, one value at a time; trsim itself calls none."""

import math

import numpy as np

from trsim.trmode import Mode


def db(value: float) -> float:
    """A power ratio in dB, -inf at 0: what sim._db writes, bit for bit."""
    return 10.0 * math.log10(value) if value else -math.inf


def dbm(power_w: float) -> float:
    """A power in watts in dBm: the rss_dbm column."""
    return db(power_w) + 30.0


def evaluate_switch(rss_dbm: float, threshold_dbm: float, hysteresis_db: float,
                    current: Mode) -> Mode:
    """One switching decision, as trmode.hold_modes takes it each slot: AM ->
    TR when rss < threshold - hysteresis, TR -> AM when rss > threshold +
    hysteresis; inside the dead band the mode is kept."""
    if current is Mode.AM and rss_dbm < threshold_dbm - hysteresis_db:
        return Mode.TR
    if current is Mode.TR and rss_dbm > threshold_dbm + hysteresis_db:
        return Mode.AM
    return current


def outage_mc(threshold_lin: float, mean_lin: float, n: int, seed: int) -> float:
    """The share of n unit-mean exponential fading draws (numpy's generator
    at `seed`) with mean x gain < threshold: channel.outage_analytic's check."""
    gains = np.random.default_rng(seed).standard_exponential(n)
    return np.count_nonzero(mean_lin * gains < threshold_lin) / n
