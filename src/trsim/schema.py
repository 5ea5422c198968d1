"""Declared bounds of configuration values, and the base of the engine's records.

A dataclass field made with `key` carries the config-file section it is
read from and the closed range, or the choices, its value must lie in.
`problem` and `problems` check values against those declarations, so each
bound is written once, on the field it applies to. Every float field has
a finite range, which also rules out NaN and infinities. A config
dataclass calls `check` from `__post_init__`, so no instance that breaks
its declarations exists.

`Columns` is the base of every dataclass that holds numpy arrays: it
makes each of them, and each mapping field, read-only when the record is
built, and compares two records field by field, arrays by value.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, Field, field, fields
from types import MappingProxyType
from typing import Sequence

import numpy as np

# Ranges shared by several fields. Inside them the Friis path loss,
# received power, SINR, power density and exposure ratio stay finite and
# nonzero for every population the device-slot cap allows.
DISTANCE_M = (1e-3, 1e7)
POWER_W = (1e-12, 1e6)
FREQ_HZ = (1e3, 1e15)
# SNR threshold and mean SNR points, in dB.
SNR_DB = (-200.0, 200.0)
# NR numerology index mu: 15 * 2^mu kHz subcarrier spacing.
MU = (0, 4)


class ConfigError(ValueError):
    """Invalid scenario configuration; carries one message per finding."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def key(section: str, lo=None, hi=None, *, default=MISSING, choices=None) -> Field:
    """A field read from `[section]`: required unless it has a default,
    bounded below by `lo` and above by `hi` (None: unbounded), or limited
    to `choices`."""
    return field(
        default=default,
        metadata={"section": section, "lo": lo, "hi": hi, "choices": choices},
    )


def problem(f: Field, value) -> str | None:
    """Why `value` breaks the declaration of `f`, or None if it does not."""
    lo, hi, choices = (f.metadata.get(name) for name in ("lo", "hi", "choices"))
    if choices is not None and value not in choices:
        return f"must be one of {', '.join(choices)}, got {value!r}"
    if lo is not None and not (lo <= value and (hi is None or value <= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo:g}, {hi:g}]"
        return f"must be {bound}, got {value}"
    return None


def problems(obj) -> list[str]:
    """One finding per field of the dataclass `obj` that breaks its declaration."""
    found = ((f.name, problem(f, getattr(obj, f.name))) for f in fields(obj))
    return [f"{name} {text}" for name, text in found if text]


def check(obj, *more: str) -> None:
    """Raise ConfigError listing every finding of `problems(obj)`, then the
    findings `more`, if there are any."""
    found = problems(obj) + list(more)
    if found:
        raise ConfigError(found)


class Columns:
    """Base of a frozen dataclass that holds numpy arrays, as fields or as
    the values of a mapping field. Building one marks each of those arrays
    read-only and holds each mapping field as a read-only proxy of a copy
    of it, so no holder of the record can change what it reads. Two records
    are equal when they are of one type and equal field by field, mappings
    key by key and arrays by value."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            held = (value,)
            if isinstance(value, Mapping):
                object.__setattr__(self, f.name, MappingProxyType(dict(value)))
                held = value.values()
            for x in held:
                if isinstance(x, np.ndarray):
                    x.flags.writeable = False

    def __eq__(self, other) -> bool:
        def same(x, y) -> bool:
            if isinstance(x, Mapping):
                return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
            return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y

        return type(self) is type(other) and all(
            same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )
