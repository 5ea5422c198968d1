"""Scenario configuration text format.

Flat sectioned key-value text, one statement per line. `#` starts a
comment anywhere; blank lines are ignored.

    [scenario] [channel] [switching]
                         `key = value` lines; each key is declared once,
                         with its type, default and bounds, on a field of
                         ScenarioConfig or SwitchConfig (see trsim.schema)
    [standards.<NAME>]   one `band = f_low_hz f_high_hz e_ref_v_per_m note...`
                         line per band; the note is free text recording the
                         value's provenance (whitespace normalized)
    [devices]            optional explicit population, one line each:
                         `device = id distance_m tx_power_w freq_hz am|tr`

Parsing either returns a fully validated ScenarioConfig or raises
ConfigError listing every finding, each with its line number where one
applies. `format_config` emits the canonical form; parsing that emission
reproduces an equal ScenarioConfig.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, fields

from .exposure import ExposureStandard, FrequencyBand
from .schema import problem
from .sim import ConfigError, DeviceSpec, ScenarioConfig
from .trmode import Mode, SwitchConfig

_SECTION_RE = re.compile(r"^\[(?P<name>[A-Za-z0-9_.-]+)\]$")
_STANDARD_RE = re.compile(r"^standards\.(?P<name>[A-Za-z0-9_-]+)$")

# (section, key) -> (dataclass that owns the key, its field)
_KEYS = {
    (f.metadata["section"], f.name): (owner, f)
    for owner in (ScenarioConfig, SwitchConfig)
    for f in fields(owner)
    if "section" in f.metadata
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS))
# annotation -> (parser, what a finding says the value should be)
_TYPES = {"int": (int, "an integer"), "float": (float, "a number"), "str": (str, "")}


def parse_config(text: str) -> ScenarioConfig:
    errors: list[str] = []
    scalars: dict[tuple[str, str], tuple[int, str]] = {}
    bands: dict[str, list[tuple[int, FrequencyBand]]] = {}
    devices: list[DeviceSpec] = []
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _SECTION_RE.match(line)
        if header:
            name = header.group("name")
            std = _STANDARD_RE.match(name)
            if std:
                section = name
                bands.setdefault(std.group("name"), [])
            elif name in _SECTIONS or name == "devices":
                section = name
            else:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
            continue

        std = _STANDARD_RE.match(section)
        if std or section == "devices":
            expected = "band" if std else "device"
            if key != expected:
                errors.append(
                    f"line {lineno}: unknown key {key!r} in [{section}]"
                    f" (only {expected!r} lines are allowed)"
                )
            elif std:
                band = _parse_band(lineno, value, errors)
                if band is not None:
                    bands[std.group("name")].append((lineno, band))
            else:
                spec = _parse_device(lineno, value, errors)
                if spec is not None:
                    devices.append(spec)
        elif (section, key) not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
        elif (section, key) in scalars:
            first = scalars[(section, key)][0]
            errors.append(
                f"line {lineno}: duplicate key {key!r} in [{section}]"
                f" (first set at line {first})"
            )
        else:
            scalars[(section, key)] = (lineno, value)

    values: dict[type, dict[str, object]] = {ScenarioConfig: {}, SwitchConfig: {}}
    for (sec, key), (owner, f) in _KEYS.items():
        if (sec, key) not in scalars:
            if f.default is MISSING:
                errors.append(f"missing required key {key!r} in [{sec}]")
            continue
        lineno, raw_value = scalars[(sec, key)]
        parse, kind = _TYPES[f.type]
        try:
            value = parse(raw_value)
        except ValueError:
            errors.append(
                f"line {lineno}: key {key!r} in [{sec}] expects {kind}, got {raw_value!r}"
            )
            continue
        finding = problem(f, value)
        if finding:
            errors.append(f"line {lineno}: {key} {finding}")
        values[owner][key] = value

    standards: list[ExposureStandard] = []
    for name, band_list in bands.items():
        if not band_list:
            errors.append(f"standard {name!r} declares no band lines")
            continue
        try:
            standards.append(
                ExposureStandard(name=name, bands=tuple(b for _, b in band_list))
            )
        except ValueError as exc:
            errors.append(f"line {band_list[0][0]}: {exc}")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        **values[ScenarioConfig],
        switch=SwitchConfig(**values[SwitchConfig]),
        standards=tuple(standards),
        devices=tuple(devices),
    ).require_valid()


def _parse_band(lineno: int, value: str, errors: list[str]) -> FrequencyBand | None:
    tokens = value.split()
    if len(tokens) < 3:
        errors.append(
            f"line {lineno}: band line expects"
            f" 'f_low_hz f_high_hz e_ref_v_per_m note...', got {value!r}"
        )
        return None
    try:
        numbers = [float(t) for t in tokens[:3]]
    except ValueError:
        errors.append(f"line {lineno}: band numbers must parse as floats, got {value!r}")
        return None
    try:
        return FrequencyBand(*numbers, note=" ".join(tokens[3:]))
    except ValueError as exc:
        errors.append(f"line {lineno}: {exc}")
        return None


def _parse_device(lineno: int, value: str, errors: list[str]) -> DeviceSpec | None:
    tokens = value.split()
    if len(tokens) != 5:
        errors.append(
            f"line {lineno}: device line expects"
            f" 'id distance_m tx_power_w freq_hz am|tr', got {value!r}"
        )
        return None
    ident, mode_s = tokens[0], tokens[4]
    try:
        numbers = [float(t) for t in tokens[1:4]]
    except ValueError:
        errors.append(f"line {lineno}: device numbers must parse as floats, got {value!r}")
        return None
    if mode_s not in ("am", "tr"):
        errors.append(f"line {lineno}: device mode must be 'am' or 'tr', got {mode_s!r}")
        return None
    try:
        return DeviceSpec(ident, *numbers, Mode.TR if mode_s == "tr" else Mode.AM)
    except ValueError as exc:
        errors.append(f"line {lineno}: device {ident!r}: {exc}")
        return None


def format_config(cfg: ScenarioConfig) -> str:
    """Emit the canonical text form of a configuration."""
    lines: list[str] = []
    for section in _SECTIONS:
        lines += ["", f"[{section}]"]
        for (sec, key), (owner, _) in _KEYS.items():
            if sec == section:
                value = getattr(cfg if owner is ScenarioConfig else cfg.switch, key)
                lines.append(f"{key} = {value}")
    for std in cfg.standards:
        lines += ["", f"[standards.{std.name}]"]
        for b in std.bands:
            lines.append(f"band = {b.low_hz} {b.high_hz} {b.e_ref_v_per_m} {b.note}".rstrip())
    if cfg.devices:
        lines += ["", "[devices]"]
        for d in cfg.devices:
            mode_s = "tr" if d.mode is Mode.TR else "am"
            lines.append(
                f"device = {d.device_id} {d.distance_m} {d.tx_power_w} {d.freq_hz} {mode_s}"
            )
    return "\n".join(lines[1:]) + "\n"
