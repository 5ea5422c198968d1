"""Scenario configuration text format.

Flat sectioned key-value text, one statement per line. `#` starts a
comment anywhere; blank lines are ignored.

    [scenario] [channel] [switching]
                         `key = value` lines; each key is declared once,
                         with its section, type, default and bounds, on a
                         field of ScenarioConfig (see trsim.schema)
    [standards.<NAME>]   one `band = ...` line per band, at least one
    [devices]            optional explicit population, one `device = ...`
                         line each, at least one if the section is present

A `band` or `device` line holds one token per field of FrequencyBand or
DeviceSpec, in declaration order, parsed by the field's type (a mode is `am`
or `tr`) and checked against its bounds. A band's last field, `note`, is
optional free text on the value's provenance; it takes the rest of the line.

Parsing either returns a ScenarioConfig, which checks itself when it is
built, or raises ConfigError listing every finding, each with its line
number where one applies. `format_config` emits the canonical form;
parsing that emission reproduces an equal ScenarioConfig.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, Field, fields

from .exposure import ExposureStandard, FrequencyBand
from .schema import ConfigError, problem
from .sim import DeviceSpec, ScenarioConfig
from .trmode import Mode

_SECTION_RE = re.compile(r"^\[(?P<name>[A-Za-z0-9_.-]+)\]$")
_STANDARD_RE = re.compile(r"^standards\.[A-Za-z0-9_-]+$")

# (section, key) -> its field of ScenarioConfig
_KEYS = {
    (f.metadata["section"], f.name): f for f in fields(ScenarioConfig) if "section" in f.metadata
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS))
# row key -> the dataclass whose fields, in order, are the row's tokens
_ROWS = {"band": FrequencyBand, "device": DeviceSpec}
# annotation -> (parser, what a finding says the value should be, emitter)
_TYPES = {
    "int": (int, "an integer", str),
    "float": (float, "a number", str),
    "str": (str, "", str),
    "Mode": ({"am": Mode.AM, "tr": Mode.TR}.__getitem__, "'am' or 'tr'", lambda m: m.value.lower()),
}


def parse_config(text: str) -> ScenarioConfig:
    errors: list[str] = []
    scalars: dict[tuple[str, str], tuple[int, str]] = {}
    # row section name -> (line number, parsed row) per row line
    rows: dict[str, list[tuple[int, object]]] = {}
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header := _SECTION_RE.match(line):
            section = header.group("name")
            if section == "devices" or _STANDARD_RE.match(section):
                rows.setdefault(section, [])
            elif section not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
        elif section in rows:
            kind = "device" if section == "devices" else "band"
            if key != kind:
                errors.append(
                    f"line {lineno}: unknown key {key!r} in [{section}]"
                    f" (only {kind!r} lines are allowed)"
                )
            else:
                rows[section].append((lineno, _parse_row(kind, lineno, value, errors)))
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

    values: dict[str, object] = {}
    for (sec, key), f in _KEYS.items():
        if (sec, key) not in scalars:
            if f.default is MISSING:
                errors.append(f"missing required key {key!r} in [{sec}]")
            continue
        lineno, raw_value = scalars[(sec, key)]
        value = _parse_token(f, raw_value, f"line {lineno}: key {key!r} in [{sec}]", errors)
        if value is None:
            continue
        finding = problem(f, value)
        if finding:
            errors.append(f"line {lineno}: {key} {finding}")
        values[key] = value

    # a malformed row is None here, and has its finding already
    device_rows = rows.pop("devices", None)
    if device_rows == []:
        errors.append("[devices] declares no device lines")
    devices = tuple(spec for _, spec in device_rows or () if spec is not None)
    standards: list[ExposureStandard] = []
    for section, band_rows in rows.items():
        name = section.partition(".")[2]
        bands = tuple(band for _, band in band_rows if band is not None)
        if not band_rows:
            errors.append(f"standard {name!r} declares no band lines")
        elif bands:
            try:
                standards.append(ExposureStandard(name, bands))
            except ConfigError as exc:
                # a standard's findings name its bands, so they point at their lines
                where = f"lines {band_rows[0][0]}-{band_rows[-1][0]}"
                errors += [f"{where}: {e}" for e in exc.errors]

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**values, standards=tuple(standards), devices=devices)


def _parse_row(kind: str, lineno: int, value: str, errors: list[str]):
    """The `kind` row `value` spells, or None after its findings in `errors`."""
    row_fields = fields(_ROWS[kind])
    rest = row_fields[-1].default is not MISSING
    n = len(row_fields) - rest
    tokens = value.split()
    if len(tokens) < n or (len(tokens) > n and not rest):
        names = " ".join(f.name for f in row_fields) + "..." * rest
        errors.append(f"line {lineno}: {kind} line expects '{names}', got {value!r}")
        return None
    tokens[n:] = [" ".join(tokens[n:])] * rest
    where = f"line {lineno}: {kind}"
    args = [_parse_token(f, t, f"{where} {f.name}", errors) for f, t in zip(row_fields, tokens)]
    if None not in args:
        try:
            return _ROWS[kind](*args)
        except ConfigError as exc:
            errors += [f"line {lineno}: {e}" for e in exc.errors]
    return None


def _parse_token(f: Field, token: str, where: str, errors: list[str]):
    """`token` parsed by the type of field `f`, or None after a finding in `errors`."""
    parse, what, _ = _TYPES[f.type]
    try:
        return parse(token)
    except (KeyError, ValueError):
        errors.append(f"{where} expects {what}, got {token!r}")
        return None


def format_config(cfg: ScenarioConfig) -> str:
    """Emit the canonical text form of a configuration."""
    lines: list[str] = []
    for section in _SECTIONS:
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {getattr(cfg, key)}" for sec, key in _KEYS if sec == section]
    tables = [("band", f"standards.{std.name}", std.bands) for std in cfg.standards]
    tables += [("device", "devices", cfg.devices)] if cfg.devices else []
    for kind, section, table in tables:
        lines += ["", f"[{section}]"]
        for row in table:
            tokens = (_TYPES[f.type][2](getattr(row, f.name)) for f in fields(row))
            lines.append(f"{kind} = {' '.join(tokens)}".rstrip())
    return "\n".join(lines[1:]) + "\n"
