"""Checks on one `trsim run` output file, and the row counts they yield."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

COHORT_OF = {"outage_am": "AM", "outage_tr": "TR"}
# The engine-refactor gate tolerance; the mode_transition row count is pinned exactly.
PIN_RTOL = 1e-12
PINNED_FLOATS = ("outage_am", "outage_tr", "total_uplink_interference_w")


def metric_names(template: str) -> list[str]:
    """Every metric row `trsim run` must emit for a config like `template`."""
    standards = re.findall(r"^\[standards\.([^\]]+)\]", template, flags=re.M)
    return [
        "outage_am",
        "outage_tr",
        "total_uplink_interference_w",
        "complexity",
        "network_total_power_density_w_m2",
        "network_e_field_v_per_m",
    ] + [f"network_er_{name}" for name in standards]


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Summary:
    rows: dict[str, int]  # row count per kind
    rrc_changed: int  # rrc_event rows whose from-state differs from the to-state
    cohort_samples: dict[str, int]  # sample rows per mode
    metrics: dict[str, list[str | float | None]]  # every value seen per metric name
    out_bytes: int


def _records_csv(fh):
    reader = csv.reader(fh)
    col = {name: i for i, name in enumerate(next(reader, []))}
    kind, mode, frm, to, metric, value = (
        col[k] for k in ("kind", "mode", "from", "to", "metric", "value")
    )
    for row in reader:
        yield row[kind], row[mode], row[frm], row[to], row[metric], row[value] or None


def _records_jsonl(fh):
    # Accepts the CSV's key names too, so that aligning the JSON-lines keys
    # with the CSV columns does not need a change to the benchmark.
    for line in fh:
        rec = json.loads(line)
        yield (
            rec["kind"],
            rec.get("mode"),
            rec.get("from", rec.get("old_state")),
            rec.get("to", rec.get("new_state")),
            rec.get("metric", rec.get("name")),
            rec.get("value"),
        )


def summarize(path: Path, output_format: str) -> Summary:
    records = _records_csv if output_format == "csv" else _records_jsonl
    rows: dict[str, int] = {}
    cohorts: dict[str, int] = {}
    metrics: dict[str, list] = {}
    changed = 0
    with open(path, encoding="utf-8", newline="") as fh:
        for kind, mode, frm, to, metric, value in records(fh):
            rows[kind] = rows.get(kind, 0) + 1
            if kind == "sample":
                cohorts[mode] = cohorts.get(mode, 0) + 1
            elif kind == "rrc_event":
                changed += frm != to
            elif kind == "metric":
                metrics.setdefault(metric, []).append(value)
    return Summary(rows, changed, cohorts, metrics, path.stat().st_size)


def problems(
    s: Summary, device_slots: int, names: list[str], pins: dict | None
) -> list[str]:
    """Every way the output fails its checks; empty when it passes.

    `pins` holds the statistics pinned at the default seed, or None at
    any other seed.
    """
    found = []
    if s.rows.get("sample", 0) != device_slots:
        found.append(f"{s.rows.get('sample', 0)} sample rows, expected {device_slots}")
    values: dict[str, float | None] = {}
    for name in names:
        seen = s.metrics.get(name, [])
        if len(seen) != 1:
            found.append(f"metric {name}: {len(seen)} rows, expected 1")
            continue
        if seen[0] is None:
            if name not in COHORT_OF or s.cohort_samples.get(COHORT_OF[name], 0):
                found.append(f"metric {name}: empty value")
            values[name] = None
            continue
        try:
            values[name] = float(seen[0])
        except (TypeError, ValueError):
            values[name] = math.nan
        if not math.isfinite(values[name]):
            found.append(f"metric {name}: value {seen[0]!r} is not finite")
    if pins is not None:
        rows = s.rows.get("mode_transition", 0)
        if rows != pins["mode_transition_rows"]:
            found.append(
                f"{rows} mode_transition rows, pinned {pins['mode_transition_rows']}"
            )
        for name in PINNED_FLOATS:
            got, want = values.get(name), pins[name]
            if got is None or want is None:
                if got != want:
                    found.append(f"metric {name}: {got!r}, pinned {want!r}")
            elif not math.isclose(got, want, rel_tol=PIN_RTOL, abs_tol=0.0):
                found.append(f"metric {name}: {got!r}, pinned {want!r} (rtol {PIN_RTOL})")
    return found
