"""Command-line front end: config ingestion, subcommand dispatch, emission.

Subcommands: run, outage, frames, rrc-check, exposure. Output goes to
--out (default stdout). run, outage and exposure each build one stream of
records, in chunks of records of one kind held as one column per key of the
kind, and either encoder writes that stream: csv puts each record's kind and
keys under the columns of the same names in a frozen column order (see the
README) and leaves the other columns empty; json-lines writes each record
as one object of its kind and keys. frames and rrc-check emit fixed text
layouts used as golden files.

Exit codes: 0 success; 2 configuration or usage error; 3 domain error
(invalid operation input); 4 frequency outside every configured band;
5 I/O error. Every failure prints one `trsim: error: ...` line per
finding on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import astuple, fields, replace
from typing import IO, Iterable, NamedTuple

import numpy as np

from . import __version__, rrc
from .configfile import parse_config
from .exposure import ExposureReport, UnmappedBandError, network_exposure
from .frames import build_fdd_pair, build_tdd_frame, frame_dump, make_numerology
from .schema import SNR_DB
from .sim import (
    MODES,
    RRC_EVENTS,
    RRC_STATES,
    ConfigError,
    OutagePoint,
    ScenarioConfig,
    SimResult,
    build_devices,
    outage_curve,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_BAND = 4
EXIT_IO = 5

OUTPUT_FORMATS = ("csv", "json-lines")

RUN_CSV_COLUMNS = (
    "kind", "slot", "device_id", "mode", "rrc_state", "fading_gain", "rss_dbm",
    "sinr_db", "ul_active", "ul_tx_w", "event", "from", "to", "metric", "value",
)

Kinds = dict[str, tuple[str, ...]]  # record kind -> its keys, in column order
# (kind, columns): a run of records of one kind, one column per key in the
# order of the kind's keys, all of one length. A column is a list or tuple of
# values, a numeric numpy array, or Coded.
Chunks = Iterable[tuple[str, tuple]]

CHUNK_ROWS = 4096  # records per chunk of samples or of a log


class Coded(NamedTuple):
    """A column of labels given as codes into a table, so that an encoder
    escapes each distinct label once rather than once per record."""

    labels: tuple
    codes: list[int]


RUN_KINDS: Kinds = {
    "sample": RUN_CSV_COLUMNS[1:10],
    "mode_transition": ("slot", "device_id", "rss_dbm", "from", "to"),
    "rrc_event": ("slot", "device_id", "event", "from", "to"),
    "metric": ("metric", "value"),
}
OUTAGE_KINDS: Kinds = {"outage_point": tuple(f.name for f in fields(OutagePoint))}


def exposure_kinds(standards: tuple) -> Kinds:
    """Both exposure kinds have these keys, with one `er_<std>` per standard."""
    keys = ("device_id", "power_density_w_m2", "e_field_v_per_m")
    keys += tuple(f"er_{std.name}" for std in standards)
    return {"device-exposure": keys, "network-exposure": keys}


def _chunk(kind: str, records: list[tuple]) -> tuple[str, tuple]:
    """A chunk of records given as value tuples."""
    return kind, tuple(zip(*records))


def _run_chunks(result: SimResult) -> Chunks:
    n, n_slots = len(result.devices), result.config.n_slots
    ids = tuple(ue.id for ue in result.devices)
    # `_value_` is `.value` without its property call
    modes = tuple(m._value_ for m in MODES)
    states = tuple(s._value_ for s in RRC_STATES)
    events = tuple(e._value_ for e in RRC_EVENTS)
    per_chunk = max(1, CHUNK_ROWS // n)
    for t0 in range(0, n_slots, per_chunk):
        t1 = min(t0 + per_chunk, n_slots)
        rows = slice(t0, t1)
        yield "sample", (
            np.arange(t0, t1).repeat(n),
            Coded(ids, list(range(n)) * (t1 - t0)),
            Coded(modes, result.mode[rows].ravel().tolist()),
            Coded(states, result.rrc_state[rows].ravel().tolist()),
            result.fading_gain[rows].ravel(),
            result.rss_dbm[rows].ravel(),
            result.sinr_db[rows].ravel(),
            result.ul_active[rows].ravel().view("i1"),
            result.ul_tx_w[rows].ravel(),
        )
    transitions, rrc_events = result.mode_transitions, result.rrc_events
    for t0 in range(0, len(transitions), CHUNK_ROWS):
        tr = transitions[t0:t0 + CHUNK_ROWS]
        yield "mode_transition", (
            tr.slot, Coded(ids, tr.device.tolist()), tr.rss_dbm,
            Coded(modes, tr.old.tolist()), Coded(modes, tr.new.tolist()),
        )
    for t0 in range(0, len(rrc_events), CHUNK_ROWS):
        ev = rrc_events[t0:t0 + CHUNK_ROWS]
        yield "rrc_event", (
            ev.slot, Coded(ids, ev.device.tolist()), Coded(events, ev.event.tolist()),
            Coded(states, ev.old.tolist()), Coded(states, ev.new.tolist()),
        )
    report = result.exposure
    metrics = {
        "outage_am": result.outage_am,
        "outage_tr": result.outage_tr,
        "total_uplink_interference_w": result.total_uplink_interference_w,
        "complexity": result.complexity,
        "network_total_power_density_w_m2": report.network_total_power_density_w_m2,
        "network_e_field_v_per_m": report.network_e_field_v_per_m,
    }
    for std in result.config.standards:
        metrics[f"network_er_{std.name}"] = report.network_er_per_standard[std.name]
    yield _chunk("metric", list(metrics.items()))


def _exposure_chunks(report: ExposureReport, standards: tuple) -> Chunks:
    names = [std.name for std in standards]
    yield _chunk("device-exposure", [
        (dev.device_id, dev.power_density_w_m2, dev.e_field_v_per_m,
         *(dev.er_per_standard[name] for name in names))
        for dev in report.per_device
    ])
    total = (report.network_total_power_density_w_m2, report.network_e_field_v_per_m)
    ers = (report.network_er_per_standard[name] for name in names)
    yield _chunk("network-exposure", [("network-total", *total, *ers)])


def _write_chunks(fh: IO[str], layouts: dict, chunks: Chunks, escape, plain) -> None:
    """Write each chunk through its kind's layout: a %-template of one record
    and the positions of the chunk's columns in the template's fields. (No
    kind or key name holds a `%`: they are the program's own names and
    standard names, which the config parser limits to [A-Za-z0-9_-].)

    Every value goes through `escape`, which writes one value as the format
    does, except the numbers of an array that `plain` accepts: those are
    written as `str` writes them. A Coded column's labels are escaped once
    per run.
    """
    escaped: dict[tuple, list[str]] = {}
    for kind, columns in chunks:
        template, order = layouts[kind]
        texts = []
        for column in (columns[j] for j in order):
            if isinstance(column, Coded):
                table = escaped.get(column.labels)
                if table is None:
                    table = escaped[column.labels] = list(map(escape, column.labels))
                texts.append(list(map(table.__getitem__, column.codes)))
            elif isinstance(column, (list, tuple)):
                texts.append(list(map(escape, column)))
            elif plain(column):
                texts.append(column.tolist())
            else:
                texts.append(list(map(escape, column.tolist())))
        # one %-format of the template repeated once per record, its fields
        # filled from the columns interleaved record by record
        n_records, width = len(texts[0]), len(texts)
        flat = [None] * (n_records * width)
        for j, text in enumerate(texts):
            flat[j::width] = text
        fh.write((template * n_records) % tuple(flat))


class _Echo:
    """A file whose `write` returns its text, so that a csv writer's
    `writerow` returns the row."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _write_csv(fh: IO[str], columns: tuple[str, ...], kinds: Kinds, chunks: Chunks):
    """A header of `columns`, then one row per record. A record fills the
    `kind` column, if there is one, and its keys' columns; it leaves the
    rest empty. Each cell is what csv.writer writes: a float as its repr,
    None as an empty cell, a string quoted when it needs to be."""
    writerow = csv.writer(_Echo(), lineterminator="\n").writerow

    def cell(value) -> str:
        # the cell as it stands in a row of several cells
        return writerow((value, ""))[:-2]

    layouts = {}
    for kind, keys in kinds.items():
        cells = [cell(kind) if c == "kind" else "%s" if c in keys else "" for c in columns]
        layouts[kind] = ",".join(cells) + "\n", [keys.index(c) for c in columns if c in keys]
    fh.write(",".join(map(cell, columns)) + "\n")
    # str of an int or float is the text csv.writer writes for it
    _write_chunks(fh, layouts, chunks, cell, lambda array: True)


def _write_jsonl(fh: IO[str], kinds: Kinds, chunks: Chunks) -> None:
    """One JSON object per record, as json.dumps writes it: its `kind`, then
    its keys in order."""
    layouts = {
        kind: (
            "{" + ", ".join([f'"kind": {json.dumps(kind)}']
                            + [f"{json.dumps(key)}: %s" for key in keys]) + "}\n",
            range(len(keys)),
        )
        for kind, keys in kinds.items()
    }
    # str of an int or finite float is the text json.dumps writes for it
    _write_chunks(fh, layouts, chunks, json.dumps, lambda array: np.isfinite(array).all())


def _emit(args: argparse.Namespace, columns, kinds: Kinds, chunks: Chunks) -> int:
    with _out_stream(args.out) as fh:
        if args.format == "csv":
            _write_csv(fh, columns, kinds, chunks)
        else:
            _write_jsonl(fh, kinds, chunks)
    return EXIT_OK


def _out_stream(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{args.config}: not UTF-8 text: {exc}"]) from None
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed).require_valid()
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_scenario(_load_config(args))
    return _emit(args, RUN_CSV_COLUMNS, RUN_KINDS, _run_chunks(result))


def _cmd_outage(args: argparse.Namespace) -> int:
    points = outage_curve(_load_config(args), args.snr_db)
    chunks = [_chunk("outage_point", [astuple(p) for p in points])]
    return _emit(args, OUTAGE_KINDS["outage_point"], OUTAGE_KINDS, chunks)


def _cmd_exposure(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if not cfg.standards:
        raise ConfigError(["exposure requires at least one [standards.<name>] section"])
    devices = build_devices(cfg)
    report = network_exposure(devices, cfg.standards, cfg.observer_distance_m)
    kinds = exposure_kinds(cfg.standards)
    chunks = _exposure_chunks(report, cfg.standards)
    return _emit(args, kinds["device-exposure"], kinds, chunks)


def _cmd_frames(args: argparse.Namespace) -> int:
    num = make_numerology(args.mu)
    tr_active = args.tr == "on"
    if args.duplex == "fdd":
        frames = build_fdd_pair(num, tr_active, switch_subframe=args.switch_subframe)
    else:
        frames = (build_tdd_frame(num, args.pattern, tr_active),)
    text = "".join(
        f"frame {frame.duplex.value} mu={num.mu} tr={args.tr}\n{frame_dump(frame)}\n"
        for frame in frames
    )
    with _out_stream(args.out) as fh:
        fh.write(text)
    return EXIT_OK


def _cmd_rrc_check(args: argparse.Namespace) -> int:
    with _out_stream(args.out) as fh:
        fh.write(rrc.check_reachability().format_report() + "\n")
    return EXIT_OK


def _snr_points(text: str) -> tuple[float, ...]:
    try:
        points = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --snr-db list {text!r}: {exc}")
    if not points:
        raise argparse.ArgumentTypeError("--snr-db list must be non-empty")
    lo, hi = SNR_DB
    for point in points:
        if not lo <= point <= hi:
            raise argparse.ArgumentTypeError(
                f"--snr-db points must be in [{lo:g}, {hi:g}], got {point}"
            )
    return points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trsim",
        description=(
            "Deterministic single-cell link simulator with a half-duplex"
            " low-radiation device mode."
        ),
        epilog=(
            "exit codes: 0 success, 2 configuration/usage error, 3 domain error,"
            " 4 frequency outside every configured band, 5 I/O error"
        ),
    )
    parser.add_argument("--version", action="version", version=f"trsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, summary: str, records: bool) -> argparse.ArgumentParser:
        """A subcommand; one that emits records reads a config and takes --format."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=handler)
        if records:
            p.add_argument("--config", required=True, help="scenario config file")
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        if records:
            p.add_argument("--format", choices=OUTPUT_FORMATS, default="csv",
                           help="output format (default csv)")
        return p

    add("run", _cmd_run, "run the scenario and emit the full result", records=True)
    p_outage = add(
        "outage", _cmd_outage, "outage versus mean SNR, AM and TR curves", records=True
    )
    p_outage.add_argument(
        "--snr-db",
        type=_snr_points,
        default=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        help="comma-separated mean SNR points in dB",
    )
    p_frames = add("frames", _cmd_frames, "dump frame structures", records=False)
    p_frames.add_argument("--mu", type=int, required=True, help="numerology in [0, 4]")
    p_frames.add_argument("--duplex", choices=("fdd", "tdd"), required=True)
    p_frames.add_argument("--tr", choices=("on", "off"), required=True)
    p_frames.add_argument(
        "--pattern",
        default="DSUUUUUUUU",
        help="TDD direction pattern, 10 of D/U/S with exactly one S",
    )
    p_frames.add_argument(
        "--switch-subframe",
        type=int,
        default=0,
        help="FDD frequency-switching subframe index (default 0)",
    )
    add("rrc-check", _cmd_rrc_check, "transition table and reachability report", False)
    add("exposure", _cmd_exposure, "per-device and network exposure report", True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        findings, code = exc.errors, EXIT_CONFIG
    except UnmappedBandError as exc:
        findings, code = [exc], EXIT_BAND
    except ValueError as exc:
        findings, code = [exc], EXIT_DOMAIN
    except OSError as exc:
        findings, code = [exc], EXIT_IO
    for finding in findings:
        print(f"trsim: error: {finding}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
