"""Command-line front end: config ingestion, subcommand dispatch, emission.

Subcommands: run, outage, frames, rrc-check, exposure. Output goes to
--out (default stdout). run, outage and exposure each build one stream of
`(kind, values)` records, the values in the order of the kind's keys, and
either encoder writes that stream: csv puts each record's kind and keys
under the columns of the same names in a frozen column order (see the
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
from operator import itemgetter
from typing import IO, Iterable

from . import __version__, rrc
from .configfile import parse_config
from .exposure import ExposureReport, UnmappedBandError, network_exposure
from .frames import build_fdd_pair, build_tdd_frame, frame_dump, make_numerology
from .schema import SNR_DB
from .sim import (
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
Records = Iterable[tuple[str, tuple]]  # (kind, values in the order of its keys)

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


def _run_records(result: SimResult) -> Records:
    # `_value_` is `.value` without its property call, a tenth of the encoding time
    for s in result.samples:
        yield "sample", (
            s.slot, s.device_id, s.mode._value_, s.rrc_state._value_, s.fading_gain,
            s.rss_dbm, s.sinr_db, int(s.ul_active), s.ul_tx_w,
        )
    for tr in result.mode_transitions:
        yield "mode_transition", (
            tr.slot, tr.device_id, tr.rss_dbm, tr.old_mode._value_, tr.new_mode._value_,
        )
    for ev in result.rrc_events:
        yield "rrc_event", (
            ev.slot, ev.device_id, ev.event._value_,
            ev.old_state._value_, ev.new_state._value_,
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
    for name, value in metrics.items():
        yield "metric", (name, value)


def _exposure_records(report: ExposureReport, standards: tuple) -> Records:
    names = [std.name for std in standards]
    for dev in report.per_device:
        ers = (dev.er_per_standard[name] for name in names)
        yield "device-exposure", (
            dev.device_id, dev.power_density_w_m2, dev.e_field_v_per_m, *ers,
        )
    total = (report.network_total_power_density_w_m2, report.network_e_field_v_per_m)
    ers = (report.network_er_per_standard[name] for name in names)
    yield "network-exposure", ("network-total", *total, *ers)


def _write_csv(fh: IO[str], columns: tuple[str, ...], kinds: Kinds, records: Records):
    """A header of `columns`, then one row per record. A record fills the
    `kind` column, if there is one, and its keys' columns; it leaves the
    rest empty. Floats are written as their repr, None as an empty cell."""
    getters = {}
    for kind, keys in kinds.items():
        # positions in (kind, *values, ""); a column not in keys reads the ""
        position = {"kind": 0, **{key: i for i, key in enumerate(keys, 1)}}
        getters[kind] = itemgetter(*(position.get(c, len(keys) + 1) for c in columns))
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(getters[kind]((kind, *values, "")) for kind, values in records)


def _write_jsonl(fh: IO[str], kinds: Kinds, records: Records) -> None:
    """One JSON object per record: its `kind`, then its keys in order."""
    fh.writelines(
        json.dumps({"kind": kind, **dict(zip(kinds[kind], values))}) + "\n"
        for kind, values in records
    )


def _emit(args: argparse.Namespace, columns, kinds: Kinds, records: Records) -> int:
    with _out_stream(args.out) as fh:
        if args.format == "csv":
            _write_csv(fh, columns, kinds, records)
        else:
            _write_jsonl(fh, kinds, records)
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
    return _emit(args, RUN_CSV_COLUMNS, RUN_KINDS, _run_records(result))


def _cmd_outage(args: argparse.Namespace) -> int:
    points = outage_curve(_load_config(args), args.snr_db)
    records = (("outage_point", astuple(p)) for p in points)
    return _emit(args, OUTAGE_KINDS["outage_point"], OUTAGE_KINDS, records)


def _cmd_exposure(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if not cfg.standards:
        raise ConfigError(["exposure requires at least one [standards.<name>] section"])
    devices = build_devices(cfg)
    report = network_exposure(devices, cfg.standards, cfg.observer_distance_m)
    kinds = exposure_kinds(cfg.standards)
    records = _exposure_records(report, cfg.standards)
    return _emit(args, kinds["device-exposure"], kinds, records)


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
