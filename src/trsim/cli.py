"""Command-line front end: config ingestion, subcommand dispatch, emission.

Subcommands: run, outage, frames, rrc-check, exposure. Output goes to
--out (default stdout). Formats are csv (frozen column orders, see the
README) or json-lines; frames and rrc-check emit fixed text layouts used
as golden files.

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
from dataclasses import dataclass, field, replace
from typing import IO, Any

from . import __version__, rrc
from .configfile import parse_config
from .exposure import ExposureReport, UnmappedBandError, network_exposure
from .frames import build_fdd_pair, build_tdd_frame, frame_dump, make_numerology
from .sim import (
    ConfigError,
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
    "kind",
    "slot",
    "device_id",
    "mode",
    "rrc_state",
    "fading_gain",
    "rss_dbm",
    "sinr_db",
    "ul_active",
    "ul_tx_w",
    "event",
    "from",
    "to",
    "metric",
    "value",
)


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config_path: str | None = None
    out_path: str = "-"
    output_format: str = "csv"
    seed_override: int | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"output format must be one of {OUTPUT_FORMATS},"
                f" got {self.output_format!r}"
            )


def _load_config(manifest: RunManifest) -> ScenarioConfig:
    if manifest.config_path is None:
        raise ConfigError([f"subcommand {manifest.subcommand!r} requires --config"])
    with open(manifest.config_path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if manifest.seed_override is not None:
        cfg = replace(cfg, seed=manifest.seed_override).require_valid()
    return cfg


def _out_stream(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    return repr(value)


def _run_metrics(result: SimResult) -> list[tuple[str, float | None]]:
    metrics: list[tuple[str, float | None]] = [
        ("outage_am", result.outage_am),
        ("outage_tr", result.outage_tr),
        ("total_uplink_interference_w", result.total_uplink_interference_w),
        ("complexity", result.complexity),
        (
            "network_total_power_density_w_m2",
            result.exposure.network_total_power_density_w_m2,
        ),
        ("network_e_field_v_per_m", result.exposure.network_e_field_v_per_m),
    ]
    for std in result.config.standards:
        metrics.append(
            (f"network_er_{std.name}", result.exposure.network_er_per_standard[std.name])
        )
    return metrics


def _write_run_csv(result: SimResult, fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RUN_CSV_COLUMNS)
    blank = [""] * len(RUN_CSV_COLUMNS)
    for s in result.samples:
        writer.writerow(
            [
                "sample",
                s.slot,
                s.device_id,
                s.mode.value,
                s.rrc_state.value,
                _fmt(s.fading_gain),
                _fmt(s.rss_dbm),
                _fmt(s.sinr_db),
                int(s.ul_active),
                _fmt(s.ul_tx_w),
                "",
                "",
                "",
                "",
                "",
            ]
        )
    for tr in result.mode_transitions:
        row = blank.copy()
        row[0], row[1], row[2] = "mode_transition", tr.slot, tr.device_id
        row[6] = _fmt(tr.rss_dbm)
        row[11], row[12] = tr.old_mode.value, tr.new_mode.value
        writer.writerow(row)
    for ev in result.rrc_events:
        row = blank.copy()
        row[0], row[1], row[2] = "rrc_event", ev.slot, ev.device_id
        row[10], row[11], row[12] = ev.event.value, ev.old_state.value, ev.new_state.value
        writer.writerow(row)
    for name, value in _run_metrics(result):
        row = blank.copy()
        row[0], row[13], row[14] = "metric", name, _fmt(value)
        writer.writerow(row)


def _write_run_jsonl(result: SimResult, fh: IO[str]) -> None:
    def emit(obj: dict[str, Any]) -> None:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")

    for s in result.samples:
        emit(
            {
                "kind": "sample",
                "slot": s.slot,
                "device_id": s.device_id,
                "mode": s.mode.value,
                "rrc_state": s.rrc_state.value,
                "fading_gain": s.fading_gain,
                "rss_dbm": s.rss_dbm,
                "sinr_db": s.sinr_db,
                "ul_active": s.ul_active,
                "ul_tx_w": s.ul_tx_w,
            }
        )
    for tr in result.mode_transitions:
        emit(
            {
                "kind": "mode_transition",
                "slot": tr.slot,
                "device_id": tr.device_id,
                "old_mode": tr.old_mode.value,
                "new_mode": tr.new_mode.value,
                "rss_dbm": tr.rss_dbm,
            }
        )
    for ev in result.rrc_events:
        emit(
            {
                "kind": "rrc_event",
                "slot": ev.slot,
                "device_id": ev.device_id,
                "event": ev.event.value,
                "old_state": ev.old_state.value,
                "new_state": ev.new_state.value,
            }
        )
    for name, value in _run_metrics(result):
        emit({"kind": "metric", "name": name, "value": value})


def _write_exposure_csv(
    report: ExposureReport, standards: tuple, fh: IO[str]
) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    names = [std.name for std in standards]
    writer.writerow(
        ["device_id", "power_density_w_m2", "e_field_v_per_m"]
        + [f"er_{name}" for name in names]
    )
    for dev in report.per_device:
        writer.writerow(
            [dev.device_id, _fmt(dev.power_density_w_m2), _fmt(dev.e_field_v_per_m)]
            + [_fmt(dev.er_per_standard[name]) for name in names]
        )
    writer.writerow(
        [
            "network-total",
            _fmt(report.network_total_power_density_w_m2),
            _fmt(report.network_e_field_v_per_m),
        ]
        + [_fmt(report.network_er_per_standard[name]) for name in names]
    )


def _write_exposure_jsonl(
    report: ExposureReport, standards: tuple, fh: IO[str]
) -> None:
    names = [std.name for std in standards]
    for dev in report.per_device:
        fh.write(
            json.dumps(
                {
                    "kind": "device-exposure",
                    "device_id": dev.device_id,
                    "power_density_w_m2": dev.power_density_w_m2,
                    "e_field_v_per_m": dev.e_field_v_per_m,
                    "er": {name: dev.er_per_standard[name] for name in names},
                },
                sort_keys=True,
            )
            + "\n"
        )
    fh.write(
        json.dumps(
            {
                "kind": "network-exposure",
                "power_density_w_m2": report.network_total_power_density_w_m2,
                "e_field_v_per_m": report.network_e_field_v_per_m,
                "er": {name: report.network_er_per_standard[name] for name in names},
            },
            sort_keys=True,
        )
        + "\n"
    )


def _cmd_run(manifest: RunManifest) -> int:
    cfg = _load_config(manifest)
    result = run_scenario(cfg)
    with _out_stream(manifest.out_path) as fh:
        if manifest.output_format == "csv":
            _write_run_csv(result, fh)
        else:
            _write_run_jsonl(result, fh)
    return EXIT_OK


def _cmd_outage(manifest: RunManifest) -> int:
    cfg = _load_config(manifest)
    points = outage_curve(cfg, manifest.params["snr_points"])
    with _out_stream(manifest.out_path) as fh:
        if manifest.output_format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["mean_snr_db", "outage_am", "outage_tr"])
            for p in points:
                writer.writerow([_fmt(p.mean_snr_db), _fmt(p.outage_am), _fmt(p.outage_tr)])
        else:
            for p in points:
                fh.write(
                    json.dumps(
                        {
                            "kind": "outage_point",
                            "mean_snr_db": p.mean_snr_db,
                            "outage_am": p.outage_am,
                            "outage_tr": p.outage_tr,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    return EXIT_OK


def _cmd_frames(manifest: RunManifest) -> int:
    params = manifest.params
    num = make_numerology(params["mu"])
    tr_active = params["tr_on"]
    flag = "on" if tr_active else "off"
    blocks = []
    if params["duplex"] == "fdd":
        dl, ul = build_fdd_pair(num, tr_active, switch_subframe=params["switch_subframe"])
        for frame in (dl, ul):
            blocks.append(f"frame {frame.duplex.value} mu={num.mu} tr={flag}")
            blocks.append(frame_dump(frame))
    else:
        frame = build_tdd_frame(num, params["pattern"], tr_active)
        blocks.append(f"frame {frame.duplex.value} mu={num.mu} tr={flag}")
        blocks.append(frame_dump(frame))
    with _out_stream(manifest.out_path) as fh:
        fh.write("\n".join(blocks) + "\n")
    return EXIT_OK


def _cmd_rrc_check(manifest: RunManifest) -> int:
    report = rrc.check_reachability()
    with _out_stream(manifest.out_path) as fh:
        fh.write(report.format_report() + "\n")
    return EXIT_OK


def _cmd_exposure(manifest: RunManifest) -> int:
    cfg = _load_config(manifest)
    if not cfg.standards:
        raise ConfigError(["exposure requires at least one [standards.<name>] section"])
    devices = build_devices(cfg)
    report = network_exposure(devices, cfg.standards, cfg.observer_distance_m)
    with _out_stream(manifest.out_path) as fh:
        if manifest.output_format == "csv":
            _write_exposure_csv(report, cfg.standards, fh)
        else:
            _write_exposure_jsonl(report, cfg.standards, fh)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "outage": _cmd_outage,
    "frames": _cmd_frames,
    "rrc-check": _cmd_rrc_check,
    "exposure": _cmd_exposure,
}


def dispatch(manifest: RunManifest) -> int:
    handler = _COMMANDS.get(manifest.subcommand)
    if handler is None:
        raise ValueError(f"unknown subcommand {manifest.subcommand!r}")
    return handler(manifest)


def _snr_points(text: str) -> tuple[float, ...]:
    try:
        points = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --snr-db list {text!r}: {exc}")
    if not points:
        raise argparse.ArgumentTypeError("--snr-db list must be non-empty")
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

    def add_io(p: argparse.ArgumentParser, needs_config: bool) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="scenario config file")
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument(
            "--format",
            choices=OUTPUT_FORMATS,
            default="csv",
            help="output format (default csv)",
        )

    p_run = sub.add_parser("run", help="run the scenario and emit the full result")
    add_io(p_run, needs_config=True)

    p_outage = sub.add_parser("outage", help="outage versus mean SNR, AM and TR curves")
    add_io(p_outage, needs_config=True)
    p_outage.add_argument(
        "--snr-db",
        type=_snr_points,
        default=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        help="comma-separated mean SNR points in dB",
    )

    p_frames = sub.add_parser("frames", help="dump frame structures")
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
    p_frames.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_rrc = sub.add_parser("rrc-check", help="transition table and reachability report")
    p_rrc.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_exp = sub.add_parser("exposure", help="per-device and network exposure report")
    add_io(p_exp, needs_config=True)

    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    params: dict[str, Any] = {}
    if args.subcommand == "outage":
        params["snr_points"] = tuple(args.snr_db)
    elif args.subcommand == "frames":
        params = {
            "mu": args.mu,
            "duplex": args.duplex,
            "tr_on": args.tr == "on",
            "pattern": args.pattern,
            "switch_subframe": args.switch_subframe,
        }
    return RunManifest(
        subcommand=args.subcommand,
        config_path=getattr(args, "config", None),
        out_path=args.out,
        output_format=getattr(args, "format", "csv"),
        seed_override=getattr(args, "seed", None),
        params=params,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = _manifest_from_args(args)
    try:
        return dispatch(manifest)
    except ConfigError as exc:
        for finding in exc.errors:
            print(f"trsim: error: {finding}", file=sys.stderr)
        return EXIT_CONFIG
    except UnmappedBandError as exc:
        print(f"trsim: error: {exc}", file=sys.stderr)
        return EXIT_BAND
    except ValueError as exc:
        print(f"trsim: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"trsim: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
