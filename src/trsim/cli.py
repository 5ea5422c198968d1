"""Command-line front end: config ingestion, subcommand dispatch, emission.

Subcommands: run, outage, frames, rrc-check, exposure. Output goes to
--out (default stdout). run, outage and exposure each build one stream of
records, in chunks of any length of records of one kind, each a dict of
the kind's keys, in order, to their columns, built where the columns are.
Either encoder writes that stream: csv puts each record's kind and keys
under the columns of the same names (run's in a frozen order, see the
README) and leaves the other columns empty; json-lines writes each record
as one object of its kind and keys. Both write up to CHUNK_ROWS records at
once, as the rows of one byte matrix kept from piece to piece
(_write_chunks), with the text of the numbers computed a whole column at a
time (textcols), and write the output as UTF-8 bytes.
frames and rrc-check emit fixed text layouts used as golden files.

Exit codes: 0 success; 2 configuration or usage error; 3 domain error
(invalid operation input); 4 frequency outside every configured band;
5 I/O error. Every failure prints one `trsim: error: ...` line per
finding on stderr; with stderr closed, the exit code alone reports it.
The `trsim` command is console(), which ends the process as soon as main
returns and its output is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields, replace
from typing import IO, Iterable, Iterator, NamedTuple, NoReturn

# trsim calls no BLAS routine, so OpenBLAS's thread pool only costs start-up;
# set before numpy loads, and a value the user sets is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, rrc, textcols
from .configfile import parse_config
from .exposure import ExposureReport, UnmappedBandError, network_exposure
from .frames import build_fdd_pair, build_tdd_frame, frame_dump, make_numerology
from .schema import MU, SNR_DB
from .sim import (
    MODE_STATES,
    MODE_UPLINK,
    MODES,
    RRC_EVENTS,
    ConfigError,
    Devices,
    ModeTransitions,
    OutagePoint,
    RrcEvents,
    Samples,
    ScenarioConfig,
    build_devices,
    iter_run,
    outage_curve,
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

# (kind, {key: column}): a run of records of one kind, one column per key in
# the order of the kind's keys, all of one length, which may be any. A column
# is Coded, a numpy array of non-negative ints, a numpy array of floats or a
# tuple of values, each written as the format's escape writes it.
Chunks = Iterable[tuple[str, dict]]

CHUNK_ROWS = 2048  # records per byte matrix: _write_chunks cuts chunks of any length to it

# the device_id of the network-exposure record, which no device may take
NETWORK_TOTAL = "network-total"


class Coded(NamedTuple):
    """A column of labels repeated across records, as codes into a table of
    them, so that an encoder writes each distinct label once per run, as its
    format's escape writes it."""

    labels: tuple
    codes: np.ndarray


def _tx_bits(levels_w: np.ndarray) -> np.ndarray:
    """The distinct bit patterns of the (3, n) table of each device's uplink
    levels (Devices.uplink_levels_w), sorted: ul_tx_w's labels, and the
    table a level's code is found in with np.searchsorted."""
    bits = np.sort(levels_w.view(np.uint64).ravel(), kind="stable")
    return bits[np.r_[True, bits[1:] != bits[:-1]]]


def _run_chunks(devices: Devices, run: Iterator) -> Chunks:
    """The records of sim.iter_run's stream, its columns labelled: `devices`
    is its first item and `run` the rest. Each record is let go before the
    next is asked for."""
    ids, levels_w = devices.device_id, devices.uplink_levels_w
    n = len(ids)
    tx_bits = _tx_bits(levels_w)
    # Python floats keep -0.0 apart from 0.0, and both escapes write a float's repr
    tx_labels = tuple(tx_bits.view(np.float64).tolist())
    modes = tuple(m.value for m in MODES)
    flipped = modes[::-1]  # a transition's from, coded by its to
    events = tuple(e.value for e in RRC_EVENTS)
    # rrc_state, ul_active and the RRC log's states are labels of the mode codes
    mode_states = tuple(s.value for s in MODE_STATES)
    mode_uplink = tuple(map(int, MODE_UPLINK))
    first = 0  # the part's first slot
    for part in run:
        if isinstance(part, Samples):
            # in record order, slot by slot, then device by device
            slots = len(part.mode)
            yield "sample", {
                "slot": np.arange(first, first + slots, dtype=np.int32).repeat(n),
                "device_id": Coded(ids, np.tile(np.arange(n, dtype=np.int32), slots)),
                "mode": Coded(modes, part.mode.ravel()),
                "rrc_state": Coded(mode_states, part.mode.ravel()),
                "fading_gain": part.fading_gain.ravel(), "rss_dbm": part.rss_dbm.ravel(),
                "sinr_db": part.sinr_db.ravel(), "ul_active": Coded(mode_uplink, part.mode.ravel()),
                "ul_tx_w": Coded(tx_labels, np.searchsorted(
                    tx_bits, np.take_along_axis(levels_w, part.ul_level, 0).view(np.uint64)
                ).astype(np.int32).ravel()),
            }
            first += slots
        elif isinstance(part, ModeTransitions):
            yield "mode_transition", {
                "slot": part.slot, "device_id": Coded(ids, part.device), "rss_dbm": part.rss_dbm,
                "from": Coded(flipped, part.new), "to": Coded(modes, part.new),
            }
        elif isinstance(part, RrcEvents):
            yield "rrc_event", {
                "slot": part.slot, "device_id": Coded(ids, part.device),
                "event": Coded(events, part.event),
                "from": Coded(mode_states, part.old), "to": Coded(mode_states, part.new),
            }
        else:
            report = part.exposure
            metrics = {
                "outage_am": part.outage_am,
                "outage_tr": part.outage_tr,
                "total_uplink_interference_w": part.total_uplink_interference_w,
                "complexity": part.complexity,
                "network_total_power_density_w_m2": report.network_total_power_density_w_m2,
                "network_e_field_v_per_m": report.network_e_field_v_per_m,
            }
            for name, er in report.network_er_per_standard.items():
                metrics[f"network_er_{name}"] = er
            yield "metric", {"metric": tuple(metrics), "value": tuple(metrics.values())}
        del part


def _exposure_chunks(ids: tuple, report: ExposureReport) -> Chunks:
    """A device-exposure record per device, `ids` naming them, then the
    network-exposure record; both kinds have these keys, with the ER
    columns in the report's order."""

    def columns(device_id, power_density, e_field, er_per_standard) -> dict:
        return {"device_id": device_id, "power_density_w_m2": power_density,
                "e_field_v_per_m": e_field,
                **{f"er_{name}": er for name, er in er_per_standard.items()}}

    yield "device-exposure", columns(ids, report.power_density_w_m2, report.e_field_v_per_m,
                                     report.er_per_standard)
    yield "network-exposure", columns(
        (NETWORK_TOTAL,), (report.network_total_power_density_w_m2,),
        (report.network_e_field_v_per_m,),
        {name: (er,) for name, er in report.network_er_per_standard.items()})


def _write_chunks(fh: IO[bytes], layout, chunks: Chunks, escape) -> None:
    """Write each chunk in pieces of at most CHUNK_ROWS records, each piece
    as the rows of one matrix of bytes, one row per record. A kind's layout,
    `layout(kind, keys)` of the keys of its first chunk, is its record's
    text as literal pieces with, between each two, the index of the key
    whose value goes there. In a row, each value is a fixed-width block
    padded with textcols.PAD, which the bytes written leave out.

    The matrix is kept from piece to piece: it is laid out again, its
    literal pieces written into every row, only when the kind or the width
    of a block changes. Each piece writes only its blocks, into the rows it
    fills.

    Every value is written as `escape` writes it. textcols writes the ints
    and the floats of an array as str and repr do, which is what both
    escapes write for them, and leaves the floats that repr writes in
    exponent form, and non-finite ones, to `escape`. A Coded column's labels
    are escaped once per run, one at a time into their table.
    """
    pad = bytes([textcols.PAD])
    # id of a Coded column's labels -> the labels (held, so that the id stays
    # their own) and their padded text
    tables: dict[int, tuple] = {}
    layouts: dict[str, list] = {}
    shape = spans = buffer = matrix = None  # the kept matrix, by kind and block widths
    for kind, chunk in chunks:
        if kind not in layouts:
            layouts[kind] = layout(kind, tuple(chunk))
        chunk = list(chunk.values())
        size = len(chunk[0].codes if isinstance(chunk[0], Coded) else chunk[0])
        for r0 in range(0, size, CHUNK_ROWS):
            # views of the chunk's columns; a Coded one keeps its labels, so
            # their text stays cached
            cut = slice(r0, r0 + CHUNK_ROWS)
            blocks = _blocks([c._replace(codes=c.codes[cut]) if isinstance(c, Coded) else c[cut]
                              for c in chunk], escape, tables)
            rows, widths = len(blocks[0]), tuple(block.shape[1] for block in blocks)
            if shape != (kind, widths):
                shape, spans, at, literals = (kind, widths), [], 0, []
                for item in layouts[kind]:
                    if isinstance(item, int):
                        spans.append((item, at, at + widths[item]))
                        at += widths[item]
                    else:
                        literals.append((at, item.encode()))
                        at += len(literals[-1][1])
                matrix = buffer = None  # the old matrix goes before the new one comes
                buffer = bytearray(CHUNK_ROWS * at)
                matrix = np.frombuffer(buffer, np.uint8).reshape(CHUNK_ROWS, at)
                for a, literal in literals:
                    matrix[:, a:a + len(literal)] = np.frombuffer(literal, np.uint8)
            for j, a, b in spans:
                matrix[:rows, a:b] = blocks[j]
            del blocks  # the next piece's blocks are made without these
            fh.write((buffer if rows == CHUNK_ROWS else buffer[:rows * matrix.shape[1]])
                     .translate(None, pad))
        del chunk  # let go before the next is made


def _blocks(columns: list, escape, tables: dict) -> list:
    """Each column's values as the rows of a matrix of fixed-width blocks, as
    _write_chunks writes them; `tables` caches each Coded column's labels'
    text."""
    blocks = [None] * len(columns)
    floats = [j for j, c in enumerate(columns) if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    if floats:
        text = textcols.floats(np.stack([columns[j] for j in floats]), escape)
        for j, block in zip(floats, text):
            blocks[j] = block
    for j, column in enumerate(columns):
        if isinstance(column, tuple):  # a Coded is a tuple too
            if not isinstance(column, Coded):
                texts = textcols.labels(map(escape, column))
            else:
                if id(column.labels) not in tables:
                    texts = textcols.labels(map(escape, column.labels))
                    tables[id(column.labels)] = column.labels, texts
                texts = tables[id(column.labels)][1].take(column.codes)
            blocks[j] = texts.view(np.uint8).reshape(len(texts), -1)
        elif blocks[j] is None:
            blocks[j] = textcols.ints(column)
    return blocks


class _Echo:
    """A file whose `write` returns its text, so that a csv writer's
    `writerow` returns the row."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _write_csv(fh: IO[bytes], columns: tuple[str, ...], chunks: Chunks):
    """A header of `columns`, then one row per record. A record fills the
    `kind` column, if there is one, and its keys' columns; it leaves the
    rest empty. Each cell is what csv.writer writes: a float as its repr,
    None as an empty cell, a string quoted when it needs to be."""
    writerow = csv.writer(_Echo(), lineterminator="\n").writerow

    def cell(value) -> str:
        # the cell as it stands in a row of several cells
        return writerow((value, ""))[:-2]

    def layout(kind: str, keys: tuple) -> list:
        pieces = [""]
        for i, c in enumerate(columns):
            if i:
                pieces[-1] += ","
            if c in keys:
                pieces += [keys.index(c), ""]
            elif c == "kind":
                pieces[-1] += cell(kind)
        pieces[-1] += "\n"
        return pieces

    fh.write((",".join(map(cell, columns)) + "\n").encode())
    _write_chunks(fh, layout, chunks, cell)


def _write_jsonl(fh: IO[bytes], chunks: Chunks) -> None:
    """One JSON object per record, as json.dumps writes it: its `kind`, then
    its keys in order."""

    def layout(kind: str, keys: tuple) -> list:
        pieces = [f'{{"kind": {json.dumps(kind)}']
        for j, key in enumerate(keys):
            pieces[-1] += f", {json.dumps(key)}: "
            pieces += [j, ""]
        pieces[-1] += "}\n"
        return pieces

    _write_chunks(fh, layout, chunks, json.dumps)


def _emit(args: argparse.Namespace, columns: tuple[str, ...], chunks: Chunks) -> int:
    with _out_stream(args.out) as fh:
        if args.format == "csv":
            _write_csv(fh, columns, chunks)
        else:
            _write_jsonl(fh, chunks)
    return EXIT_OK


def _out_stream(path: str):
    """The output, open for bytes; `-` is stdout."""
    return _stdout() if path == "-" else open(path, "wb")


@contextmanager
def _stdout() -> Iterator[IO[bytes]]:
    """stdout's bytes, flushed once written, so that a failed final write
    raises here; after a failed write, what is left is not flushed again."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    sys.stdout.flush()  # text written before goes out first
    yield sys.stdout.buffer
    sys.stdout.buffer.flush()


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    try:
        # utf-8-sig: a leading byte-order mark is not config text
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{args.config}: not UTF-8 text: {exc}"]) from None
    cfg = parse_config(text)  # a --seed override is checked as the config is rebuilt
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    run = iter_run(cfg)
    devices = next(run)  # the config is checked by now, before the output is opened
    return _emit(args, RUN_CSV_COLUMNS, _run_chunks(devices, run))


def _cmd_outage(args: argparse.Namespace) -> int:
    points = outage_curve(_load_config(args), args.snr_db)
    columns = {f.name: tuple(getattr(p, f.name) for p in points) for f in fields(OutagePoint)}
    return _emit(args, tuple(columns), [("outage_point", columns)])


def _cmd_exposure(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if not cfg.standards:
        raise ConfigError(["exposure requires at least one [standards.<name>] section"])
    if any(spec.device_id == NETWORK_TOTAL for spec in cfg.devices):
        raise ConfigError([f"[devices]: device id {NETWORK_TOTAL!r} is reserved"])
    devices = build_devices(cfg)
    report = network_exposure(devices.freq_hz, devices.emitted_w(devices.mode), cfg.standards,
                              cfg.observer_distance_m)
    chunks = list(_exposure_chunks(devices.device_id, report))
    return _emit(args, tuple(chunks[0][1]), chunks)


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
        fh.write(text.encode())
    return EXIT_OK


def _cmd_rrc_check(args: argparse.Namespace) -> int:
    with _out_stream(args.out) as fh:
        fh.write((rrc.check_reachability() + "\n").encode())
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a usage error with stderr closed
    (sys.stderr None) writes nothing: argparse would print the usage with
    print_usage(None), which writes to stdout."""

    def error(self, message: str) -> NoReturn:
        if sys.stderr is None:
            self.exit(EXIT_CONFIG)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_frames.add_argument(
        "--mu", type=int, required=True, help=f"numerology in [{MU[0]}, {MU[1]}]"
    )
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
    _report(findings)
    return code


def _report(findings: list) -> None:
    """One `trsim: error:` line per finding on stderr. With stderr closed
    (None, or a write fails) the exit code alone reports the failure:
    print(file=None) would write the findings to stdout."""
    if sys.stderr is not None:
        with suppress(OSError):
            for finding in findings:
                print(f"trsim: error: {finding}", file=sys.stderr)


def console() -> NoReturn:
    """The `trsim` command: main(), then the process ends at its last byte,
    with main's exit code or that of argparse's exit (2 for a usage error,
    0 for --help and --version, whose text is flushed to stdout first; if
    that flush fails, 5). An exception main does not catch propagates as
    usual."""
    try:
        code = main()
    except SystemExit as exc:  # raised only by argparse, with an int code
        code = exc.code
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError as err:
            code = EXIT_IO
            _report([err])
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.flush()
    # main has written and flushed or closed its output, and trsim registers
    # no atexit handler and starts no thread: interpreter teardown would
    # change nothing trsim wrote, so skip it
    os._exit(code)
