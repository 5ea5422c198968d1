import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields, replace
from io import BytesIO, StringIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    ER_TABLE_FIXTURE,
    GOLDEN_DIR,
    REPO_ROOT,
    SCENARIO_TR50,
    WORKLOADS,
    workload_config_text,
)
from trsim import cli, sim
from trsim.cli import (
    EXIT_BAND,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    OUTPUT_FORMATS,
    RUN_CSV_COLUMNS,
    Coded,
    main,
)
from trsim.configfile import format_config, parse_config
from trsim.exposure import network_exposure

DATA_DIR = REPO_ROOT / "tests" / "data"
OUTAGE_DEMO = DATA_DIR / "outage_demo.cfg"
SWITCH_TDD = DATA_DIR / "run_switch_tdd.cfg"
ESCAPED_IDS_CONFIG = DATA_DIR / "run_escaped_ids.cfg"


# every device's frequency lies outside the one standard's band
UNMAPPED_BAND_CONFIG = (
    "[scenario]\nn_users = 2\nn_tr = 0\ncell_radius_m = 100.0\nn_slots = 5\n"
    "seed = 1\nbs_tx_power_w = 10.0\nue_tx_power_w = 0.2\n"
    "[channel]\nfreq_hz = 9.9e12\nnoise_w = 1e-12\nsnr_threshold_db = 0.0\n"
    "[switching]\nrss_threshold_dbm = -90.0\n"
    "[standards.X]\nband = 1e9 2e9 61.0 narrow\n"
)


def run_cli(args: list[str]) -> int:
    return main(args)


def _csv_refuses_nul() -> bool:
    try:
        csv.writer(StringIO()).writerow(("\x00",))
    except csv.Error:
        return True
    return False


# Python 3.10's csv.writer refuses NUL ("need to escape, but no escapechar
# set"); from 3.11 it writes it as itself. Where it refuses, a [devices] id
# with NUL is a configuration error of a CSV run or exposure.
CSV_REFUSES_NUL = _csv_refuses_nul()


def is_nul_finding(stderr: str) -> bool:
    """stderr is the one finding of a [devices] id that CSV cannot hold."""
    return re.fullmatch(r"trsim: error: \[devices\]: device id '[^']*\\x00[^']*' cannot be"
                        r" written as CSV: .*\n", stderr) is not None


class TestGoldenOutputs:
    def check(self, args: list[str], golden_name: str, tmp_path):
        out = tmp_path / "out.txt"
        assert run_cli(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / golden_name).read_bytes()

    def test_frames_tdd_mu0_tr_on(self, tmp_path):
        self.check(
            ["frames", "--mu", "0", "--duplex", "tdd", "--tr", "on"],
            "frames_tdd_mu0_tr_on.txt",
            tmp_path,
        )

    def test_frames_fdd_mu1_tr_off(self, tmp_path):
        self.check(
            ["frames", "--mu", "1", "--duplex", "fdd", "--tr", "off"],
            "frames_fdd_mu1_tr_off.txt",
            tmp_path,
        )

    def test_rrc_check_report(self, tmp_path):
        self.check(["rrc-check"], "rrc_check.txt", tmp_path)

    def test_outage_csv(self, tmp_path):
        self.check(
            ["outage", "--config", str(OUTAGE_DEMO)],
            "outage_demo.csv",
            tmp_path,
        )

    def test_exposure_csv(self, tmp_path):
        self.check(
            ["exposure", "--config", str(ER_TABLE_FIXTURE)],
            "exposure_er_table.csv",
            tmp_path,
        )

    def test_outage_jsonl(self, tmp_path):
        self.check(
            ["outage", "--config", str(OUTAGE_DEMO), "--format", "json-lines"],
            "outage_demo.jsonl",
            tmp_path,
        )

    def test_exposure_jsonl(self, tmp_path):
        self.check(
            ["exposure", "--config", str(ER_TABLE_FIXTURE), "--format", "json-lines"],
            "exposure_er_table.jsonl",
            tmp_path,
        )

    @pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("json-lines", "jsonl")])
    def test_exposure_at_another_distance(self, fmt, suffix, tmp_path):
        """The fixture's observer at 2.5 m, where the inverse-square law and
        any other law in d part: each field and ratio is the 1 m golden's
        over 2.5, each power density the 1 m golden's over 6.25."""
        text = ER_TABLE_FIXTURE.read_text(encoding="utf-8")
        moved = text.replace("observer_distance_m = 1.0\n", "observer_distance_m = 2.5\n")
        assert moved != text
        config = tmp_path / "er_table_2.5m.cfg"
        config.write_text(moved, encoding="utf-8")
        self.check(
            ["exposure", "--config", str(config), "--format", fmt],
            f"exposure_er_table_2.5m.{suffix}",
            tmp_path,
        )

    @pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("json-lines", "jsonl")])
    @pytest.mark.parametrize("command", ["run", "exposure"])
    def test_escaped_ids(self, command, fmt, suffix, tmp_path):
        """Explicit ids that need escaping in one format or the other."""
        self.check(
            [command, "--config", str(ESCAPED_IDS_CONFIG), "--format", fmt],
            f"{command}_escaped_ids.{suffix}",
            tmp_path,
        )

    @pytest.mark.parametrize("duplex", ["fdd", "tdd"])
    def test_run_switching_csv(self, duplex, tmp_path):
        self.check(
            ["run", "--config", str(DATA_DIR / f"run_switch_{duplex}.cfg")],
            f"run_switch_{duplex}.csv",
            tmp_path,
        )

    @pytest.mark.parametrize("duplex", ["fdd", "tdd"])
    def test_run_switching_jsonl(self, duplex, tmp_path):
        self.check(
            ["run", "--config", str(DATA_DIR / f"run_switch_{duplex}.cfg"),
             "--format", "json-lines"],
            f"run_switch_{duplex}.jsonl",
            tmp_path,
        )


class TestFramesCommand:
    def test_tdd_tr_on_has_one_hold_and_no_uplink(self, tmp_path, capsys):
        assert run_cli(["frames", "--mu", "0", "--duplex", "tdd", "--tr", "on"]) == 0
        body = capsys.readouterr().out
        grid = "".join(line for line in body.splitlines() if not line.startswith("frame"))
        assert grid.count("H") == 1
        assert grid.count("U") == 0

    def test_custom_pattern_and_switch_subframe(self, capsys):
        assert (
            run_cli(
                [
                    "frames",
                    "--mu",
                    "0",
                    "--duplex",
                    "tdd",
                    "--tr",
                    "off",
                    "--pattern",
                    "DDDDSUUUUU",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[5] == "R"

    def test_bad_pattern_is_domain_error(self, capsys):
        code = run_cli(
            ["frames", "--mu", "0", "--duplex", "tdd", "--tr", "on", "--pattern", "DDDD"]
        )
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("trsim: error:")

    def test_bad_mu_is_domain_error(self, capsys):
        assert run_cli(["frames", "--mu", "9", "--duplex", "tdd", "--tr", "on"]) == EXIT_DOMAIN


class TestRunCommand:
    def test_csv_schema_and_metrics(self, tmp_path):
        out = tmp_path / "run.csv"
        assert (
            run_cli(["run", "--config", str(SCENARIO_TR50), "--out", str(out)]) == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(RUN_CSV_COLUMNS)
        kinds = {line.split(",", 1)[0] for line in lines[1:]}
        assert kinds == {"sample", "rrc_event", "metric"}
        metric_rows = [line for line in lines if line.startswith("metric,")]
        names = {row.split(",")[13] for row in metric_rows}
        assert {
            "outage_am",
            "outage_tr",
            "total_uplink_interference_w",
            "complexity",
            "network_total_power_density_w_m2",
            "network_e_field_v_per_m",
            "network_er_ICNIRP",
            "network_er_IEEE-C95",
        } == names

    def test_json_lines_parse(self, tmp_path):
        out = tmp_path / "run.jsonl"
        assert (
            run_cli(
                [
                    "run",
                    "--config",
                    str(SCENARIO_TR50),
                    "--format",
                    "json-lines",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        kinds = set()
        for line in out.read_text().splitlines():
            record = json.loads(line)
            kinds.add(record["kind"])
        assert {"sample", "metric"} <= kinds

    def test_device_ids_that_need_escaping_round_trip(self, tmp_path):
        """Explicit ids holding the CSV delimiter and quote come back intact
        from csv.reader and json.loads, in every kind of record."""
        config = tmp_path / "ids.cfg"
        config.write_text(
            SWITCH_TDD.read_text()
            + "\n[devices]\ndevice = a,b 300.0 0.2 3.5e9 am\n"
            + 'device = q"x 390.0 0.2 3.5e9 tr\n'
        )
        ids_by_format = []
        for fmt in OUTPUT_FORMATS:
            out = tmp_path / f"ids.{fmt}"
            assert run_cli(
                ["run", "--config", str(config), "--format", fmt, "--out", str(out)]
            ) == 0
            with open(out, encoding="utf-8", newline="") as fh:
                if fmt == "csv":
                    records = list(csv.DictReader(fh))
                else:
                    records = [json.loads(line) for line in fh]
            ids = {}
            for record in records:
                if record["kind"] != "metric":
                    ids.setdefault(record["kind"], set()).add(record["device_id"])
            ids_by_format.append(ids)
        assert ids_by_format[0] == ids_by_format[1]
        assert ids_by_format[0]["sample"] == {"a,b", 'q"x'}
        assert ids_by_format[0]["mode_transition"] <= {"a,b", 'q"x'}
        assert ids_by_format[0]["rrc_event"] <= {"a,b", 'q"x'}
        assert ids_by_format[0]["mode_transition"], "no device switched"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert (
                run_cli(["run", "--config", str(SCENARIO_TR50), "--out", str(path)]) == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["run", "--config", str(SCENARIO_TR50), "--out", str(a)]) == 0
        assert (
            run_cli(
                ["run", "--config", str(SCENARIO_TR50), "--seed", "1", "--out", str(b)]
            )
            == 0
        )
        assert a.read_bytes() != b.read_bytes()


class TestEncoders:
    def test_non_finite_and_none_written_as_csv_writer_and_json_dumps(
        self, tmp_path, monkeypatch
    ):
        """Every row is what csv.writer writes, and every line what json.dumps
        writes, for the same values, with nan, +-inf and None among them."""
        real_db = sim._db
        specials = np.array([math.nan, math.inf, -math.inf])

        def db(values):
            # received powers in W stay far below 1e-3 and keep their value;
            # three in four SINR ratios become nan, inf or -inf
            out = real_db(values)
            which = values.astype(int) % 4
            special = (values >= 1e-3) & (which != 3)
            out[special] = specials[which[special]]
            return out

        monkeypatch.setattr(sim, "_db", db)
        config = tmp_path / "all_tr.cfg"
        text = re.sub(r"(?m)^n_slots = .*$", "n_slots = 8", SCENARIO_TR50.read_text())
        config.write_text(re.sub(r"(?m)^n_tr = .*$", "n_tr = 50", text))
        csv_out, jsonl_out = tmp_path / "out.csv", tmp_path / "out.jsonl"
        assert run_cli(["run", "--config", str(config), "--out", str(csv_out)]) == 0
        assert run_cli(
            ["run", "--config", str(config), "--format", "json-lines", "--out", str(jsonl_out)]
        ) == 0

        lines = jsonl_out.read_text().splitlines()
        objects = [json.loads(line) for line in lines]
        assert [json.dumps(obj) for obj in objects] == lines
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RUN_CSV_COLUMNS)
            writer.writerows([obj.get(c, "") for c in RUN_CSV_COLUMNS] for obj in objects)
        assert csv_out.read_bytes() == expected.read_bytes()

        body = jsonl_out.read_text()
        for token in ("NaN", "Infinity", "-Infinity", '"value": null'):
            assert token in body, token

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_tuple_columns_written_as_csv_writer_and_json_dumps(self, fmt, monkeypatch):
        """A column of plain values has each value written as its format's
        escape writes it, in pieces of 3 records that cut the columns alike:
        a row is csv.writer's row of the record, a line json.dumps' object."""
        monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
        names = ("a,b", 'q"x', "line\nbreak", "\u00fc-1", "back\\slash", "nul\x00", "", None)
        values = (-0.0, 1e-300, 12345.678, math.nan, math.inf, -math.inf, 7, None)
        chunks = [("point", {"name": names, "value": values}),
                  ("total", {"name": ("all",), "value": (len(values),)})]
        out = BytesIO()
        if fmt == "csv" and CSV_REFUSES_NUL:
            with pytest.raises(ValueError, match=r"^'nul\\x00' cannot be written as CSV: "):
                cli._write_csv(out, ("kind", "name", "value"), chunks)
            return
        if fmt == "csv":
            cli._write_csv(out, ("kind", "name", "value"), chunks)
            expected = StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(("kind", "name", "value"))
            writer.writerows((kind, *row) for kind, chunk in chunks
                             for row in zip(*chunk.values()))
        else:
            cli._write_jsonl(out, chunks)
            expected = StringIO()
            for kind, chunk in chunks:
                for row in zip(*chunk.values()):
                    expected.write(json.dumps({"kind": kind, **dict(zip(chunk, row))}) + "\n")
        assert out.getvalue().decode() == expected.getvalue()


class TestErrorPaths:
    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = run_cli(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("trsim: error:")

    def test_broken_config_is_config_error_with_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nn_users = nope\n")
        code = run_cli(["run", "--config", str(bad)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("trsim: error:") >= 2  # type error plus missing keys

    @pytest.mark.parametrize("command", ["run", "outage"])
    def test_non_utf8_config_is_config_error(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[scenario]\nn_users = 5\xff\n")
        assert run_cli([command, "--config", str(bad)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"trsim: error: {bad}: not UTF-8 text")

    def test_byte_order_mark_is_not_config_text(self, tmp_path):
        """A config saved with a UTF-8 byte-order mark runs as the same
        config without one."""
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(SCENARIO_TR50.read_bytes())
        marked.write_bytes(b"\xef\xbb\xbf" + SCENARIO_TR50.read_bytes())
        texts = []
        for config in (plain, marked):
            out = tmp_path / f"{config.stem}.csv"
            assert run_cli(["run", "--config", str(config), "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[1] == texts[0]

    def test_exposure_without_standards_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nostd.cfg"
        cfg.write_text(
            (REPO_ROOT / "tests" / "data" / "outage_demo.cfg").read_text()
        )
        code = run_cli(["exposure", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "standards" in capsys.readouterr().err

    def test_unmapped_band_exits_with_band_code(self, tmp_path, capsys):
        cfg = tmp_path / "unmapped.cfg"
        cfg.write_text(UNMAPPED_BAND_CONFIG)
        assert run_cli(["exposure", "--config", str(cfg)]) == EXIT_BAND
        assert "outside every band" in capsys.readouterr().err
        # run streams its records, yet finds the band before the first one
        assert run_cli(["run", "--config", str(cfg)]) == EXIT_BAND
        out, err = capsys.readouterr()
        assert out == ""
        assert "outside every band" in err

    def test_unknown_format_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run_cli(["run", "--config", "x.cfg", "--format", "xml"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", "-1e300"])
    def test_snr_point_outside_range_is_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["outage", "--config", str(OUTAGE_DEMO), f"--snr-db=10,{value}"])
        assert exc.value.code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "--snr-db" in err


class TestExposureCommand:
    def test_synthesized_population_report(self, tmp_path):
        out = tmp_path / "exposure.csv"
        assert (
            run_cli(["exposure", "--config", str(SCENARIO_TR50), "--out", str(out)]) == 0
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 52  # header + 50 devices + network-total
        assert lines[-1].startswith("network-total,")
        zero_rows = [line for line in lines[1:-1] if ",0.0,0.0," in line]
        assert len(zero_rows) == 20  # the TR cohort emits nothing

    def test_csv_header_is_the_records_keys(self, tmp_path):
        """The header is a device record's keys: its id, power density and
        E-field, then one ER column per standard, in the config's order."""
        out = tmp_path / "exposure.csv"
        assert run_cli(["exposure", "--config", str(ER_TABLE_FIXTURE), "--out", str(out)]) == 0
        standards = parse_config(ER_TABLE_FIXTURE.read_text()).standards
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["device_id", "power_density_w_m2", "e_field_v_per_m",
                          *(f"er_{std.name}" for std in standards)]

    @staticmethod
    def network_texts(config, tmp_path) -> tuple[dict, dict]:
        """The network-total row of `exposure` and the matching network_*
        metrics of `run`, as CSV text keyed by the exposure's column."""
        exposure_out, run_out = tmp_path / "exposure.csv", tmp_path / "run.csv"
        assert run_cli(["exposure", "--config", str(config), "--out", str(exposure_out)]) == 0
        assert run_cli(["run", "--config", str(config), "--out", str(run_out)]) == 0
        with exposure_out.open(newline="") as fh:
            total = list(csv.DictReader(fh))[-1]
        assert total.pop("device_id") == "network-total"
        with run_out.open(newline="") as fh:
            metrics = {row["metric"]: row["value"]
                       for row in csv.DictReader(fh) if row["kind"] == "metric"}
        names = {"power_density_w_m2": "network_total_power_density_w_m2"}
        return total, {key: metrics[names.get(key, f"network_{key}")] for key in total}

    def test_network_total_is_runs_network_metrics_without_switching(self, tmp_path):
        """With a 200 dB dead band no device leaves its starting mode, so
        `run`'s network metrics, from the modes after the last slot, are
        the text of the exposure's network-total row."""
        total, metrics = self.network_texts(SCENARIO_TR50, tmp_path)
        assert total == metrics
        assert total["power_density_w_m2"] == "0.47746482927568606"
        assert total["e_field_v_per_m"] == "13.411760702198247"
        assert set(total) == {"power_density_w_m2", "e_field_v_per_m",
                              "er_ICNIRP", "er_IEEE-C95"}

    def test_run_counts_the_modes_after_the_last_slot(self, tmp_path):
        """Where devices switch, `run`'s network metrics differ from the
        exposure's network-total row, which counts the starting modes."""
        total, metrics = self.network_texts(SWITCH_TDD, tmp_path)
        assert set(total) == set(metrics)
        for key in total:
            assert total[key] != metrics[key], key

    def test_device_id_of_the_network_total_is_refused(self, tmp_path, capsys):
        """A device named network-total would make its row and the network's
        last row alike."""
        cfg = tmp_path / "reserved.cfg"
        text = ER_TABLE_FIXTURE.read_text()
        cfg.write_text(re.sub(r"(?m)^device = \S+", "device = network-total", text, count=1))
        out = tmp_path / "exposure.csv"
        assert run_cli(["exposure", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "[devices]" in err and "'network-total'" in err

    def test_device_slot_cap_limits_run_not_exposure(self, tmp_path, capsys):
        """A 20,000-device ring over 1000 slots exceeds MAX_DEVICE_SLOTS:
        `run` refuses it before writing, and `exposure`, which steps no
        slot, reports every device."""
        cfg = tmp_path / "wide.cfg"
        text = SCENARIO_TR50.read_text()
        for key, value in (("n_users", 20000), ("n_tr", 8000), ("n_slots", 1000)):
            text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        cfg.write_text(text)
        out = tmp_path / "exposure.csv"
        assert run_cli(["exposure", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 20001  # header, devices, total
        run_out = tmp_path / "run.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(run_out)]) == EXIT_CONFIG
        assert not run_out.exists()
        err = capsys.readouterr().err
        assert f"must be <= {sim.MAX_DEVICE_SLOTS} device-slots, got 20000 x 1000" in err


class TestOutageCommand:
    def test_custom_points_and_jsonl(self, capsys):
        assert (
            run_cli(
                [
                    "outage",
                    "--config",
                    str(OUTAGE_DEMO),
                    "--snr-db",
                    "20,30",
                    "--format",
                    "json-lines",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "outage_point"
        assert first["mean_snr_db"] == 20.0
        assert first["outage_tr"] < first["outage_am"]

    def test_csv_is_outage_points_fields(self, tmp_path):
        """The header is OutagePoint's fields, and each row is a point of
        outage_curve, as csv.writer writes it."""
        out = tmp_path / "outage.csv"
        args = ["outage", "--config", str(OUTAGE_DEMO), "--snr-db=-5,0.5,12.25,30"]
        assert run_cli(args + ["--out", str(out)]) == 0
        points = sim.outage_curve(parse_config(OUTAGE_DEMO.read_text()), (-5.0, 0.5, 12.25, 30.0))
        expected = StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(f.name for f in fields(sim.OutagePoint))
        writer.writerows(map(astuple, points))
        assert out.read_text() == expected.getvalue()


class TestJsonLinesMatchesCsv:
    """Both formats encode the same records: row i of the CSV and object i of
    the JSON-lines output carry the same kind, keys and values."""

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--config", str(SCENARIO_TR50)],
            ["run", "--config", str(SWITCH_TDD)],
            ["exposure", "--config", str(ER_TABLE_FIXTURE)],
            ["outage", "--config", str(OUTAGE_DEMO)],
        ],
        ids=["run-tr50", "run-switch-tdd", "exposure-er-table", "outage-demo"],
    )
    def test_records_pair_up(self, args, tmp_path):
        csv_out, jsonl_out = tmp_path / "out.csv", tmp_path / "out.jsonl"
        assert run_cli(args + ["--out", str(csv_out)]) == 0
        assert run_cli(args + ["--format", "json-lines", "--out", str(jsonl_out)]) == 0
        with open(csv_out, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        objects = [json.loads(line) for line in jsonl_out.read_text().splitlines()]
        assert len(objects) == len(rows)
        kinds = {}  # kind -> the keys of its first object
        for row, obj in zip(rows, objects):
            cells = dict(zip(header, row))
            kind = obj.pop("kind")
            assert cells.pop("kind", kind) == kind
            assert list(obj) == [column for column in header if column in obj]
            assert tuple(obj) == kinds.setdefault(kind, tuple(obj))
            as_text = {key: "" if v is None else str(v) for key, v in obj.items()}
            assert as_text == {key: cells.pop(key) for key in obj}
            assert set(cells.values()) <= {""}  # columns of other kinds stay empty

    def test_readme_lists_each_kinds_keys(self, capsys):
        """README lists each kind's keys as the JSON-lines output writes them,
        with `er_<standard>...` standing for an exposure kind's ER keys."""
        kinds = {}  # kind -> the keys of its first object
        for args in (["run", "--config", str(SWITCH_TDD)],
                     ["outage", "--config", str(OUTAGE_DEMO)],
                     ["exposure", "--config", str(ER_TABLE_FIXTURE)]):
            assert run_cli(args + ["--format", "json-lines"]) == 0
            for line in capsys.readouterr().out.splitlines():
                obj = json.loads(line)
                kinds.setdefault(obj.pop("kind"), tuple(obj))
        assert len(kinds) == 7, sorted(kinds)
        readme = (REPO_ROOT / "README.md").read_text()
        for kind, keys in kinds.items():
            listed = re.sub(r"(,er_[^,]+)+$", ",er_<standard>...", ",".join(keys))
            assert f"{kind}: {listed}\n" in readme


# The reference encoder: one %-template of a record per kind, filled with
# each value as the format's escape writes it, except the numbers of an
# array that `plain` accepts, written as str writes them. (No kind or key
# name holds a `%`.) cli's byte-matrix encoder must write the same text.


def reference_write_chunks(fh, layout, chunks, escape, plain):
    for kind, columns in chunks:
        template, order = layout(kind, tuple(columns))
        columns = list(columns.values())
        texts = []
        for column in (columns[j] for j in order):
            if isinstance(column, Coded):
                table = list(map(escape, column.labels))
                texts.append(list(map(table.__getitem__, column.codes)))
            elif isinstance(column, tuple):
                texts.append(list(map(escape, column)))
            elif plain(column):
                texts.append(column.tolist())
            else:
                texts.append(list(map(escape, column.tolist())))
        n_records, width = len(texts[0]), len(texts)
        flat = [None] * (n_records * width)
        for j, text in enumerate(texts):
            flat[j::width] = text
        fh.write((template * n_records) % tuple(flat))


def reference_write_csv(fh, columns, chunks):
    writerow = csv.writer(cli._Echo(), lineterminator="\n").writerow

    def cell(value):
        return writerow((value, ""))[:-2]

    def layout(kind, keys):
        cells = [cell(kind) if c == "kind" else "%s" if c in keys else "" for c in columns]
        return ",".join(cells) + "\n", [keys.index(c) for c in columns if c in keys]

    fh.write(",".join(map(cell, columns)) + "\n")
    reference_write_chunks(fh, layout, chunks, cell, lambda array: True)


def reference_write_jsonl(fh, chunks):
    def layout(kind, keys):
        return (
            "{" + ", ".join([f'"kind": {json.dumps(kind)}']
                            + [f"{json.dumps(key)}: %s" for key in keys]) + "}\n",
            range(len(keys)),
        )

    reference_write_chunks(
        fh, layout, chunks, json.dumps, lambda array: np.isfinite(array).all()
    )


ESCAPED_IDS = ("a,b", 'q"x', "ü-1", "back\\slash", "nul\x00id", "ue-7")
# the characters that csv.writer or json.dumps write other than as themselves
# on some Python from 3.10, non-ASCII among them, and plain ones
ID_CHARS = ',"\n\r\x00\\\t\x7f\u00fc\u2028\U0001f600ab-_ '
ANY_FLOAT = st.floats(width=64)  # nan, +-inf, subnormals and exponent form too


def id_config(seed: int, n_slots: int, hysteresis_db: float):
    """The TDD switching scenario with explicit devices whose ids need
    escaping in one format or the other."""
    devices = "".join(
        f"device = {device_id} {300.0 + 17 * i} 0.2 3.5e9 {('am', 'tr')[i % 2]}\n"
        for i, device_id in enumerate(ESCAPED_IDS)
    )
    text = re.sub(r"(?m)^n_slots = .*$", f"n_slots = {n_slots}", SWITCH_TDD.read_text())
    text = re.sub(r"(?m)^seed = .*$", f"seed = {seed}", text)
    text = re.sub(r"(?m)^hysteresis_db = .*$", f"hysteresis_db = {hysteresis_db}", text)
    return parse_config(text + "\n[devices]\n" + devices)


def check_encoder(columns, chunks) -> list[str]:
    """cli's encoders write `chunks` as the reference encoder does, in both
    formats, a CSV under `columns`; the texts, CSV first. Where csv.writer
    refuses a value (NUL, on Python 3.10), cli's CSV encoder raises
    ValueError naming it, and the CSV text is None."""
    chunks = list(chunks)
    texts = []
    for fmt in OUTPUT_FORMATS:
        got, want = BytesIO(), StringIO()
        if fmt == "csv":
            try:
                reference_write_csv(want, columns, chunks)
            except csv.Error:
                assert CSV_REFUSES_NUL
                with pytest.raises(ValueError, match=r"\\x00.*' cannot be written as CSV: "):
                    cli._write_csv(got, columns, chunks)
                texts.append(None)
                continue
            cli._write_csv(got, columns, chunks)
        else:
            cli._write_jsonl(got, chunks)
            reference_write_jsonl(want, chunks)
        assert got.getvalue().decode() == want.getvalue(), fmt
        texts.append(want.getvalue())
    return texts


class TestEncoderEqualsReference:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_slots=st.integers(1, 30),
        hysteresis_db=st.sampled_from([0.0, 3.0]),
        data=st.data(),
    )
    def test_run(self, seed, n_slots, hysteresis_db, data):
        """Run chunks with any floats in the first sample chunk's float
        columns and as the labels of its ul_tx_w, coded at random, and
        metrics of every type."""
        cfg = id_config(seed, n_slots, hysteresis_db)
        run = sim.iter_run(cfg)
        chunks = list(cli._run_chunks(next(run), run))
        kind, columns = chunks[0]
        n = len(columns["slot"])
        columns = dict(columns)
        for key in ("fading_gain", "rss_dbm", "sinr_db"):
            columns[key] = data.draw(arrays(np.float64, n, elements=ANY_FLOAT))
        labels = data.draw(st.lists(ANY_FLOAT, min_size=1, max_size=9).map(tuple))
        codes = data.draw(arrays(np.int32, n, elements=st.integers(0, len(labels) - 1)))
        columns["ul_tx_w"] = Coded(labels, codes)
        chunks[0] = kind, columns
        metrics = {
            "none": None, "nan": math.nan, "inf": -math.inf, "int": 3,
            "float": data.draw(ANY_FLOAT), "id": data.draw(st.sampled_from(ESCAPED_IDS)),
        }
        chunks.append(("metric", {"metric": tuple(metrics), "value": tuple(metrics.values())}))
        check_encoder(RUN_CSV_COLUMNS, chunks)

    @settings(max_examples=15, deadline=None)
    @given(points=st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=9))
    def test_outage(self, points):
        real = sim.outage_curve(parse_config(OUTAGE_DEMO.read_text()), (-5.0, 0.0, 12.5))
        keys = tuple(f.name for f in fields(sim.OutagePoint))
        columns = dict(zip(keys, zip(*[astuple(p) for p in real] + points)))
        check_encoder(keys, [("outage_point", columns)])

    @settings(max_examples=5, deadline=None)
    @given(observer_distance_m=st.floats(0.1, 10.0))
    def test_exposure(self, observer_distance_m):
        cfg = id_config(1, 1, 0.0)
        devices = sim.build_devices(cfg)
        report = network_exposure(devices.freq_hz, devices.emitted_w(devices.mode),
                                  cfg.standards, observer_distance_m)
        chunks = list(cli._exposure_chunks(devices.device_id, report))
        check_encoder(tuple(chunks[0][1]), chunks)


    @settings(max_examples=25, deadline=None)
    @given(ids=st.lists(st.text(ID_CHARS, max_size=5), min_size=1, max_size=6, unique=True))
    def test_any_ids(self, ids):
        """Device ids made of the characters that either escape treats
        specially (csv.writer's on any Python from 3.10: `,`, `"`, LF, CR and
        NUL; json.dumps': these, `\\`, other controls and every non-ASCII
        one), beside plain ones, in every kind of record of `run` and of
        `exposure`."""
        cfg = id_config(5, 12, 3.0)
        cfg = replace(cfg, devices=tuple(replace(spec, device_id=device_id)
                                         for spec, device_id in zip(cfg.devices, ids)))
        run = sim.iter_run(cfg)
        check_encoder(RUN_CSV_COLUMNS, cli._run_chunks(next(run), run))
        devices = sim.build_devices(cfg)
        report = network_exposure(devices.freq_hz, devices.emitted_w(devices.mode),
                                  cfg.standards, cfg.observer_distance_m)
        chunks = list(cli._exposure_chunks(devices.device_id, report))
        check_encoder(tuple(chunks[0][1]), chunks)


def module_escape(fmt: str, value):
    """value as csv.writer, in a row of several, or json.dumps writes it;
    ValueError where csv.writer refuses it."""
    if fmt == "json-lines":
        return json.dumps(value)
    try:
        return csv.writer(cli._Echo(), lineterminator="\n").writerow((value, ""))[:-2]
    except csv.Error:
        return ValueError


def fast_escape(fmt: str, value):
    try:
        return cli._FORMATS[fmt].escape(value)
    except ValueError:
        return ValueError


ABOVE_0X800 = st.one_of(st.integers(0xD800, 0xDFFF), st.integers(0x800, 0x10FFFF)).map(chr)


class TestEscape:
    """Each format's escape writes what its module writes; it calls the
    module only for the values that need it."""

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_every_character_below_0x800(self, fmt):
        """Alone and inside a str. The characters the module writes other
        than as themselves, derived here on this Python, are among those
        whose UTF-8 bytes are the format's special ones: for csv `,`, `"`,
        LF and, from Python 3.13, CR, and NUL on 3.10; for json `"`, `\\`,
        the controls and all but ASCII."""
        special = cli._FORMATS[fmt].special
        derived = []
        for code in range(0x800):
            c = chr(code)
            for text in (c, f"a{c}b", c * 3):
                assert fast_escape(fmt, text) == module_escape(fmt, text), (fmt, text)
            quote = cli._FORMATS[fmt].quote
            if module_escape(fmt, c) != f"{quote}{c}{quote}":
                derived.append(c)
        held = [c for c in map(chr, range(0x800)) if set(c.encode()) & set(special)]
        assert set(derived) <= set(held)
        if fmt == "json-lines":
            assert derived == held
        else:
            assert set(derived) >= set(',"\n')

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(ABOVE_0X800, max_size=4), fmt=st.sampled_from(OUTPUT_FORMATS))
    def test_characters_above_0x800(self, text, fmt):
        """Lone surrogates included: json.dumps escapes them; csv.writer
        writes them as themselves, which UTF-8 then refuses."""
        assert fast_escape(fmt, text) == module_escape(fmt, text)

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(st.none(), st.floats(), st.integers(), st.booleans(),
                           st.text(ID_CHARS)),
           fmt=st.sampled_from(OUTPUT_FORMATS))
    def test_other_values(self, value, fmt):
        assert fast_escape(fmt, value) == module_escape(fmt, value)


class TestTxPowerText:
    DEVICES = (
        "device = neg 300.0 -0.0 3.5e9 am\n"
        "device = pos 310.0 0.0 3.5e9 am\n"
        "device = big 320.0 0.3 3.5e9 am\n"
        "device = odd 330.0 0.2 3.5e9 am\n"
        "device = negtr 340.0 -0.0 3.5e9 tr\n"  # writes 0.0: TR sends no uplink
    )

    def config(self, always_on_fraction: float):
        text = re.sub(r"(?m)^n_slots = .*$", "n_slots = 30", SCENARIO_TR50.read_text())
        text = re.sub(r"(?m)^ul_demand_prob = .*$", "ul_demand_prob = 0.5", text)
        text = re.sub(
            r"(?m)^always_on_fraction = .*$", f"always_on_fraction = {always_on_fraction}", text
        )
        return parse_config(text + "\n[devices]\n" + self.DEVICES)

    @pytest.mark.parametrize("always_on_fraction, labels, values", [
        (0.1, 6, ("-0.0", "0.0", "0.03", "0.3", "0.020000000000000004", "0.2")),
        # two of a device's three levels share a bit pattern
        (0.0, 4, ("-0.0", "0.0", "0.3", "0.2")),
        (1.0, 4, ("-0.0", "0.0", "0.3", "0.2")),
    ])
    def test_each_bit_pattern_keeps_its_text(self, always_on_fraction, labels, values):
        """ul_tx_w's labels are the distinct bit patterns of the devices'
        uplink levels, a sample's code gives the very bits of its ul_tx_w,
        and the text is written as the reference encoder writes it, with
        -0.0 and 0.0 apart and an inexact always-on power (0.1 x 0.2) in
        full."""
        cfg = self.config(always_on_fraction)
        devices, *parts = sim.iter_run(cfg)
        chunks = list(cli._run_chunks(devices, iter(parts)))
        coded = [columns["ul_tx_w"] for kind, columns in chunks if kind == "sample"]
        assert all(len(tx.labels) == labels for tx in coded)
        written = np.concatenate([np.array(tx.labels)[tx.codes] for tx in coded])
        ul_tx_w = sim.run_scenario(cfg).ul_tx_w.ravel()
        assert np.array_equal(written.view(np.uint64), ul_tx_w.view(np.uint64))
        for text in check_encoder(RUN_CSV_COLUMNS, chunks):
            for value in ("-0.0", "0.0", "0.03", "0.3", "0.020000000000000004", "0.2"):
                found = re.search(rf"[ ,]{re.escape(value)}[,}}]", text)
                assert bool(found) == (value in values), value


class TestKeptMatrix:
    def test_layout_follows_kind_and_block_widths(self, monkeypatch):
        """In pieces of 4 records, the slot column crosses 9999 -> 10000 and
        two pieces alone hold a float >= 1e4, so the block widths go narrow,
        wide and narrow again, two layouts have one row width, and the last
        piece of each chunk is short; a chunk of another kind, with a column
        of plain values, comes between. The encoder lays its matrix out again
        for each, as the reference encoder's text shows."""
        monkeypatch.setattr(cli, "CHUNK_ROWS", 4)
        slots = np.arange(9990, 10007)
        values = np.linspace(0.5, 3.5, slots.size)
        values[[5, 15]] = 12345.678, -23456.5
        ids = Coded(("a", 'b,"c'), slots % 2)
        first, rest = slice(0, 11), slice(11, None)
        chunks = [
            ("k", {"slot": slots[first], "value": values[first],
                   "id": ids._replace(codes=ids.codes[first])}),
            ("m", {"id": ids._replace(codes=np.array([1, 0])), "note": ('x"y', None)}),
            ("k", {"slot": slots[rest], "value": values[rest],
                   "id": ids._replace(codes=ids.codes[rest])}),
        ]
        check_encoder(("kind", "slot", "value", "id", "note"), chunks)


class _Discard:
    """A file whose `write` keeps nothing."""

    @staticmethod
    def write(data: bytes) -> int:
        return len(data)


class TestLabelTableMemory:
    def test_ids_are_escaped_without_a_list_of_texts(self):
        """Writing a Coded column of 5e4 distinct ids as CSV peaks at about
        82 B per label (tracemalloc, Python 3.11): the label table, the
        encoded texts it is copied from and the kept matrix. A label table
        built by joining padded texts into one bytes object first peaks at
        about 151 B per label, and an encoder that also holds the list of
        every escaped id text beside the table at about 149 B."""
        n = 50_000
        labels = tuple(f"ue-{i:06d}" for i in range(n))
        chunks = [("k", {"device_id": Coded(labels, np.arange(n, dtype=np.int32))})]
        tracemalloc.start()
        try:
            cli._write_csv(_Discard(), ("device_id",), chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 115, f"{peak / n:.1f} B per label"


class TestChunkRows:
    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize("command", ["run", "exposure", "outage"])
    def test_text_does_not_depend_on_chunk_rows(self, command, fmt, tmp_path, monkeypatch):
        """The encoders cut every chunk into pieces of CHUNK_ROWS records;
        cut into pieces of 1 or 7, the records are written the same."""
        config = {"exposure": ER_TABLE_FIXTURE, "outage": OUTAGE_DEMO}.get(command)
        if config is None:
            config = tmp_path / "ids.cfg"
            config.write_text(format_config(id_config(3, 40, 3.0)), encoding="utf-8")
        texts = []
        for rows in (cli.CHUNK_ROWS, 1, 7):
            monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
            out = tmp_path / f"{rows}.out"
            args = [command, "--config", str(config), "--format", fmt, "--out", str(out)]
            if command == "run" and fmt == "csv" and CSV_REFUSES_NUL:
                assert run_cli(args) == EXIT_CONFIG  # see test_nul_id_is_a_config_error
                assert not out.exists()
                return
            assert run_cli(args) == 0
            texts.append(out.read_text(encoding="utf-8"))
        assert texts[1] == texts[0]
        assert texts[2] == texts[0]
        assert command != "run" or "mode_transition" in texts[0], "no device switched"


# sha256 of `trsim run` on each benchmark workload at its default seed, in
# the workload's own format
WORKLOAD_DIGESTS = {
    "ring-wide-csv": "3a5dec52e2b143fd233ee2375765b5ab0b92f453cde2045bd84a43dffb53f4e5",
    "switch-jsonl": "e34b267d5585e9f4c4d9a624eaea74f86ef62ab95c100d122c9958a5fcc4c162",
    "narrow-long-csv": "fcdda0f5efac0c516cccff483bbd96cc203e836077e9bae51acef60b781a5d05",
}
# and on scenario_tr50.cfg as a 20,000-device ring (8,000 TR) x 5 slots, CSV,
# at its seed: wider than any workload, it reaches streams._walk's doubling
# past a stream's kept addends, the engine's FADING_ROWS look-ahead and a
# ul_tx_w table coded for 20,000 devices
WIDE_RING_DIGEST = "0ce8f6aa9d489598031f735ecb93f8314ba85fe78b525265bcbd8721c6a1e8ff"


def check_run_digest(config_text: str, fmt: str, digest: str, what: str, tmp_path) -> None:
    """`trsim run` on the config writes, in the format, bytes of the sha256."""
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text(config_text, encoding="utf-8")
    assert run_cli(["run", "--config", str(config), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (
        f"`trsim run` on {what} wrote other bytes. They need glibc's FMA `log`"
        " kernel, as the goldens do: if tests/test_channel.py::TestHostLog10 fails"
        " too, this host's log is the cause, not the code"
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workload_output_is_pinned(name, tmp_path):
    fmt = WORKLOADS.WORKLOADS[name].output_format
    check_run_digest(
        workload_config_text(name), fmt, WORKLOAD_DIGESTS[name], f"the {name} workload", tmp_path
    )


def ring_text(n_users: int, n_slots: int) -> str:
    """scenario_tr50.cfg, a ring, with n_users devices, 40% of them TR, and
    n_slots slots."""
    text = SCENARIO_TR50.read_text()
    for key, value in (("n_users", n_users), ("n_tr", n_users * 2 // 5), ("n_slots", n_slots)):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    return text


def test_wide_ring_output_is_pinned(tmp_path):
    check_run_digest(ring_text(20_000, 5), "csv", WIDE_RING_DIGEST, "the wide ring", tmp_path)


# sha256 of `trsim run` on the switch-jsonl workload's config at other
# (ul_demand_prob, dl_demand_prob), in each format: one direction's demand is
# decided (0 or 1) and the other's drawn. Each direction takes 10^5 outputs
# of the one traffic stream, past streams.TILE and BASE_ROWS, so a draw
# after a decided direction starts where its 10^5 outputs end.
DEMAND_DIGESTS = {
    (1.0, 0.5, "csv"): "182ac9f88e3de8eb0210707720b7fb1b933df8328d494221dbe4b4217cbfe92a",
    (1.0, 0.5, "json-lines"): "04b3a996712e28ea1d86ac695290f9f3631a09e97e3865e7b745598473b28904",
    (0.0, 0.3, "csv"): "56abbf271f508c8a8bb0196dffc90359adba32ac6c4b34c66d31a3fe68d6aca8",
    (0.0, 0.3, "json-lines"): "ad5d5dd1d036f134f1718c0b3787ff6ef44c0b37c8297292a5d352aafcfdfee1",
    (0.5, 1.0, "csv"): "d08cb3f18d32dc6f777d2388931ffd26ff3f84c38db3cc8cb448230da374123b",
    (0.5, 1.0, "json-lines"): "53c6f02d9ed13f5cff178f0c6980fd8489cf88c854a1f034e241105296876e47",
}


@pytest.mark.parametrize("ul, dl, fmt", list(DEMAND_DIGESTS))
def test_decided_demand_output_is_pinned(ul, dl, fmt, tmp_path):
    text = workload_config_text("switch-jsonl")
    for key, value in (("ul_demand_prob", ul), ("dl_demand_prob", dl)):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    check_run_digest(
        text, fmt, DEMAND_DIGESTS[ul, dl, fmt], f"switch-jsonl at demand {ul}, {dl}", tmp_path
    )


def test_traced_peak_per_device(tmp_path):
    """The traced peak of a one-slot `trsim run` in process grows by at
    most 147 B per device from 4.5x10^4 to 5.5x10^4 devices of the tr50
    ring (128 B on Python 3.11 and numpy 2.4, plus 15%). Both peaks fall in
    one phase, the `_db` of the SINR column, as they did when the ids were
    a tuple of strs (193 B): holding the ids as SynthesizedIds, and writing
    their label table from digits in the encoder, took the 65 B of each
    id's str and its slot in the tuple out of that phase. Below about
    3.9x10^4 devices the peak falls in another phase: at 10^4, in seeding
    the fading streams (`streams._seed`), so from 10^4 to 5x10^4 the slope
    reads 107 B (174 B with the strs), the difference of two phases. Over
    that pair it grew by 375 B while the engine kept its fading streams,
    the last chunk's temporaries and the exposure report through the RRC
    log, and the ids' label table was built from a list of every id's
    bytes."""

    def peak(n_users: int) -> int:
        config = tmp_path / f"{n_users}.cfg"
        config.write_text(ring_text(n_users, 1), encoding="utf-8")
        tracemalloc.start()
        try:
            assert run_cli(["run", "--config", str(config), "--out", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10_000)  # what a process allocates once is made before either peak
    slope = (peak(55_000) - peak(45_000)) / 10_000
    assert slope <= 147, f"{slope:.0f} B per device"


def child_env(**changes: str | None) -> dict[str, str]:
    """This process's environment with src/ on the path and each variable
    of `changes` set to its value, or removed where it is None."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


@pytest.mark.parametrize("config, fmt, loaded", [
    (SCENARIO_TR50, "csv", []),
    (SCENARIO_TR50, "json-lines", []),
    (ESCAPED_IDS_CONFIG, "csv", ["csv"]),
    (ESCAPED_IDS_CONFIG, "json-lines", ["json"]),
], ids=["plain-csv", "plain-json-lines", "escaped-csv", "escaped-json-lines"])
def test_run_loads_only_its_formats_module(config, fmt, loaded):
    """A run whose labels need no escape (synthesized ids, finite floats)
    imports neither csv nor json, and a run of ids that need escaping in
    both formats imports the module of its own format and not the other
    format's, beyond what the interpreter had loaded before trsim."""
    code = (
        "import os, sys\n"
        "bare = set(sys.modules)\n"
        "from trsim.cli import main\n"
        f"main(['run', '--config', {str(config)!r}, '--format', {fmt!r},"
        " '--out', os.devnull])\n"
        "print(*[m for m in ('csv', 'json') if m in set(sys.modules) - bare])\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=child_env(),
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == loaded


@pytest.mark.parametrize("command", ["run", "exposure"])
def test_nul_id_is_a_config_error_where_csv_refuses_it(command, tmp_path, capsys, monkeypatch):
    """With csv.writer refusing NUL, as Python 3.10's does, a CSV run or
    exposure of a [devices] id holding NUL exits 2 with one finding naming
    [devices] and the id, before --out is opened; JSON-lines writes it."""
    real_writer = csv.writer

    class Writer:
        def __init__(self, *args, **kwargs):
            self.writer = real_writer(*args, **kwargs)

        def writerow(self, row):
            if any("\x00" in value for value in row if isinstance(value, str)):
                raise csv.Error("need to escape, but no escapechar set")
            return self.writer.writerow(row)

    monkeypatch.setattr(csv, "writer", Writer)
    config, out = tmp_path / "ids.cfg", tmp_path / "out"
    config.write_text(format_config(id_config(3, 4, 3.0)), encoding="utf-8")
    capsys.readouterr()
    assert run_cli([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and is_nul_finding(captured.err), captured.err
    assert "'nul\\x00id'" in captured.err
    assert not out.exists()
    args = [command, "--config", str(config), "--format", "json-lines", "--out", str(out)]
    assert run_cli(args) == 0
    assert '"nul\\u0000id"' in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
def test_stdout_gets_the_bytes_of_the_out_file(fmt, unbuffered, tmp_path):
    """`--out -` writes to stdout, here a pipe, the very bytes that `--out
    FILE` writes: UTF-8, whatever the encoding of stdout's text layer, and
    every byte of them, whether stdout is buffered or not."""
    config, out = tmp_path / "ids.cfg", tmp_path / "out"
    config.write_text(format_config(id_config(3, 40, 3.0)), encoding="utf-8")
    args = [sys.executable, "-m", "trsim", "run", "--config", str(config), "--format", fmt]
    env = child_env(PYTHONIOENCODING="ascii", PYTHONUNBUFFERED=unbuffered)
    if fmt == "csv" and CSV_REFUSES_NUL:  # the ids hold NUL
        for where in ("-", str(out)):
            child = subprocess.run([*args, "--out", where], env=env, capture_output=True, text=True)
            assert (child.returncode, child.stdout) == (EXIT_CONFIG, "")
            assert is_nul_finding(child.stderr), child.stderr
        assert not out.exists()
        return
    piped = subprocess.run([*args, "--out", "-"], env=env, capture_output=True, check=True)
    subprocess.run([*args, "--out", str(out)], env=env, check=True)
    assert piped.stdout == out.read_bytes()
    assert fmt != "csv" or "ü-1".encode() in piped.stdout  # json.dumps escapes it


def trsim_child(args: list[str], stdout=subprocess.PIPE, wrapper: tuple = (),
                unbuffered: bool = False):
    """`python -m trsim` with `args`, run to its end in a child whose
    stdout is buffered, as a shell gives it, unless `unbuffered`, with its
    stdout and stderr as text; `wrapper`, if given, runs the command."""
    env = child_env(PYTHONUNBUFFERED="1" if unbuffered else None)
    return subprocess.run([*wrapper, sys.executable, "-m", "trsim", *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


def one_error_line(stderr: str) -> bool:
    return re.fullmatch(r"trsim: error: [^\n]*\n", stderr) is not None


DEV_FULL = "/dev/full"  # a device every write to which fails, as on a full disk
# each subcommand, on a small input
COMMANDS = {
    "run-csv": ["run", "--config", str(SWITCH_TDD)],
    "run-json-lines": ["run", "--config", str(SWITCH_TDD), "--format", "json-lines"],
    "outage": ["outage", "--config", str(OUTAGE_DEMO)],
    "exposure": ["exposure", "--config", str(ER_TABLE_FIXTURE)],
    "frames": ["frames", "--mu", "0", "--duplex", "tdd", "--tr", "on"],
    "rrc-check": ["rrc-check"],
}
# runs `exec "$@" >&-`: the command after it with stdout closed
CLOSED_STDOUT = ("sh", "-c", 'exec "$@" >&-', "sh")
# the command after it with stderr closed, or open for reading only (as when
# a launcher script opens its own file on the free descriptor 2): Python
# makes sys.stderr None for the first, and for the second a stream every
# write to which fails
CLOSED_STDERR = ("sh", "-c", 'exec "$@" 2>&-', "sh")
READ_ONLY_STDERR = ("sh", "-c", 'exec "$@" 2</dev/null', "sh")
NO_STDERR = pytest.mark.parametrize(
    "wrapper", [CLOSED_STDERR, READ_ONLY_STDERR], ids=["closed", "read-only"]
)


class TestCommandEnd:
    """The command ends its process once main returns, without interpreter
    teardown: each child here has a buffered stdout, so a write that fails
    only when the last bytes are flushed fails inside main, as an I/O
    error."""

    @pytest.mark.skipif(not os.path.exists(DEV_FULL), reason=f"no {DEV_FULL}")
    @pytest.mark.parametrize("args", COMMANDS.values(), ids=COMMANDS)
    def test_full_stdout_is_io_error(self, args):
        with open(DEV_FULL, "w") as full:
            child = trsim_child(args, stdout=full)
        assert child.returncode == EXIT_IO
        assert one_error_line(child.stderr), child.stderr

    def test_pipe_closed_early_is_io_error(self):
        """The reader takes 100 bytes and closes the pipe; the run's 181 kB
        are more than a pipe holds, so a write fails."""
        argv = [sys.executable, "-m", "trsim", *COMMANDS["run-json-lines"]]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=child_env(PYTHONUNBUFFERED=None)) as child:
            assert len(child.stdout.read(100)) == 100
            child.stdout.close()
            stderr = child.stderr.read()
        assert child.returncode == EXIT_IO
        assert one_error_line(stderr), stderr

    def test_closed_stdout_is_io_error(self):
        child = trsim_child(["rrc-check"], wrapper=CLOSED_STDOUT)
        assert (child.returncode, child.stderr) == (EXIT_IO, "trsim: error: stdout is closed\n")

    def test_closed_stdout_is_not_needed_for_out_file(self, tmp_path):
        out = tmp_path / "run.csv"
        child = trsim_child([*COMMANDS["run-csv"], "--out", str(out)], wrapper=CLOSED_STDOUT)
        assert (child.returncode, child.stderr) == (0, "")
        assert out.read_bytes() == (GOLDEN_DIR / "run_switch_tdd.csv").read_bytes()

    # a run's config text, and the exit code it fails with
    FAILED_RUNS = pytest.mark.parametrize("text, code", [
        ("[scenario]\nn_users = nope\n", EXIT_CONFIG),
        (UNMAPPED_BAND_CONFIG, EXIT_BAND),
    ], ids=["config", "band"])

    @FAILED_RUNS
    def test_findings_are_what_main_prints(self, text, code, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        args = ["run", "--config", str(config)]
        child = trsim_child(args)
        assert main(args) == code
        assert (child.returncode, child.stdout, child.stderr) == (code, "", capsys.readouterr().err)

    @NO_STDERR
    @FAILED_RUNS
    def test_closed_stderr_keeps_the_exit_code(self, text, code, wrapper, tmp_path):
        """With nowhere to write the findings, the exit code alone reports
        the failure; stdout is unbuffered, so a finding written there shows."""
        config = tmp_path / "run.cfg"
        config.write_text(text)
        child = trsim_child(["run", "--config", str(config)], wrapper=wrapper, unbuffered=True)
        assert (child.returncode, child.stdout) == (code, "")

    @NO_STDERR
    def test_closed_stderr_is_not_needed_for_a_run(self, wrapper, tmp_path):
        out = tmp_path / "run.csv"
        with open(out, "w") as stdout:
            child = trsim_child(COMMANDS["run-csv"], stdout=stdout, wrapper=wrapper)
        assert child.returncode == 0
        assert out.read_bytes() == (GOLDEN_DIR / "run_switch_tdd.csv").read_bytes()

    @pytest.mark.parametrize("args, code", [(["--version"], 0), (["--help"], 0), (["run"], 2)],
                             ids=["version", "help", "usage"])
    def test_argparse_exits_as_in_process(self, args, code, capsys, monkeypatch):
        """main raises argparse's SystemExit in process, and the command
        ends with its exit code and the same text: --version and --help
        exit 0 with their text on stdout, a usage error exits 2 with the
        usage on stderr."""
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage to
        child = trsim_child(args)
        with pytest.raises(SystemExit) as exc:
            main(args)
        out, err = capsys.readouterr()
        assert (child.returncode, child.stdout, child.stderr) == (exc.value.code, out, err)
        assert (exc.value.code, bool(out), bool(err)) == (code, code == 0, code != 0)

    @NO_STDERR
    def test_usage_error_without_stderr_is_exit_2(self, wrapper):
        """A usage error exits 2 whatever state stderr is in, and writes no
        usage text to stdout (buffered, as a shell gives it): argparse would
        print it there with sys.stderr None, and its exit kept interpreter
        teardown, whose final flush of a read-only stderr fails (exit 120)."""
        child = trsim_child(["run"], wrapper=wrapper)
        assert (child.returncode, child.stdout) == (EXIT_CONFIG, "")

    @pytest.mark.skipif(not os.path.exists(DEV_FULL), reason=f"no {DEV_FULL}")
    def test_full_stdout_for_help_is_io_error(self):
        with open(DEV_FULL, "w") as full:
            child = trsim_child(["--help"], stdout=full)
        assert child.returncode == EXIT_IO
        assert one_error_line(child.stderr), child.stderr


class TestBlasThreads:
    PROBE = (
        "import trsim.cli, numpy, os, sys;"
        " print(os.environ['OPENBLAS_NUM_THREADS'],"
        " len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else 1)"
    )

    def probe(self, openblas_threads: str | None) -> list[str]:
        """OPENBLAS_NUM_THREADS and the number of threads of a child that
        imports trsim.cli, then numpy."""
        child = subprocess.run([sys.executable, "-c", self.PROBE],
                               env=child_env(OPENBLAS_NUM_THREADS=openblas_threads),
                               capture_output=True, text=True, check=True)
        return child.stdout.split()

    def test_cli_runs_numpy_single_threaded_by_default(self):
        """Importing trsim.cli before numpy sets OPENBLAS_NUM_THREADS to 1,
        so numpy loads without OpenBLAS's worker threads."""
        assert self.probe(None) == ["1", "1"]

    def test_users_thread_count_is_kept(self):
        assert self.probe("2")[0] == "2"

    @pytest.mark.parametrize("openblas_threads", [None, "2"])
    def test_output_does_not_depend_on_the_thread_count(self, openblas_threads, tmp_path):
        out = tmp_path / "run.csv"
        subprocess.run([sys.executable, "-m", "trsim", "run", "--config", str(SWITCH_TDD),
                        "--out", str(out)], env=child_env(OPENBLAS_NUM_THREADS=openblas_threads),
                       check=True)
        assert out.read_bytes() == (GOLDEN_DIR / "run_switch_tdd.csv").read_bytes()
