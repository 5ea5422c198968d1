import csv
import json

import pytest

from conftest import ER_TABLE_FIXTURE, GOLDEN_DIR, REPO_ROOT, SCENARIO_TR50
from trsim.cli import (
    EXIT_BAND,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    OUTAGE_KINDS,
    RUN_CSV_COLUMNS,
    RUN_KINDS,
    exposure_kinds,
    main,
)
from trsim.configfile import parse_config

DATA_DIR = REPO_ROOT / "tests" / "data"
OUTAGE_DEMO = DATA_DIR / "outage_demo.cfg"
SWITCH_TDD = DATA_DIR / "run_switch_tdd.cfg"


def run_cli(args: list[str]) -> int:
    return main(args)


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

    @pytest.mark.parametrize("duplex", ["fdd", "tdd"])
    def test_run_switching_csv(self, duplex, tmp_path):
        self.check(
            ["run", "--config", str(DATA_DIR / f"run_switch_{duplex}.cfg")],
            f"run_switch_{duplex}.csv",
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

    def test_exposure_without_standards_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nostd.cfg"
        cfg.write_text(
            (REPO_ROOT / "tests" / "data" / "outage_demo.cfg").read_text()
        )
        code = run_cli(["exposure", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "standards" in capsys.readouterr().err

    def test_unmapped_band_exits_with_band_code(self, tmp_path, capsys):
        text = (
            "[scenario]\nn_users = 2\nn_tr = 0\ncell_radius_m = 100.0\nn_slots = 5\n"
            "seed = 1\nbs_tx_power_w = 10.0\nue_tx_power_w = 0.2\n"
            "[channel]\nfreq_hz = 9.9e12\nnoise_w = 1e-12\nsnr_threshold_db = 0.0\n"
            "[switching]\nrss_threshold_dbm = -90.0\n"
            "[standards.X]\nband = 1e9 2e9 61.0 narrow\n"
        )
        cfg = tmp_path / "unmapped.cfg"
        cfg.write_text(text)
        assert run_cli(["exposure", "--config", str(cfg)]) == EXIT_BAND
        assert "outside every band" in capsys.readouterr().err

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


def _declared_kinds(args: list[str]) -> dict[str, tuple[str, ...]]:
    if args[0] == "run":
        return RUN_KINDS
    if args[0] == "outage":
        return OUTAGE_KINDS
    with open(args[2], encoding="utf-8") as fh:
        return exposure_kinds(parse_config(fh.read()).standards)


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
        kinds = _declared_kinds(args)
        for row, obj in zip(rows, objects):
            cells = dict(zip(header, row))
            kind = obj.pop("kind")
            assert cells.pop("kind", kind) == kind
            assert tuple(obj) == kinds[kind]
            as_text = {key: "" if v is None else str(v) for key, v in obj.items()}
            assert as_text == {key: cells.pop(key) for key in obj}
            assert set(cells.values()) <= {""}  # columns of other kinds stay empty

    def test_readme_lists_each_kinds_keys(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for kind, keys in {**RUN_KINDS, **OUTAGE_KINDS}.items():
            assert f"{kind}: {','.join(keys)}\n" in readme
