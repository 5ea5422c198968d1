import string
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ER_TABLE_FIXTURE, SCENARIO_TR50
from trsim import cli
from trsim.configfile import format_config, parse_config
from trsim.exposure import ExposureStandard, FrequencyBand
from trsim.sim import ConfigError, DeviceSpec
from trsim.trmode import Mode

MINIMAL = """\
[scenario]
n_users = 4
n_tr = 1
cell_radius_m = 250.0
n_slots = 10
seed = 2
bs_tx_power_w = 10.0
ue_tx_power_w = 0.2

[channel]
freq_hz = 3.5e9
noise_w = 4e-15
snr_threshold_db = 0.0

[switching]
rss_threshold_dbm = -90.0
"""


class TestParseFixtures:
    def test_bundled_scenario_parses(self):
        cfg = parse_config(SCENARIO_TR50.read_text())
        assert cfg.n_users == 50
        assert cfg.n_tr == 20
        assert cfg.placement == "ring"
        assert cfg.seed == 20260808
        assert cfg.ul_demand_prob == 1.0
        assert cfg.hysteresis_db == 200.0
        assert [std.name for std in cfg.standards] == ["ICNIRP", "IEEE-C95"]

    def test_er_table_fixture_parses(self):
        cfg = parse_config(ER_TABLE_FIXTURE.read_text())
        assert len(cfg.devices) == 20
        assert all(spec.mode is Mode.AM for spec in cfg.devices)
        assert [std.name for std in cfg.standards] == ["ICNIRP", "IEEE-C95"]
        assert all(len(std.bands) == 5 for std in cfg.standards)

    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.duplex == "fdd"
        assert cfg.numerology_mu == 0
        assert cfg.placement == "disk"
        assert cfg.hysteresis_db == 3.0
        assert cfg.always_on_fraction == 0.1
        assert cfg.standards == ()
        assert cfg.devices == ()


class TestParseErrors:
    def test_empty_input_lists_every_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        text = str(err.value)
        for key in (
            "n_users",
            "n_tr",
            "cell_radius_m",
            "n_slots",
            "seed",
            "bs_tx_power_w",
            "ue_tx_power_w",
            "freq_hz",
            "noise_w",
            "snr_threshold_db",
            "rss_threshold_dbm",
        ):
            assert key in text

    def test_cohort_overflow_is_one_error_naming_both_fields(self):
        broken = MINIMAL.replace("n_tr = 1", "n_tr = 9")
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert len(err.value.errors) == 1
        assert "n_tr" in err.value.errors[0] and "n_users" in err.value.errors[0]

    def test_unknown_key_reports_line_number(self):
        broken = MINIMAL + "wibble = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        line = MINIMAL.count("\n") + 1
        assert any(f"line {line}" in e and "wibble" in e for e in err.value.errors)

    def test_unknown_section_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "[mystery]\nx = 1\n")
        assert any("unknown section" in e for e in err.value.errors)

    def test_bad_number_reported_with_line(self):
        broken = MINIMAL.replace("n_users = 4", "n_users = four")
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("line 2" in e and "n_users" in e for e in err.value.errors)

    def test_duplicate_key_reported(self):
        broken = MINIMAL + "\n[scenario]\nn_users = 9\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("duplicate key" in e for e in err.value.errors)

    def test_malformed_band_line_reported(self):
        broken = MINIMAL + "\n[standards.X]\nband = 1e9 2e9\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("band line expects" in e for e in err.value.errors)

    def test_standard_without_bands_reported(self):
        broken = MINIMAL + "\n[standards.X]\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("declares no band lines" in e for e in err.value.errors)

    def test_overlapping_bands_reported(self):
        broken = MINIMAL + "\n[standards.X]\nband = 1e9 3e9 40.0\nband = 2e9 4e9 61.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("overlap" in e for e in err.value.errors)

    @pytest.mark.parametrize("bands,found", [
        # an inverted band whose reference level is also out of bounds
        (["4e9 3e9 0"], ["line {0}: e_ref_v_per_m must be", "line {0}: band edges must"]),
        # three bands, each two neighbours overlapping
        (["1e9 3e9 40.0", "2e9 4e9 61.0", "3.5e9 5e9 61.0"],
         ["lines {0}-{1}: standard 'X': bands [1000000000.0, 3000000000.0) and"
          " [2000000000.0, 4000000000.0) overlap",
          "lines {0}-{1}: standard 'X': bands [2000000000.0, 4000000000.0) and"
          " [3500000000.0, 5000000000.0) overlap"]),
    ])
    def test_every_finding_of_a_standard_is_listed(self, bands, found, tmp_path, capsys):
        """Each finding of a band or of its standard is a finding of its
        own, a band's on its `line N:` and a standard's on the span of its
        band lines, `lines N-M:`, and the command line exits 2 listing them."""
        text = MINIMAL + "\n[standards.X]\n" + "".join(f"band = {b}\n" for b in bands)
        line = MINIMAL.count("\n") + 3  # the first band line
        found = [f.format(line, line + len(bands) - 1) for f in found]
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.errors) == len(found)
        for got, start in zip(err.value.errors, found):
            assert got.startswith(start), got
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"trsim: error: {e}" for e in err.value.errors]

    def test_malformed_device_line_reported(self):
        broken = MINIMAL + "\n[devices]\ndevice = a 1.0 0.1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("device line expects" in e for e in err.value.errors)

    def test_bad_device_mode_reported(self):
        broken = MINIMAL + "\n[devices]\ndevice = a 1.0 0.1 1e9 both\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("device mode" in e for e in err.value.errors)

    def test_duplicate_device_id_reported(self):
        broken = (
            MINIMAL
            + "\n[devices]\ndevice = a 1.0 0.1 1e9 am\ndevice = a 2.0 0.1 1e9 tr\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("duplicate device id" in e for e in err.value.errors)

    def test_empty_devices_section_reported(self):
        """A present [devices] section replaces the synthesized population, so
        one without device lines is an error, as a standard without bands is."""
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[devices]\n")
        assert err.value.errors == ["[devices] declares no device lines"]

    def test_tdd_pattern_checked_whatever_the_duplex(self):
        broken = MINIMAL.replace("seed = 2", "seed = 2\nduplex = fdd\ntdd_pattern = nonsense")
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert err.value.errors == ["tdd_pattern: pattern must have 10 entries, got 8"]

    def test_negative_hysteresis_reported(self):
        broken = MINIMAL.replace(
            "rss_threshold_dbm = -90.0", "rss_threshold_dbm = -90.0\nhysteresis_db = -2.0"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("hysteresis_db" in e for e in err.value.errors)

    def test_key_outside_section_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("n_users = 4\n" + MINIMAL)
        assert any("outside any section" in e for e in err.value.errors)

    @pytest.mark.parametrize(
        "rows, named",
        [
            ("[devices]\ndevice = a 1.0 0.1 1e9", "device_id distance_m tx_power_w freq_hz mode"),
            (
                "[devices]\ndevice = a 1.0 0.1 1e9 am extra",
                "device_id distance_m tx_power_w freq_hz mode",
            ),
            ("[devices]\ndevice = a 1.0 far 1e9 am", "tx_power_w"),
            ("[devices]\ndevice = a 1.0 0.1 1e9 AM", "mode"),
            ("[devices]\ndevice = a 0.0 0.1 1e9 am", "distance_m"),
            ("[standards.X]\nband = 1e9 2e9 40.0\nband = 3e9 4e9", "low_hz high_hz e_ref_v_per_m"),
            ("[standards.X]\nband = 1e9 2e9 40.0\nband = 3e9 4e9 x", "e_ref_v_per_m"),
            ("[standards.X]\nband = 1e9 2e9 40.0\nband = 3e9 4e9 0.0 note", "e_ref_v_per_m"),
            # the standard's only band line: it still declares one
            ("[standards.X]\nband = 3e9 4e9", "low_hz high_hz e_ref_v_per_m"),
            ("[standards.X]\nband = 3e9 4e9 x", "e_ref_v_per_m"),
        ],
        ids=[
            "device-too-few", "device-too-many", "device-not-a-number", "device-mode-AM",
            "device-out-of-range", "band-too-few", "band-not-a-number", "band-out-of-range",
            "only-band-too-few", "only-band-not-a-number",
        ],
    )
    def test_malformed_row_is_one_finding_naming_line_and_field(self, rows, named):
        text = MINIMAL + "\n" + rows + "\n"
        last_line = text.count("\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        [finding] = err.value.errors
        assert finding.startswith(f"line {last_line}: ") and named in finding

    def test_multiple_findings_collected_together(self):
        broken = MINIMAL.replace("n_users = 4", "n_users = four") + "wibble = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert len(err.value.errors) >= 2


class TestRoundTrip:
    @pytest.mark.parametrize("path", [SCENARIO_TR50, ER_TABLE_FIXTURE])
    def test_parse_emit_parse_is_stable(self, path):
        cfg = parse_config(path.read_text())
        assert parse_config(format_config(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        noisy = "# leading comment\n\n" + MINIMAL.replace(
            "seed = 2", "seed = 2   # inline comment"
        )
        assert parse_config(noisy) == parse_config(MINIMAL)


def bounded(cls, name):
    """A field's declared bounds and the floats between them."""
    f = next(f for f in fields(cls) if f.name == name)
    lo, hi = f.metadata["lo"], f.metadata["hi"]
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


# one token: any characters but whitespace (token and line breaks) and '#'
WORDS = st.text(
    st.characters(exclude_characters="#").filter(lambda c: not c.isspace()),
    min_size=1,
    max_size=6,
)
DEVICES = st.lists(
    st.builds(
        DeviceSpec,
        device_id=WORDS,
        distance_m=bounded(DeviceSpec, "distance_m"),
        tx_power_w=bounded(DeviceSpec, "tx_power_w"),
        freq_hz=bounded(DeviceSpec, "freq_hz"),
        mode=st.sampled_from(Mode),
    ),
    max_size=4,
    unique_by=lambda spec: spec.device_id,
)


@st.composite
def standards(draw):
    names = draw(
        st.lists(
            st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=6),
            max_size=3,
            unique=True,
        )
    )
    found = []
    for name in names:
        n_bands = draw(st.integers(1, 4))
        edges = sorted(
            draw(
                st.lists(
                    bounded(FrequencyBand, "low_hz"),
                    min_size=2 * n_bands,
                    max_size=2 * n_bands,
                    unique=True,
                )
            )
        )
        bands = [
            FrequencyBand(
                low,
                high,
                draw(bounded(FrequencyBand, "e_ref_v_per_m")),
                draw(st.lists(WORDS, max_size=3).map(" ".join)),
            )
            for low, high in zip(edges[::2], edges[1::2])
        ]
        found.append(ExposureStandard(name, tuple(draw(st.permutations(bands)))))
    return tuple(found)


class TestRowRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(standards=standards(), devices=DEVICES)
    def test_parse_of_format_is_identity(self, standards, devices):
        cfg = replace(parse_config(MINIMAL), standards=standards, devices=tuple(devices))
        assert parse_config(format_config(cfg)) == cfg
