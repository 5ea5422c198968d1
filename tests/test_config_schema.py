"""Guards on the declared config schema.

Single-key mutations of the bundled configs must either run to finite
metrics or fail as configuration errors that name the key; the README's
example and the benchmark's workload configs must survive an emit/parse
round trip.
"""

import contextlib
import csv
import io
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ER_TABLE_FIXTURE, REPO_ROOT, SCENARIO_TR50, WORKLOADS, workload_config_text
from trsim import cli
from trsim.configfile import format_config, parse_config
from trsim.sim import ScenarioConfig

# n_slots lowered so that every mutated run stays fast
BASES = [
    re.sub(r"^n_slots\s*=.*$", "n_slots = 5", path.read_text(), flags=re.M)
    for path in (SCENARIO_TR50, ER_TABLE_FIXTURE)
]
SECTION_OF = {
    f.name: f.metadata["section"] for f in fields(ScenarioConfig) if "section" in f.metadata
}
# the value tokens of band and device lines that hold numbers
NUMBER_TOKENS = {"band": (0, 1, 2), "device": (1, 2, 3)}
NAN, INF, NEG, HUGE_F, HUGE_I, TINY = "nan", "inf", "-1", "1e300", str(10**18), "1e-300"
MUTATIONS = (NAN, INF, "-inf", NEG, HUGE_F, HUGE_I, TINY, "1.5", "abc")


def _mutate(text: str, key: str, value: str, data) -> tuple[str, str]:
    """`text` with one value of `key` replaced by `value` (a scalar key
    missing from `text` is added), and what a finding must name."""
    lines = text.splitlines()
    if key in NUMBER_TOKENS:
        rows = [i for i, line in enumerate(lines) if line.startswith(f"{key} =")]
        at = data.draw(st.sampled_from(rows))
        tokens = lines[at].split("#", 1)[0].partition("=")[2].split()
        tokens[data.draw(st.sampled_from(NUMBER_TOKENS[key]))] = value
        lines[at] = f"{key} = {' '.join(tokens)}"
        return "\n".join(lines) + "\n", f"line {at + 1}"
    at = next((i for i, line in enumerate(lines) if re.match(rf"{key}\s*=", line)), None)
    if at is None:
        lines.insert(lines.index(f"[{SECTION_OF[key]}]") + 1, f"{key} = {value}")
    else:
        lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n", key


def _cli(args: list[str], text: str) -> tuple[int, str, str]:
    # trsim writes its records to stdout's byte buffer
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([args[0], "--config", str(path), *args[1:]])
    out.flush()
    return code, out.buffer.getvalue().decode(), err.getvalue()


def _assert_finite_output(subcommand: str, out: str) -> None:
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    if subcommand == "outage":
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.values())
        return
    modes = {row["mode"] for row in rows if row["kind"] == "sample"}
    for row in rows:
        if row["kind"] != "metric":
            continue
        if row["value"] == "":
            cohort = {"outage_am": "AM", "outage_tr": "TR"}.get(row["metric"])
            assert cohort is not None and cohort not in modes, row
        else:
            assert math.isfinite(float(row["value"])), row


@pytest.mark.parametrize("key", sorted(SECTION_OF) + sorted(NUMBER_TOKENS))
@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    value=st.sampled_from(MUTATIONS),
    subcommand=st.sampled_from(("run", "outage")),
)
def test_single_value_mutation_runs_finite_or_names_the_key(key, data, value, subcommand):
    bases = BASES if key in SECTION_OF else [b for b in BASES if f"\n{key} =" in b]
    text, named = _mutate(data.draw(st.sampled_from(bases)), key, value, data)
    code, out, err = _cli([subcommand], text)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err
    if code == cli.EXIT_OK:
        _assert_finite_output(subcommand, out)
    else:
        assert named in err, err


PROBES = (
    [("snr_threshold_db", NAN)]
    + [
        (key, INF)
        for key in (
            "snr_threshold_db",
            "cell_radius_m",
            "ue_tx_power_w",
            "bs_tx_power_w",
            "noise_w",
            "observer_distance_m",
            "hysteresis_db",
            "rss_threshold_dbm",
        )
    ]
    + [("rss_threshold_dbm", NAN), ("hysteresis_db", NAN), ("seed", NEG)]
    + [(key, HUGE_F) for key in ("cell_radius_m", "freq_hz", "snr_threshold_db")]
    + [(key, TINY) for key in ("cell_radius_m", "observer_distance_m")]
    + [("n_users", str(10**13))]
)


@pytest.mark.parametrize("subcommand", ["run", "outage"])
@pytest.mark.parametrize("key,value", PROBES)
def test_probed_value_is_a_config_error_naming_the_key(subcommand, key, value):
    text = SCENARIO_TR50.read_text().replace("n_slots = 100", "n_slots = 3")
    text, hits = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
    assert hits == 1
    code, _, err = _cli([subcommand], text)
    assert code == cli.EXIT_CONFIG
    assert key in err


def test_seed_override_is_validated():
    code, _, err = _cli(["run", "--seed", "-1"], SCENARIO_TR50.read_text())
    assert code == cli.EXIT_CONFIG
    assert "seed" in err


def test_readme_example_round_trips():
    readme = (REPO_ROOT / "README.md").read_text()
    cfg = parse_config(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workload_config_round_trips(name):
    cfg = parse_config(workload_config_text(name))
    assert parse_config(format_config(cfg)) == cfg
