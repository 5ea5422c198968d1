"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import csv
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from conftest import ER_TABLE_FIXTURE, SCENARIO_TR50, assert_frame_invariants, slot_census
from reference import outage_mc
from trsim.channel import db_to_linear, free_space_path_loss, outage_analytic
from trsim.cli import main
from trsim.configfile import parse_config
from trsim.exposure import complexity_metric
from trsim.frames import SlotKind, build_fdd_pair, build_tdd_frame, make_numerology
from trsim.rrc import RrcEvent, RrcState, check_reachability, transition, uplink_grant_allowed
from trsim.sim import outage_curve, run_scenario

GENERATIONS = ("1g", "2g", "3g", "4g", "5g")

ER_TARGETS = {
    "ICNIRP": {
        "am": dict(zip(GENERATIONS, (0.2403, 0.361, 0.41, 0.481, 0.83))),
        "tr": dict(zip(GENERATIONS, (0.211, 0.3432, 0.3719, 0.4458, 0.6075))),
    },
    "IEEE-C95": {
        "am": dict(zip(GENERATIONS, (0.1848, 0.277, 0.31, 0.369, 0.6379))),
        "tr": dict(zip(GENERATIONS, (0.1622, 0.264, 0.286, 0.3429, 0.4673))),
    },
}

_PREFIX_TO_STANDARD = {"icnirp": "ICNIRP", "ieee": "IEEE-C95"}


@contextmanager
def criterion(name: str):
    detail = {"text": ""}
    try:
        yield detail
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS {detail['text']}".rstrip())


def _exposure_cells(tmp_path):
    """Run the exposure subcommand on the bundled fixture; return
    {(standard, generation, mode-label): computed ER} and the elapsed time."""
    out = tmp_path / "exposure.csv"
    start = time.perf_counter()
    code = main(["exposure", "--config", str(ER_TABLE_FIXTURE), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    cells = {}
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["device_id"] == "network-total":
                continue
            prefix, gen, label = row["device_id"].split("-")
            standard = _PREFIX_TO_STANDARD[prefix]
            cells[(standard, gen, label)] = float(row[f"er_{standard}"])
    return cells, elapsed


def test_exposure_ratio_dataset_reproduction(tmp_path):
    with criterion("exposure-ratio dataset (20 cells, tol 1e-4, < 1 s)") as detail:
        cells, elapsed = _exposure_cells(tmp_path)
        assert len(cells) == 20
        worst = 0.0
        for standard, by_mode in ER_TARGETS.items():
            for label, by_gen in by_mode.items():
                for gen, target in by_gen.items():
                    got = cells[(standard, gen, label)]
                    worst = max(worst, abs(got - target))
                    assert got == pytest.approx(target, abs=1e-4)
        assert elapsed < 1.0
        detail["text"] = f"(max |err| = {worst:.2e}, {elapsed * 1e3:.0f} ms)"


def test_exposure_ratio_orderings(tmp_path):
    with criterion("exposure-ratio orderings (TR < AM, monotone across generations)"):
        cells, _ = _exposure_cells(tmp_path)
        for standard in ER_TARGETS:
            for gen in GENERATIONS:
                assert cells[(standard, gen, "tr")] < cells[(standard, gen, "am")]
            for label in ("am", "tr"):
                column = [cells[(standard, gen, label)] for gen in GENERATIONS]
                for lower, higher in zip(column, column[1:]):
                    assert higher > lower


def test_outage_oracle():
    with criterion("outage oracle (MC vs analytic, 3-sigma at 1e6 trials, < 10 s)") as detail:
        start = time.perf_counter()
        n = 10**6
        for i, ratio in enumerate((0.1, 1.0, 10.0)):
            analytic = outage_analytic(ratio, 1.0)
            estimate = outage_mc(ratio, 1.0, n, seed=9_000 + i)
            sigma = math.sqrt(analytic * (1.0 - analytic) / n)
            assert abs(estimate - analytic) < 3.0 * sigma
        target = 1.0 - math.exp(-1.0)
        assert outage_analytic(1.0, 1.0) == pytest.approx(target, abs=1e-9)
        assert outage_mc(1.0, 1.0, n, seed=9_100) == pytest.approx(target, abs=0.002)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        detail["text"] = f"({elapsed:.2f} s)"


def test_outage_trend_tr_below_am():
    with criterion("outage trend (TR curve strictly below AM at every point)") as detail:
        cfg = parse_config(SCENARIO_TR50.read_text())
        # interference-limited: per-interferer power 10x the noise floor,
        # leaving 29 AM uplink interferers for the TR-enabled victim
        per_interferer = cfg.ue_tx_power_w / db_to_linear(
            free_space_path_loss(cfg.cell_radius_m, cfg.freq_hz)
        )
        cfg = replace(cfg, noise_w=per_interferer / 10.0)
        assert cfg.n_users - cfg.n_tr - 1 >= 2
        points = outage_curve(cfg, [15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0])
        for p in points:
            assert p.outage_tr < p.outage_am
        detail["text"] = f"({len(points)} sampled mean-SNR points)"


def test_cohort_arithmetic_exact_ratio():
    with criterion("cohort arithmetic (30/50 power ratio exact to 1e-12)") as detail:
        cfg = parse_config(SCENARIO_TR50.read_text())
        baseline = run_scenario(replace(cfg, n_tr=0))
        variant = run_scenario(cfg)
        ratio_interference = (
            variant.total_uplink_interference_w / baseline.total_uplink_interference_w
        )
        ratio_density = (
            variant.exposure.network_total_power_density_w_m2
            / baseline.exposure.network_total_power_density_w_m2
        )
        assert ratio_interference == pytest.approx(0.6, rel=1e-12)
        assert ratio_density == pytest.approx(0.6, rel=1e-12)
        detail["text"] = (
            f"(interference {ratio_interference!r}, density {ratio_density!r})"
        )


def test_frame_invariants_property_cases():
    with criterion("frame invariants (1000 random cases over mu/pattern/flags)") as detail:
        rng = random.Random(31_337)
        cases = 0
        for _ in range(1000):
            mu = rng.randint(0, 4)
            base = [rng.choice("DU") for _ in range(9)]
            superframe_at = rng.randint(0, 9)
            pattern = "".join(base[:superframe_at] + ["S"] + base[superframe_at:])
            tr_active = rng.random() < 0.5
            switch_subframe = rng.randint(0, 9)

            num = make_numerology(mu)
            dl, ul = build_fdd_pair(num, tr_active, switch_subframe=switch_subframe)
            tdd = build_tdd_frame(num, pattern, tr_active)

            for frame in (dl, ul, tdd):
                assert_frame_invariants(frame, mu)

            other = build_tdd_frame(num, pattern, not tr_active)
            assert (
                slot_census(tdd)[SlotKind.DOWNLINK]
                == slot_census(other)[SlotKind.DOWNLINK]
            )
            other_dl, other_ul = build_fdd_pair(
                num, not tr_active, switch_subframe=switch_subframe
            )
            assert (
                slot_census(dl)[SlotKind.DOWNLINK]
                == slot_census(other_dl)[SlotKind.DOWNLINK]
            )
            assert (
                slot_census(ul)[SlotKind.DOWNLINK]
                == slot_census(other_ul)[SlotKind.DOWNLINK]
            )
            cases += 1
        assert cases == 1000
        detail["text"] = f"({cases} cases)"


def test_rrc_model_check():
    with criterion("rrc model check (36 pairs, 1e4 random traces x 100 events)") as detail:
        lines = check_reachability().splitlines()
        table = [line.split() for line in lines if " -> " in line]
        assert lines[0] == "transition-table entries=36" and len(table) == 36
        for _, _, _, nxt, *_ in table:
            if nxt == RrcState.ENERGY_EFFICIENT.value:
                assert not uplink_grant_allowed(RrcState(nxt))
        assert "ee-grant-blocked true" in lines

        rng = random.Random(424242)
        states = list(RrcState)
        events = list(RrcEvent)
        checked = 0
        for _ in range(10_000):
            state = rng.choice(states)
            for _ in range(100):
                state = transition(state, rng.choice(events))
                if state is RrcState.ENERGY_EFFICIENT:
                    assert not uplink_grant_allowed(state)
                checked += 1
        assert checked == 1_000_000

        # pending uplink data reaches a grant-allowed state in exactly one event
        nxt = transition(RrcState.ENERGY_EFFICIENT, RrcEvent.UPLINK_DATA_PENDING)
        assert nxt is RrcState.CONNECTED and uplink_grant_allowed(nxt)
        detail["text"] = f"({checked} trace steps)"


def test_run_determinism_byte_identical(tmp_path):
    with criterion("determinism (same seed twice, byte-identical run output)") as detail:
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "trsim",
                    "run",
                    "--config",
                    str(SCENARIO_TR50),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 10_000
        detail["text"] = f"({len(outputs[0])} bytes)"


def test_complexity_trend():
    with criterion("complexity trend (30 active below 50 active)") as detail:
        tr_value = complexity_metric(30)
        am_value = complexity_metric(50)
        assert tr_value == 435.0
        assert am_value == 1225.0
        assert tr_value < am_value
        detail["text"] = f"(435 < 1225)"
