import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from trsim.frames import SUBFRAMES_PER_FRAME, Duplex, RadioFrame, SlotKind
from trsim.sim import ScenarioConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "src" / "trsim" / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SCENARIO_TR50 = FIXTURES_DIR / "scenario_tr50.cfg"
ER_TABLE_FIXTURE = FIXTURES_DIR / "er_table_generations.cfg"


def _benchmark_workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()  # the benchmark's perfbench/workloads.py


def workload_config_text(name: str) -> str:
    """The config of the benchmark workload `name`, at its default seed."""
    return WORKLOADS.WORKLOADS[name].render(SCENARIO_TR50.read_text(), WORKLOADS.DEFAULT_SEED)


def make_config(**overrides) -> ScenarioConfig:
    """Small, fast scenario used across the sim tests."""
    base = dict(
        n_users=4,
        n_tr=1,
        cell_radius_m=300.0,
        bs_tx_power_w=10.0,
        ue_tx_power_w=0.2,
        freq_hz=3.5e9,
        noise_w=4e-15,
        snr_threshold_db=0.0,
        n_slots=20,
        seed=11,
        rss_threshold_dbm=-90.0,
        hysteresis_db=200.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture
def small_config() -> ScenarioConfig:
    return make_config()


def slot_census(frame: RadioFrame) -> Counter[SlotKind]:
    """Exact multiset of the frame's slot kinds."""
    return Counter(slot for sf in frame.subframes for slot in sf)


def assert_frame_invariants(frame: RadioFrame, mu: int) -> None:
    """The rules every frame built at numerology `mu` keeps: 10 subframes
    of 2^mu slots; no Uplink slot with TR active or in the FDD downlink
    frame; no Downlink slot in the FDD uplink frame; one Hold or Release
    slot in a TDD frame and none in any other."""
    assert [len(sf) for sf in frame.subframes] == [2**mu] * SUBFRAMES_PER_FRAME
    census = slot_census(frame)
    # a frame's TR state is its toggle slot: FREQ_SWITCH1 or Hold
    tr_active = census[SlotKind.FREQ_SWITCH1] + census[SlotKind.HOLD] > 0
    if tr_active or frame.duplex is Duplex.FDD_DOWNLINK:
        assert census[SlotKind.UPLINK] == 0, census
    if frame.duplex is Duplex.FDD_UPLINK:
        assert census[SlotKind.DOWNLINK] == 0, census
    toggles = census[SlotKind.HOLD] + census[SlotKind.RELEASE]
    assert toggles == (frame.duplex is Duplex.TDD), census
