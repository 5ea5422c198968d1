import importlib.util
import sys
from pathlib import Path

import pytest

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
