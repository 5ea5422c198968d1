"""Self-check of the benchmark: tiny versions of its workloads, its output
checks, and its refusal to run without trsim sources.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import outputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# n_users, n_tr, n_slots of each workload's tiny version
TINY = {
    "ring-wide-csv": (20, 8, 5),
    "switch-jsonl": (10, 4, 30),
    "narrow-long-csv": (2, 1, 60),
}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_reports_every_metric(name, trace, monkeypatch, capsys):
    n_users, n_tr, n_slots = TINY[name]
    full = WORKLOADS[name]
    tiny = replace(
        full,
        name=f"tiny-{name}",
        overrides={
            **full.overrides,
            "n_users": str(n_users),
            "n_tr": str(n_tr),
            "n_slots": str(n_slots),
        },
    )
    # A name of its own keeps the full workload's pinned statistics out.
    monkeypatch.setitem(run.WORKLOADS, tiny.name, tiny)
    argv = ["--workload", tiny.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv)
    lines = capsys.readouterr().out.splitlines()
    header, result = json.loads(lines[-2])["header"], json.loads(lines[-1])
    assert (code, result["correct"], result["failed"]) == (0, True, 0), header["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert header["failed_frac"] == 0.0
    assert set(header["sample_counts"]) == set(result["metrics"])


def _summary(**changes) -> tuple[outputs.Summary, list[str]]:
    names = outputs.metric_names("[standards.A]\n")
    s = outputs.Summary(
        rows={"sample": 6, "mode_transition": 2},
        rrc_changed=0,
        cohort_samples={"AM": 6},
        metrics={name: ["1.5"] for name in names},
        out_bytes=100,
    )
    s.metrics["outage_tr"] = [None]
    for key, value in changes.items():
        setattr(s, key, value)
    return s, names


PINS = {
    "mode_transition_rows": 2,
    "outage_am": 1.5,
    "outage_tr": None,
    "total_uplink_interference_w": 1.5,
}


def test_output_checks_pass_a_good_output():
    s, names = _summary()
    assert outputs.problems(s, 6, names, PINS) == []


@pytest.mark.parametrize(
    "change, pins, expected",
    [
        ({"rows": {"sample": 5, "mode_transition": 2}}, None, "5 sample rows"),
        ({"cohort_samples": {"AM": 3, "TR": 3}}, None, "outage_tr: empty value"),
        ({"metrics": {}}, None, "0 rows, expected 1"),
        ({"rows": {"sample": 6, "mode_transition": 3}}, PINS, "3 mode_transition rows"),
        ({}, {**PINS, "outage_am": 1.5 * (1 + 1e-11)}, "metric outage_am"),
    ],
)
def test_output_checks_catch_a_bad_output(change, pins, expected):
    s, names = _summary(**change)
    found = outputs.problems(s, 6, names, pins)
    assert any(expected in p for p in found), found


def test_output_checks_reject_non_finite_metric():
    s, names = _summary()
    s.metrics["complexity"] = ["nan"]
    assert outputs.problems(s, 6, names, None) == ["metric complexity: value 'nan' is not finite"]


def test_refuses_to_run_without_trsim_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-wide-csv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
