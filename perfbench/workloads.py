"""The benchmark's workloads and the generator of their scenario configs.

Each workload's config is the bundled `scenario_tr50.cfg` with a few keys
overridden and `seed` set from the benchmark's `--seed` argument. The
program under test sees only the generated file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

TEMPLATE = Path("src") / "trsim" / "fixtures" / "scenario_tr50.cfg"

# The template's own seed. Output statistics at this seed are pinned in
# reference.json.
DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class Workload:
    name: str
    output_format: str  # "csv" or "json-lines", passed to `trsim run --format`
    overrides: dict[str, str]  # template key -> value; must set n_users and n_slots

    @property
    def device_slots(self) -> int:
        return int(self.overrides["n_users"]) * int(self.overrides["n_slots"])

    def render(self, template: str, seed: int) -> str:
        """The template with every override and the seed substituted."""
        text = template
        for key, value in {**self.overrides, "seed": str(seed)}.items():
            text, hits = re.subn(
                rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M
            )
            if hits != 1:
                raise ValueError(f"template has {hits} lines for key {key!r}, expected 1")
        return text


# Why each workload was chosen is recorded in BENCHMARK.json. All three are
# 10^5 device-slots, about 3 s per `trsim run` on a 2-CPU x86 host, so the
# ~0.25 s interpreter start and import stay a small share.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ring-wide-csv",
            output_format="csv",
            overrides={"n_users": "1000", "n_tr": "400", "n_slots": "100"},
        ),
        Workload(
            name="switch-jsonl",
            output_format="json-lines",
            overrides={
                "n_users": "200",
                "n_tr": "80",
                "n_slots": "500",
                "placement": "disk",
                "ul_demand_prob": "0.5",
                "dl_demand_prob": "0.5",
                "duplex": "tdd",
                "numerology_mu": "1",
                "rss_threshold_dbm": "-60.0",
                "hysteresis_db": "3.0",
            },
        ),
        Workload(
            name="narrow-long-csv",
            output_format="csv",
            overrides={"n_users": "10", "n_tr": "4", "n_slots": "10000"},
        ),
    )
}
