"""One `trsim run` in this process, with wrappers around the layers' calls.

    python perfbench/probe.py MODE REPORT RUN_ARG...

MODE is one of
  spans   time a span around each layer boundary below and around
          trsim.cli.main; spans are kept in memory and written at the end
  memory  tracemalloc peaks across trsim.cli.main and inside run_scenario
  counts  count the calls into the per-device functions of the slot loop,
          with no timers
The report is written as JSON to REPORT. RUN_ARG... are the arguments of
`trsim run`. Each wrapper replaces the name its caller looks up, so a
caller that stops using a name stops being counted.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

SPAN_TARGETS = (
    ("trsim.cli", "parse_config"),
    ("trsim.cli", "run_scenario"),
    ("trsim.sim", "build_devices"),
    ("trsim.sim", "network_exposure"),
)

# metric name -> (module, attribute) that the slot loop looks up
COUNT_TARGETS = {
    "channel.draw_fading_gain": ("trsim.channel", "draw_fading_gain"),
    "channel.sinr": ("trsim.channel", "sinr"),
    "channel.watts_to_dbm": ("trsim.channel", "watts_to_dbm"),
    "trmode.evaluate_switch": ("trsim.sim", "evaluate_switch"),
    "rrc.transition": ("trsim.rrc", "transition"),
    "rrc.uplink_grant_allowed": ("trsim.rrc", "uplink_grant_allowed"),
}


def _patch(module_name: str, attr: str, make_wrapper) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is not None:
        setattr(module, attr, make_wrapper(original))


def trace_spans(run) -> dict:
    spans: list[dict] = []
    open_ids: list[int] = []

    def spanned(name, fn):
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": open_ids[-1] if open_ids else None,
                "start": time.perf_counter(),
            }
            spans.append(span)
            open_ids.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                open_ids.pop()

        return wrapper

    for module_name, attr in SPAN_TARGETS:
        _patch(module_name, attr, lambda fn, n=f"{module_name}.{attr}": spanned(n, fn))
    code = spanned("trsim.cli.main", run)()
    return {"exit": code, "spans": spans}


def trace_memory(run) -> dict:
    peaks = {"cli": 0, "sim": 0}

    def measured(fn):
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            peaks["cli"] = max(peaks["cli"], peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                peaks["sim"] = max(peaks["sim"], peak - current)
                peaks["cli"] = max(peaks["cli"], peak)

        return wrapper

    _patch("trsim.cli", "run_scenario", measured)
    tracemalloc.start()
    try:
        code = run()
        peaks["cli"] = max(peaks["cli"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return {"exit": code, "cli_peak_bytes": peaks["cli"], "sim_peak_bytes": peaks["sim"]}


def count_calls(run) -> dict:
    calls = dict.fromkeys(COUNT_TARGETS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, (module_name, attr) in COUNT_TARGETS.items():
        _patch(module_name, attr, lambda fn, n=name: counted(n, fn))
    code = run()
    return {"exit": code, "calls": calls}


MODES = {"spans": trace_spans, "memory": trace_memory, "counts": count_calls}


def main(argv: list[str]) -> int:
    mode, report_path, run_args = argv[0], argv[1], argv[2:]
    import trsim.cli

    report = MODES[mode](lambda: trsim.cli.main(["run", *run_args]))
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
