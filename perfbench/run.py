"""Benchmark of `trsim run`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a trsim checkout: it runs the checkout's `src/trsim`, one
child process at a time. `--trace 0` times untraced `trsim run` children,
normalised by calibrate.py children run between them, and reports the
end-to-end metrics of BENCHMARK.json. `--trace 1` runs the
traced, memory and count passes through probe.py and reports the
per-layer metrics. Every run's output is checked; the last line of stdout
is the result as one JSON object, the line before it the report header.
See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import outputs
from workloads import DEFAULT_SEED, TEMPLATE, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
CHILD_LIMIT_S = 60.0  # a child still running after this is killed and counted as failed
MIN_RUNS = 3  # timed runs per invocation, whatever --seconds says
MIN_PAIRS = 1  # untraced/traced pairs in the traced pass
CALIB_ITERATIONS = 80_000  # about 0.5 s of calibrate.py on a 2-CPU x86 host
# A normalised time is a child's wall time times CALIB_REF_S over the wall
# time of the calibration children around it: its time on a host where
# calibrate.py takes CALIB_REF_S.
CALIB_REF_S = 0.5
SETUP_CODE = (
    "import sys, trsim.cli; trsim.cli.parse_config(open(sys.argv[1], encoding='utf-8').read())"
)


class Bench:
    """One invocation: the workload's configs, the children run, their failures."""

    def __init__(self, workload: Workload, seed: int, pins: dict | None):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        template = (ROOT / TEMPLATE).read_text(encoding="utf-8")
        self.metric_names = outputs.metric_names(template)
        stem = f"{workload.name}-seed{seed}"
        self.configs = {}
        for s in {seed, DEFAULT_SEED}:
            self.configs[s] = WORK / f"{workload.name}-seed{s}.cfg"
            self.configs[s].write_text(workload.render(template, s), encoding="utf-8")
        self.out = WORK / f"{stem}.out"
        self.err = WORK / f"{stem}.err"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[int, str] = {}
        self.checked: dict[str, tuple[outputs.Summary | None, list[str]]] = {}
        self.summary: outputs.Summary | None = None

    def _spawn(self, argv: list[str]):
        """Run a child to completion: (wall seconds, exit code, resource usage)."""
        with open(self.err, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def _fail(self, what: str, found: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in found)

    def _exit_problem(self, code: int) -> list[str]:
        tail = self.err.read_text(encoding="utf-8", errors="replace")[-400:].strip()
        return [f"exit code {code}: {tail}"] if code else []

    def _check_output(self, seed: int) -> list[str]:
        digest = outputs.digest(self.out)
        if digest not in self.checked:
            try:
                s = outputs.summarize(self.out, self.workload.output_format)
            except (ValueError, KeyError, IndexError) as exc:
                self.checked[digest] = (None, [f"unreadable output: {exc!r}"])
            else:
                pins = self.pins if seed == DEFAULT_SEED else None
                found = outputs.problems(
                    s, self.workload.device_slots, self.metric_names, pins
                )
                self.checked[digest] = (s, found)
        summary, found = self.checked[digest]
        first = self.first_digest.setdefault(seed, digest)
        if digest != first:
            found = found + [f"output differs from the first run at seed {seed}"]
        if seed == self.seed and summary is not None:
            self.summary = summary
        return found

    def run_args(self, seed: int) -> list[str]:
        return [
            "--config", str(self.configs[seed]),
            "--format", self.workload.output_format,
            "--out", str(self.out),
        ]

    def run(self, argv: list[str], seed: int, what: str):
        """One child that runs the workload, its output checked: (wall s,
        peak RSS MiB), or None when it failed."""
        self.attempted += 1
        wall, code, usage = self._spawn(argv)
        found = self._exit_problem(code) or self._check_output(seed)
        self.out.unlink(missing_ok=True)
        if found:
            self._fail(f"{what} at seed {seed}", found)
            return None
        return wall, usage.ru_maxrss / 1024

    def run_untraced(self, seed: int):
        argv = [sys.executable, "-m", "trsim", "run", *self.run_args(seed)]
        return self.run(argv, seed, "trsim run")

    def probe(self, mode: str) -> tuple[float, dict] | None:
        """One probe.py child at the benchmark's seed: (wall s, its report)."""
        report_path = WORK / f"{self.workload.name}-seed{self.seed}.{mode}.json"
        report_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), mode, str(report_path)]
        done = self.run(argv + self.run_args(self.seed), self.seed, f"{mode} probe")
        if done is None:
            return None
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
        return done[0], report

    def calibrate(self) -> float | None:
        """Wall time of one calibrate.py child, or None when it failed."""
        argv = [sys.executable, "-I", str(BENCH_DIR / "calibrate.py"), str(CALIB_ITERATIONS)]
        wall, code, _ = self._spawn(argv)
        if code:
            self.problems.extend(f"calibration: {p}" for p in self._exit_problem(code))
            return None
        return wall

    def setup(self) -> float | None:
        self.attempted += 1
        argv = [sys.executable, "-c", SETUP_CODE, str(self.configs[self.seed])]
        wall, code, _ = self._spawn(argv)
        if code:
            self._fail("setup", self._exit_problem(code))
            return None
        return wall

    def timed_pass(self, seconds: float) -> tuple[dict, dict, dict]:
        """Set-up and run children for `seconds`, each pair between two
        calibration children, which normalise both times."""
        self.run_untraced(DEFAULT_SEED)  # warm-up: fills caches, checks the pins
        walls, rss, setups, calibs = [], [], [], [self.calibrate()]
        norm_walls, norm_setups = [], []
        t0 = time.perf_counter()
        while calibs[-1] is not None and (
            time.perf_counter() - t0 < seconds or (len(walls) < MIN_RUNS and not self.failed)
        ):
            setup = self.setup()
            done = self.run_untraced(self.seed)
            calibs.append(self.calibrate())
            if calibs[-1] is None:
                break
            speed = CALIB_REF_S / ((calibs[-2] + calibs[-1]) / 2)
            if setup is not None:
                setups.append(setup)
                norm_setups.append(setup * speed)
            if done is not None:
                walls.append(done[0])
                norm_walls.append(done[0] * speed)
                rss.append(done[1])
        if len(walls) < 2 or not setups:
            self.problems.append(f"too few good runs: {len(walls)} timed, {len(setups)} set-up")
            return {}, {}, {}
        wall = statistics.median(norm_walls)
        ds = self.workload.device_slots
        values = {
            "norm_device_slots_per_s": ds / wall,
            "norm_wall_s": wall,
            "setup_s": statistics.median(norm_setups),
            "peak_rss_mb": statistics.median(rss),
            "out_bytes_per_ds": self.summary.out_bytes / ds,
        }
        samples = {
            "norm_wall_s": norm_walls,
            "setup_s": norm_setups,
            "peak_rss_mb": rss,
            "raw_wall_s": walls,
            "raw_setup_s": setups,
            "calibration_s": calibs,
        }
        counts = {"norm_device_slots_per_s": len(walls), "out_bytes_per_ds": 1}
        return values, {**counts, **{k: len(samples[k]) for k in values if k in samples}}, samples

    def traced_pass(self, seconds: float) -> tuple[dict, dict, dict]:
        """Count, memory and span probes, with untraced runs for the overhead,
        all within `seconds` unless the minimum number of pairs needs longer."""
        t0 = time.perf_counter()
        self.run_untraced(DEFAULT_SEED)
        counted = [self.probe("counts") for _ in range(2)]
        memory = self.probe("memory")
        walls, traced_walls, runs = [], [], []
        while time.perf_counter() - t0 < seconds or (
            len(runs) < MIN_PAIRS and not self.failed
        ):
            done = self.run_untraced(self.seed)
            if done is not None:
                walls.append(done[0])
            traced = self.probe("spans")
            if traced is not None:
                traced_walls.append(traced[0])
                runs.append(traced[1]["spans"])
        if None in counted or memory is None or not walls or not runs:
            self.problems.append("a probe failed; no per-layer metrics")
            return {}, {}, {}
        if counted[0][1]["calls"] != counted[1][1]["calls"]:
            self.problems.append(
                f"call counts differ between two count runs: {counted[0][1]['calls']}"
                f" != {counted[1][1]['calls']}"
            )
        ds = self.workload.device_slots
        values = {}
        layer_self = [self_times(spans, self.problems) for spans in runs]
        for metric, span in SELF_TIME_METRICS.items():
            values[metric] = statistics.median(run[span] for run in layer_self)
        values["cli.main_s"] = statistics.median(
            spans[0]["end"] - spans[0]["start"] for spans in runs
        )
        values["sim.slot_loop_us_per_ds"] = values["sim.slot_loop_s"] * 1e6 / ds
        values["cli.encode_us_per_ds"] = values["cli.encode_s"] * 1e6 / ds
        values["sim.peak_bytes_per_ds"] = memory[1]["sim_peak_bytes"] / ds
        values["cli.peak_bytes_per_ds"] = memory[1]["cli_peak_bytes"] / ds
        values["bench.trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1
        )
        for name, calls in counted[0][1]["calls"].items():
            values[f"{name}.calls"] = calls
            values[f"{name}.calls_per_ds"] = calls / ds
        s = self.summary
        for kind in ("sample", "rrc_event", "mode_transition"):
            values[f"cli.rows.{kind}"] = s.rows.get(kind, 0)
        values["cli.out_bytes"] = s.out_bytes
        rrc_rows = s.rows.get("rrc_event", 0)
        values["rrc.changed_events"] = s.rrc_changed
        # with no rrc_event rows at all, none of them is a wasted self-loop
        values["rrc.changed_ratio"] = s.rrc_changed / rrc_rows if rrc_rows else 1.0
        spans_path = WORK / f"{self.workload.name}-seed{self.seed}.spans.json"
        spans_path.write_text(
            json.dumps([{**span, "run": i} for i, spans in enumerate(runs) for span in spans]),
            encoding="utf-8",
        )
        # times are medians over the traced runs; counts and peaks come from one run
        timed = {*SELF_TIME_METRICS, "cli.main_s", "sim.slot_loop_us_per_ds", "cli.encode_us_per_ds"}
        counts = {name: len(runs) if name in timed else 1 for name in values}
        counts["bench.trace_overhead_frac"] = len(runs) + len(walls)
        samples = {
            "traced_wall_s": traced_walls,
            "untraced_wall_s": walls,
            "count_wall_s": [c[0] for c in counted],
            "memory_wall_s": [memory[0]],
        }
        return values, counts, samples


# per-layer metric -> the span whose self time it is
SELF_TIME_METRICS = {
    "cli.encode_s": "trsim.cli.main",
    "configfile.parse_s": "trsim.cli.parse_config",
    "sim.slot_loop_s": "trsim.cli.run_scenario",
    "sim.build_devices_s": "trsim.sim.build_devices",
    "exposure.network_exposure_s": "trsim.sim.network_exposure",
}


def self_times(spans: list[dict], problems: list[str]) -> dict[str, float]:
    """Self time per span name: each span's time minus its children's.

    Checks that the spans nest inside one root span and that the self
    times add up to the root's time; a breach is added to `problems`.
    """
    times = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    for span in spans:
        times[span["name"]] += span["end"] - span["start"]
        parent = span["parent"]
        if parent is None:
            if span["id"] != 0:
                problems.append(f"span {span['name']} has no parent")
            continue
        up = spans[parent]
        if not up["start"] <= span["start"] <= span["end"] <= up["end"]:
            problems.append(f"span {span['name']} is not inside {up['name']}")
        times[up["name"]] -= span["end"] - span["start"]
    root = spans[0]["end"] - spans[0]["start"]
    if abs(sum(times.values()) - root) > 1e-9 * root:
        problems.append(f"self times add up to {sum(times.values())} s, not {root} s")
    return times


def header(args, loadavg_start) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg_start,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "trsim" / "cli.py").is_file() or not (ROOT / TEMPLATE).is_file():
        print(f"error: no trsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    loadavg_start = os.getloadavg()
    bench = Bench(WORKLOADS[args.workload], args.seed, pins.get(args.workload))
    measure = bench.traced_pass if args.trace else bench.timed_pass
    values, counts, samples = measure(args.seconds)
    head = header(args, loadavg_start)
    head["sample_counts"] = counts
    head["failed_frac"] = bench.failed / max(bench.attempted, 1)
    head["problems"] = bench.problems
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if values and set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared
        },
    }
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    report = json.dumps({"header": head, "samples": samples, "result": result})
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        report, encoding="utf-8"
    )
    print(json.dumps({"header": head}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
