"""End-to-end benchmark of the jcdiss command line, with an optional
outside-in per-layer trace.

Usage (from the root of a checkout):

    python3 jcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run writes seeded copies of the workload's golden scenarios, then runs
whole rounds: the first always, each further one only if it should end
within S seconds of the start. A round is one fresh process that
imports jcdiss.cli, parses the scenarios (set-up) and calls
jcdiss.cli.main once per command of the workload (the timed interval).
Each command is one operation. After each round, outside the timed
interval, the outputs pass the independent checks in checks.py; an
operation fails when its exit code is non-zero or a check rejects its
outputs. Extra set-up-only processes bring the set-up samples to
SETUP_SAMPLES.

--trace 0 reports the end-to-end metrics as medians over the run's
rounds. --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of tracer.py (medians over traced rounds) plus
trace.overhead_s, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The program exits with code 2,
printing no result, when the checkout holds no jcdiss sources or no
scenarios.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
WORK = os.path.join(HERE, "_work")

# the CLI's current name for the propagator that does not use the
# eigendecomposition; the only place the benchmark names it
SECOND_ROUTE = "rk4"

_FOCK_SCENARIOS = (
    "ground_state_detuning", "inversion_detuning", "purity_detuning",
    "field_entropy_detuning", "concurrence_detuning",
    "fock4_zero_temperature", "fock4_low_temperature",
)

# workload -> operations (command, scenario, extra arguments)
WORKLOADS = {
    "coherent_series": [
        ("evolve", "quadrature_variances_two_models", ()),
        ("evolve", "coherent_revival_two_models", ()),
    ],
    "fock_entropy": [("evolve", name, ()) for name in _FOCK_SCENARIOS] + [
        ("steady", "fock4_low_temperature", ()),
        ("rates", "fock4_low_temperature", ()),
    ],
    "phase_space": [
        ("husimi", "husimi_snapshots_two_models", ()),
    ],
    "second_route": [
        ("evolve", "ground_state_detuning", ("--method", SECOND_ROUTE)),
        ("oracle", "oracle_single_excitation", ()),
    ],
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class Run:
    """Inputs and output locations of one benchmark run."""

    def __init__(self, workload, seed, work_dir):
        self.dir = work_dir
        self.out = os.path.join(work_dir, "out")
        self.operations = WORKLOADS[workload]
        scen_dir = os.path.join(work_dir, "scenarios")
        os.makedirs(scen_dir, exist_ok=True)
        self.scenarios = {}
        for _, name, _ in self.operations:
            if name in self.scenarios:
                continue
            with open(os.path.join(SCENARIOS, name + ".json"), encoding="utf-8") as fh:
                raw = json.load(fh)
            raw["output"] = os.path.join(self.out, name)
            raw["seed"] = seed
            path = os.path.join(scen_dir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh, indent=2)
            self.scenarios[name] = (path, raw)
        self.commands = [[cmd, self.scenarios[name][0], *extra]
                         for cmd, name, extra in self.operations]

    def spawn(self, mode, tag):
        """One fresh process; returns its result dict with setup_s added."""
        plan_path = os.path.join(self.dir, f"plan-{tag}.json")
        result_path = os.path.join(self.dir, f"result-{tag}.json")
        plan = {"src": SRC, "mode": mode, "result": result_path,
                "scenarios": [path for path, _ in self.scenarios.values()],
                "commands": self.commands,
                "spans": os.path.join(self.dir, f"spans-{tag}.json")}
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        if mode != "setup":
            shutil.rmtree(self.out, ignore_errors=True)
        log_path = os.path.join(self.dir, f"log-{tag}.txt")
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), plan_path],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
            )
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
            raise RuntimeError(f"benchmark round process ended with {code}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        if mode == "trace":
            with open(plan["spans"], encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        return result

    def check(self, codes, rng_seed):
        """Per-operation verdicts: (exit code ok, list of check problems)."""
        verdicts = []
        for (cmd, name, extra), code in zip(self.operations, codes):
            problems = []
            if code == 0:
                raw = self.scenarios[name][1]
                try:
                    problems = checks.check_operation(cmd, extra, raw, rng_seed)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            verdicts.append((code == 0, problems))
            for problem in problems:
                sys.stderr.write(f"check failed: {cmd} {name}: {problem}\n")
        return verdicts


def _require_checkout():
    for path in (os.path.join(SRC, "jcdiss", "cli.py"), SCENARIOS):
        if not os.path.exists(path):
            sys.stderr.write(f"jcbench: {path} not found; run from a jcdiss checkout\n")
            raise SystemExit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    sys.path.insert(0, SRC)

    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = _measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(args, work_dir):
    run = Run(args.workload, args.seed, work_dir)
    modes = ["time", "trace"] if args.trace else ["time"]

    samples = {mode: [] for mode in modes}
    setups = []
    attempted = failed = 0
    correct = True
    begin = time.monotonic()
    round_no = 0
    while True:
        round_start = time.monotonic()
        for mode in modes:
            result = run.spawn(mode, f"{round_no}-{mode}")
            samples[mode].append(result)
            setups.append(result["setup_s"])
            for ok, problems in run.check(result["codes"], args.seed + round_no):
                attempted += 1
                if not ok or problems:
                    failed += 1
                if ok and problems:
                    correct = False
        round_no += 1
        # start another round only if it should end within the run length,
        # taking the last round (checks included) as the estimate
        now = time.monotonic()
        if now - begin + (now - round_start) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.spawn("setup", f"setup{len(setups)}")["setup_s"])

    if args.trace:
        import tracer

        layers = [tracer.layer_metrics(r["trace"]) for r in samples["trace"]]
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            unit = _layer_unit(name)
            # counts repeat exactly across rounds; median_low keeps them whole
            middle = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = {"value": None if None in values else middle(values), "unit": unit}
        untraced = statistics.median(r["wall_s"] for r in samples["time"])
        traced = statistics.median(r["wall_s"] for r in samples["trace"])
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        _report_layers(metrics, untraced)
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name in ("wall_s", "cpu_s", "peak_rss_mib"):
            values = [r[name] for r in samples["time"]]
            metrics[name] = {"value": statistics.median(values), "unit": END_TO_END[name]}
        walls = " ".join(f"{r['wall_s']:.3f}" for r in samples["time"])
        sys.stderr.write(f"jcbench: {args.workload} seed {args.seed}: round wall_s {walls}; "
                         f"{len(setups)} set-ups\n")

    if args.trace:
        # the last traced round's spans stay for inspection
        os.replace(os.path.join(work_dir, f"spans-{round_no - 1}-trace.json"),
                   os.path.join(WORK, f"spans-{args.workload}.json"))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("propagate.largest_block", "lindblad.dim_super"):
        return "dim"
    return "count"


def _report_layers(metrics, untraced_wall):
    """Human-readable layer table on stderr."""
    for name, entry in sorted(metrics.items(), key=lambda kv: (kv[1]["unit"], kv[0])):
        value = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        sys.stderr.write(f"  {name:34s} {value:>14s} {entry['unit']}\n")
    self_sum = metrics["trace.self_sum_s"]["value"]
    traced = metrics["trace.wall_s"]["value"]
    if self_sum > traced:
        sys.stderr.write(
            f"  note: self times summed over threads ({self_sum:.3f} s) exceed the "
            f"traced wall time ({traced:.3f} s): _fan_out threads overlap\n")
    sys.stderr.write(f"  untraced wall {untraced_wall:.3f} s\n")


if __name__ == "__main__":
    raise SystemExit(main())
