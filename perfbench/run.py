"""Benchmark of the `etdopt` experiment sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is run from the checkout's
`src/` through the `etdopt` console-script entry point, each sweep in a fresh
process with a fresh output directory, so the reference cache is cold.

--trace 0: one cold set-up (the sweep with --rounds 0), then whole sweeps
back to back until S seconds have passed; prints the end-to-end metrics.
--trace 1: one sweep, then one traced run of the same sweep (traced.py);
prints the per-layer metrics.

Every sweep's outputs are checked against values computed apart from the
program (checks.py, oracle.py). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Progress and failure
messages go to standard error. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from checks import Spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs"
# The `etdopt` console script declared in pyproject.toml, without installing it.
CLI_ENTRY = "import sys; from etdopt.cli import main; sys.exit(main())"
RUN_DEADLINE_S = 170.0
MIB = 1024.0 * 1024.0

END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "broadcasts_total": "count",
}
PER_LAYER = {
    "graph.generate_random_graph_s": "s",
    "engine.validate_s": "s",
    "objective.build_instance_s": "s",
    "reference.solve_centralized_s": "s",
    "reference.iterations": "count",
    "engine.run_s": "s",
    "engine.round_ms": "ms",
    "engine.bookkeeping_s": "s",
    "engine.snapshot_mb": "MB",
    "engine.agent_rounds": "count",
    "metrics.ergodic_rate_certificate_s": "s",
    "cli.write_trace_csv_s": "s",
    "cli.write_summary_s": "s",
    "cli.compare_schedules_s": "s",
    "cli.output_mb": "MB",
    "bench.tracing_overhead_s": "s",
}


# Workload name -> function of the benchmark seed giving the sweep.
WORKLOADS = {
    # The CLI default (the north-star sweep), trimmed from 2000 to 200 rounds.
    "lasso-default": lambda seed: Spec(
        "lasso", n=100, m=50, graph_r=0.4, beta=0.0025, eta=0.6, rounds=200,
        seeds=(seed,), schedules=("poly:20:1.2",), cli_defaults=True),
    # The instance stays at seed 1: the reference solve's iteration count
    # ranges from 4,250 to 9,190 over instance seeds 1-6, which would make
    # set-up time a property of the seed. The seed draws the graph.
    "logistic-compare": lambda seed: Spec(
        "logistic", n=100, m=50, graph_r=0.06, beta=0.05, eta=32.0, rounds=100,
        seeds=(1,), graph_seed=seed, compare=True,
        schedules=("poly:20:1.2", "exp:5:0.99", "everyN:2", "zero")),
    # Fixed inputs (instance and graph seeds 1-4); --seed does not change
    # them. The hand-rolled eigensolvers' cost depends on the instance and
    # the graph: power iteration needed 155-18,677 iterations over instance
    # seeds 85-100 and falls back to Jacobi past 20,000, so with seeded
    # instances set-up time spread 39% of its median over five seeds. Past
    # about 200 rounds the thresholds (0.97^k) fall below the agents' motion
    # and the broadcast count grows with the instance, so the sweep stops at 200.
    "quadratic-certificate": lambda seed: Spec(
        "quadratic", n=64, m=20, graph_r=0.1, beta=0.02, eta=6.0, rounds=200,
        seeds=(1, 2, 3, 4), schedules=("exp:1:0.97",), certificate=True),
}


@dataclass
class Process:
    seconds: float
    rss_mb: float
    ok: bool


def child_env() -> dict:
    """The checkout's program first on the path, BLAS threads capped at the
    CPUs this process may use."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def timed_process(argv: list, log: Path, env: dict, deadline: float) -> Process:
    """Wall time from spawn to exit and peak RSS of one child process. The
    child is killed at `deadline` (time.monotonic)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{argv[-1]}: exit code {proc.returncode}, see {log}", file=sys.stderr)
    return Process(seconds, usage.ru_maxrss / 1024.0, proc.returncode == 0)


def broadcasts_total(spec: Spec, out: Path) -> int:
    return sum(int(checks.read_summary(spec.run_dir(out, seed, sched) / "summary.txt")["broadcasts_total"])
               for seed in spec.seeds for sched in spec.schedules)


def run_end_to_end(spec: Spec, cli: list, work: Path, env: dict, seconds: float, deadline: float):
    setup = timed_process(cli + ["--out", str(work / "setup"), "--rounds", "0"],
                          work / "setup.log", env, deadline)
    if not setup.ok:
        raise RuntimeError("the set-up run failed; nothing can be measured")
    sweeps, outs = [], []
    begin = time.perf_counter()
    while not sweeps or time.perf_counter() - begin < seconds:
        outs.append(work / f"sweep{len(sweeps)}")
        sweeps.append(timed_process(cli + ["--out", str(outs[-1])], work / f"sweep{len(sweeps)}.log",
                                    env, deadline))
    good = [(s, out) for s, out in zip(sweeps, outs) if s.ok]
    if not good:
        raise RuntimeError("every sweep failed; nothing can be measured")
    expected = checks.expected_for(spec)
    failures = []
    for _, out in good:
        failures += checks.check_outputs(out, expected)
        failures += checks.check_same_outputs(spec, good[0][1], out)
    metrics = {
        "sweep_s": statistics.median(s.seconds for s, _ in good),
        "setup_s": setup.seconds,
        "peak_rss_mb": statistics.median(s.rss_mb for s, _ in good),
        "broadcasts_total": broadcasts_total(spec, good[0][1]),
    }
    return len(sweeps), len(sweeps) - len(good), failures, metrics


def run_traced(spec: Spec, cli: list, config: Path, work: Path, env: dict, deadline: float):
    sweep = timed_process(cli + ["--out", str(work / "sweep0")], work / "sweep0.log", env, deadline)
    report_path = work / "traced.json"
    traced_start = time.monotonic()
    traced = timed_process([sys.executable, str(HERE / "traced.py"), str(config), str(work / "traced"),
                            str(report_path)], work / "traced.log", env, deadline)
    if not (sweep.ok and traced.ok):
        raise RuntimeError("the sweep or the traced run failed; nothing can be measured")
    report = json.loads(report_path.read_text())
    expected = checks.expected_for(spec)
    failures = checks.check_outputs(work / "sweep0", expected)
    failures += checks.check_same_outputs(spec, work / "sweep0", work / "traced")
    failures += report["failures"]
    spans = report["seconds"]
    run_s = spans.get("engine.run", 0.0)
    validate_s = spans.get("engine.validate", 0.0)
    metrics = {
        "graph.generate_random_graph_s": spans.get("graph.generate_random_graph", 0.0),
        "engine.validate_s": validate_s,
        "objective.build_instance_s": spans.get("objective.build_instance", 0.0),
        "reference.solve_centralized_s": spans.get("reference.solve_centralized", 0.0),
        "reference.iterations": report["reference_iterations"],
        "engine.run_s": run_s,
        "engine.round_ms": 1000.0 * report["round_median_s"],
        "engine.bookkeeping_s": run_s - validate_s - spans.get("engine.run_round", 0.0),
        "engine.snapshot_mb": report["snapshot_bytes"] / MIB,
        "engine.agent_rounds": report["agent_rounds"],
        "metrics.ergodic_rate_certificate_s": spans.get("metrics.ergodic_rate_certificate", 0.0),
        "cli.write_trace_csv_s": spans.get("cli.write_trace_csv", 0.0),
        "cli.write_summary_s": spans.get("cli.write_summary", 0.0),
        "cli.compare_schedules_s": spans.get("cli.compare_schedules", 0.0),
        "cli.output_mb": report["output_bytes"] / MIB,
        "bench.tracing_overhead_s": (report["pipeline_end"] - traced_start) - sweep.seconds,
    }
    return 2, 0, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so timed_process kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "etdopt" / "cli.py").is_file():
        print(f"no etdopt source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))  # the checks read the generated inputs
    spec = WORKLOADS[args.workload](args.seed)
    env = child_env()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.txt"
    config.write_text(spec.config_text())
    cli = [sys.executable, "-c", CLI_ENTRY, "--config", str(config)]
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        if args.trace:
            attempted, failed, failures, values = run_traced(spec, cli, config, work, env, deadline)
            units = PER_LAYER
        else:
            attempted, failed, failures, values = run_end_to_end(
                spec, cli, work, env, args.seconds, deadline)
            units = END_TO_END
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for message in failures:
        print(message, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
