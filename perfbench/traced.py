"""Traced run of one sweep, for the per-layer metrics.

Makes the same `cli.run_experiment` call on the same config file as the
`etdopt` CLI, with a timing span around every call into a layer's public
function: the module-level names that `cli` and `engine.run` look up are
replaced by timing wrappers, so the calls, their order and their arguments
are the program's own. `engine.run_round` is timed as `engine.run` calls it,
so the run's remaining time is its bookkeeping. After the sweep the rounds of
every run are driven again from outside, one `engine.run_round` call at a
time, to check the trigger bound and the dual sum on every state it returns.

    python3 perfbench/traced.py CONFIG OUT_DIR RESULT_JSON

Run with the checkout's `src/` on PYTHONPATH (run.py does this).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks

MAX_REPORTED_FAILURES = 20


class Spans:
    """Per traced function: the duration of each call, and the return values
    of the functions asked to keep them."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.results = defaultdict(list)

    def wrap(self, owner, attr: str, name: str, keep: bool = False):
        inner = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = inner(*args, **kwargs)
            finally:
                self.durations[name].append(time.perf_counter() - start)
            if keep:
                self.results[name].append(out)
            return out

        setattr(owner, attr, timed)


def drive_rounds(engine, run_round, trace) -> list:
    """Re-run `trace`'s rounds one `run_round` call at a time; return the
    property failures seen on the states."""
    config = trace.config
    spec = config.schedule.spec_string()
    state = engine.initial_state(config)
    failures = []
    for k in range(1, config.rounds + 1):
        state = run_round(state, config)
        failures += checks.check_states(spec, k, engine.state_primal(state),
                                        engine.state_broadcast(state), engine.state_dual(state))
    final = trace.final_state
    for view in (engine.state_primal, engine.state_broadcast, engine.state_dual):
        if not np.array_equal(view(state), view(final)):
            failures.append(f"states: s{config.seed} {spec}: round-by-round {view.__name__} "
                            "differs from engine.run's final state")
    return failures


def trace_bytes(trace) -> int:
    """Bytes of the arrays a RunTrace holds per round."""
    total = 0
    for rec in trace.records:
        total += rec.broadcasts.nbytes
        total += sum(a.nbytes for a in (rec.x, rec.z, rec.ergodic_sum) if a is not None)
    return total


def main(config: str, out: str, result_path: str) -> int:
    from etdopt import cli, engine, metrics

    spans = Spans()
    run_round = engine.run_round
    for owner, attr, name, keep in (
        (cli, "build_instance", "objective.build_instance", False),
        (cli, "generate_random_graph", "graph.generate_random_graph", False),
        (cli, "solve_centralized", "reference.solve_centralized", True),
        (engine.RunConfig, "validate", "engine.validate", False),
        (cli, "run", "engine.run", True),
        (engine, "run_round", "engine.run_round", False),
        (metrics, "ergodic_rate_certificate", "metrics.ergodic_rate_certificate", False),
        (cli, "write_trace_csv", "cli.write_trace_csv", False),
        (cli, "write_summary", "cli.write_summary", False),
        (cli, "compare_schedules", "cli.compare_schedules", False),
    ):
        spans.wrap(owner, attr, name, keep)

    result = cli.run_experiment(cli.parse_config(config, {"out": out}))
    pipeline_end = time.monotonic()

    traces = spans.results["engine.run"]
    failures = []
    if result.exit_code != 0:
        failures.append(f"traced: run_experiment exited {result.exit_code}")
    for trace in traces:
        failures += drive_rounds(engine, run_round, trace)
    per_seed_bytes = defaultdict(int)
    for trace in traces:
        per_seed_bytes[trace.config.seed] += trace_bytes(trace)

    report = {
        "pipeline_end": pipeline_end,
        "seconds": {name: sum(d) for name, d in spans.durations.items()},
        "reference_iterations": sum(r.iterations for r in spans.results["reference.solve_centralized"]),
        "agent_rounds": sum(t.config.n * t.completed_rounds for t in traces),
        "round_median_s": float(np.median(spans.durations["engine.run_round"] or [0.0])),
        "snapshot_bytes": max(per_seed_bytes.values(), default=0),
        "output_bytes": sum(f.stat().st_size for f in Path(out).rglob("*") if f.is_file()),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    Path(result_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
