"""Experiment harness.

Parses flat key-value config files (flags override), generates instances,
runs (seed x schedule) sweeps, and emits plot-ready CSV traces plus text
summaries. One parser per config key reads and range-checks a file line and
a flag alike, so every rejection names its line or flag. Each seed's
centralized reference is solved afresh and written to `cache/` as an
output; nothing under the output directory is read back.
Schedule comparison mode tabulates the broadcasts needed to reach
objective-gap and consensus thresholds against the always-broadcast
baseline.
"""

from __future__ import annotations

import argparse
import math
import os.path
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import metrics, trigger
from .engine import RunConfig, RunTrace, run
from .graph import GraphConfigError, generate_random_graph
from .objective import (
    CompositeObjective,
    instance_hash,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
)
from .reference import ReferenceSolution, reference_to_text, solve_centralized

PROBLEMS = ("lasso", "logistic", "quadratic")
DEFAULT_ROUNDS = {"lasso": 2000, "logistic": 5000, "quadratic": 2000}
GAP_THRESHOLDS = (1e-1, 1e-2, 1e-3, 1e-4)
REFERENCE_TOL = 1e-10

CSV_HEADER = "round,objective_gap,consensus_error,primal_residual,broadcasts_agent0,broadcasts_total_cum"


class ConfigFileError(ValueError):
    """Config file or flag rejected, with position information."""


class ExperimentConfig(NamedTuple):
    problem: str = "lasso"
    n: int = 100
    m: int = 50
    p: int = 3          # rows per agent (sparse least squares)
    mi: int = 8         # samples per agent (logistic)
    tau: float = 0.1
    ridge: float = 0.0
    graph_r: float = 0.4
    graph_seed: Optional[int] = None
    beta: float = 0.0025
    eta: tuple = (0.6,)
    schedule: str = "poly:20:1.2"
    rounds: Optional[int] = None
    seeds: tuple = (1,)
    out: str = "runs"
    certificate: bool = False
    compare: tuple = ()

    def effective_rounds(self) -> int:
        return self.rounds if self.rounds is not None else DEFAULT_ROUNDS[self.problem]

    def eta_vector(self, n: int) -> np.ndarray:
        """One weight per agent: a single entry is repeated, a list of another
        length than 1 or n raises ValueError."""
        return np.broadcast_to(np.asarray(self.eta, dtype=np.float64), (n,)).copy()


def _checked(cast, accepts, rule: str):
    """A parser of one `cast` value that `accepts` admits (`rule` says which)."""
    def parse(text: str):
        value = cast(text)
        if not accepts(value):
            raise ValueError(f"must be {rule}, got {value!r}")
        return value
    return parse


def _items(parse):
    """A parser of a comma-separated list, each item read by `parse`."""
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


def _boolean(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _schedule_spec(text: str) -> str:
    trigger.parse_schedule(text)  # rejects the spec here, with its key and position
    return text


def _under_directory(path: str) -> bool:
    """Whether the first path that exists, walking up from the sweep's
    directory `path`, is a directory, under which `mkdir` can make the rest
    (normpath reads "file/" as "file")."""
    path = os.path.normpath(path)
    while not os.path.lexists(path) and path != os.path.dirname(path):  # stops at a root
        path = os.path.dirname(path) or os.curdir
    return os.path.isdir(path)


_at_least_1 = _checked(int, lambda v: v >= 1, ">= 1")
_non_negative = _checked(int, lambda v: v >= 0, ">= 0")
_finite_non_negative = _checked(float, lambda v: 0.0 <= v < math.inf, ">= 0 and finite")
_positive_finite = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")

# Each config key's parser: stripped text in, value out, ValueError on text
# it cannot read or a value out of range. Files and flags both go through it.
_PARSERS = {
    "problem": _checked(str, PROBLEMS.__contains__, f"one of {', '.join(PROBLEMS)}"),
    "n": _checked(int, lambda v: v >= 2, ">= 2"),
    "m": _at_least_1,
    "p": _at_least_1,
    "mi": _at_least_1,
    "tau": _finite_non_negative,
    "ridge": _finite_non_negative,
    "graph_r": _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "graph_seed": lambda text: _non_negative(text) if text else None,
    "beta": _positive_finite,
    "eta": _checked(_items(_positive_finite), len, "non-empty"),
    "schedule": _schedule_spec,
    "rounds": _non_negative,
    "seeds": _checked(_items(_non_negative), lambda v: 0 < len(v) == len(set(v)),
                      "non-empty and distinct"),
    "out": _checked(str, lambda v: v != "" and _under_directory(v),
                    "non-empty, with a directory as its first existing path"),
    "certificate": _boolean,
    "compare": _items(_schedule_spec),
}


def _apply_key(cfg: dict, key: str, value: str, where: str):
    key = key.strip()
    if key not in _PARSERS:
        raise ConfigFileError(f"{where}: unknown key {key!r}")
    try:
        cfg[key] = _PARSERS[key](value.strip())
    except ValueError as err:  # a trigger.ScheduleError included
        raise ConfigFileError(f"{where}: {key}: {err}") from None


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """The one check across keys: a weight per agent, or one for all."""
    if len(cfg.eta) not in (1, cfg.n):
        raise ConfigFileError(f"eta list has {len(cfg.eta)} entries for n={cfg.n}")
    return cfg


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a validated config from an optional file plus flag overrides.

    The file is flat "key = value" text with '#' comments; an empty file
    yields the defaults. Each file value, then each override's `str(value)`,
    goes through its key's parser in `_PARSERS`: a rejection names its
    "<path>:<line>" or "flag --x" and the key, and a file value is checked
    even when an override replaces it. Every rejection, an unreadable file
    included, is a ConfigFileError.
    """
    cfg: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigFileError(f"{path}: cannot read config file: {err}") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFileError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            _apply_key(cfg, key, value, f"{path}:{lineno}")
    flags = {key: flag for flag, key, _ in FLAGS}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        _apply_key(cfg, key, str(value), f"flag {flags.get(key, '--' + key.replace('_', '-'))}")
    return _validate(ExperimentConfig(**cfg))


def build_instance(cfg: ExperimentConfig, seed: int) -> CompositeObjective:
    if cfg.problem == "lasso":
        obj, _ = make_lasso_instance(cfg.n, cfg.p, cfg.m, cfg.tau, seed)
    elif cfg.problem == "logistic":
        obj, _ = make_logistic_instance(cfg.n, cfg.mi, cfg.m, seed, ridge=cfg.ridge)
    else:
        obj = make_quadratic_instance(cfg.n, cfg.m, seed)
    return obj


def _solve_reference(objective: CompositeObjective, digest: str,
                     cache_dir: Path) -> ReferenceSolution:
    """Solve `objective` centrally to `REFERENCE_TOL` and write the solution,
    named by the instance `digest`, to `cache_dir` as an output of the
    sweep."""
    sol = solve_centralized(objective, tol=REFERENCE_TOL)
    cache_dir.mkdir(parents=True, exist_ok=True)
    ref_path = cache_dir / f"reference_{digest}_tol{REFERENCE_TOL:.3g}.txt"
    ref_path.write_text(reference_to_text(sol, digest))
    return sol


def _schedule_dirname(spec: str) -> str:
    return spec.replace(":", "-").replace(".", "_")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_trace_csv(path: Path, trace: RunTrace, series: metrics.ErgodicSeries):
    """Emit one row per round, the error columns read from the trace's
    `series`. A diverged run ends with a sentinel row of NaNs at the failing
    round."""
    cumulative = trace.cumulative_broadcasts()
    agent0, totals = cumulative[:, 0].tolist(), cumulative.sum(axis=1).tolist()
    lines = [CSV_HEADER]
    for k, gap, cons, resid in zip(series.rounds.tolist(), series.objective_gap,
                                   series.consensus_error, series.primal_residual):
        lines.append(f"{k},{_fmt(gap)},{_fmt(cons)},{_fmt(resid)},{agent0[k]},{totals[k]}")
    if trace.diverged:
        lines.append(f"{trace.diverged_round},nan,nan,nan,nan,nan")
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: Path, cfg: ExperimentConfig, trace: RunTrace,
                  series: metrics.ErgodicSeries, certificate_text: str, digest: str):
    """Write the run's summary, its final errors read from the trace's
    `series` and the instance named by `digest`."""
    run_cfg = trace.config
    done = trace.completed_rounds
    lines = [
        f"problem {cfg.problem}",
        f"schedule {run_cfg.schedule.spec_string()}",
        f"seed {run_cfg.seed}",
        f"n {run_cfg.n}",
        f"m {run_cfg.m}",
        f"instance {digest}",
        f"rounds_completed {done}",
        f"diverged {int(trace.diverged)}",
        f"stepsize_margin {_fmt(trace.stepsize_margin)}",
    ]
    if trace.strong_convexity_margin is not None:
        lines.append(f"strong_convexity_margin {_fmt(trace.strong_convexity_margin)}")
    if trace.diverged:
        lines.append(f"diverged_round {trace.diverged_round}")
        lines.append(f"diverged_agent {trace.diverged_agent}")
    if done >= 1 and not trace.diverged:
        lines += [
            f"final_objective_gap {_fmt(series.objective_gap[-1])}",
            f"final_consensus_error {_fmt(series.consensus_error[-1])}",
            f"final_primal_residual {_fmt(series.primal_residual[-1])}",
        ]
    totals = trace.cumulative_broadcasts()[-1]
    lines += [
        f"broadcasts_agent0 {int(totals[0])}",
        f"broadcasts_total {int(totals.sum())}",
        f"seconds_per_round {trace.seconds_per_round:.6g}",
        f"max_dual_imbalance {_fmt(trace.max_dual_imbalance)}",
    ]
    if trace.max_trigger_slack is not None:
        lines.append(f"max_trigger_slack {_fmt(trace.max_trigger_slack)}")
    body = "\n".join(lines) + "\n"
    if certificate_text:
        body += certificate_text
    path.write_text(body)


class ComparisonTable(NamedTuple):
    """Broadcasts by agent 0 needed to first reach each threshold, per
    schedule, with ratios against the always-broadcast baseline.

    A threshold thr counts as reached at the first round k >= 1 where
    both the ergodic objective gap and the ergodic consensus error are
    <= thr: the gap alone can pass through zero at an average that is not in
    consensus."""

    thresholds: tuple
    schedules: tuple
    broadcasts: dict            # schedule spec -> list of Optional[int]
    ratios: dict                # schedule spec -> list of Optional[float]

    def render(self) -> str:
        width = max(len(s) for s in self.schedules) + 2
        head = "schedule".ljust(width) + "".join(f"{thr:>12g}" for thr in self.thresholds)
        rows = [head]
        for spec in self.schedules:
            cells = []
            for count, ratio in zip(self.broadcasts[spec], self.ratios[spec]):
                if count is None:
                    cells.append(f"{'—':>12}")
                elif ratio is None:
                    cells.append(f"{count:>12d}")
                else:
                    cells.append(f"{f'{count} ({ratio:.2f})':>12}")
            rows.append(spec.ljust(width) + "".join(cells))
        return "\n".join(rows) + "\n"


def compare_schedules(traces: dict, series: dict,
                      thresholds=GAP_THRESHOLDS) -> ComparisonTable:
    """Tabulate agent-0 broadcasts needed to reach each threshold (see
    `ComparisonTable`).

    `traces` maps schedule spec strings to traces that share one instance and
    seed, and `series` maps the same specs to their `metrics.ErgodicSeries`;
    a "zero" entry provides the ratio baseline.
    """
    counts: dict = {}
    for spec, trace in traces.items():
        cumulative = trace.cumulative_broadcasts()
        s = series[spec]
        after_start = s.rounds >= 1
        row = []
        for thr in thresholds:
            reached = np.flatnonzero(
                after_start & (s.objective_gap <= thr) & (s.consensus_error <= thr))
            row.append(int(cumulative[s.rounds[reached[0]], 0]) if reached.size else None)
        counts[spec] = row
    baseline = counts.get("zero") or [None] * len(thresholds)
    ratios = {spec: [count / base if count is not None and base else None
                     for count, base in zip(row, baseline)] for spec, row in counts.items()}
    return ComparisonTable(tuple(thresholds), tuple(counts), counts, ratios)


class ExperimentResult(NamedTuple):
    """A sweep's run directories, one line per diverged run, and in compare
    mode each seed's table."""

    run_dirs: list
    diverged_runs: list
    tables: dict

    @property
    def exit_code(self) -> int:
        return 1 if self.diverged_runs else 0


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full (seed x schedule) sweep, writing trace.csv and
    summary.txt per run. Divergence is recorded and the sweep continues;
    the exit code is nonzero if any run diverged."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = out_dir / "cache"
    run_dirs, diverged_runs, tables = [], [], {}

    # each schedule, parsed once, under its canonical spec string so the
    # comparison baseline is always keyed "zero"
    schedules: dict = {}
    for raw in cfg.compare or (cfg.schedule,):
        schedule = trigger.parse_schedule(raw)
        schedules.setdefault(schedule.spec_string(), schedule)
    if cfg.compare:
        schedules.setdefault("zero", trigger.TriggerSchedule("zero"))

    for seed in cfg.seeds:
        objective = build_instance(cfg, seed)
        digest = instance_hash(objective)
        graph_seed = cfg.graph_seed if cfg.graph_seed is not None else seed
        graph = generate_random_graph(cfg.n, cfg.graph_r, graph_seed)
        reference = _solve_reference(objective, digest, cache_dir)
        seed_traces: dict = {}
        seed_series: dict = {}

        for spec, schedule in schedules.items():
            run_cfg = RunConfig(
                graph=graph,
                objective=objective,
                schedule=schedule,
                beta=cfg.beta,
                eta=cfg.eta_vector(cfg.n),
                rounds=cfg.effective_rounds(),
                seed=seed,
            )
            recorder = metrics.ErgodicRecorder(objective, graph.laplacian, reference.f_star,
                                               reference.x_star)
            trace = run(run_cfg, observe=recorder)
            series = recorder.series()
            seed_traces[spec] = trace
            seed_series[spec] = series

            run_dir = out_dir / f"{cfg.problem}_s{seed}_{_schedule_dirname(spec)}"
            run_dir.mkdir(parents=True, exist_ok=True)
            certificate_text = ""
            if cfg.certificate and not trace.diverged:
                certificate_text = _certificate_block(trace, reference, series)
            write_trace_csv(run_dir / "trace.csv", trace, series)
            write_summary(run_dir / "summary.txt", cfg, trace, series, certificate_text, digest)
            run_dirs.append(run_dir)
            if trace.diverged:
                diverged_runs.append(
                    f"{cfg.problem} seed={seed} schedule={spec} round={trace.diverged_round}"
                )

        if cfg.compare:
            table = compare_schedules(seed_traces, seed_series)
            table_path = out_dir / f"compare_{cfg.problem}_s{seed}.txt"
            table_path.write_text(table.render())
            tables[seed] = table

    return ExperimentResult(run_dirs, diverged_runs, tables)


def _certificate_block(trace: RunTrace, reference: ReferenceSolution,
                       series: metrics.ErgodicSeries) -> str:
    try:
        cert = metrics.ergodic_rate_certificate(trace, reference, series)
        return cert.to_text()
    except metrics.CertificateError as err:
        return f"certificate_skipped {err}\n"


# Command-line flags: (flag, config key it overrides, argparse options). A
# flag's value is parsed by its key's entry in `_PARSERS`, as a file line is.
FLAGS = (
    ("--problem", "problem", dict(help=f"one of {', '.join(PROBLEMS)}")),
    ("--schedule", "schedule", dict(help='e.g. "poly:20:1.2", "exp:1:0.99", "zero", "everyN:2"')),
    ("--rounds", "rounds", {}),
    ("--seed", "seeds", dict(help="comma-separated seed list")),
    ("--out", "out", dict(help="output directory")),
    ("--beta", "beta", {}),
    ("--eta", "eta", dict(help="scalar or comma-separated per-agent list")),
    ("--graph-r", "graph_r", {}),
    ("--certificate", "certificate",
     dict(action="store_true", default=None, help="emit the ergodic rate certificate")),
    ("--compare", "compare", dict(help="comma-separated schedule specs to compare")),
)


EPILOG = """\
exit codes: 0 every run finished, 1 a run diverged, 2 config or output path rejected
files under --out: <problem>_s<seed>_<schedule>/trace.csv and summary.txt per run,
  cache/reference_*.txt per seed, and compare_*.txt per seed with --compare
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etdopt",
        description="Event-triggered decentralized optimization experiment harness.",
        epilog=EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="flat key=value config file")
    dests = {parser.add_argument(flag, **options).dest: key for flag, key, options in FLAGS}
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, dest) for dest, key in dests.items()}
    try:
        result = run_experiment(parse_config(args.config, overrides))
    except (ConfigFileError, GraphConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for run_dir in result.run_dirs:
        print(f"wrote {run_dir}")
    for failure in result.diverged_runs:
        print(f"diverged: {failure}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
