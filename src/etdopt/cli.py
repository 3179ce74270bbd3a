"""Experiment harness.

Parses flat key-value config files (flags override), generates instances,
runs (seed x schedule) sweeps, and emits plot-ready CSV traces plus text
summaries. Each seed's centralized reference is solved afresh and written to
`cache/` as an output; nothing under the output directory is read back.
Schedule comparison mode tabulates the broadcasts needed to reach
objective-gap and consensus thresholds against the always-broadcast
baseline.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import metrics, trigger
from .engine import RunConfig, RunTrace, run
from .graph import (
    GraphConfigError,
    check_stepsize_strongly_convex,
    generate_random_graph,
    laplacian,
)
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

CSV_HEADER = "round,objective_gap,consensus_error,primal_residual,broadcasts_agent0,broadcasts_total_cum"


class ConfigFileError(ValueError):
    """Config file or flag rejected, with position information."""


@dataclass
class ExperimentConfig:
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
    reference_tol: float = 1e-10
    certificate: bool = False
    dual_radius: Optional[float] = None
    # hand-tuned benchmark stepsizes can violate the sufficient condition
    # while still converging, so the harness records margins instead of
    # rejecting; flip to True to hard-enforce.
    enforce_stepsize: bool = False
    compare: tuple = ()

    def effective_rounds(self) -> int:
        return self.rounds if self.rounds is not None else DEFAULT_ROUNDS[self.problem]

    def eta_vector(self, n: int) -> np.ndarray:
        """One weight per agent: a single entry is repeated, a list of another
        length than 1 or n raises ValueError."""
        return np.broadcast_to(np.asarray(self.eta, dtype=np.float64), (n,)).copy()


def _parse_bool(value: str, where: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigFileError(f"{where}: expected a boolean, got {value!r}")


def _parse_list(value: str, where: str, cast) -> tuple:
    try:
        return tuple(cast(v.strip()) for v in value.split(",") if v.strip())
    except ValueError:
        raise ConfigFileError(
            f"{where}: expected comma-separated {cast.__name__} values, got {value!r}") from None


def _apply_key(cfg: dict, key: str, value: str, where: str):
    key = key.strip()
    value = value.strip()
    try:
        if key == "problem":
            if value not in PROBLEMS:
                raise ConfigFileError(f"{where}: problem must be one of {PROBLEMS}, got {value!r}")
            cfg[key] = value
        elif key in ("n", "m", "p", "mi", "rounds"):
            cfg[key] = int(value)
        elif key in ("tau", "ridge", "graph_r", "beta", "reference_tol", "dual_radius"):
            cfg[key] = float(value)
        elif key == "graph_seed":
            cfg[key] = int(value) if value else None
        elif key == "eta":
            cfg[key] = _parse_list(value, where, float)
        elif key == "out":
            cfg[key] = value
        elif key == "schedule":
            trigger.parse_schedule(value)  # validate early
            cfg[key] = value
        elif key == "seeds":
            cfg[key] = _parse_list(value, where, int)
        elif key in ("certificate", "enforce_stepsize"):
            cfg[key] = _parse_bool(value, where)
        elif key == "compare":
            specs = tuple(s.strip() for s in value.split(",") if s.strip())
            for s in specs:
                trigger.parse_schedule(s)
            cfg[key] = specs
        else:
            raise ConfigFileError(f"{where}: unknown key {key!r}")
    except trigger.ScheduleError as err:
        raise ConfigFileError(f"{where}: {err}") from None
    except ValueError as err:
        if isinstance(err, ConfigFileError):
            raise
        raise ConfigFileError(f"{where}: bad value for {key}: {value!r}") from None


def _positive(value: float) -> bool:
    return 0.0 < value < math.inf


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    problems = (
        (cfg.n < 2, f"n must be >= 2, got {cfg.n}"),
        (min(cfg.m, cfg.p, cfg.mi) < 1, f"m, p and mi must be >= 1, got {cfg.m, cfg.p, cfg.mi}"),
        (not _positive(cfg.beta), f"beta must be positive and finite, got {cfg.beta}"),
        (not cfg.eta or not all(map(_positive, cfg.eta)), "eta entries must be positive, finite"),
        (len(cfg.eta) not in (1, cfg.n), f"eta list has {len(cfg.eta)} entries for n={cfg.n}"),
        (not (0.0 <= cfg.tau < math.inf and 0.0 <= cfg.ridge < math.inf),
         f"tau and ridge must be >= 0 and finite, got {cfg.tau}, {cfg.ridge}"),
        (cfg.dual_radius is not None and not _positive(cfg.dual_radius),
         f"dual_radius must be positive and finite, got {cfg.dual_radius}"),
        (not 0.0 < cfg.graph_r <= 1.0, f"graph_r must be in (0, 1], got {cfg.graph_r}"),
        (cfg.rounds is not None and cfg.rounds < 0, f"rounds must be >= 0, got {cfg.rounds}"),
        (not _positive(cfg.reference_tol), "reference_tol must be positive and finite"),
        (not cfg.seeds, "need at least one seed"),
        (min(cfg.seeds, default=0) < 0 or (cfg.graph_seed or 0) < 0, "seeds must be >= 0"),
    )
    for failed, message in problems:
        if failed:
            raise ConfigFileError(message)
    return cfg


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a validated config from an optional file plus flag overrides.

    The file is flat "key = value" text with '#' comments; unknown keys are
    rejected with their line number. An empty file yields the defaults.
    Every rejection, an unreadable file included, is a ConfigFileError.
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
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        _apply_key(cfg, key, str(value), f"flag --{key.replace('_', '-')}")
    return _validate(ExperimentConfig(**cfg))


def build_instance(cfg: ExperimentConfig, seed: int) -> CompositeObjective:
    if cfg.problem == "lasso":
        obj, _ = make_lasso_instance(cfg.n, cfg.p, cfg.m, cfg.tau, seed)
    elif cfg.problem == "logistic":
        obj, _ = make_logistic_instance(cfg.n, cfg.mi, cfg.m, seed, ridge=cfg.ridge)
    else:
        obj = make_quadratic_instance(cfg.n, cfg.m, seed)
    return obj


def _solve_reference(cfg: ExperimentConfig, objective: CompositeObjective, digest: str,
                     cache_dir: Path) -> ReferenceSolution:
    """Solve `objective` centrally and write the solution, named by the
    instance `digest`, to `cache_dir` as an output of the sweep."""
    sol = solve_centralized(objective, tol=cfg.reference_tol)
    cache_dir.mkdir(parents=True, exist_ok=True)
    ref_path = cache_dir / f"reference_{digest}_tol{cfg.reference_tol:.3g}.txt"
    ref_path.write_text(reference_to_text(sol, digest))
    return sol


def _schedule_dirname(spec: str) -> str:
    return spec.replace(":", "-").replace("^", "pow").replace(".", "_")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_trace_csv(path: Path, trace: RunTrace, series: metrics.ErgodicSeries):
    """Emit one row per round, the error columns read from the trace's
    `series`. A diverged run ends with a sentinel row of NaNs at the failing
    round."""
    summary = metrics.broadcast_summary(trace)
    lines = [CSV_HEADER]
    for k, gap, cons, resid in zip(series.rounds.tolist(), series.objective_gap,
                                   series.consensus_error, series.primal_residual):
        lines.append(
            f"{k},{_fmt(gap)},{_fmt(cons)},{_fmt(resid)},"
            f"{int(summary.cumulative[k, 0])},{int(summary.cumulative[k].sum())}"
        )
    if trace.diverged:
        lines.append(f"{trace.diverged_round},nan,nan,nan,nan,nan")
    path.write_text("\n".join(lines) + "\n")


def _strong_convexity_margin(cfg_run: RunConfig) -> Optional[float]:
    mu = cfg_run.objective.strong_convexity()
    if np.any(mu <= 0.0):
        return None
    k1 = float(np.min(mu))  # midpoint of the admissible interval (0, 2 min mu)
    check = check_stepsize_strongly_convex(
        cfg_run.eta, cfg_run.beta, laplacian(cfg_run.graph),
        cfg_run.objective.lipschitz(), mu, k1,
    )
    return check.margin


def write_summary(path: Path, cfg: ExperimentConfig, run_cfg: RunConfig, trace: RunTrace,
                  series: metrics.ErgodicSeries, certificate_text: str, digest: str):
    """Write the run's summary, its final errors read from the trace's
    `series` and the instance named by `digest`."""
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
    sc_margin = _strong_convexity_margin(run_cfg)
    if sc_margin is not None:
        lines.append(f"strong_convexity_margin {_fmt(sc_margin)}")
    if trace.diverged:
        lines.append(f"diverged_round {trace.diverged_round}")
        lines.append(f"diverged_agent {trace.diverged_agent}")
    if done >= 1 and not trace.diverged:
        lines += [
            f"final_objective_gap {_fmt(series.objective_gap[-1])}",
            f"final_consensus_error {_fmt(series.consensus_error[-1])}",
            f"final_primal_residual {_fmt(series.primal_residual[-1])}",
        ]
    summary = metrics.broadcast_summary(trace)
    lines += [
        f"broadcasts_agent0 {int(summary.totals[0])}",
        f"broadcasts_total {int(summary.totals.sum())}",
        f"seconds_per_round {trace.seconds_per_round:.6g}",
        f"max_dual_imbalance {_fmt(trace.max_dual_imbalance)}",
    ]
    if trace.max_trigger_slack is not None:
        lines.append(f"max_trigger_slack {_fmt(trace.max_trigger_slack)}")
    body = "\n".join(lines) + "\n"
    if certificate_text:
        body += certificate_text
    path.write_text(body)


@dataclass
class ComparisonTable:
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
        cumulative = metrics.broadcast_summary(trace).cumulative
        s = series[spec]
        after_start = s.rounds >= 1
        row = []
        for thr in thresholds:
            reached = np.flatnonzero(
                after_start & (s.objective_gap <= thr) & (s.consensus_error <= thr))
            row.append(int(cumulative[s.rounds[reached[0]], 0]) if reached.size else None)
        counts[spec] = row
    baseline = counts.get("zero")
    ratios = {}
    for spec, row in counts.items():
        spec_ratios = []
        for i, count in enumerate(row):
            base = baseline[i] if baseline is not None else None
            spec_ratios.append(count / base if count is not None and base else None)
        ratios[spec] = spec_ratios
    return ComparisonTable(
        thresholds=tuple(thresholds),
        schedules=tuple(counts),
        broadcasts=counts,
        ratios=ratios,
    )


@dataclass
class ExperimentResult:
    exit_code: int
    run_dirs: list = field(default_factory=list)
    diverged_runs: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full (seed x schedule) sweep, writing trace.csv and
    summary.txt per run. Divergence is recorded and the sweep continues;
    the exit code is nonzero if any run diverged."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = out_dir / "cache"
    result = ExperimentResult(exit_code=0)

    # canonical spec strings so the comparison baseline is always keyed "zero"
    raw_specs = cfg.compare if cfg.compare else (cfg.schedule,)
    schedule_specs = []
    for raw in raw_specs:
        canonical = trigger.parse_schedule(raw).spec_string()
        if canonical not in schedule_specs:
            schedule_specs.append(canonical)
    if cfg.compare and "zero" not in schedule_specs:
        schedule_specs.append("zero")

    for seed in cfg.seeds:
        objective = build_instance(cfg, seed)
        digest = instance_hash(objective)
        graph_seed = cfg.graph_seed if cfg.graph_seed is not None else seed
        graph = generate_random_graph(cfg.n, cfg.graph_r, graph_seed)
        lap = laplacian(graph)
        reference = _solve_reference(cfg, objective, digest, cache_dir)
        seed_traces: dict = {}
        seed_series: dict = {}

        for spec in schedule_specs:
            schedule = trigger.parse_schedule(spec)
            run_cfg = RunConfig(
                graph=graph,
                objective=objective,
                schedule=schedule,
                beta=cfg.beta,
                eta=cfg.eta_vector(cfg.n),
                rounds=cfg.effective_rounds(),
                seed=seed,
                enforce_stepsize=cfg.enforce_stepsize,
            )
            recorder = metrics.ErgodicRecorder(objective, lap, reference.f_star,
                                               reference.x_star)
            trace = run(run_cfg, observe=recorder)
            series = recorder.series()
            seed_traces[spec] = trace
            seed_series[spec] = series

            run_dir = out_dir / f"{cfg.problem}_s{seed}_{_schedule_dirname(spec)}"
            run_dir.mkdir(parents=True, exist_ok=True)
            certificate_text = ""
            if cfg.certificate and not trace.diverged:
                certificate_text = _certificate_block(cfg, run_cfg, trace, reference, series)
            write_trace_csv(run_dir / "trace.csv", trace, series)
            write_summary(run_dir / "summary.txt", cfg, run_cfg, trace, series, certificate_text,
                          digest)
            result.run_dirs.append(run_dir)
            if trace.diverged:
                result.diverged_runs.append(
                    f"{cfg.problem} seed={seed} schedule={spec} round={trace.diverged_round}"
                )
                result.exit_code = 1

        if cfg.compare:
            table = compare_schedules(seed_traces, seed_series)
            table_path = out_dir / f"compare_{cfg.problem}_s{seed}.txt"
            table_path.write_text(table.render())
            result.tables[seed] = table

    return result


def _certificate_block(cfg: ExperimentConfig, run_cfg: RunConfig, trace: RunTrace,
                       reference: ReferenceSolution, series: metrics.ErgodicSeries) -> str:
    try:
        cert = metrics.ergodic_rate_certificate(run_cfg, trace, reference, series,
                                                cfg.dual_radius)
        return cert.to_text()
    except metrics.CertificateError as err:
        return f"certificate_skipped {err}\n"


# Command-line flags: (flag, config key it overrides, argparse options).
FLAGS = (
    ("--problem", "problem", dict(choices=PROBLEMS)),
    ("--schedule", "schedule", dict(help='e.g. "poly:20:1.2", "exp:1:0.99", "zero", "everyN:2"')),
    ("--rounds", "rounds", dict(type=int)),
    ("--seed", "seeds", dict(help="comma-separated seed list")),
    ("--out", "out", dict(help="output directory")),
    ("--beta", "beta", dict(type=float)),
    ("--eta", "eta", dict(help="scalar or comma-separated per-agent list")),
    ("--graph-r", "graph_r", dict(type=float)),
    ("--certificate", "certificate",
     dict(action="store_true", default=None, help="emit the ergodic rate certificate")),
    ("--compare", "compare", dict(help="comma-separated schedule specs to compare")),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etdopt",
        description="Event-triggered decentralized optimization experiment harness.",
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
