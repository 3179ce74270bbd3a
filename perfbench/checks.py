"""Correctness checks on the files an `etdopt` sweep writes.

`Expected` holds everything computed apart from the program: the oracle's
trajectories, the independent reference values and the LAPACK margins. The
program contributes only the generated inputs (instance arrays and graph),
and the checks compare its output files against those values, never against
a stored copy of earlier output.

Every failure message starts with the name of the check that raised it, so
tests can show that each check fails on a corrupted copy of the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import oracle

# Relative tolerance between the program's and the oracle's objective gap,
# consensus error and primal residual, at every round. The two accumulate the
# Laplacian term in a different order, so they differ by rounding only
# (measured below 1e-11 on all three workloads).
ORACLE_RTOL = 1e-7
# Broadcast counts must match the oracle exactly: a decision differs only when
# a deviation lies within rounding of its threshold.
BROADCAST_COUNT_TOL = 0
# Program f* against the independent value, relative to max(1, |f*|).
REFERENCE_RTOL = 1e-9
# Power-iteration margins against LAPACK, relative to max(1, ||matrix||_2).
MARGIN_RTOL = 1e-6
# |sum_i z_i| relative to n * max|z|; exact arithmetic gives 0.
DUAL_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Spec:
    """One sweep as the benchmark configures it. With `cli_defaults` only the
    rounds and seeds are written to the config file, and the other fields
    state the CLI's defaults (the checks confirm them from the summaries)."""

    problem: str
    n: int
    m: int
    graph_r: float
    beta: float
    eta: float
    rounds: int
    seeds: tuple                     # instance seeds, one run group each
    schedules: tuple                 # canonical specs in the CLI's run order
    graph_seed: Optional[int] = None  # None: each run uses its instance seed
    compare: bool = False
    certificate: bool = False
    p: int = 3
    tau: float = 0.1
    mi: int = 8
    cli_defaults: bool = False

    def config_text(self) -> str:
        keys = {"rounds": self.rounds, "seeds": ",".join(str(s) for s in self.seeds)}
        if self.graph_seed is not None:
            keys["graph_seed"] = self.graph_seed
        if not self.cli_defaults:
            keys.update(problem=self.problem, n=self.n, m=self.m, graph_r=self.graph_r,
                        beta=self.beta, eta=self.eta, certificate=str(self.certificate).lower())
            if self.problem == "lasso":
                keys.update(p=self.p, tau=self.tau)
            if self.problem == "logistic":
                keys["mi"] = self.mi
            if self.compare:
                keys["compare"] = ", ".join(s for s in self.schedules if s != "zero")
            else:
                keys["schedule"] = self.schedules[0]
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def graph_seed_for(self, seed: int) -> int:
        return seed if self.graph_seed is None else self.graph_seed

    def run_dir(self, out: Path, seed: int, schedule: str) -> Path:
        name = schedule.replace(":", "-").replace("^", "pow").replace(".", "_")
        return out / f"{self.problem}_s{seed}_{name}"


@dataclass
class Expected:
    spec: Spec
    digests: dict = field(default_factory=dict)    # seed -> instance digest
    references: dict = field(default_factory=dict)  # seed -> (x*, f*)
    runs: dict = field(default_factory=dict)       # (seed, schedule) -> OracleRun
    margins: dict = field(default_factory=dict)    # seed -> (composite, strongly convex or None, scale)


def build_problem(spec: Spec, seed: int):
    """The generated inputs of one run group, as the oracle's stacked arrays,
    plus the program's digest of the instance."""
    from etdopt.graph import generate_random_graph
    from etdopt.objective import (instance_hash, make_lasso_instance, make_logistic_instance,
                                  make_quadratic_instance)

    if spec.problem == "lasso":
        obj, raw = make_lasso_instance(spec.n, spec.p, spec.m, spec.tau, seed)
        arrays = {"a": raw["a"], "b": raw["b"], "tau": spec.tau}
    elif spec.problem == "logistic":
        obj, raw = make_logistic_instance(spec.n, spec.mi, spec.m, seed)
        arrays = {"f": raw["features"], "y": raw["labels"]}
    else:
        obj = make_quadratic_instance(spec.n, spec.m, seed)
        arrays = {"d": np.stack([f.diag for f in obj.smooth]),
                  "c": np.stack([f.center for f in obj.smooth])}
    graph = generate_random_graph(spec.n, spec.graph_r, spec.graph_seed_for(seed))
    return oracle.Problem(spec.problem, arrays, np.array(graph.edges)), instance_hash(obj)


def _margins(problem: oracle.Problem, spec: Spec):
    """LAPACK smallest eigenvalues of the two stepsize matrices, and the
    largest spectral radius among them (the scale of the tolerance)."""
    lap = problem.laplacian()
    lf = problem.lipschitz()
    base = spec.eta * np.eye(problem.n) - spec.beta * lap
    mats = [base - np.diag(lf)]
    if problem.kind == "quadratic":  # lasso and unridged logistic have mu = 0
        mu = problem.arrays["d"].min(axis=1)
        mats.append(base - np.diag(lf**2) / float(np.min(mu)))
    eigs = [np.linalg.eigvalsh(mat) for mat in mats]
    scale = max(1.0, max(float(np.max(np.abs(e))) for e in eigs))
    return float(eigs[0][0]), (float(eigs[1][0]) if len(eigs) > 1 else None), scale


def expected_for(spec: Spec) -> Expected:
    exp = Expected(spec)
    for seed in spec.seeds:
        problem, digest = build_problem(spec, seed)
        x_star, f_star = oracle.reference_value(problem)
        exp.digests[seed] = digest
        exp.references[seed] = (x_star, f_star)
        exp.margins[seed] = _margins(problem, spec)
        eta = np.full(problem.n, spec.eta)
        for sched in spec.schedules:
            exp.runs[seed, sched] = oracle.run_oracle(
                problem, oracle.Schedule.parse(sched), spec.beta, eta, spec.rounds, x_star, f_star)
    return exp


# ----- reading the program's outputs -----

def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_reference(out: Path, digest: str):
    """(x*, f*) from the program's reference cache for one instance."""
    paths = sorted((out / "cache").glob(f"reference_{digest}_*.txt"))
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one reference cache file for {digest}, found {len(paths)}")
    lines = paths[0].read_text().splitlines()
    fields = dict(line.partition(" ")[::2] for line in lines[1:7])
    x_star = np.array([float(v) for v in lines[lines.index("x_star") + 1].split()])
    return x_star, float(fields["f_star"])


@dataclass
class RunOutput:
    summary: dict
    csv: np.ndarray


def load_runs(out: Path, spec: Spec):
    """Every (seed, schedule) run's summary and trace, plus messages for runs
    whose files are missing or unreadable."""
    runs, missing = {}, []
    for seed in spec.seeds:
        for sched in spec.schedules:
            d = spec.run_dir(out, seed, sched)
            try:
                runs[seed, sched] = RunOutput(read_summary(d / "summary.txt"), read_csv(d / "trace.csv"))
            except (OSError, ValueError) as err:
                missing.append(f"complete: {d.name}: {err}")
    return runs, missing


# ----- the checks -----

def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(b), scale)


def check_complete(exp, runs, out):
    """Every run finished its rounds, did not diverge, and ran the intended
    problem on the intended instance."""
    spec = exp.spec
    for (seed, sched), run in runs.items():
        s = run.summary
        want = {"problem": spec.problem, "schedule": sched, "seed": str(seed), "n": str(spec.n),
                "m": str(spec.m), "instance": exp.digests[seed],
                "rounds_completed": str(spec.rounds), "diverged": "0"}
        for key, value in want.items():
            if s.get(key) != value:
                yield f"complete: s{seed} {sched}: {key} is {s.get(key)!r}, expected {value!r}"
        if run.csv.shape != (spec.rounds + 1, 6) or not np.all(np.isfinite(run.csv)):
            yield f"complete: s{seed} {sched}: trace.csv is not {spec.rounds + 1} finite rows"


def check_oracle(exp, runs, out):
    """Final gap, consensus error, primal residual and broadcast totals, and
    the trace.csv columns at every round, against the oracle."""
    spec = exp.spec
    for (seed, sched), run in runs.items():
        o = exp.runs[seed, sched]
        s = run.summary
        tag = f"oracle: s{seed} {sched}"
        if abs(int(s.get("broadcasts_total", -1)) - o.broadcasts_cum[-1]) > BROADCAST_COUNT_TOL:
            yield f"{tag}: broadcasts_total {s.get('broadcasts_total')} vs oracle {o.broadcasts_cum[-1]}"
        for key, value in (("final_objective_gap", o.objective_gap[-1]),
                           ("final_consensus_error", o.consensus_error[-1]),
                           ("final_primal_residual", o.final_primal_residual)):
            got = float(s.get(key, "nan"))
            if not _close(got, value, ORACLE_RTOL):
                yield f"{tag}: {key} {got!r} vs oracle {value!r}"
        if run.csv.shape[0] != spec.rounds + 1:
            continue
        f_scale = abs(exp.references[seed][1])
        for col, name, series, scale in ((1, "objective_gap", o.objective_gap, f_scale),
                                         (2, "consensus_error", o.consensus_error, 0.0)):
            bad = np.abs(run.csv[1:, col] - series) > ORACLE_RTOL * np.maximum(np.abs(series), 1e-3 * scale)
            if np.any(bad):
                k = int(np.argmax(bad)) + 1
                yield f"{tag}: trace.csv {name} at round {k}: {run.csv[k, col]!r} vs {series[k - 1]!r}"
        if not np.array_equal(run.csv[:, 5], o.broadcasts_cum):
            yield f"{tag}: trace.csv broadcasts_total_cum differs from the oracle"


def check_reference(exp, runs, out):
    """The program's cached f* and x* against the independent values."""
    spec = exp.spec
    for seed in spec.seeds:
        try:
            x_prog, f_prog = read_reference(out, exp.digests[seed])
        except (OSError, ValueError, KeyError, IndexError) as err:
            yield f"reference: s{seed}: {err}"
            continue
        x_star, f_star = exp.references[seed]
        if not _close(f_prog, f_star, REFERENCE_RTOL, 1.0):
            yield f"reference: s{seed}: f* {f_prog!r} vs independent {f_star!r}"
        if x_prog.shape != x_star.shape or np.linalg.norm(x_prog - x_star) > 1e-6 * max(1.0, np.linalg.norm(x_star)):
            yield f"reference: s{seed}: x* differs from the independent minimizer"


def check_trigger(exp, runs, out):
    """The run's own trigger slack and dual imbalance diagnostics."""
    for (seed, sched), run in runs.items():
        s = run.summary
        if not sched.startswith("everyN"):
            slack = float(s.get("max_trigger_slack", "nan"))
            if not slack <= 0.0:
                yield f"trigger: s{seed} {sched}: max_trigger_slack {slack!r} > 0"
        imbalance = float(s.get("max_dual_imbalance", "nan"))
        if not imbalance <= DUAL_SUM_TOL:
            yield f"trigger: s{seed} {sched}: max_dual_imbalance {imbalance!r}"


def check_counts(exp, runs, out):
    """everyN:N broadcasts n(1 + floor(R/N)) times; zero broadcasts n(R+1)
    times when every agent moves every round (logistic); every event rule
    broadcasts less than zero."""
    spec = exp.spec
    n, r = spec.n, spec.rounds
    for seed in spec.seeds:
        totals = {sched: int(runs[seed, sched].summary.get("broadcasts_total", -1))
                  for sched in spec.schedules if (seed, sched) in runs}
        for sched, total in totals.items():
            if sched.startswith("everyN"):
                want = n * (1 + r // int(sched.split(":")[1]))
                if total != want:
                    yield f"counts: s{seed} {sched}: {total} broadcasts, expected {want}"
        if "zero" not in totals:
            continue
        if spec.problem == "logistic" and totals["zero"] != n * (r + 1):
            yield f"counts: s{seed} zero: {totals['zero']} broadcasts, expected {n * (r + 1)}"
        for sched, total in totals.items():
            if sched.split(":")[0] in ("poly", "exp") and not total < totals["zero"]:
                yield f"counts: s{seed} {sched}: {total} broadcasts, not fewer than zero's {totals['zero']}"


def check_margins(exp, runs, out):
    """Reported stepsize margins against LAPACK on the same matrices."""
    for (seed, sched), run in runs.items():
        composite, strong, scale = exp.margins[seed]
        got = float(run.summary.get("stepsize_margin", "nan"))
        if not abs(got - composite) <= MARGIN_RTOL * scale:
            yield f"margins: s{seed} {sched}: stepsize_margin {got!r} vs eigvalsh {composite!r}"
        reported = run.summary.get("strong_convexity_margin")
        if (reported is None) != (strong is None):
            yield f"margins: s{seed} {sched}: strong_convexity_margin reported={reported!r}, expected {strong!r}"
        elif strong is not None and not abs(float(reported) - strong) <= MARGIN_RTOL * scale:
            yield f"margins: s{seed} {sched}: strong_convexity_margin {reported} vs eigvalsh {strong!r}"


def check_linear_rate(exp, runs, out):
    """Strongly convex runs under exponential thresholds: the primal residual
    column decays geometrically (a semilog least-squares slope below 0)."""
    spec = exp.spec
    if spec.problem != "quadratic":
        return
    for (seed, sched), run in runs.items():
        if not sched.startswith("exp"):
            continue
        k, resid = run.csv[1:, 0], run.csv[1:, 3]
        if np.any(resid <= 0.0):
            yield f"linear_rate: s{seed} {sched}: non-positive primal residual"
            continue
        slope = np.polyfit(k, np.log(resid), 1)[0]
        if not slope < 0.0:
            yield f"linear_rate: s{seed} {sched}: semilog slope {slope!r} is not negative"


def check_certificate(exp, runs, out):
    """The ergodic rate certificate ran and reports both bounds holding."""
    spec = exp.spec
    if not spec.certificate:
        return
    for (seed, sched), run in runs.items():
        s = run.summary
        for key in ("consensus_bound_holds", "objective_bounds_hold"):
            if s.get(key) != "1":
                yield f"certificate: s{seed} {sched}: {key} is {s.get(key)!r}"


CHECKS = (check_complete, check_oracle, check_reference, check_trigger, check_counts,
          check_margins, check_linear_rate, check_certificate)


def check_outputs(out: Path, exp: Expected) -> list:
    """All failure messages for one sweep's output directory."""
    runs, failures = load_runs(out, exp.spec)
    for check in CHECKS:
        try:
            failures.extend(check(exp, runs, out))
        except (ValueError, KeyError, IndexError) as err:  # a malformed value in the outputs
            failures.append(f"{check.__name__[len('check_'):]}: unreadable output: {err!r}")
    return failures


def _stable_lines(path: Path) -> list:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("seconds_per_round ")]


def check_same_outputs(spec: Spec, first: Path, other: Path) -> list:
    """A repeated sweep writes the same traces and summaries (timings aside)."""
    failures = []
    for seed in spec.seeds:
        for sched in spec.schedules:
            a, b = spec.run_dir(first, seed, sched), spec.run_dir(other, seed, sched)
            try:
                same = ((a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
                        and _stable_lines(a / "summary.txt") == _stable_lines(b / "summary.txt"))
            except OSError as err:
                failures.append(f"repeat: {b.name}: {err}")
                continue
            if not same:
                failures.append(f"repeat: {b.parent.name}/{b.name} differs from {a.parent.name}")
    return failures


def check_states(schedule: str, k: int, x: np.ndarray, x_tilde: np.ndarray, z: np.ndarray) -> list:
    """Properties of one round's network state: the trigger bound
    ||x_i - x~_i|| <= e_i(k) for event rules, and sum_i z_i = 0 up to rounding."""
    failures = []
    sched = oracle.Schedule.parse(schedule)
    if sched.kind != "everyN":
        dev = np.linalg.norm(x - x_tilde, axis=1)
        if np.any(dev > sched.threshold(k)):
            failures.append(f"states: {schedule} round {k}: deviation {dev.max()!r} "
                            f"above threshold {sched.threshold(k)!r}")
    scale = z.shape[0] * float(np.max(np.abs(z)))
    if scale > 0.0 and float(np.max(np.abs(z.sum(axis=0)))) > DUAL_SUM_TOL * scale:
        failures.append(f"states: {schedule} round {k}: dual sum {np.abs(z.sum(axis=0)).max()!r} is not 0")
    return failures
