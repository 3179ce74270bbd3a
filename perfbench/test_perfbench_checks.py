"""The benchmark's checks pass on real `etdopt` outputs and each one fails on a
corrupted copy of them.

Small sweeps of each problem kind run in-process; every corruption below
targets one check and asserts that a failure names it.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import shutil
import warnings

import numpy as np
import pytest

import checks
from checks import Spec

SPECS = {
    "lasso": Spec("lasso", n=10, m=5, graph_r=0.5, beta=0.05, eta=3.0, rounds=30, seeds=(1,),
                  schedules=("poly:1:1.5",), tau=1.0),
    "logistic": Spec("logistic", n=10, m=3, graph_r=0.5, beta=0.05, eta=10.0, rounds=30, seeds=(1,),
                     compare=True, schedules=("poly:1:1.5", "exp:1:0.9", "everyN:3", "zero")),
    "quadratic": Spec("quadratic", n=8, m=3, graph_r=0.5, beta=0.1, eta=6.0, rounds=60, seeds=(1, 2),
                      schedules=("exp:1:0.9",), certificate=True),
}


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """kind -> (output directory, expected values) for one real sweep each."""
    from etdopt import cli

    base = tmp_path_factory.mktemp("perfbench")
    made = {}
    for kind, spec in SPECS.items():
        config = base / f"{kind}.txt"
        config.write_text(spec.config_text())
        out = base / kind
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # stepsize-margin warnings
            assert cli.main(["--config", str(config), "--out", str(out)]) == 0
        made[kind] = (out, checks.expected_for(spec))
    return made


def _copy(sweeps, kind, tmp_path):
    out, expected = sweeps[kind]
    copy = tmp_path / kind
    shutil.copytree(out, copy)
    return copy, expected


def _set_summary(path, key, edit):
    lines = path.read_text().splitlines()
    out = []
    for line in lines:
        k, _, v = line.partition(" ")
        if k == key:
            v = edit(v)
            if v is None:
                continue
        out.append(f"{k} {v}")
    path.write_text("\n".join(out) + "\n")


def _edit_csv(path, column, edit):
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    rows[:, column] = edit(rows[:, column])
    body = [",".join(repr(float(v)) if c in (1, 2, 3) else str(int(v)) for c, v in enumerate(row))
            for row in rows]
    path.write_text("\n".join([lines[0]] + body) + "\n")


def _scaled(factor):
    return lambda v: repr(float(v) * factor)


def _summary(key, edit):
    return lambda spec, copy, seed, sched: _set_summary(
        spec.run_dir(copy, seed, sched) / "summary.txt", key, edit)


def _csv(column, edit):
    return lambda spec, copy, seed, sched: _edit_csv(spec.run_dir(copy, seed, sched) / "trace.csv", column, edit)


def _bump_middle(values):
    values = values.copy()
    values[len(values) // 2] *= 1.0 + 1e-5
    return values


def _reference_f_star(spec, copy, seed, sched):
    path = next((copy / "cache").glob("reference_*.txt"))
    lines = path.read_text().splitlines()
    lines = [f"f_star {float(ln.split()[1]) * (1 + 1e-6)!r}" if ln.startswith("f_star ") else ln
             for ln in lines]
    path.write_text("\n".join(lines) + "\n")


def _as_many_as_zero(spec, copy, seed, sched):
    zero = checks.read_summary(spec.run_dir(copy, seed, "zero") / "summary.txt")["broadcasts_total"]
    _set_summary(spec.run_dir(copy, seed, sched) / "summary.txt", "broadcasts_total", lambda v: zero)


CORRUPTIONS = [
    # (kind, schedule, corruption, check expected to fail)
    ("quadratic", "exp:1:0.9", _summary("rounds_completed", lambda v: str(int(v) - 1)), "complete"),
    ("lasso", "poly:1:1.5", _summary("instance", lambda v: "0" * 16), "complete"),
    ("lasso", "poly:1:1.5", _summary("final_objective_gap", _scaled(1 + 1e-5)), "oracle"),
    ("quadratic", "exp:1:0.9", _summary("final_consensus_error", _scaled(1 + 1e-5)), "oracle"),
    ("logistic", "exp:1:0.9", _summary("final_primal_residual", _scaled(1 + 1e-5)), "oracle"),
    ("lasso", "poly:1:1.5", _summary("broadcasts_total", lambda v: str(int(v) + 1)), "oracle"),
    ("lasso", "poly:1:1.5", _summary("broadcasts_total", lambda v: "many"), "oracle"),
    ("logistic", "poly:1:1.5", _csv(1, _bump_middle), "oracle"),
    ("quadratic", "exp:1:0.9", _csv(2, _bump_middle), "oracle"),
    ("lasso", "poly:1:1.5", _csv(5, lambda c: c + (np.arange(len(c)) == 7)), "oracle"),
    ("logistic", "zero", _reference_f_star, "reference"),
    ("lasso", "poly:1:1.5", _summary("max_trigger_slack", lambda v: "0.001"), "trigger"),
    ("quadratic", "exp:1:0.9", _summary("max_dual_imbalance", lambda v: "1e-06"), "trigger"),
    ("logistic", "everyN:3", _summary("broadcasts_total", lambda v: str(int(v) - 10)), "counts"),
    ("logistic", "zero", _summary("broadcasts_total", lambda v: str(int(v) - 1)), "counts"),
    ("logistic", "exp:1:0.9", _as_many_as_zero, "counts"),
    ("quadratic", "exp:1:0.9", _summary("stepsize_margin", lambda v: repr(float(v) + 1e-3)), "margins"),
    ("quadratic", "exp:1:0.9", _summary("strong_convexity_margin", lambda v: None), "margins"),
    ("lasso", "poly:1:1.5", _summary("stepsize_margin", lambda v: repr(float(v) - 1e-3)), "margins"),
    ("quadratic", "exp:1:0.9", _csv(3, lambda c: c[::-1].copy()), "linear_rate"),
    ("quadratic", "exp:1:0.9", _summary("consensus_bound_holds", lambda v: "0"), "certificate"),
    ("quadratic", "exp:1:0.9", _summary("objective_bounds_hold", lambda v: "0"), "certificate"),
]


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_real_outputs_pass_every_check(sweeps, kind):
    out, expected = sweeps[kind]
    assert checks.check_outputs(out, expected) == []


@pytest.mark.parametrize("kind,sched,corrupt,check", CORRUPTIONS,
                         ids=[f"{c[3]}-{c[0]}-{i}" for i, c in enumerate(CORRUPTIONS)])
def test_corrupted_copy_fails_its_check(sweeps, tmp_path, kind, sched, corrupt, check):
    copy, expected = _copy(sweeps, kind, tmp_path)
    spec = SPECS[kind]
    corrupt(spec, copy, spec.seeds[0], sched)
    failures = checks.check_outputs(copy, expected)
    assert any(f.startswith(f"{check}:") for f in failures), failures


def test_repeat_check_fails_on_a_changed_trace(sweeps, tmp_path):
    out, _ = sweeps["quadratic"]
    copy, _ = _copy(sweeps, "quadratic", tmp_path)
    spec = SPECS["quadratic"]
    assert checks.check_same_outputs(spec, out, copy) == []
    _csv(1, _bump_middle)(spec, copy, 2, "exp:1:0.9")
    assert any(f.startswith("repeat:") for f in checks.check_same_outputs(spec, out, copy))


def test_state_check_fails_on_broken_trigger_or_dual_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    z = rng.standard_normal((6, 4))
    z -= z.mean(axis=0)
    threshold = 1.0 / 5.0**1.5
    assert checks.check_states("poly:1:1.5", 5, x, x + 0.5 * threshold / 2.0, z) == []
    x_tilde = x.copy()
    x_tilde[3, 0] += 2.0 * threshold
    assert any(f.startswith("states:") for f in checks.check_states("poly:1:1.5", 5, x, x_tilde, z))
    x_tilde = x.copy()
    x_tilde[0, 0] = np.nextafter(x[0, 0], np.inf)
    assert any(f.startswith("states:") for f in checks.check_states("zero", 5, x, x_tilde, z))
    z[0, 0] += 1e-6
    assert any(f.startswith("states:") for f in checks.check_states("everyN:2", 5, x, x, z))
