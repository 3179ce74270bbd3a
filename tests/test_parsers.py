"""Round-trip and mutation tests for the text parsers.

Serializing a value and parsing the text back returns the same value; text
that is truncated, mutated or plain garbage is either parsed or rejected with
the parser's declared error and nothing else:

    instance_from_text, reference_from_text -> ValueError
    graph_from_text -> GraphConfigError
    parse_schedule -> ScheduleError
    parse_config -> ConfigFileError
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etdopt.cli import ConfigFileError, ExperimentConfig, parse_config
from etdopt.graph import Graph, GraphConfigError, graph_from_text, graph_to_text
from etdopt.objective import (
    instance_from_text,
    instance_to_text,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
)
from etdopt.reference import ReferenceSolution, reference_from_text, reference_to_text
from etdopt.trigger import (
    ScheduleError,
    every_n,
    exponential,
    parse_schedule,
    polynomial,
    zero,
)

FUZZ = settings(max_examples=40, deadline=None)

# Pieces a mutation inserts or substitutes: separators, signs, exponents,
# powers that overflow, divide by zero or go complex on a negative base,
# special floats and the characters the formats give meaning to.
PIECES = (" ", "\n", "-", "+", ".", ":", "^", "=", "#", ",", "e", "0", "1", "9",
          "^1e5", "^-1", "^0.5", "nan", "inf", "-1", "x", "poly", "agent 0")


@st.composite
def mutated(draw, texts):
    """A text from `texts` with one to three deletions, substitutions,
    insertions or truncations."""
    text = draw(texts)
    edits = draw(st.lists(st.tuples(st.sampled_from(("delete", "replace", "insert", "cut")),
                                    st.integers(0, 1 << 20), st.sampled_from(PIECES)),
                          min_size=1, max_size=3))
    for op, where, piece in edits:
        i = where % (len(text) + 1)
        if op == "delete":
            text = text[:i] + text[i + 1:]
        elif op == "replace":
            text = text[:i] + piece + text[i + 1:]
        elif op == "insert":
            text = text[:i] + piece + text[i:]
        else:
            text = text[:i]
    return text


def garbage():
    return st.text(st.characters(blacklist_categories=("Cs",)), max_size=80) | st.lists(
        st.sampled_from(PIECES), max_size=20).map("".join)


def rejects_only(parse, error, text):
    try:
        parse(text)
    except error:
        pass


# -- instances ---------------------------------------------------------------

@st.composite
def instances(draw):
    kind = draw(st.sampled_from(("lasso", "logistic", "quadratic")))
    n, m, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 1000))
    if kind == "lasso":
        tau = draw(st.floats(0.0, 10.0))
        return make_lasso_instance(n, rows, m, tau, seed)[0]
    if kind == "logistic":
        ridge = draw(st.floats(0.0, 5.0))
        return make_logistic_instance(n, rows, m, seed, ridge=ridge)[0]
    return make_quadratic_instance(n, m, seed)


class TestInstanceText:
    @FUZZ
    @given(obj=instances())
    def test_round_trip(self, obj):
        text = instance_to_text(obj)
        loaded = instance_from_text(text)
        assert loaded.meta == obj.meta
        assert instance_to_text(loaded) == text  # 17 digits: every number exact

    @FUZZ
    @given(text=mutated(instances().map(instance_to_text)))
    def test_mutated_text_raises_only_value_error(self, text):
        rejects_only(instance_from_text, ValueError, text)

    @FUZZ
    @given(text=garbage())
    def test_garbage_raises_only_value_error(self, text):
        rejects_only(instance_from_text, ValueError, text)


# -- reference solutions -----------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def references(draw):
    sol = ReferenceSolution(
        x_star=np.array(draw(st.lists(FINITE, min_size=1, max_size=6))),
        f_star=draw(FINITE),
        solver_residual=draw(st.floats(0.0, 1e3)),
        iterations=draw(st.integers(0, 10**6)),
        certified=draw(st.booleans()),
        tol=draw(st.floats(1e-16, 1.0)),
    )
    return sol, draw(st.text("0123456789abcdef", min_size=16, max_size=16))


def reference_text(pair):
    return reference_to_text(*pair)


class TestReferenceText:
    @FUZZ
    @given(pair=references())
    def test_round_trip(self, pair):
        sol, digest = pair
        loaded, loaded_digest = reference_from_text(reference_to_text(sol, digest))
        assert loaded_digest == digest
        assert np.array_equal(loaded.x_star, sol.x_star)
        assert (loaded.f_star, loaded.solver_residual, loaded.iterations, loaded.certified,
                loaded.tol) == (sol.f_star, sol.solver_residual, sol.iterations,
                                sol.certified, sol.tol)

    @FUZZ
    @given(text=mutated(references().map(reference_text)))
    def test_mutated_text_raises_only_value_error(self, text):
        rejects_only(reference_from_text, ValueError, text)

    @FUZZ
    @given(text=garbage())
    def test_garbage_raises_only_value_error(self, text):
        rejects_only(reference_from_text, ValueError, text)


# -- graphs ------------------------------------------------------------------

@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


# A node count is a list of that many entries, so mutated text that names a
# node count of five digits or more is skipped rather than allocated.
LARGE_NUMBER = re.compile(r"\d{5,}")


class TestGraphText:
    @FUZZ
    @given(g=graphs())
    def test_round_trip(self, g):
        assert graph_from_text(graph_to_text(g)) == g

    @FUZZ
    @given(text=mutated(graphs().map(graph_to_text)))
    def test_mutated_text_raises_only_graph_error(self, text):
        assume(not LARGE_NUMBER.search(text))
        rejects_only(graph_from_text, GraphConfigError, text)

    @FUZZ
    @given(text=garbage())
    def test_garbage_raises_only_graph_error(self, text):
        assume(not LARGE_NUMBER.search(text))
        rejects_only(graph_from_text, GraphConfigError, text)


# -- schedules ---------------------------------------------------------------

schedules = st.one_of(
    st.builds(polynomial, st.floats(0.0, allow_nan=False),
              st.floats(1.0, exclude_min=True, allow_nan=False)),
    st.builds(exponential, st.floats(0.0, allow_nan=False),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    st.just(zero()),
    st.builds(every_n, st.integers(1, 10**6)),
)


# Numbers as the spec grammar allows them: plain, or "a^b" in power form.
spec_numbers = st.floats().map(repr) | st.builds("{!r}^{!r}".format, st.floats(), st.floats())
raw_specs = st.builds("{}:{}:{}".format, st.sampled_from(("poly", "exp")), spec_numbers,
                      spec_numbers)


class TestScheduleSpec:
    @FUZZ
    @given(sched=schedules)
    def test_round_trip(self, sched):
        assert parse_schedule(sched.spec_string()) == sched

    @FUZZ
    @given(text=mutated(schedules.map(lambda s: s.spec_string())))
    def test_mutated_spec_raises_only_schedule_error(self, text):
        rejects_only(parse_schedule, ScheduleError, text)

    @FUZZ
    @given(text=raw_specs)
    def test_any_numbers_raise_only_schedule_error(self, text):
        rejects_only(parse_schedule, ScheduleError, text)

    @FUZZ
    @given(text=garbage())
    def test_garbage_raises_only_schedule_error(self, text):
        rejects_only(parse_schedule, ScheduleError, text)


# -- config files ------------------------------------------------------------

POSITIVE = st.floats(0.0, 1e6, exclude_min=True)
SPECS = schedules.map(lambda s: s.spec_string())


@st.composite
def configs(draw):
    n = draw(st.integers(2, 12))
    return ExperimentConfig(
        problem=draw(st.sampled_from(("lasso", "logistic", "quadratic"))),
        n=n,
        m=draw(st.integers(1, 100)),
        p=draw(st.integers(1, 10)),
        mi=draw(st.integers(1, 10)),
        tau=draw(st.floats(0.0, 10.0)),
        ridge=draw(st.floats(0.0, 10.0)),
        graph_r=draw(st.floats(0.0, 1.0, exclude_min=True)),
        graph_seed=draw(st.none() | st.integers(0, 1000)),
        beta=draw(POSITIVE),
        eta=tuple(draw(st.lists(POSITIVE, min_size=1, max_size=1) | st.lists(
            POSITIVE, min_size=n, max_size=n))),
        variant=draw(st.none() | st.sampled_from(("composite", "smooth", "nonsmooth"))),
        schedule=draw(SPECS),
        rounds=draw(st.none() | st.integers(0, 10**5)),
        seeds=tuple(draw(st.lists(st.integers(0, 1000), min_size=1, max_size=4))),
        out=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)),
        reference_tol=draw(st.floats(1e-14, 1e-2)),
        certificate=draw(st.booleans()),
        dual_radius=draw(st.none() | POSITIVE),
        enforce_stepsize=draw(st.booleans()),
        compare=tuple(draw(st.lists(SPECS, max_size=3))),
    )


def config_text(cfg: ExperimentConfig) -> str:
    """The config file `parse_config` reads back as `cfg`."""
    keys = {
        "problem": cfg.problem, "n": cfg.n, "m": cfg.m, "p": cfg.p, "mi": cfg.mi,
        "tau": repr(cfg.tau), "ridge": repr(cfg.ridge), "graph_r": repr(cfg.graph_r),
        "graph_seed": "" if cfg.graph_seed is None else cfg.graph_seed,
        "beta": repr(cfg.beta), "eta": ", ".join(repr(e) for e in cfg.eta),
        "schedule": cfg.schedule, "seeds": ",".join(str(s) for s in cfg.seeds),
        "out": cfg.out, "reference_tol": repr(cfg.reference_tol),
        "certificate": str(cfg.certificate).lower(),
        "enforce_stepsize": str(cfg.enforce_stepsize).lower(),
        "compare": ", ".join(cfg.compare),
    }
    for key in ("variant", "rounds", "dual_radius"):
        if getattr(cfg, key) is not None:
            keys[key] = repr(getattr(cfg, key)).strip("'")
    return "# written by the round-trip test\n" + "".join(
        f"{k} = {v}\n" for k, v in keys.items())


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    """A function writing the text to one scratch config file and parsing it."""
    path = tmp_path_factory.mktemp("config") / "etdopt.cfg"

    def parse(text: str) -> ExperimentConfig:
        path.write_text(text, encoding="utf-8")
        return parse_config(str(path))

    return parse


class TestConfigFile:
    @FUZZ
    @given(cfg=configs())
    def test_round_trip(self, config_file, cfg):
        assert config_file(config_text(cfg)) == cfg

    @FUZZ
    @given(text=mutated(configs().map(config_text)))
    def test_mutated_file_raises_only_config_error(self, config_file, text):
        rejects_only(config_file, ConfigFileError, text)

    @FUZZ
    @given(text=garbage())
    def test_garbage_raises_only_config_error(self, config_file, text):
        rejects_only(config_file, ConfigFileError, text)
