"""Round-trip and mutation tests for the text parsers.

Serializing a value and parsing the text back returns the same value; text
that is truncated, mutated or plain garbage is either parsed or rejected with
the parser's declared error and nothing else:

    parse_schedule -> ScheduleError
    parse_config -> ConfigFileError
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdopt.cli import ConfigFileError, ExperimentConfig, parse_config
from etdopt.trigger import ScheduleError, TriggerSchedule, parse_schedule

FUZZ = settings(max_examples=40, deadline=None)

# Pieces a mutation inserts or substitutes: separators, signs, exponents,
# powers that overflow, divide by zero or go complex on a negative base,
# special floats and the characters the formats give meaning to.
PIECES = (" ", "\n", "-", "+", ".", ":", "^", "=", "#", ",", "e", "0", "1", "9",
          "^1e5", "^-1", "^0.5", "nan", "inf", "-1", "x", "poly")


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


# -- schedules ---------------------------------------------------------------

FINITE = dict(allow_nan=False, allow_infinity=False)
schedules = st.one_of(
    st.builds(TriggerSchedule, st.just("poly"), e0=st.floats(0.0, **FINITE),
              p=st.floats(1.0, exclude_min=True, **FINITE)),
    st.builds(TriggerSchedule, st.just("exp"), e0=st.floats(0.0, **FINITE),
              rho=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    st.just(TriggerSchedule("zero")),
    st.builds(TriggerSchedule, st.just("everyN"), period=st.integers(1, 10**6)),
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
        schedule=draw(SPECS),
        rounds=draw(st.none() | st.integers(0, 10**5)),
        seeds=tuple(draw(st.lists(st.integers(0, 1000), min_size=1, max_size=4, unique=True))),
        out=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)),
        certificate=draw(st.booleans()),
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
        "out": cfg.out, "certificate": str(cfg.certificate).lower(),
        "compare": ", ".join(cfg.compare),
    }
    if cfg.rounds is not None:
        keys["rounds"] = cfg.rounds
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
