"""``validate_config`` against a Draft 2020-12 validator of the printed schema.

The package checks configs by walking its experiment table, without a
schema library.  Here ``jsonschema`` (a test dependency) validates the
same configs against ``config_schema()``, with a "number" that must be
finite, and every rejection must read the same: one ``json_path: message``
line per error, sorted by path, in the same words and order.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, validators

import staosc.cli_runner as cli_runner
from staosc.cli_runner import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ConfigError,
    config_schema,
    validate_config,
)

_TYPES = Draft202012Validator.TYPE_CHECKER
_FINITE = _TYPES.redefine(
    "number", lambda _, v: _TYPES.is_type(v, "number") and -math.inf < v < math.inf
)
ORACLE = validators.extend(Draft202012Validator, type_checker=_FINITE)(config_schema())

SECTIONS = ("physical", "numeric")
KEYS = [*dict.fromkeys(k for s in SECTIONS for k in cli_runner._KEY_TYPES[s]), "unknown"]
VALUES = [
    0, -1, 1, 2, 3, 1.5, 2.0, 4.5, 511, 512.0, True, False, None, "x",
    math.inf, -math.inf, math.nan, [], [2.0], [1.0], [2.0, math.nan], {},
]
NAMES = [*EXPERIMENTS, "time-travel", 3, [], {}]


def _oracle(config):
    """The ConfigError text the oracle's errors make, or None if it accepts ``config``."""
    errors = sorted(ORACLE.iter_errors(config), key=lambda e: e.json_path)
    if not errors:
        return None
    lines = [f"{e.json_path}: {e.message}" for e in errors]
    return "invalid configuration:\n  " + "\n  ".join(lines)


def _ours(config):
    try:
        validate_config(config)
    except ConfigError as exc:
        return str(exc)
    return None


def _mismatches(configs):
    return [(c, ours, oracle) for c in configs
            if (ours := _ours(c)) != (oracle := _oracle(c))]


def _base(experiment):
    return {"schema_version": SCHEMA_VERSION, "experiment": experiment}


@pytest.mark.parametrize("experiment", NAMES, ids=repr)
def test_every_key_and_value_is_judged_as_the_oracle_judges_it(experiment):
    configs = [{**_base(experiment), section: value} for section in SECTIONS for value in VALUES]
    configs += [
        {**_base(experiment), section: {key: value}}
        for section in SECTIONS
        for key in KEYS
        for value in VALUES
    ]
    assert len(configs) == 2 * len(VALUES) * (1 + len(KEYS))
    assert _mismatches(configs) == []
    verdicts = {_ours(c) is None for c in configs}  # {} sections are accepted
    assert verdicts == ({True, False} if experiment in EXPERIMENTS else {False})


TOP_LEVEL = [
    [], "x", None, 3, 1.5, True, [_base("verify")],
    {}, {"experiment": "verify"}, {"schema_version": SCHEMA_VERSION},
    *({**_base("verify"), "schema_version": v} for v in (1.0, True, 2, "1", None, math.nan, [1])),
    *({**_base("verify"), "seed": v} for v in (
        0, 3.0, 2**70, -1, -0.5, 1.5, True, False, "x", None, math.nan, math.inf, [0], {},
    )),
    {**_base("verify"), "b": 1, "a": 2, "output_dir": "runs"},
    {**_base("verify"), 10: 0, "a": 1, 2: 0},  # a Python caller's keys need not be strings
    {"b": 1, "a": 2, "Z": None, "seed": -1},
    {"schema_version": 2, "experiment": "time-travel", "seed": "x", "physical": [], "extra": 0},
    {"schema_version": SCHEMA_VERSION, "physical": {"unknown": 1}, "numeric": {"samples": 0}},
]


@pytest.mark.parametrize("config", TOP_LEVEL, ids=repr)
def test_top_level_cases_are_judged_as_the_oracle_judges_them(config):
    assert _ours(config) == _oracle(config)


def test_a_fraction_below_an_integer_minimum_reads_both_errors():
    text = _ours(_base("jarzynski-trace") | {"numeric": {"samples": 1.5}})
    assert text == (
        "invalid configuration:\n"
        "  $.numeric.samples: 1.5 is not of type 'integer'\n"
        "  $.numeric.samples: 1.5 is less than the minimum of 2"
    )


_sections = st.one_of(
    st.sampled_from(VALUES),
    st.dictionaries(st.sampled_from(KEYS), st.sampled_from(VALUES), max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "schema_version": st.sampled_from([SCHEMA_VERSION, 1.0, True, 2]),
            "experiment": st.sampled_from(NAMES),
            "seed": st.sampled_from(VALUES),
            "physical": _sections,
            "numeric": _sections,
            "extra": st.sampled_from(VALUES),
            "output_dir": st.just("runs"),
        },
    )
)
def test_configs_with_many_errors_read_as_the_oracle_reads_them(config):
    assert _ours(config) == _oracle(config)


def _keywords(rule: dict) -> set:
    nested = rule.get("items", {})
    return set(rule) | _keywords(nested) if nested else set(rule)


def test_every_rule_keyword_is_implemented_and_every_implemented_one_used():
    # a new rule keyword (say "maximum") must be implemented before any config meets it
    rules = [rule for s in SECTIONS for rule in cli_runner._KEY_TYPES[s].values()]
    used = set().union(*map(_keywords, rules))
    assert used == set(cli_runner._KEYWORDS)


def test_printed_schema_is_pinned():
    # staosc schema documents the configs validate_config accepts; a change to
    # either must be deliberate and reach both
    printed = json.dumps(config_schema(), sort_keys=True).encode()
    assert hashlib.sha256(printed).hexdigest() == (
        "17f3dd83fd68579b2694d182d75ea1c0f27985698c3860979a825a2b6a355447"
    )
