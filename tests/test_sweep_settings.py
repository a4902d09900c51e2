"""A sweep's settings have one reader: a ``run_trials`` override and the CLI
flag behind it are read as the scenario's JSON key of the same name.

For every value of ``algorithms``, ``trials``, ``seed`` and ``snr_db``,
``scenario_from_dict`` (the value as the JSON key) and ``run_trials`` (the
value as an override) either both raise the same message or both accept it
and run the same records.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm import cli

from test_harness import scenario_dict

FIELDS = ("algorithms", "trials", "seed", "snr_db")


def base_dict():
    """The small scene's scenario with a cheap sweep: one trial of one
    map-blind algorithm at two SNR points."""
    d = scenario_dict()
    d.update(algorithms=["baseline-hier"], trials=1, seed=0, snr_db=["inf", 10])
    return d


@pytest.fixture(scope="module")
def base(small_scene):
    return bc.scenario_from_dict(base_dict()), small_scene["ckm"]


def as_key(field, value):
    """The message ``scenario_from_dict`` raises for ``value`` as the JSON
    key ``field``, or the config it builds."""
    try:
        return bc.scenario_from_dict({**base_dict(), field: value})
    except ValueError as exc:
        return str(exc)


def as_override(base, field, value):
    """The message ``run_trials`` raises for ``value`` as the override
    ``field``, or the records it runs."""
    config, ckm = base
    try:
        return bc.run_trials(config, ckm, **{field: value})
    except ValueError as exc:
        return str(exc)


def assert_same_reading(base, field, value):
    key, override = as_key(field, value), as_override(base, field, value)
    if isinstance(key, str) or isinstance(override, str):
        assert key == override
    else:
        assert override == bc.run_trials(key, base[1])


BAD = [
    ("snr_db", "10", "snr_db must be a list, got '10'"),
    ("snr_db", [], "snr_db needs at least one SNR point"),
    ("snr_db", ["inf", "inf"], "SNR points must not repeat"),
    ("snr_db", ["nan"], "SNR entries must be numbers"),
    ("algorithms", "alg1", "algorithms must be a list, got 'alg1'"),
    ("algorithms", ["alg7"], "unknown algorithm(s) ['alg7']"),
    ("algorithms", [], "algorithms must name at least one algorithm"),
    *((field, value, field) for field in ("trials", "seed") for value in (True, 1.5, -1)),
    ("trials", 0, "trials must be >= 1"),
]


@pytest.mark.parametrize("field, value, message", BAD)
def test_bad_value_raises_the_same_message_both_ways(base, field, value, message):
    key, override = as_key(field, value), as_override(base, field, value)
    assert isinstance(override, str) and message in override
    assert key == override


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    value=st.recursive(
        st.booleans()
        | st.integers(-2, 3)
        | st.floats(-2.5, 3.5)
        | st.sampled_from([math.nan, math.inf, -math.inf])
        | st.sampled_from(["", "inf", "-inf", "nan", "10", "alg1", "alg3", "baseline-hier"]),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=4,
    ),
)
def test_any_value_reads_as_its_json_key(base, field, value):
    assert_same_reading(base, field, value)


@pytest.mark.parametrize(
    "field, values",
    [("snr_db", ["inf", 10.0, 0]), ("algorithms", ["alg1", "baseline-hier"])],
)
def test_list_tuple_and_array_run_the_same_records(base, field, values):
    want = as_override(base, field, values)
    assert isinstance(want, list) and want
    assert as_override(base, field, tuple(values)) == want
    assert as_override(base, field, np.array(values)) == want
    assert_same_reading(base, field, values)


@pytest.mark.parametrize(
    "flag, value, named",
    [("--algo", "", "algorithms"), ("--snr-db", ",", "snr_db"), ("--snr-db", "", "snr_db")],
)
def test_cli_empty_flag_is_an_error(tmp_path, capsys, flag, value, named):
    cfg, ckm, out = (str(tmp_path / name) for name in ("scene.json", "scene.ckm", "out.csv"))
    (tmp_path / "scene.json").write_text(json.dumps(base_dict()))
    assert cli.main(["build-ckm", "--config", cfg, "--out", ckm]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--config", cfg, "--ckm", ckm, flag, value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("beamckm: error: ") and named in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()
