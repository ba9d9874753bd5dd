"""Every numeric input goes through the two shared checks in `errors`.

Each numeric row of the config tables, and each checked field of the
library constructors, is fed a bool, a string, NaN, infinity and one value
outside its range.  Each must be a ConfigError that starts with the key's
path (or the constructor's field name) and ends with the value as parsed.
A row added to `SCHEMA`, `TONE` or `RANGE` must be listed here, so it
cannot skip its check.
"""
import json
import math
import re

import numpy as np
import pytest

from spinlock import config
from spinlock.config import parse_config
from spinlock.dicke import PhaseTriple, PulseStep
from spinlock.errors import ConfigError
from spinlock.lockin import LockInSchedule
from spinlock.montecarlo import CurvePoint, McConfig, measurement_range
from spinlock.noise import NoiseComponent
from spinlock.squeezing import SqueezeParams

# numeric row -> a value outside its range, or None when every finite
# number is in range; tone rows read noise.<key>, grid-object rows range.<key>
OUT_OF_RANGE = {
    "physics.n_atoms": 0,
    "physics.n_photons": 0,
    "physics.g": -1,
    "physics.tau": -1e-3,
    "physics.squeeze_duration": -1,
    "physics.chi_override": -2.5,
    "lockin.n_pulses": 0,
    "lockin.tau_arm_grid_ms": 0,
    "lockin.duration_grid_ms": -8,
    "mc.samples": 0,
    "mc.master_seed": 2**64,
    "threshold": 1,
    "bch.g_tau_grid": 0,
    "preview.n_points": 0,
    "compare.n_atoms": 5,
    "compare.alphas": None,
    "compare.betas": None,
    "compare.gammas": None,
    "noise.amplitude": -5,
    "noise.freq_hz": 0,
    "noise.phase": None,
    "noise.gyro_hz_per_nt": 0,
    "range.start": 0,
    "range.stop": None,
    "range.step": 0,
}
NOT_NUMERIC = {
    "experiment", "noise", "toggle", "contrast_integrand", "output.path", "output.format",
    "compare.orderings", "noise.units",
}
# a row that takes a list is fed a list of one value
LISTS = {"lockin.tau_arm_grid_ms", "lockin.duration_grid_ms", "bch.g_tau_grid",
         "compare.n_atoms", "compare.alphas", "compare.betas", "compare.gammas"}
BAD = [True, "1", math.nan, math.inf]


def rows(table, prefix=""):
    for key, entry in table.items():
        if isinstance(entry, config.Section):
            yield from rows(entry.keys, f"{key}.")
        else:
            yield prefix + key


def full_config():
    """A config that gives every section, so each row is parsed."""
    return {
        "experiment": "contrast",
        "physics": {"n_atoms": 5, "n_photons": 5, "g": 1.0, "tau": 0.1,
                    "squeeze_duration": 0.0, "chi_override": 1.0},
        "lockin": {"n_pulses": 7, "tau_arm_grid_ms": [1.0], "duration_grid_ms": [8.0]},
        "noise": [{"units": "pT", "amplitude": 1, "freq_hz": 50, "phase": 0.0,
                   "gyro_hz_per_nt": 28}],
        "mc": {"samples": 10, "master_seed": 0},
        "threshold": 0.9,
        "bch": {"g_tau_grid": [1e-3]},
        "preview": {"n_points": 11},
        "compare": {"n_atoms": [1], "alphas": [0.0], "betas": [0.0], "gammas": [0.0]},
    }


def place(row, value):
    """A full config with value at row, and the name its error must give."""
    doc = full_config()
    section, _, key = row.rpartition(".")
    if section == "range":
        grid = {"start": 1.0, "stop": 2.0, "step": 0.5, key: value}
        doc["lockin"]["tau_arm_grid_ms"] = grid
        return doc, f"lockin.tau_arm_grid_ms.{key}"
    if section == "noise":
        doc["noise"][0][key] = value
        return doc, f"noise[0].{key}"
    if row in LISTS:
        doc[section][key] = [value]
        return doc, f"{row}[0]"
    (doc[section] if section else doc)[key] = value
    return doc, row


CONFIG_CASES = [
    (row, value)
    for row, out in OUT_OF_RANGE.items()
    for value in BAD + ([] if out is None else [out])
]


def test_every_row_is_listed_as_numeric_or_not():
    every = {*rows(config.SCHEMA), *rows(config.TONE, "noise."), *rows(config.RANGE, "range.")}
    assert not set(OUT_OF_RANGE) & NOT_NUMERIC
    assert every == set(OUT_OF_RANGE) | NOT_NUMERIC
    parse_config(full_config())


@pytest.mark.parametrize("row, value", CONFIG_CASES, ids=[f"{r}={v!r}" for r, v in CONFIG_CASES])
def test_numeric_row_names_its_key_and_the_value(row, value):
    doc, name = place(row, value)
    # through JSON text, so NaN and Infinity arrive as a JSON parser reads them
    doc = json.loads(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    message = str(err.value)
    assert message.startswith(f"{name} must be "), message
    assert message.endswith(f", got {value!r}"), message


# valid arguments of each constructor
VALID = {
    McConfig: dict(samples=10, master_seed=0, n_atoms=5, chi=0.0, squeeze_duration=0.0),
    NoiseComponent: dict(amplitude_hz=1.0, freq_hz=50.0, phase=None),
    NoiseComponent.from_field_pt: dict(amplitude_pt=1.0, freq_hz=50.0, gyro_hz_per_nt=28.0),
    NoiseComponent.from_slow_drift: dict(strength_hz2=1.0, freq_hz=2.0, phase=None),
    LockInSchedule: dict(n_pulses=7, tau_arm=1e-3),
    PhaseTriple: dict(alpha=0.1, beta=0.2, gamma=0.3),
    PulseStep: dict(generator="jx", angle=0.5),
    SqueezeParams: dict(g=1.0, tau=0.1, chi=0.1),
    measurement_range: dict(curve=[CurvePoint(1.0, 1.0, 0.0)], threshold=0.5),
}


# constructor -> {checked field: a value outside its range, or None}
LIBRARY = {
    McConfig: {"samples": 0, "master_seed": -1, "n_atoms": 0, "chi": -1.0,
               "squeeze_duration": -1e-9},
    NoiseComponent: {"amplitude_hz": -1.0, "freq_hz": 0.0, "phase": None},
    NoiseComponent.from_field_pt: {"amplitude_pt": -1.0, "freq_hz": -50.0,
                                   "gyro_hz_per_nt": 0.0},
    NoiseComponent.from_slow_drift: {"strength_hz2": -1.0, "freq_hz": 0.0, "phase": None},
    LockInSchedule: {"n_pulses": 0, "tau_arm": 0.0},
    PhaseTriple: {"alpha": None, "beta": None, "gamma": None},
    PulseStep: {"angle": None},
    SqueezeParams: {"g": None, "tau": None, "chi": None},
    measurement_range: {"threshold": 1.0},
}
LIBRARY_CASES = [
    (constructor, field, value)
    for constructor, fields in LIBRARY.items()
    for field, out in fields.items()
    for value in BAD + ([] if out is None else [out])
]


@pytest.mark.parametrize(
    "constructor, field, value",
    LIBRARY_CASES,
    ids=[f"{c.__qualname__}.{f}={v!r}" for c, f, v in LIBRARY_CASES],
)
def test_constructor_names_its_field_and_the_value(constructor, field, value):
    constructor(**VALID[constructor])
    with pytest.raises(ConfigError) as err:
        constructor(**{**VALID[constructor], field: value})
    message = str(err.value)
    assert message.startswith(f"{field} must be "), message
    assert message.endswith(f", got {value!r}"), message


def test_numpy_scalars_pass_the_shared_checks():
    PhaseTriple(np.float64(0.1), np.float32(0.2), np.int64(0))
    McConfig(np.int64(10), np.uint64(2**64 - 1), np.int32(5), np.float64(1.0), 0)
    with pytest.raises(ConfigError, match=r"^alpha must be finite, got "):
        PhaseTriple(np.float64(np.nan), 0.0, 0.0)


@pytest.mark.parametrize(
    "experiment, physics, message",
    [
        # values the rows pass whose products overflow
        ("contrast", {"g": 1e200, "chi_override": None}, "physics: chi must be finite, got inf"),
        # an integer n_photons that no float holds
        (
            "contrast",
            {"n_photons": 10**400, "chi_override": None},
            f"physics: n_photons must be finite, got {10**400!r}",
        ),
        (
            "contrast",
            {"chi_override": 1e200, "squeeze_duration": 1e200},
            "physics: alpha must be finite, got inf",
        ),
        # the sizes bch_error takes, checked at the config for verify-bch only
        ("verify-bch", {"n_photons": 201}, "physics.n_photons must be in [1, 200], got 201"),
        ("verify-bch", {"n_atoms": 10_001}, "physics.n_atoms must be in [1, 10000], got 10001"),
    ],
)
def test_rules_on_two_keys_name_the_physics_section(experiment, physics, message):
    doc = full_config()
    doc["physics"].update(physics)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config({**doc, "experiment": experiment})
    if experiment == "verify-bch":
        parse_config(doc)  # the caps are bch_error's, not the Monte Carlo's
