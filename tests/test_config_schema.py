"""The config schema table and the canonical form it emits.

Every published `config-sha256` hashes `canonical_json()`, so the keys a
config leaves at their defaults must keep emitting exactly as they did when
the table replaced the per-key code.  The pinned strings below were taken
from that per-key code; the walk test makes sure a row added later at its
default cannot reach a hash.
"""
import json

import pytest

from spinlock import config
from spinlock.config import EXPERIMENTS, parse_config


def tone(**extra):
    return {"units": "pT", "amplitude": 1, "freq_hz": 50, **extra}


def physics(**extra):
    return {"n_atoms": 5, "n_photons": 5, "g": 1.0, "tau": 0.1, "squeeze_duration": 0.0, **extra}


def contrast(**top):
    doc = {
        "experiment": "contrast",
        "physics": physics(),
        "lockin": {"n_pulses": 7, "tau_arm_grid_ms": [1.0]},
        "noise": [tone()],
    }
    doc.update(top)
    return doc


def bare(experiment, **top):
    """A config with only the keys its experiment requires."""
    doc = {"experiment": experiment, "physics": physics(), **top}
    if experiment == "sensitivity":
        doc.update(lockin={"n_pulses": 7, "duration_grid_ms": [8.0]}, noise=[])
    elif experiment in ("contrast", "noise-preview"):
        doc.update(lockin={"n_pulses": 7, "tau_arm_grid_ms": [1.0]}, noise=[])
    return doc


MINIMAL = {experiment: bare(experiment) for experiment in EXPERIMENTS}

# configs that set, or leave at the default, what no shipped config does
FROZEN_CASES = {
    "integrand-eq23": contrast(contrast_integrand="eq23"),
    "mc-omitted": contrast(),
    "mc-samples": contrast(mc={"samples": 50}),
    "pinned-phase": contrast(
        noise=[tone(phase=0.5), {"units": "Hz", "amplitude": 2, "freq_hz": 9, "phase": 1}]
    ),
    "gyro-on-pT": contrast(noise=[tone(gyro_hz_per_nt=10.0), tone(gyro_hz_per_nt=28)]),
    "chi-override": contrast(physics=physics(chi_override=3.0)),
    "chi-override-null": contrast(physics=physics(chi_override=None)),
    "toggle-off": contrast(toggle=False),
    "threshold": contrast(threshold=0.8),
    "n-pulses": contrast(lockin={"n_pulses": 3, "tau_arm_grid_ms": [1.0]}),
    "sensitivity-one-atom-list": bare("sensitivity", physics=physics(n_atoms=[5])),
    "bch-grid": bare("verify-bch", bch={"g_tau_grid": [1e-3, 1e-2]}),
    "bch-omitted": bare("verify-bch"),
    "bch-outside": contrast(bch={"g_tau_grid": [1e-3, 1e-2]}),
    "bch-default-outside": contrast(bch={"g_tau_grid": [1e-3, 2e-3, 5e-3, 1e-2]}),
    "preview-points": bare("noise-preview", preview={"n_points": 11}),
    "preview-omitted": bare("noise-preview"),
    "preview-outside": contrast(preview={"n_points": 11}),
    "compare-omitted": bare("oracle-compare"),
    "compare-outside": contrast(compare={"alphas": [0.2]}),
    "compare-default-outside": contrast(compare={"betas": [0.0, 0.4]}),
    "null-lockin-and-noise": bare("verify-bch", lockin=None, noise=None),
    "output": contrast(output={"path": "x.json", "format": "json"}),
}

# canonical_json() and to_dict() key order of each case, taken from the
# per-key code the table replaced
PINNED = {
    'bch-default-outside': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'bch-grid': (
        '{"bch":{"g_tau_grid":[0.001,0.01]},"contrast_integrand":"ramsey","experiment":"verify-bch","lockin":{"n_pulses":7},"mc":{"master_seed":0,"samples":2000},"noise":[],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses noise mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format bch bch.g_tau_grid',
    ),
    'bch-omitted': (
        '{"bch":{"g_tau_grid":[0.001,0.002,0.005,0.01]},"contrast_integrand":"ramsey","experiment":"verify-bch","lockin":{"n_pulses":7},"mc":{"master_seed":0,"samples":2000},"noise":[],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses noise mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format bch bch.g_tau_grid',
    ),
    'bch-outside': (
        '{"bch":{"g_tau_grid":[0.001,0.01]},"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format bch bch.g_tau_grid',
    ),
    'chi-override': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"chi_override":3.0,"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration physics.chi_override lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'chi-override-null': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'compare-default-outside': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'compare-omitted': (
        '{"compare":{"alphas":[0.0,0.1,0.3],"betas":[0.0,0.4],"gammas":[0.0,0.5],"n_atoms":[1,2,3,4],"orderings":["product","single","reversed"]},"contrast_integrand":"ramsey","experiment":"oracle-compare","lockin":{"n_pulses":7},"mc":{"master_seed":0,"samples":2000},"noise":[],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses noise mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format compare compare.n_atoms compare.alphas compare.betas compare.gammas compare.orderings',
    ),
    'compare-outside': (
        '{"compare":{"alphas":[0.2],"betas":[0.0,0.4],"gammas":[0.0,0.5],"n_atoms":[1,2,3,4],"orderings":["product","single","reversed"]},"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format compare compare.n_atoms compare.alphas compare.betas compare.gammas compare.orderings',
    ),
    'gyro-on-pT': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"gyro_hz_per_nt":10.0,"units":"pT"},{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz noise[0].gyro_hz_per_nt noise[1].units noise[1].amplitude noise[1].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'integrand-eq23': (
        '{"contrast_integrand":"eq23","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'mc-omitted': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'mc-samples': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":50},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'n-pulses': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":3,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'null-lockin-and-noise': (
        '{"bch":{"g_tau_grid":[0.001,0.002,0.005,0.01]},"contrast_integrand":"ramsey","experiment":"verify-bch","lockin":{"n_pulses":7},"mc":{"master_seed":0,"samples":2000},"noise":[],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses noise mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format bch bch.g_tau_grid',
    ),
    'output': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'pinned-phase': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"phase":0.5,"units":"pT"},{"amplitude":2.0,"freq_hz":9.0,"phase":1.0,"units":"Hz"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz noise[0].phase noise[1].units noise[1].amplitude noise[1].freq_hz noise[1].phase mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'preview-omitted': (
        '{"contrast_integrand":"ramsey","experiment":"noise-preview","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"preview":{"n_points":1001},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format preview preview.n_points',
    ),
    'preview-outside': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"preview":{"n_points":11},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format preview preview.n_points',
    ),
    'preview-points': (
        '{"contrast_integrand":"ramsey","experiment":"noise-preview","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"preview":{"n_points":11},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format preview preview.n_points',
    ),
    'sensitivity-one-atom-list': (
        '{"contrast_integrand":"ramsey","experiment":"sensitivity","lockin":{"duration_grid_ms":[8.0],"n_pulses":7},"mc":{"master_seed":0,"samples":2000},"noise":[],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.duration_grid_ms noise mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'threshold': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.8,"toggle":true}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
    'toggle-off': (
        '{"contrast_integrand":"ramsey","experiment":"contrast","lockin":{"n_pulses":7,"tau_arm_grid_ms":[1.0]},"mc":{"master_seed":0,"samples":2000},"noise":[{"amplitude":1.0,"freq_hz":50.0,"units":"pT"}],"physics":{"g":1.0,"n_atoms":5,"n_photons":5,"squeeze_duration":0.0,"tau":0.1},"threshold":0.9,"toggle":false}',
        'experiment physics physics.n_atoms physics.n_photons physics.g physics.tau physics.squeeze_duration lockin lockin.n_pulses lockin.tau_arm_grid_ms noise noise[0].units noise[0].amplitude noise[0].freq_hz mc mc.samples mc.master_seed toggle contrast_integrand threshold output output.path output.format',
    ),
}


def key_order(doc, prefix=""):
    """Every key path of a to_dict() document, in emission order."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += key_order(value, f"{prefix}{key}.")
        elif key == "noise":
            for i, item in enumerate(value):
                paths += key_order(item, f"noise[{i}].")
    return paths


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_canonical_form_is_frozen(name):
    cfg = parse_config(FROZEN_CASES[name])
    canonical, order = PINNED[name]
    assert cfg.canonical_json() == canonical
    assert " ".join(key_order(cfg.to_dict())) == order
    assert parse_config(cfg.to_dict()) == cfg


def table_rows(table, prefix=""):
    """(dotted key, row, section) for every row of a table."""
    for key, entry in table.items():
        if isinstance(entry, config.Section):
            for path, row, _ in table_rows(entry.keys, f"{key}."):
                yield path, row, entry
        else:
            yield prefix + key, entry, None


ROWS = [*table_rows(config.SCHEMA), *table_rows(config.TONE, "noise.")]


def written_keys(cfg):
    """Dotted key of every value in canonical_json(), tone keys as noise.<key>."""
    paths = set()
    for key, value in json.loads(cfg.canonical_json()).items():
        if isinstance(value, dict):
            paths.update(f"{key}.{sub}" for sub in value)
        else:
            paths.add(key)
        if key == "noise":
            paths.update(f"noise.{sub}" for tone in value for sub in tone)
    return paths


def is_given(doc, path):
    section, _, key = path.rpartition(".")
    if section == "noise":
        return any(key in tone for tone in doc.get("noise") or ())
    return key in ((doc.get(section) or {}) if section else doc)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_key_at_its_default_is_not_hashed(experiment):
    # a key reaches canonical_json() only if it is required, set by the
    # config, set away from its default, or frozen in ALWAYS_WRITTEN; so a
    # row added later at its default cannot move a hash
    doc = MINIMAL[experiment]
    written = written_keys(parse_config(doc))
    assert written <= {path for path, _, _ in ROWS}
    for path, row, section in ROWS:
        frozen = path in config.ALWAYS_WRITTEN and (
            section is None or section.owner in (None, experiment)
        )
        if row.default is config.REQUIRED or frozen or is_given(doc, path):
            continue
        assert path not in written, (experiment, path)


def test_always_written_keys_are_rows_at_their_defaults():
    # frozen: the keys every published hash carries at their defaults
    assert config.ALWAYS_WRITTEN == {
        "noise", "mc.samples", "mc.master_seed", "toggle", "contrast_integrand", "threshold",
        "output.path", "output.format", "bch.g_tau_grid", "preview.n_points",
        "compare.n_atoms", "compare.alphas", "compare.betas", "compare.gammas", "compare.orderings",
    }
    assert config.ALWAYS_WRITTEN <= {path for path, _, _ in ROWS}
    for path, row, _ in ROWS:
        assert path not in config.ALWAYS_WRITTEN or row.default is not config.REQUIRED
