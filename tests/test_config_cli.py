import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from spinlock import cli
from spinlock.config import EXPERIMENTS, expand_grid, load_config, parse_config
from spinlock.errors import ConfigError


def minimal_contrast(**overrides):
    doc = {
        "experiment": "contrast",
        "physics": {
            "n_atoms": 50,
            "n_photons": 50,
            "g": 1e6,
            "tau": 1e-10,
            "squeeze_duration": 1.6e-5,
        },
        "lockin": {"n_pulses": 7, "tau_arm_grid_ms": [4.0, 5.0, 6.0]},
        "noise": [
            {"units": "pT", "amplitude": 540, "freq_hz": 50},
            {"units": "pT", "amplitude": 390, "freq_hz": 100},
            {"units": "Hz2-slow", "amplitude": 40, "freq_hz": 2.1},
        ],
        "mc": {"samples": 50, "master_seed": 7},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_chi_is_derived_from_photon_coupling():
    cfg = parse_config(minimal_contrast())
    assert cfg.chi == pytest.approx(625.0, rel=1e-12)
    assert cfg.chi == pytest.approx(6.25e-4 * cfg.g, rel=1e-12)
    assert cfg.alpha == pytest.approx(0.01, rel=1e-12)
    assert not cfg.chi_is_override


def test_chi_override_wins():
    doc = minimal_contrast()
    doc["physics"]["chi_override"] = 100.0
    cfg = parse_config(doc)
    assert cfg.chi == 100.0
    assert cfg.chi_is_override


def test_missing_required_key_names_it():
    doc = minimal_contrast()
    del doc["physics"]["n_atoms"]
    with pytest.raises(ConfigError, match="n_atoms"):
        parse_config(doc)


def test_unknown_key_suggests_nearest():
    doc = minimal_contrast()
    doc["physics"]["n_atom"] = 5
    with pytest.raises(ConfigError, match="n_atoms"):
        parse_config(doc)


def test_unknown_units_suggests_nearest():
    doc = minimal_contrast()
    doc["noise"][0]["units"] = "pt"
    with pytest.raises(ConfigError, match="pT"):
        parse_config(doc)


def test_grid_expansion():
    values = expand_grid("grid", {"start": 1.0, "stop": 2.0, "step": 0.25})
    assert values == (1.0, 1.25, 1.5, 1.75, 2.0)
    with pytest.raises(ConfigError):
        expand_grid("grid", [1.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        expand_grid("grid", [3.0, 2.0])
    with pytest.raises(ConfigError):
        expand_grid("grid", [])


def test_atom_list_only_for_sensitivity():
    doc = minimal_contrast()
    doc["physics"]["n_atoms"] = [50, 300]
    with pytest.raises(ConfigError, match="n_atoms"):
        parse_config(doc)


def test_sensitivity_accepts_atom_list():
    doc = minimal_contrast(experiment="sensitivity")
    doc["physics"]["n_atoms"] = [50, 300, 500]
    doc["lockin"] = {"n_pulses": 7, "duration_grid_ms": [40.0, 80.0]}
    cfg = parse_config(doc)
    assert cfg.n_atoms == (50, 300, 500)


def test_round_trip_identity():
    docs = [
        minimal_contrast(),
        minimal_contrast(toggle=False, contrast_integrand="eq23", threshold=0.8),
        {
            "experiment": "verify-bch",
            "physics": {
                "n_atoms": 4,
                "n_photons": 4,
                "g": 1.0,
                "tau": 1e-2,
                "squeeze_duration": 0.0,
            },
            "bch": {"g_tau_grid": [1e-3, 1e-2]},
        },
        {
            "experiment": "oracle-compare",
            "physics": {
                "n_atoms": 3,
                "n_photons": 5,
                "g": 1.0,
                "tau": 1.0,
                "squeeze_duration": 0.0,
            },
            "compare": {"n_atoms": [1, 2], "orderings": ["product"]},
        },
        # a non-default compare section outside oracle-compare is kept too
        minimal_contrast(compare={"alphas": [0.2], "orderings": ["reversed", "single"]}),
    ]
    for doc in docs:
        cfg = parse_config(doc)
        again = parse_config(cfg.to_dict())
        assert cfg == again
        assert cfg.sha256() == again.sha256()


def test_config_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": }')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_output(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line
        else:
            rows.append(line)
    return comments, header, rows


def test_contrast_cli_writes_csv(tmp_path):
    cfg_path = write_config(tmp_path, minimal_contrast())
    out = tmp_path / "out.csv"
    assert run_cli(["contrast", "--config", cfg_path, "--output", out]) == 0
    comments, header, rows = read_output(out)
    assert header == "tau_arm_ms,contrast,stderr,n_atoms,alpha"
    assert len(rows) == 3
    assert any(c.startswith("config-sha256 ") for c in comments)
    first = rows[0].split(",")
    assert first[0] == "4"
    assert first[3] == "50"
    # 17 significant digits: values survive a parse round trip exactly
    for row in rows:
        for field in row.split(","):
            value = float(field)
            assert float(f"{value:.17g}") == value


def test_cli_is_thread_count_invariant(tmp_path):
    cfg_path = write_config(tmp_path, minimal_contrast())
    out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    assert run_cli(["contrast", "--config", cfg_path, "--output", out1, "--threads", 1]) == 0
    assert run_cli(["contrast", "--config", cfg_path, "--output", out8, "--threads", 8]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_cli_seed_override_changes_rows(tmp_path):
    cfg_path = write_config(tmp_path, minimal_contrast())
    base, reseeded = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["contrast", "--config", cfg_path, "--output", base]) == 0
    assert run_cli(["contrast", "--config", cfg_path, "--output", reseeded, "--seed", 99]) == 0
    rows_a = read_output(base)[2]
    rows_b = read_output(reseeded)[2]
    assert rows_a != rows_b
    # the echoed config reflects the effective seed
    comments = read_output(reseeded)[0]
    config_line = next(c for c in comments if c.startswith("config "))
    assert json.loads(config_line[len("config "):])["mc"]["master_seed"] == 99


def test_cli_no_toggle_flows_through(tmp_path):
    cfg_path = write_config(tmp_path, minimal_contrast())
    on, off = tmp_path / "on.csv", tmp_path / "off.csv"
    assert run_cli(["contrast", "--config", cfg_path, "--output", on]) == 0
    assert run_cli(["contrast", "--config", cfg_path, "--output", off, "--no-toggle"]) == 0
    assert read_output(on)[2] != read_output(off)[2]


def test_cli_rejects_mismatched_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, minimal_contrast())
    assert run_cli(["sensitivity", "--config", cfg_path]) == 2
    assert "experiment" in capsys.readouterr().err


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"experiment": "contrast"})
    assert run_cli(["contrast", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_bch_cli(tmp_path):
    doc = {
        "experiment": "verify-bch",
        "physics": {
            "n_atoms": 4,
            "n_photons": 4,
            "g": 1.0,
            "tau": 1e-2,
            "squeeze_duration": 0.0,
        },
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "bch.csv"
    assert run_cli(["verify-bch", "--config", cfg_path, "--output", out]) == 0
    comments, header, rows = read_output(out)
    assert header == "g_tau,bch_error"
    assert len(rows) == 4
    slope_line = next(c for c in comments if c.startswith("fitted-slope "))
    assert float(slope_line.split()[1]) == pytest.approx(3.0, abs=0.3)


def test_compare_section_validation():
    doc = minimal_contrast()
    assert "compare" not in parse_config(doc).to_dict()
    for compare in (
        {"orderings": ["product", "sideways"]},
        {"n_atoms": [1, 5]},
        {"betas": ["x"]},
        {"gamma": [0.0]},
    ):
        with pytest.raises(ConfigError):
            parse_config(minimal_contrast(compare=compare))


@pytest.mark.parametrize(
    "key, value, section",
    [
        ("physics", [1], "physics"),
        ("lockin", [1], "lockin"),
        ("noise", [[1]], "noise[0]"),
        ("mc", [1], "mc"),
        ("bch", [1], "bch"),
        ("preview", [1], "preview"),
        ("compare", [1], "compare"),
        ("compare", {"alphas": 0.1}, "compare.alphas"),
        ("output", "x.csv", "output"),
    ],
)
def test_section_of_wrong_type_is_a_config_error(tmp_path, capsys, key, value, section):
    doc = minimal_contrast(**{key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(section)} must be"):
        parse_config(doc)
    assert run_cli(["contrast", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section} must be")


def test_cli_tables_cover_exactly_the_experiments():
    assert set(cli.RUNNERS) == set(EXPERIMENTS)
    assert set(cli.CSV_COLUMNS) == set(EXPERIMENTS)


# config-sha256 of every shipped example; a change here re-keys published results
SHIPPED_CONFIG_SHA256 = {
    "contrast_squeezed.json": "fac8ab1d373ff62a279515e10c0e7c1be47fff7d3b540d670fefbd2b11d2ce3a",
    "contrast_unsqueezed.json": "36cae396a384bd29c28cca22f85e649d6a7ffbe31d0cd7e9cc41048821a5fc21",
    "noise_preview.json": "ca8d498b24ef5d3595d60622f9ff0eebc975930af4dc057fe5297d7b3d9702cc",
    "oracle_compare.json": "e810522d4a73fc675f576e7dac04f54bffbce940fe92fbca5cb53588bacd11c8",
    "sensitivity.json": "ebc6ea0522ca27137c31046873a5eeca7c555fc914040167251afb0af53fc9b5",
    "verify_bch.json": "8d8132765092bf6f7ae371c84253fb3996404c5136d86e4b27dfa51264c06f8e",
}


def test_shipped_config_hashes_are_stable():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    shipped = {p.name: load_config(str(p)).sha256() for p in config_dir.glob("*.json")}
    assert shipped == SHIPPED_CONFIG_SHA256


def test_oracle_compare_cli(tmp_path):
    doc = {
        "experiment": "oracle-compare",
        "physics": {
            "n_atoms": 3,
            "n_photons": 5,
            "g": 1.0,
            "tau": 1.0,
            "squeeze_duration": 0.0,
        },
        "compare": {
            "n_atoms": [1, 2],
            "alphas": [0.0, 0.1],
            "betas": [0.2],
            "gammas": [0.3],
            "orderings": ["product", "single"],
        },
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "cmp.csv"
    assert run_cli(["oracle-compare", "--config", cfg_path, "--output", out]) == 0
    _, header, rows = read_output(out)
    assert header.split(",") == [
        "n_atoms", "alpha", "beta", "gamma", "ordering", "quantity",
        "formula", "oracle", "abs_diff",
    ]
    assert len(rows) == 2 * 2 * 1 * 1 * 2 * 3


def test_noise_preview_cli_zero_noise(tmp_path):
    doc = {
        "experiment": "noise-preview",
        "physics": {
            "n_atoms": 2,
            "n_photons": 2,
            "g": 1.0,
            "tau": 1.0,
            "squeeze_duration": 0.0,
        },
        "lockin": {"n_pulses": 3, "tau_arm_grid_ms": [2.0]},
        "noise": [],
        "preview": {"n_points": 11},
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "preview.csv"
    assert run_cli(["noise-preview", "--config", cfg_path, "--output", out]) == 0
    _, header, rows = read_output(out)
    assert header == "t_s,noise_hz"
    assert len(rows) == 11
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_json_output_format(tmp_path):
    doc = minimal_contrast()
    doc["output"] = {"path": "-", "format": "json"}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    assert run_cli(["contrast", "--config", cfg_path, "--output", out]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["columns"] == ["tau_arm_ms", "contrast", "stderr", "n_atoms", "alpha"]
    assert len(parsed["rows"]) == 3
    assert parsed["config"]["mc"]["master_seed"] == 7


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("SPINLOCK_THREADS", "3")
    assert cli.resolve_threads(None) == 3
    assert cli.resolve_threads(2) == 2
    monkeypatch.setenv("SPINLOCK_THREADS", "zebra")
    with pytest.raises(Exception):
        cli.resolve_threads(None)


def test_cli_import_leaves_scipy_linalg_and_special_unloaded():
    import os
    import subprocess
    import sys

    import spinlock

    # A fresh interpreter, because this suite has long since imported scipy.
    # The child must import the same spinlock as this suite, however it was
    # put on the path (PYTHONPATH=src, an editable install, another cwd).
    package_root = os.path.dirname(os.path.dirname(spinlock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, spinlock.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
