import argparse
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinlock import cli
from spinlock.config import (
    EXPERIMENTS,
    MAX_GRID_POINTS,
    expand_grid,
    load_config,
    parse_config,
)
from spinlock.errors import ConfigError, SpinlockError
from spinlock.lockin import phase_kernel_grid


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


@pytest.mark.parametrize(
    "spec",
    (
        {"start": 0, "stop": 1e300, "step": 1e-300},  # the count overflows a float
        {"start": 1, "stop": 1e15, "step": 1},  # finite, but no memory holds it
        {"start": 0, "stop": MAX_GRID_POINTS, "step": 1},  # one point past the cap
    ),
)
def test_grid_count_is_bounded_before_expansion(spec):
    with pytest.raises(ConfigError, match=r"^lockin\.tau_arm_grid_ms: .* more than"):
        expand_grid("lockin.tau_arm_grid_ms", spec)
    doc = minimal_contrast()
    doc["lockin"]["tau_arm_grid_ms"] = spec
    with pytest.raises(ConfigError, match=r"^lockin\.tau_arm_grid_ms: "):
        parse_config(doc)


def test_grid_at_the_point_cap_expands():
    spec = {"start": 1, "stop": MAX_GRID_POINTS, "step": 1}
    assert len(expand_grid("grid", spec)) == MAX_GRID_POINTS


def test_preview_point_count_has_the_grid_cap():
    doc = minimal_contrast(experiment="noise-preview")
    doc["preview"] = {"n_points": MAX_GRID_POINTS}
    assert parse_config(doc).preview_points == MAX_GRID_POINTS
    doc["preview"]["n_points"] += 1
    with pytest.raises(
        ConfigError, match=r"^preview\.n_points must be in \[1, 1000000\], got 1000001$"
    ):
        parse_config(doc)


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


def test_repeated_atom_number_is_a_config_error(tmp_path, capsys):
    doc = minimal_contrast(experiment="sensitivity")
    doc["physics"]["n_atoms"] = [50, 300, 50]
    doc["lockin"] = {"n_pulses": 7, "duration_grid_ms": [40.0, 80.0]}
    with pytest.raises(ConfigError, match="^physics.n_atoms must not repeat$"):
        parse_config(doc)
    assert run_cli(["sensitivity", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "error: physics.n_atoms must not repeat\n"


@pytest.mark.parametrize("units", ["Hz", "Hz2-slow"])
@pytest.mark.parametrize("gyro", [28, 28.0, 10.0])
def test_gyro_only_on_pt_tones(tmp_path, capsys, units, gyro):
    doc = minimal_contrast()
    doc["noise"][2] = {"units": units, "amplitude": 40, "freq_hz": 2.1, "gyro_hz_per_nt": gyro}
    with pytest.raises(ConfigError, match="^noise\\[2\\].gyro_hz_per_nt only applies to pT"):
        parse_config(doc)
    assert run_cli(["contrast", "--config", write_config(tmp_path, doc)]) == 2
    assert "gyro_hz_per_nt only applies to pT" in capsys.readouterr().err
    # on a pT tone the key stays legal, and the default value hashes as if absent
    doc = minimal_contrast()
    doc["noise"][0]["gyro_hz_per_nt"] = gyro
    same_hash = parse_config(doc).sha256() == parse_config(minimal_contrast()).sha256()
    assert same_hash == (gyro == 28)


@pytest.mark.parametrize("freq_hz", [0, -2.1])
def test_slow_drift_frequency_is_checked_before_dividing(tmp_path, capsys, freq_hz):
    # the tone amplitude is strength / freq_hz: 0 must not escape as a
    # ZeroDivisionError, nor a negative frequency be reported as a negative
    # amplitude
    doc = minimal_contrast(experiment="noise-preview")
    doc["noise"][2]["freq_hz"] = freq_hz
    with pytest.raises(ConfigError, match="^noise\\[2\\].freq_hz must be > 0, got "):
        parse_config(doc)
    assert run_cli(["noise-preview", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: noise[2].freq_hz must be > 0, got ")


@pytest.mark.parametrize(
    "tone, message",
    [
        ({"units": "pT", "amplitude": -5, "freq_hz": 50}, ".amplitude must be >= 0, got -5"),
        ({"units": "Hz", "amplitude": -0.5, "freq_hz": 50}, ".amplitude must be >= 0, got -0.5"),
        ({"units": "Hz2-slow", "amplitude": -40, "freq_hz": 2.1}, ".amplitude must be >= 0, got -40"),
        ({"units": "pT", "amplitude": 5, "freq_hz": 0}, ".freq_hz must be > 0, got 0"),
        ({"units": "Hz", "amplitude": 5, "freq_hz": -1.5}, ".freq_hz must be > 0, got -1.5"),
        (
            {"units": "pT", "amplitude": 5, "freq_hz": 50, "gyro_hz_per_nt": 0},
            ".gyro_hz_per_nt must be > 0, got 0",
        ),
        # finite inputs whose converted amplitude overflows still name the tone
        ({"units": "Hz2-slow", "amplitude": 1e300, "freq_hz": 1e-10}, ": amplitude_hz must be finite, got inf"),
    ],
    ids=["pT-amplitude", "Hz-amplitude", "slow-amplitude", "pT-freq", "Hz-freq", "gyro", "overflow"],
)
def test_tone_range_error_names_tone_key_and_configured_value(tmp_path, capsys, tone, message):
    doc = minimal_contrast()
    doc["noise"].append(tone)
    with pytest.raises(ConfigError, match=f"^noise\\[3\\]{re.escape(message)}$"):
        parse_config(doc)
    assert run_cli(["contrast", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: noise[3]{message}\n"


def test_tone_whose_phase_weight_overflows_is_a_config_error(tmp_path, capsys):
    # amplitude and frequency each pass their rows, but the phase kernel's
    # weight amplitude_hz / freq_hz is inf, which made NaN coefficients
    doc = minimal_contrast()
    doc["noise"].append({"units": "Hz", "amplitude": 1e300, "freq_hz": 1e-300})
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match="^noise\\[3\\]: amplitude_hz / freq_hz must be finite"):
        parse_config(doc)
    assert run_cli(["contrast", "--config", write_config(tmp_path, doc), "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: noise[3]: amplitude_hz / freq_hz must be finite, got inf\n"
    assert captured.out == ""
    assert not out.exists()


def test_tone_whose_phases_overflow_in_the_kernel_is_a_config_error(tmp_path, capsys):
    # amplitude_hz / freq_hz = 1e308 is finite, so the config parses; the
    # coefficients of order one that multiply it would make the phases inf
    doc = minimal_contrast()
    doc["noise"].append({"units": "Hz", "amplitude": 1e308, "freq_hz": 1})
    parse_config(doc)
    out = tmp_path / "out.csv"
    assert run_cli(["contrast", "--config", write_config(tmp_path, doc), "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: the tones' phase bound 8 (N+1) sum(amplitude_hz / freq_hz)")
    assert captured.err.endswith(" must be finite, got inf\n")
    assert captured.out == ""
    assert not out.exists()


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


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(minimal_contrast()).encode("utf-16-le"))
    with pytest.raises(ConfigError, match=f"^config {re.escape(repr(str(path)))} is not UTF-8"):
        load_config(str(path))
    assert run_cli(["contrast", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {str(path)!r} is not UTF-8")


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


def run_variants(tmp_path, docs):
    """Each config through the CLI: (rows, echoed config, estimator line)
    per run."""
    results = []
    for i, doc in enumerate(docs):
        out = tmp_path / f"run{i}.csv"
        cfg_path = write_config(tmp_path, doc, name=f"run{i}.json")
        assert run_cli(["contrast", "--config", cfg_path, "--output", out]) == 0
        comments, _, rows = read_output(out)
        config_line = next(c for c in comments if c.startswith("config "))
        estimator = next(c for c in comments if c.startswith("estimator "))
        results.append((rows, json.loads(config_line[len("config "):]), estimator))
    return results


def test_cli_seed_changes_rows(tmp_path):
    # the seed drives the sampled rows: eq23 under three random tones, whose
    # series does not converge; ramsey rows are the closed form
    reseeded = {"mc": {"samples": 50, "master_seed": 99}}
    eq23 = {"contrast_integrand": "eq23"}
    (eq23_a, echo_a, est_a), (eq23_b, echo_b, est_b), (ramsey_a, _, est_r), (ramsey_b, _, _) = (
        run_variants(
            tmp_path,
            [
                minimal_contrast(**eq23),
                minimal_contrast(**eq23, **reseeded),
                minimal_contrast(),
                minimal_contrast(**reseeded),
            ],
        )
    )
    assert est_a == est_b == "estimator mc samples=50" and est_r == "estimator exact"
    assert eq23_a != eq23_b
    assert ramsey_a == ramsey_b
    assert (echo_a["mc"]["master_seed"], echo_b["mc"]["master_seed"]) == (7, 99)


@pytest.mark.parametrize("name", ["contrast_squeezed.json", "sensitivity.json"])
def test_ramsey_rows_are_the_closed_form_with_stderr_zero(tmp_path, name):
    from scipy.special import j0

    path = Path(__file__).resolve().parent.parent / "configs" / name
    cfg = load_config(str(path))
    out = tmp_path / "out.csv"
    assert run_cli([cfg.experiment, "--config", path, "--output", out]) == 0
    comments, _, rows = read_output(out)
    assert "estimator exact" in comments
    rows = np.array([[float(v) for v in row.split(",")] for row in rows])
    finite = np.isfinite(rows[:, 1])  # a dead fringe's sensitivity and stderr are inf
    assert not rows[finite, 2].any() and (rows[~finite, 2] == math.inf).all()
    if cfg.experiment == "contrast":
        tau_arms = np.array(cfg.tau_arm_grid_ms) * 1e-3
    else:
        tau_arms = np.array(cfg.duration_grid_ms) * 1e-3 / (cfg.n_pulses + 1)
    a, b = phase_kernel_grid(cfg.components(), cfg.n_pulses, tau_arms, cfg.toggle)
    # no pinned tone, so beta0 = 0 and E[(c cos beta - s sin beta) / c] is
    # E[cos(sum_k r_k sin theta_k)] = prod_k J0(r_k)
    assert all(tone.phase is None for tone in cfg.components())
    contrast = np.prod(j0(np.hypot(a, b)), axis=-1)
    for i, n_atoms in enumerate(cfg.n_atoms):
        got = rows[i * tau_arms.size : (i + 1) * tau_arms.size, 1]
        if cfg.experiment == "contrast":
            np.testing.assert_allclose(got, contrast, rtol=0, atol=1e-13)
            continue
        dphi0 = 1.0 / (math.sqrt(n_atoms) * math.cos(cfg.alpha) ** (n_atoms - 1))
        t_cycle = cfg.squeeze_duration + (cfg.n_pulses + 1) * tau_arms
        want = dphi0 * np.sqrt(t_cycle) / (2 * math.pi * cfg.n_pulses * tau_arms) / contrast
        want[contrast <= 0] = math.inf
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_cli_no_toggle_flows_through(tmp_path):
    (rows_on, echo_on, _), (rows_off, echo_off, _) = run_variants(
        tmp_path, [minimal_contrast(), minimal_contrast(toggle=False)]
    )
    assert rows_on != rows_off
    assert (echo_on["toggle"], echo_off["toggle"]) == (True, False)


def subcommand_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for action in cmd._actions for s in action.option_strings}
        for name, cmd in sub.choices.items()
    }


def test_every_subcommand_takes_only_config_output_and_threads():
    # the config file sets every input of a run
    expected = {"-h", "--help", "--config", "--output", "--threads"}
    assert subcommand_options() == {name: expected for name in EXPERIMENTS}


@pytest.mark.parametrize("threads", [0, -1])
def test_thread_count_below_one_is_an_error(tmp_path, capsys, threads):
    cfg_path = write_config(tmp_path, minimal_contrast())
    assert run_cli(["contrast", "--config", cfg_path, "--threads", threads]) == 2
    assert capsys.readouterr().err == f"error: thread count must be >= 1, got {threads}\n"


def test_unwritable_output_is_an_error_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, minimal_contrast())
    out = tmp_path / "missing" / "out.csv"
    assert run_cli(["contrast", "--config", cfg_path, "--output", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output {str(out)!r}: ")
    assert run_cli(["contrast", "--config", cfg_path, "--output", ""]) == 2
    assert capsys.readouterr().err.startswith("error: --output must be a nonempty path")

    def failing_run(cfg, threads):
        raise SpinlockError("computation failed")

    # the destination is opened only after the rows exist
    monkeypatch.setitem(cli.RUNNERS, "contrast", failing_run)
    out = tmp_path / "never.csv"
    assert run_cli(["contrast", "--config", cfg_path, "--output", out]) == 2
    assert not out.exists()


def test_sampler_workspace_that_cannot_be_allocated_is_an_error_line(tmp_path):
    # three random tones refuse the eq23 series, so 10^12 samples per point
    # ask the sampler for a 7.3 TiB workspace.  The child caps its own
    # address space at 4 GiB, so the request fails there whatever the host
    # would overcommit
    doc = minimal_contrast(contrast_integrand="eq23")
    doc["mc"]["samples"] = 10**12
    out = tmp_path / "out.csv"
    argv = ["contrast", "--config", write_config(tmp_path, doc), "--output", str(out)]
    code = (
        "import contextlib, io, json, resource\n"
        "from spinlock import cli\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 2**32 if hard == resource.RLIM_INFINITY else min(2**32, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        f"    status = cli.main({argv!r})\n"
        "print(json.dumps([status, err.getvalue()]))"
    )
    status, err = json.loads(run_fresh_interpreter(code))
    assert status == 2
    assert err.startswith("error: mc.samples=1000000000000: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_ramsey_run_takes_any_sample_count_under_the_same_cap(tmp_path):
    # ramsey rows are the closed form and draw nothing, so config sets no
    # cap on mc.samples: 10^12 runs in a child held to 4 GiB
    doc = minimal_contrast()
    doc["mc"]["samples"] = 10**12
    out = tmp_path / "out.csv"
    argv = ["contrast", "--config", write_config(tmp_path, doc), "--output", str(out)]
    code = (
        "import json, resource\n"
        "from spinlock import cli\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 2**32 if hard == resource.RLIM_INFINITY else min(2**32, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        f"print(json.dumps(cli.main({argv!r})))"
    )
    assert json.loads(run_fresh_interpreter(code)) == 0
    few = tmp_path / "few.csv"
    assert run_cli(["contrast", "--config", write_config(tmp_path, minimal_contrast(), "few.json"),
                    "--output", few]) == 0
    _, header, rows = read_output(out)
    assert (header, rows) == read_output(few)[1:] and len(rows) == 3


def test_cli_rejects_mismatched_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, minimal_contrast())
    assert run_cli(["sensitivity", "--config", cfg_path]) == 2
    assert "experiment" in capsys.readouterr().err


def test_eq23_fringe_underflow_is_an_error_line_not_a_warning(tmp_path, capsys):
    # cos^(N-1) and sin^(N-1) both underflow at N = 5000, alpha = pi/4; the
    # run used to warn and then fail on a NaN stderr
    doc = minimal_contrast(contrast_integrand="eq23")
    doc["physics"]["n_atoms"] = 5000
    doc["physics"]["chi_override"] = math.pi / 4 / doc["physics"]["squeeze_duration"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["contrast", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: N=5000, alpha=0.785") and err.count("\n") == 1, err


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


def test_verify_bch_cli_at_the_photon_and_atom_limits(tmp_path):
    # (N_s, N) = (200, 10^4): the per-level blocks would hold 6.5 GB, the
    # 2x2 SU(2) images take a few MB; g tau N/2 <= 0.05 keeps it cubic
    import tracemalloc

    doc = {
        "experiment": "verify-bch",
        "physics": {
            "n_atoms": 10_000,
            "n_photons": 200,
            "g": 1.0,
            "tau": 1e-6,
            "squeeze_duration": 0.0,
        },
        "bch": {"g_tau_grid": [1e-6, 2e-6, 5e-6, 1e-5]},
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "bch.csv"
    tracemalloc.start()
    try:
        assert run_cli(["verify-bch", "--config", cfg_path, "--output", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak / 2**20
    comments, _, rows = read_output(out)
    assert len(rows) == 4
    slope_line = next(c for c in comments if c.startswith("fitted-slope "))
    assert float(slope_line.split()[1]) == pytest.approx(3.0, abs=0.05)


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
    # an empty list would run no case at all, like an empty grid
    for key in ("n_atoms", "alphas", "betas", "gammas", "orderings"):
        for experiment in ("contrast", "oracle-compare"):
            doc = minimal_contrast(experiment=experiment, compare={key: []})
            with pytest.raises(ConfigError, match=f"^compare.{key} list must be nonempty$"):
                parse_config(doc)


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


def test_noise_preview_phases_come_from_point_zero_stream():
    # one bit generator: a random tone's preview phase is the next uniform of
    # the Monte Carlo's point-0 PCG64 stream, times 2 pi; a pinned one keeps
    # its phase and draws nothing
    doc = minimal_contrast(experiment="noise-preview")
    doc["mc"] = {"master_seed": 77}
    doc["noise"] = [
        {"units": "Hz", "amplitude": 3.0, "freq_hz": 50.0},
        {"units": "Hz", "amplitude": 2.0, "freq_hz": 70.0, "phase": 0.4},
        {"units": "Hz", "amplitude": 1.0, "freq_hz": 110.0},
    ]
    doc["preview"] = {"n_points": 9}
    cfg = parse_config(doc)
    rows, _ = cli.run_noise_preview(cfg, 1)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((77, 0))))
    theta = [gen.uniform(0.0, 2.0 * np.pi), 0.4, gen.uniform(0.0, 2.0 * np.pi)]
    times = np.array([t for t, _ in rows])
    want = sum(
        tone.amplitude_hz * np.cos(phase + 2.0 * np.pi * tone.freq_hz * times)
        for tone, phase in zip(cfg.components(), theta)
    )
    assert [v for _, v in rows] == want.tolist()


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


def test_json_output_writes_undefined_cells_as_null(tmp_path):
    # at alpha = 0, beta = pi/2 the printed dphi sits on a fringe node: NaN,
    # which JSON (RFC 8259) cannot hold, so the cell is null
    doc = json.loads((Path(__file__).parent.parent / "configs" / "oracle_compare.json").read_text())
    doc["compare"].update(alphas=[0.0], betas=[math.pi / 2])
    doc["output"] = {"path": "-", "format": "json"}
    out = tmp_path / "out.json"
    assert run_cli(["oracle-compare", "--config", write_config(tmp_path, doc), "--output", out]) == 0

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    parsed = json.loads(out.read_text(), parse_constant=reject)
    columns = parsed["columns"]
    dphi = [row for row in parsed["rows"] if row[columns.index("quantity")] == "dphi"]
    assert dphi and all(row[columns.index("formula")] is None for row in dphi)
    assert all(row[columns.index("abs_diff")] is None for row in dphi)
    assert all(
        isinstance(value, float) for row in parsed["rows"] for value in row[6:] if value is not None
    )
    # CSV keeps the %.17g text of the same cells
    doc["output"] = {"path": "-", "format": "csv"}
    csv = tmp_path / "out.csv"
    assert run_cli(["oracle-compare", "--config", write_config(tmp_path, doc), "--output", csv]) == 0
    assert ",dphi,nan," in csv.read_text()


def run_fresh_interpreter(code):
    """Run code in a new interpreter that imports this suite's spinlock; its stdout."""
    import os
    import subprocess
    import sys

    import spinlock

    # The child must import the same spinlock as this suite, however it was
    # put on the path (PYTHONPATH=src, an editable install, another cwd).
    package_root = os.path.dirname(os.path.dirname(spinlock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def scipy_modules_loaded_by(code):
    """Every scipy module loaded in a fresh interpreter running code."""
    # a fresh interpreter, because this suite has long since imported scipy
    return run_fresh_interpreter(
        code + "; import sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )


def test_runs_in_one_process_write_what_separate_runs_write(tmp_path):
    # build_parser is built once per process and shared by every cli.main call
    physics = {"n_atoms": 4, "n_photons": 4, "g": 1.0, "tau": 1e-2, "squeeze_duration": 0.0}
    bch = write_config(tmp_path, {"experiment": "verify-bch", "physics": physics}, "bch.json")
    preview = write_config(
        tmp_path,
        {
            "experiment": "noise-preview",
            "physics": physics,
            "lockin": {"n_pulses": 3, "tau_arm_grid_ms": [2.0]},
            "noise": [{"units": "pT", "amplitude": 5, "freq_hz": 50, "phase": 0.5}],
            "preview": {"n_points": 21},
        },
        "preview.json",
    )
    runs = [
        ("bch.csv", ["verify-bch", "--config", bch, "--threads", "2"]),
        ("preview.csv", ["noise-preview", "--config", preview]),
    ]
    for name, argv in runs:  # one after the other in this process
        assert run_cli([*argv, "--output", tmp_path / f"one-{name}"]) == 0
    for name, argv in runs:  # each in a new interpreter
        argv = [*argv, "--output", str(tmp_path / f"each-{name}")]
        run_fresh_interpreter(f"import spinlock.cli; assert spinlock.cli.main({argv!r}) == 0")
    for name, _ in runs:
        assert (tmp_path / f"one-{name}").read_bytes() == (tmp_path / f"each-{name}").read_bytes()
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_leaves_scipy_unloaded():
    assert scipy_modules_loaded_by("import spinlock.cli") == "[]"
    # nor the thread pool, which only a run with threads > 1 imports
    code = "import spinlock.cli, sys; print('concurrent.futures' in sys.modules)"
    assert run_fresh_interpreter(code) == "False"


def test_loading_every_shipped_config_leaves_difflib_unloaded():
    # only a rejected key or value asks difflib for a hint
    root = Path(__file__).resolve().parent.parent
    paths = [
        str(p) for d in ("configs", "perfbench/configs") for p in sorted((root / d).glob("*.json"))
    ]
    code = (
        f"import sys; from spinlock.config import load_config; "
        f"[load_config(p) for p in {paths!r}]; print('difflib' in sys.modules)"
    )
    assert run_fresh_interpreter(code) == "False"


def test_every_subcommand_leaves_scipy_unloaded(tmp_path):
    # scipy is a test-only dependency: no shipped config may need it
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    runs = [
        [load_config(str(path)).experiment, "--config", str(path),
         "--output", str(tmp_path / f"{path.stem}.csv")]
        for path in sorted(config_dir.glob("*.json"))
    ]
    assert {argv[0] for argv in runs} == set(EXPERIMENTS)
    code = f"import spinlock.cli; assert all(spinlock.cli.main(a) == 0 for a in {runs!r})"
    assert scipy_modules_loaded_by(code) == "[]"


def test_dicke_path_leaves_scipy_unloaded():
    code = (
        "from spinlock import dicke, squeezing; "
        "dicke.schedule_expectations("
        "2000, [dicke.PulseStep('jz2', 0.01), dicke.PulseStep('jx', 0.3)]); "
        "squeezing.bch_error(squeezing.SqueezeParams.from_g_tau(1.0, 1e-2, 4), 4, 4); "
        "from spinlock import analytic; "
        "analytic.oracle_grid(3, (0.0, 0.1), (0.4,), (0.0, 0.5)); "
        "analytic.oracle_grid(4, (0.0, 0.3), (0.0, 0.8), (0.0, 0.5), ('single',)); "
        "[dicke.full_space_oracle(n, [dicke.PulseStep(g, 0.3) for g in dicke.GENERATOR_NAMES])"
        " for n in (1, 2, 3, 4)]"
    )
    assert scipy_modules_loaded_by(code) == "[]"


def old_fmt(value) -> str:
    """The CSV cell formatter before its float fast path, kept as the reference."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def test_csv_cells_keep_their_text():
    # every comment value is a float, plain or numpy's
    values = [
        0.1, 1 / 3, 1e300, 5e-324, -0.0, 0.0, math.nan, math.inf, -math.inf,
        np.float64(2.5), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
    ]
    for value in values:
        assert cli._fmt(value) == old_fmt(value), repr(value)


def test_row_templates_give_each_cell_its_text():
    # a row is one printf call; each conversion must give the text the cell
    # formatter gives, on every shipped config's rows and on edge values
    edge = {
        "%.17g": (0.1, 1 / 3, 1e300, 5e-324, -0.0, 7.0, math.nan, math.inf, -math.inf,
                  np.float64(2.5), np.float64(-0.0), np.float64(math.nan)),
        "%d": (0, 7, 10_000, np.int64(3)),
        "%s": ("single", "reversed", "dphi"),
    }
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    seen = set()
    for path in sorted(config_dir.glob("*.json")):
        cfg = load_config(str(path))
        rows, _ = cli.RUNNERS[cfg.experiment](cfg, 1)
        template = cli.ROW_TEMPLATES[cfg.experiment]
        conversions = template.rstrip("\n").split(",")
        assert len(conversions) == len(cli.CSV_COLUMNS[cfg.experiment])
        assert rows
        for row in rows:
            assert template % row == ",".join(map(old_fmt, row)) + "\n", row
        for column, conversion in enumerate(conversions):
            for value in edge[conversion]:
                row = rows[0][:column] + (value,) + rows[0][column + 1 :]
                assert template % row == ",".join(map(old_fmt, row)) + "\n", row
        seen.add(cfg.experiment)
    assert seen == set(cli.ROW_TEMPLATES) == set(cli.CSV_COLUMNS)
