"""Command-line front end: config-driven sweeps with reproducible output.

Every run embeds its effective normalized config, the config hash and
library versions into the output header, so a result file is
self-describing.  Headers carry no timestamps or worker counts: rerunning
the same config and seed yields byte-identical files at any thread count.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__, analytic, montecarlo, squeezing
from .config import EXPERIMENTS, RunConfig, load_config
from .errors import EmptyRangeError, SpinlockError
from .lockin import LockInSchedule
from .montecarlo import McConfig, contrast_curve, measurement_range, sensitivity_curve
from .noise import resolve_phases, synth_noise

CSV_COLUMNS = {
    "contrast": ("tau_arm_ms", "contrast", "stderr", "n_atoms", "alpha"),
    "sensitivity": ("T_ms", "sensitivity_hz_per_sqrt_hz", "stderr", "n_atoms"),
    "verify-bch": ("g_tau", "bch_error"),
    "oracle-compare": (
        "n_atoms",
        "alpha",
        "beta",
        "gamma",
        "ordering",
        "quantity",
        "formula",
        "oracle",
        "abs_diff",
    ),
    "noise-preview": ("t_s", "noise_hz"),
}
# one printf template per row, a conversion per column of CSV_COLUMNS: %.17g
# for floats (the text of format(x, ".17g")), %d for counts, %s for labels
ROW_TEMPLATES = {
    "contrast": "%.17g,%.17g,%.17g,%d,%.17g\n",
    "sensitivity": "%.17g,%.17g,%.17g,%d\n",
    "verify-bch": "%.17g,%.17g\n",
    "oracle-compare": "%d,%.17g,%.17g,%.17g,%s,%s,%.17g,%.17g,%.17g\n",
    "noise-preview": "%.17g,%.17g\n",
}


def _fmt(value: float) -> str:
    """One comment value, always a float, as text; rows go through ROW_TEMPLATES."""
    return format(value, ".17g")


def _mc_config(cfg: RunConfig, n_atoms: int) -> McConfig:
    return McConfig(
        samples=cfg.samples,
        master_seed=cfg.master_seed,
        n_atoms=n_atoms,
        chi=cfg.chi,
        squeeze_duration=cfg.squeeze_duration,
    )


def _exact(cfg: RunConfig) -> bool:
    """Whether the contrasts are the closed-form mean (ramsey) or sampled
    (eq23, which has no closed form)."""
    return cfg.integrand == "ramsey"


def _estimator_line(cfg: RunConfig) -> str:
    return "estimator exact" if _exact(cfg) else f"estimator mc samples={cfg.samples}"


def run_contrast(cfg: RunConfig, threads: int):
    grid_s = [x * 1e-3 for x in cfg.tau_arm_grid_ms]
    curve = contrast_curve(
        cfg.components(),
        cfg.n_pulses,
        grid_s,
        _mc_config(cfg, cfg.n_atoms[0]),
        integrand=cfg.integrand,
        toggle=cfg.toggle,
        threads=threads,
        exact=_exact(cfg),
    )
    rows = [
        (p.x, p.estimate, p.stderr, cfg.n_atoms[0], cfg.alpha) for p in curve
    ]
    comments = [_estimator_line(cfg)]
    try:
        low, high = measurement_range(curve, cfg.threshold)
        comments.append(f"measurement-range-ms {_fmt(low)} {_fmt(high)}")
    except EmptyRangeError:
        comments.append("measurement-range-ms none")
    return rows, comments


def run_sensitivity(cfg: RunConfig, threads: int):
    grid_s = [x * 1e-3 for x in cfg.duration_grid_ms]
    curves = sensitivity_curve(
        cfg.components(),
        cfg.n_atoms,
        grid_s,
        cfg.n_pulses,
        _mc_config(cfg, cfg.n_atoms[0]),
        integrand=cfg.integrand,
        toggle=cfg.toggle,
        threads=threads,
        exact=_exact(cfg),
    )
    rows = []
    comments = [_estimator_line(cfg)]
    for n_atoms in cfg.n_atoms:
        curve = curves[n_atoms]
        rows.extend((p.x, p.estimate, p.stderr, n_atoms) for p in curve)
        best = min(curve, key=lambda p: p.estimate)
        comments.append(
            f"min-sensitivity n_atoms={n_atoms} value={_fmt(best.estimate)}"
            f" at_T_ms={_fmt(best.x)}"
        )
    return rows, comments


def run_verify_bch(cfg: RunConfig, threads: int):
    del threads  # bch_error builds no block: N_s/2 + 1 O(N) passes per grid point
    errors = []
    for g_tau in cfg.g_tau_grid:
        params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, cfg.n_photons)
        errors.append(squeezing.bch_error(params, cfg.n_photons, cfg.n_atoms[0]))
    rows = list(zip(cfg.g_tau_grid, errors))
    comments = []
    if len(rows) >= 2:
        slope = np.polyfit(np.log(cfg.g_tau_grid), np.log(errors), 1)[0]
        comments.append(f"fitted-slope {_fmt(float(slope))}")
    return rows, comments


def run_oracle_compare(cfg: RunConfig, threads: int):
    del threads
    rows = []
    for n_atoms in cfg.compare_n_atoms:
        reports = analytic.oracle_grid(
            n_atoms,
            cfg.compare_alphas,
            cfg.compare_betas,
            cfg.compare_gammas,
            cfg.compare_orderings,
        )
        cases = [
            (alpha, beta, gamma, ordering)
            for alpha in cfg.compare_alphas
            for beta in cfg.compare_betas
            for gamma in cfg.compare_gammas
            for ordering in cfg.compare_orderings
        ]
        for case, report in zip(cases, reports):
            for quantity in ("jx", "jz", "dphi"):
                entry = report[quantity]
                rows.append(
                    (
                        n_atoms,
                        *case,
                        quantity,
                        entry["formula"],
                        entry["oracle"],
                        entry["abs_diff"],
                    )
                )
    worst = max(
        (r for r in rows if math.isfinite(r[-1])), key=lambda r: r[-1], default=None
    )
    comments = []
    if worst is not None:
        comments.append(
            f"worst-abs-diff {_fmt(worst[-1])} at n_atoms={worst[0]}"
            f" alpha={_fmt(worst[1])} beta={_fmt(worst[2])}"
            f" gamma={_fmt(worst[3])} ordering={worst[4]} quantity={worst[5]}"
        )
    return rows, comments


def run_noise_preview(cfg: RunConfig, threads: int):
    del threads
    if cfg.tau_arm_grid_ms is not None:
        tau_arm = cfg.tau_arm_grid_ms[0] * 1e-3
    else:
        tau_arm = cfg.duration_grid_ms[0] * 1e-3 / (cfg.n_pulses + 1)
    schedule = LockInSchedule(n_pulses=cfg.n_pulses, tau_arm=tau_arm)
    components = cfg.components()
    # the generator of the Monte Carlo's point 0
    theta = resolve_phases(components, montecarlo._stream(cfg.master_seed, 0))
    times = np.linspace(0.0, schedule.total_duration, cfg.preview_points)
    if components:
        values = synth_noise(components, theta, times)
    else:
        values = np.zeros_like(times)
    rows = list(zip(times.tolist(), np.asarray(values, dtype=float).tolist()))
    return rows, []


RUNNERS = {
    "contrast": run_contrast,
    "sensitivity": run_sensitivity,
    "verify-bch": run_verify_bch,
    "oracle-compare": run_oracle_compare,
    "noise-preview": run_noise_preview,
}


def header_lines(cfg: RunConfig, extra_comments: Sequence[str]) -> list[str]:
    lines = [
        f"spinlock {__version__}",
        f"python {sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}"
        f" numpy {np.__version__}",
        f"config-sha256 {cfg.sha256()}",
        f"config {cfg.canonical_json()}",
    ]
    lines.extend(extra_comments)
    return lines


def write_csv(stream, cfg: RunConfig, rows, extra_comments: Sequence[str]) -> None:
    for line in header_lines(cfg, extra_comments):
        stream.write(f"# {line}\n")
    stream.write(",".join(CSV_COLUMNS[cfg.experiment]) + "\n")
    template = ROW_TEMPLATES[cfg.experiment]
    stream.write("".join([template % row for row in rows]))


def _json_cell(value):
    """A row cell for JSON, which has no NaN or infinity: those become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(stream, cfg: RunConfig, rows, extra_comments: Sequence[str]) -> None:
    doc = {
        "spinlock": __version__,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
        "numpy": np.__version__,
        "config_sha256": cfg.sha256(),
        "config": cfg.to_dict(),
        "notes": list(extra_comments),
        "columns": list(CSV_COLUMNS[cfg.experiment]),
        "rows": [[_json_cell(value) for value in row] for row in rows],
    }
    json.dump(doc, stream, indent=2, allow_nan=False)
    stream.write("\n")


def emit(cfg: RunConfig, rows, extra_comments: Sequence[str]) -> None:
    writer = write_csv if cfg.output_format == "csv" else write_json
    if cfg.output_path == "-":
        writer(sys.stdout, cfg, rows, extra_comments)
        return
    # opened only once the rows exist, so a failed run leaves no empty file
    try:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as handle:
            writer(handle, cfg, rows, extra_comments)
    except OSError as exc:
        raise SpinlockError(f"cannot write output {cfg.output_path!r}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The config file sets every input of a run; the options only say where
    its result goes and how many threads compute it.  Built once per process:
    parsing leaves the parser unchanged, so every run can share it."""
    parser = argparse.ArgumentParser(
        prog="spinlock",
        description="Phase-locked collective-spin magnetometry sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"run a {name} experiment from a config file")
        cmd.add_argument("--config", required=True, help="JSON config file path")
        cmd.add_argument(
            "--output",
            default=None,
            help="output path ('-' for stdout); default the config's output.path",
        )
        cmd.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker threads (speed only, never results); default 1",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.experiment != args.command:
            raise SpinlockError(
                f"config declares experiment {cfg.experiment!r} but the"
                f" {args.command!r} subcommand was invoked"
            )
        if args.output is not None:
            if not args.output:
                raise SpinlockError("--output must be a nonempty path or '-'")
            # the output section is not hashed, so nothing needs re-validating
            cfg = dataclasses.replace(cfg, output_path=args.output)
        if args.threads < 1:
            raise SpinlockError(f"thread count must be >= 1, got {args.threads}")
        rows, comments = RUNNERS[cfg.experiment](cfg, args.threads)
        emit(cfg, rows, comments)
    except SpinlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
