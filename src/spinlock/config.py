"""Run configuration: JSON ingestion, validation, normalization.

A config file fully determines a run (together with the master seed); the
normalized form is echoed into every output header so results are
traceable to their exact inputs.  Validation is strict: unknown keys are
errors (with a nearest-key suggestion), grids must be nonempty and
strictly increasing.  User-facing units are ms / pT / Hz, matching lab
conventions; conversion to SI happens at run time, never in the config.
"""
from __future__ import annotations

import difflib
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .analytic import ORDERINGS
from .errors import ConfigError
from .montecarlo import INTEGRANDS, MAX_SEED
from .noise import GYRO_HZ_PER_NT, NoiseComponent
from .squeezing import SqueezeParams

EXPERIMENTS = (
    "contrast",
    "sensitivity",
    "verify-bch",
    "oracle-compare",
    "noise-preview",
)
FORMATS = ("csv", "json")
UNIT_TAGS = ("pT", "Hz", "Hz2-slow")
DEFAULT_SAMPLES = 2000
DEFAULT_SEED = 0
DEFAULT_BCH_GRID = (1e-3, 2e-3, 5e-3, 1e-2)
DEFAULT_PREVIEW_POINTS = 1001
GRID_EPS = 1e-9


def _unknown_keys(section: str, given: Mapping[str, Any], allowed: Sequence[str]):
    for key in given:
        if key not in allowed:
            close = difflib.get_close_matches(key, allowed, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown key {key!r} in {section}{hint}")


def _as_section(section: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{section} must be an object, got {value!r}")
    return value


def _require(section: str, given: Mapping[str, Any], key: str) -> Any:
    if key not in given:
        raise ConfigError(f"missing required key {key!r} in {section}")
    return given[key]


def _as_positive_int(section: str, key: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{section}.{key} must be >= 1, got {value}")
    return value


def _as_number(section: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return float(value)


def _as_ordering(section: str, key: str, value: Any) -> str:
    if value not in ORDERINGS:
        raise ConfigError(
            f"{section}.{key}: unknown ordering {value!r}, expected one of {ORDERINGS}"
        )
    return value


# the "compare" section: key -> (default, item parser); RunConfig field is
# compare_<key>
COMPARE_SECTION = {
    "n_atoms": ((1, 2, 3, 4), _as_positive_int),
    "alphas": ((0.0, 0.1, 0.3), _as_number),
    "betas": ((0.0, 0.4), _as_number),
    "gammas": ((0.0, 0.5), _as_number),
    "orderings": (ORDERINGS, _as_ordering),
}


def expand_grid(section: str, spec: Any) -> tuple[float, ...]:
    """A grid is an explicit strictly increasing list, or {start, stop, step}."""
    if isinstance(spec, Mapping):
        _unknown_keys(section, spec, ("start", "stop", "step"))
        start = _as_number(section, "start", _require(section, spec, "start"))
        stop = _as_number(section, "stop", _require(section, spec, "stop"))
        step = _as_number(section, "step", _require(section, spec, "step"))
        if step <= 0 or stop < start:
            raise ConfigError(f"{section}: need step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + GRID_EPS)) + 1
        values = tuple(start + i * step for i in range(count))
    elif isinstance(spec, Sequence) and not isinstance(spec, (str, bytes)):
        values = tuple(_as_number(section, f"[{i}]", v) for i, v in enumerate(spec))
    else:
        raise ConfigError(f"{section} must be a list or a start/stop/step object")
    if not values:
        raise ConfigError(f"{section} expands to an empty grid")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{section} must be strictly increasing")
    return values


@dataclass(frozen=True)
class NoiseSpec:
    """One configured tone, in its native units (converted at build time)."""

    units: str
    amplitude: float
    freq_hz: float
    phase: float | None = None
    gyro_hz_per_nt: float = GYRO_HZ_PER_NT

    def build(self) -> NoiseComponent:
        if self.units == "pT":
            return NoiseComponent.from_field_pt(
                self.amplitude, self.freq_hz, self.phase, self.gyro_hz_per_nt
            )
        if self.units == "Hz":
            return NoiseComponent(self.amplitude, self.freq_hz, self.phase)
        return NoiseComponent.from_slow_drift(self.amplitude, self.freq_hz, self.phase)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "units": self.units,
            "amplitude": self.amplitude,
            "freq_hz": self.freq_hz,
        }
        if self.phase is not None:
            out["phase"] = self.phase
        if self.units == "pT" and self.gyro_hz_per_nt != GYRO_HZ_PER_NT:
            out["gyro_hz_per_nt"] = self.gyro_hz_per_nt
        return out


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized description of one run."""

    experiment: str
    n_atoms: tuple[int, ...]
    n_photons: int
    g: float
    tau: float
    chi: float
    chi_is_override: bool
    squeeze_duration: float
    n_pulses: int
    tau_arm_grid_ms: tuple[float, ...] | None
    duration_grid_ms: tuple[float, ...] | None
    noise: tuple[NoiseSpec, ...]
    samples: int
    master_seed: int
    toggle: bool
    integrand: str
    threshold: float
    g_tau_grid: tuple[float, ...]
    preview_points: int
    output_path: str
    output_format: str
    compare_n_atoms: tuple[int, ...]
    compare_alphas: tuple[float, ...]
    compare_betas: tuple[float, ...]
    compare_gammas: tuple[float, ...]
    compare_orderings: tuple[str, ...]

    @property
    def alpha(self) -> float:
        return self.chi * self.squeeze_duration

    def components(self) -> list[NoiseComponent]:
        return [spec.build() for spec in self.noise]

    def to_dict(self) -> dict[str, Any]:
        """Normalized JSON-ready form; load(to_dict()) round-trips exactly."""
        physics: dict[str, Any] = {
            "n_atoms": list(self.n_atoms) if len(self.n_atoms) > 1 else self.n_atoms[0],
            "n_photons": self.n_photons,
            "g": self.g,
            "tau": self.tau,
            "squeeze_duration": self.squeeze_duration,
        }
        if self.chi_is_override:
            physics["chi_override"] = self.chi
        lockin: dict[str, Any] = {"n_pulses": self.n_pulses}
        if self.tau_arm_grid_ms is not None:
            lockin["tau_arm_grid_ms"] = list(self.tau_arm_grid_ms)
        if self.duration_grid_ms is not None:
            lockin["duration_grid_ms"] = list(self.duration_grid_ms)
        out: dict[str, Any] = {
            "experiment": self.experiment,
            "physics": physics,
            "lockin": lockin,
            "noise": [spec.to_dict() for spec in self.noise],
            "mc": {"samples": self.samples, "master_seed": self.master_seed},
            "toggle": self.toggle,
            "contrast_integrand": self.integrand,
            "threshold": self.threshold,
            "output": {"path": self.output_path, "format": self.output_format},
        }
        # sections below are emitted whenever they carry information, so
        # that parse(to_dict()) reproduces every field exactly
        if self.experiment == "verify-bch" or self.g_tau_grid != DEFAULT_BCH_GRID:
            out["bch"] = {"g_tau_grid": list(self.g_tau_grid)}
        if (
            self.experiment == "noise-preview"
            or self.preview_points != DEFAULT_PREVIEW_POINTS
        ):
            out["preview"] = {"n_points": self.preview_points}
        compare = {key: getattr(self, f"compare_{key}") for key in COMPARE_SECTION}
        if self.experiment == "oracle-compare" or any(
            compare[key] != default for key, (default, _) in COMPARE_SECTION.items()
        ):
            out["compare"] = {key: list(values) for key, values in compare.items()}
        return out

    def canonical_json(self) -> str:
        """Sorted compact JSON of the computation, used for the provenance
        hash and header echo.

        The output section is excluded: it names the artifact's destination
        and format, so two runs of the same computation written to different
        paths hash (and rerun) identically.
        """
        doc = self.to_dict()
        doc.pop("output", None)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


_TOP_KEYS = (
    "experiment",
    "physics",
    "lockin",
    "noise",
    "mc",
    "toggle",
    "contrast_integrand",
    "threshold",
    "output",
    "bch",
    "preview",
    "compare",
)


def parse_config(data: Mapping[str, Any]) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig with defaults filled."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _unknown_keys("config", data, _TOP_KEYS)

    experiment = _require("config", data, "experiment")
    if experiment not in EXPERIMENTS:
        close = difflib.get_close_matches(str(experiment), EXPERIMENTS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigError(f"unknown experiment {experiment!r}{hint}")

    physics = _as_section("physics", _require("config", data, "physics"))
    _unknown_keys(
        "physics",
        physics,
        ("n_atoms", "n_photons", "g", "tau", "chi_override", "squeeze_duration"),
    )
    raw_atoms = _require("physics", physics, "n_atoms")
    if isinstance(raw_atoms, Sequence) and not isinstance(raw_atoms, (str, bytes)):
        if experiment != "sensitivity":
            raise ConfigError(
                f"physics.n_atoms must be a single integer for {experiment}"
            )
        n_atoms = tuple(
            _as_positive_int("physics", f"n_atoms[{i}]", v)
            for i, v in enumerate(raw_atoms)
        )
        if not n_atoms:
            raise ConfigError("physics.n_atoms list must be nonempty")
        if len(set(n_atoms)) < len(n_atoms):
            # the curves are keyed by atom number, so a repeat would vanish
            raise ConfigError("physics.n_atoms must not repeat")
    else:
        n_atoms = (_as_positive_int("physics", "n_atoms", raw_atoms),)
    n_photons = _as_positive_int("physics", "n_photons", _require("physics", physics, "n_photons"))
    g = _as_number("physics", "g", _require("physics", physics, "g"))
    tau = _as_number("physics", "tau", _require("physics", physics, "tau"))
    squeeze_duration = _as_number(
        "physics", "squeeze_duration", _require("physics", physics, "squeeze_duration")
    )
    if g < 0 or tau < 0 or squeeze_duration < 0:
        raise ConfigError("physics.g, physics.tau, physics.squeeze_duration must be >= 0")
    chi_override = physics.get("chi_override")
    if chi_override is not None:
        chi = _as_number("physics", "chi_override", chi_override)
        if chi < 0:
            raise ConfigError(f"physics.chi_override must be >= 0, got {chi}")
        chi_is_override = True
    else:
        chi = SqueezeParams.from_g_tau(g, tau, n_photons).chi
        chi_is_override = False

    needs_lockin = experiment in ("contrast", "sensitivity", "noise-preview")
    lockin = data.get("lockin")
    n_pulses = 7
    tau_arm_grid = None
    duration_grid = None
    if lockin is None:
        if needs_lockin:
            raise ConfigError(f"missing required key 'lockin' for {experiment}")
    else:
        lockin = _as_section("lockin", lockin)
        _unknown_keys(
            "lockin", lockin, ("n_pulses", "tau_arm_grid_ms", "duration_grid_ms")
        )
        n_pulses = _as_positive_int(
            "lockin", "n_pulses", _require("lockin", lockin, "n_pulses")
        )
        if "tau_arm_grid_ms" in lockin:
            tau_arm_grid = expand_grid(
                "lockin.tau_arm_grid_ms", lockin["tau_arm_grid_ms"]
            )
        if "duration_grid_ms" in lockin:
            duration_grid = expand_grid(
                "lockin.duration_grid_ms", lockin["duration_grid_ms"]
            )
        if any(v <= 0 for v in (tau_arm_grid or ()) + (duration_grid or ())):
            raise ConfigError("lockin grids must contain positive times (ms)")
    if experiment == "contrast" and tau_arm_grid is None:
        raise ConfigError("contrast requires lockin.tau_arm_grid_ms")
    if experiment == "sensitivity" and duration_grid is None:
        raise ConfigError("sensitivity requires lockin.duration_grid_ms")
    if experiment == "noise-preview" and tau_arm_grid is None and duration_grid is None:
        raise ConfigError(
            "noise-preview requires a lockin grid to set the window length"
        )

    noise_specs: list[NoiseSpec] = []
    raw_noise = data.get("noise")
    if raw_noise is None:
        if needs_lockin:
            raise ConfigError(f"missing required key 'noise' for {experiment}")
        raw_noise = []
    if not isinstance(raw_noise, Sequence) or isinstance(raw_noise, (str, bytes)):
        raise ConfigError("noise must be a list of tone objects")
    for i, tone in enumerate(raw_noise):
        section = f"noise[{i}]"
        tone = _as_section(section, tone)
        _unknown_keys(
            section, tone, ("units", "amplitude", "freq_hz", "phase", "gyro_hz_per_nt")
        )
        units = _require(section, tone, "units")
        if units not in UNIT_TAGS:
            # cutoff 0.5 lets single-character case slips ("pt") match
            close = difflib.get_close_matches(str(units), UNIT_TAGS, n=1, cutoff=0.5)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(
                f"{section}.units {units!r} invalid, expected one of {UNIT_TAGS}{hint}"
            )
        amplitude = _as_number(section, "amplitude", _require(section, tone, "amplitude"))
        freq_hz = _as_number(section, "freq_hz", _require(section, tone, "freq_hz"))
        phase = tone.get("phase")
        if phase is not None:
            phase = _as_number(section, "phase", phase)
        gyro = tone.get("gyro_hz_per_nt", GYRO_HZ_PER_NT)
        if "gyro_hz_per_nt" in tone:
            if units != "pT":
                raise ConfigError(f"{section}.gyro_hz_per_nt only applies to pT tones")
            gyro = _as_number(section, "gyro_hz_per_nt", gyro)
        # checked before any unit conversion, so that an error names the
        # tone, its config key and the value as written
        if amplitude < 0:
            raise ConfigError(f"{section}.amplitude must be >= 0, got {tone['amplitude']!r}")
        if freq_hz <= 0:
            raise ConfigError(f"{section}.freq_hz must be > 0, got {tone['freq_hz']!r}")
        if gyro <= 0:
            raise ConfigError(
                f"{section}.gyro_hz_per_nt must be > 0, got {tone['gyro_hz_per_nt']!r}"
            )
        spec = NoiseSpec(units, amplitude, freq_hz, phase, gyro)
        try:
            spec.build()  # what is left: a converted amplitude that overflows
        except ConfigError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
        noise_specs.append(spec)

    mc = _as_section("mc", data.get("mc", {}))
    _unknown_keys("mc", mc, ("samples", "master_seed"))
    samples = _as_positive_int("mc", "samples", mc.get("samples", DEFAULT_SAMPLES))
    master_seed = mc.get("master_seed", DEFAULT_SEED)
    if isinstance(master_seed, bool) or not isinstance(master_seed, int):
        raise ConfigError(f"mc.master_seed must be an integer, got {master_seed!r}")
    if not 0 <= master_seed < MAX_SEED:
        raise ConfigError(f"mc.master_seed must be in [0, 2^64), got {master_seed}")

    toggle = data.get("toggle", True)
    if not isinstance(toggle, bool):
        raise ConfigError(f"toggle must be true or false, got {toggle!r}")
    integrand = data.get("contrast_integrand", "ramsey")
    if integrand not in INTEGRANDS:
        raise ConfigError(
            f"contrast_integrand {integrand!r} invalid; expected one of {INTEGRANDS}"
        )
    threshold = _as_number("config", "threshold", data.get("threshold", 0.9))
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0, 1), got {threshold}")

    bch = _as_section("bch", data.get("bch", {}))
    _unknown_keys("bch", bch, ("g_tau_grid",))
    if "g_tau_grid" in bch:
        g_tau_grid = expand_grid("bch.g_tau_grid", bch["g_tau_grid"])
        if any(v <= 0 for v in g_tau_grid):
            raise ConfigError("bch.g_tau_grid must contain positive values")
    else:
        g_tau_grid = DEFAULT_BCH_GRID

    preview = _as_section("preview", data.get("preview", {}))
    _unknown_keys("preview", preview, ("n_points",))
    preview_points = _as_positive_int(
        "preview", "n_points", preview.get("n_points", DEFAULT_PREVIEW_POINTS)
    )

    compare = _as_section("compare", data.get("compare", {}))
    _unknown_keys("compare", compare, tuple(COMPARE_SECTION))
    for key, values in compare.items():
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ConfigError(f"compare.{key} must be a list, got {values!r}")
    compare_fields = {
        f"compare_{key}": tuple(
            parse("compare", f"{key}[{i}]", v)
            for i, v in enumerate(compare.get(key, default))
        )
        for key, (default, parse) in COMPARE_SECTION.items()
    }
    if any(n > 4 for n in compare_fields["compare_n_atoms"]):
        raise ConfigError("compare.n_atoms limited to <= 4 (full-space oracle bound)")

    output = _as_section("output", data.get("output", {}))
    _unknown_keys("output", output, ("path", "format"))
    output_path = output.get("path", "-")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError(f"output.path must be a nonempty string, got {output_path!r}")
    output_format = output.get("format", "csv")
    if output_format not in FORMATS:
        raise ConfigError(
            f"output.format {output_format!r} invalid; expected one of {FORMATS}"
        )

    return RunConfig(
        experiment=experiment,
        n_atoms=n_atoms,
        n_photons=n_photons,
        g=g,
        tau=tau,
        chi=chi,
        chi_is_override=chi_is_override,
        squeeze_duration=squeeze_duration,
        n_pulses=n_pulses,
        tau_arm_grid_ms=tau_arm_grid,
        duration_grid_ms=duration_grid,
        noise=tuple(noise_specs),
        samples=samples,
        master_seed=master_seed,
        toggle=toggle,
        integrand=integrand,
        threshold=threshold,
        g_tau_grid=g_tau_grid,
        preview_points=preview_points,
        output_path=output_path,
        output_format=output_format,
        **compare_fields,
    )


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)
